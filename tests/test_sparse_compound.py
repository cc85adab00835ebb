"""Sparse square tables read as their structural nonzeros, from a plan per zero pattern.

matcore._pattern_plan lists, once for each zero pattern of A, the entries
of every Laplace level that are structurally nonzero and their terms;
matcore._sparse_minors redoes only the arithmetic, each entry 0.0 plus its
terms in the table's order, so every nonzero equals the dense kernel's
(matcore._minors) bit for bit.  One gate, matcore._minor_values, admits A
(square, 2 <= k <= _LAPLACE_MAX_ORDER, r^2 > _LEVEL_BLOCK, and at most
r^2 / _NONZERO_BREAK_EVEN structural nonzeros, the exact count of its
plan's top level).  matcore._minor_table writes what it admits into zeros,
and stability._certify, which calls the gate once, reads it with no r x r
array, applying it through the rows of the table the plan holds
(plan.csr); every table, certificate
and verdict equals the dense kernel's path, which the tests reach by
refusing the gate (the dense_kernel fixture), a certificate bit for bit
where that path's table is applied over its positive entries
(table_reference).  matcore._admitted_plan
refuses an A with few zeros with no build, looks a pattern up before it
builds anything, and keeps a plan by the bytes of its arrays and a refusal
as None; matcore._pattern_plan caps each build at the table's price and
refuses it on a lower bound of the count once a level is built, and on
the exact count at the end.
"""

import functools
import math
from fractions import Fraction
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import test_kernel
from kposi import (
    CertificationFailure,
    CyclicSpec,
    DomainError,
    KDiagCertificate,
    analyze_cyclic,
    build_cyclic,
    certify_k_diag_stability,
    classify_sign_regularity,
    is_k_positive_system,
    matcore,
    minor_table,
    stability,
)
from kposi.stability import COMPOUND_NOT_SCHUR, NOT_SIGN_REGULAR
from test_neumann import lu_chain
from test_stein_enclosure import MARGIN_RTOL, certify_chain, certify_large_pool, smallest_eigenvalue, stein_gap
from test_stein_enclosure import over_positive  # noqa: F401 (fixture)


@pytest.fixture
def plans(monkeypatch, cold_caches):
    """plans.calls records (n, k) of each plan matcore._admitted_plan hands
    out, kept or built; plans.builds() counts the plans built afresh
    (matcore._pattern_plan): one for each pattern kept, and one for each
    call of a plan too large to keep."""
    calls, builds = [], []
    admitted, build = matcore._admitted_plan, matcore._pattern_plan

    def counted(nonzero, k):
        plan = admitted(nonzero, k)
        if plan is not None:
            calls.append((nonzero.shape[0], k))
        return plan

    monkeypatch.setattr(matcore, "_admitted_plan", counted)
    monkeypatch.setattr(matcore, "_pattern_plan", lambda *args: builds.append(args) or build(*args))
    return SimpleNamespace(calls=calls, builds=lambda: len(builds))


@pytest.fixture
def pattern_reads(monkeypatch):
    """Records what each of certify's calls of the gate,
    matcore._minor_values, gave: (plan, values) where it admitted A, else
    None."""
    reads, original = [], stability._minor_values

    def recorded(A, k):
        plan, values = original(A, k)
        reads.append(None if plan is None else (plan, values))
        return plan, values

    monkeypatch.setattr(stability, "_minor_values", recorded)
    return reads


@pytest.fixture
def every_count(monkeypatch, cold_caches):
    """The gate's cap on a pattern's count raised to r^2, as many entries as
    the table holds, so that _sparse_minors admits every A whose plan's
    build fits the table's price; the plans kept meanwhile are dropped."""
    monkeypatch.setattr(matcore, "_NONZERO_BREAK_EVEN", 1)


def assert_matches_table(A, k):
    """_sparse_minors(A, k), under every_count, against the dense kernel's
    table: its entries in row-major order, each once, every nonzero of the
    table among them, every nonzero value the table's bit for bit and every
    other value zero, as the table is there.  Returns (flat, values)."""
    plan, values = matcore._sparse_minors(A, k)
    flat = plan.flat
    T = matcore._minors(A, k).ravel()
    assert np.all(np.diff(flat) > 0)
    assert np.isin(np.flatnonzero(T), flat).all()
    nonzero = values != 0.0
    assert values[nonzero].tobytes() == T[flat][nonzero].tobytes()
    assert not T[flat][~nonzero].any()
    return flat, values


def terms_per_entry(A, k):
    """The number of terms of each top-level entry of A's pattern plan."""
    n = A.shape[0]
    plan = matcore._pattern_plan(n, k, np.packbits(A != 0.0).tobytes())
    size, terms = plan.levels[-1]
    return np.bincount(np.concatenate([entry for entry, _, _ in terms]), minlength=size)


def random_pattern(rng):
    """A mixed-sign n x n matrix, n = 8..13, with 20-60% of its entries
    nonzero, and an order k = 2..6."""
    n, k = int(rng.integers(8, 14)), int(rng.integers(2, 7))
    mask = rng.uniform(size=(n, n)) < rng.uniform(0.2, 0.6)
    return rng.standard_normal((n, n)) * mask, k


def even_corner_chain(seed):
    """A certify-large chain with its corner negated: at k = 5 its minors
    take both signs."""
    A = certify_large_pool(seed)[0]
    A[-1, 0] = -A[-1, 0]
    return A


@pytest.mark.usefixtures("every_count")
class TestSparseMinors:
    @pytest.mark.parametrize("seed", range(10))
    def test_certify_large_chains(self, seed):
        for A in certify_large_pool(seed):
            flat, values = assert_matches_table(A, 5)
            assert flat.size == 14688 and np.count_nonzero(values) == 14688

    def test_chain12(self):
        assert_matches_table(test_kernel.chain12(), 5)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_mixed_sign_patterns(self, seed, monkeypatch):
        # the builds of the denser patterns pass the table's price, which
        # refuses them (TestBuildCap): here the price admits every build,
        # so the arithmetic is checked on every pattern
        A, k = random_pattern(np.random.default_rng([seed, 31]))
        monkeypatch.setattr(matcore, "_table_bytes", lambda *shape: 1 << 62)
        assert_matches_table(A, k)
        assert terms_per_entry(A, k).max() >= 2

    def test_a_structural_entry_that_cancels_to_zero(self):
        # rows 0 and 1 are equal on columns 0 and 1: the 2-minor they make
        # has two nonzero terms, 1 * 2 - 2 * 1, and is exactly zero
        A = 0.5 * np.eye(8)
        A[0, :2] = A[1, :2] = [1.0, 2.0]
        flat, values = assert_matches_table(A, 2)
        (at,) = np.flatnonzero(flat == 0)
        assert values[at] == 0.0 and not np.signbit(values[at])
        assert terms_per_entry(A, 2)[at] == 2

    def test_a_structural_zero_is_never_negative(self):
        # -1e-200 * 1e-200 underflows to -0.0, the only nonzero term of its
        # entry; as every entry is 0.0 plus its terms, the entry is 0.0,
        # where the kernel's full expansion gives -0.0
        A = 0.5 * np.eye(8)
        A[0, 0], A[1, 1] = -1e-200, 1e-200
        flat, values = assert_matches_table(A, 2)
        assert values[np.flatnonzero(flat == 0)[0]] == 0.0
        assert np.signbit(matcore._minors(A, 2)[0, 0])
        assert not np.signbit(values[values == 0.0]).any()

    @pytest.mark.parametrize("A", [np.zeros((12, 12)), np.outer(np.ones(12), np.eye(12)[3])],
                             ids=["zero", "one-column"])
    def test_an_all_zero_compound(self, A):
        flat, values = assert_matches_table(A, 5)
        assert flat.size == values.size == 0

    def test_a_compound_beyond_the_float_range_is_refused_as_before(self, dense_kernel, pattern_reads):
        # the top level overflows: _sparse_minors gives None, and the table,
        # built after all, raises today's DomainError
        A = 1e80 * test_kernel.chain12()
        assert matcore._sparse_minors(A, 5) is None
        with pytest.raises(DomainError) as patterned:
            certify_k_diag_stability(A, 5)
        with pytest.raises(DomainError) as dense:
            dense_kernel(lambda: certify_k_diag_stability(A, 5))
        assert str(patterned.value) == str(dense.value) == (
            "minors beyond the float range: the table has NaN or infinite entries"
        )
        assert pattern_reads == [None]


class TestPlanCache:
    def test_one_build_per_pattern(self, plans):
        # every certify-large chain has the pattern of chain12; an added
        # entry makes a new one
        chains = [test_kernel.chain12(), *certify_large_pool(0), *certify_large_pool(1)]
        for A in chains:
            certify_k_diag_stability(A, 5)
        assert len(plans.calls) == len(chains) and plans.builds() == 1
        A = chains[0].copy()
        A[0, 2] = 0.01
        assert isinstance(certify_k_diag_stability(A, 5), KDiagCertificate)
        assert len(plans.calls) == len(chains) + 1 and plans.builds() == 2

    def test_plan_arrays_are_read_only(self, plans):
        A = test_kernel.chain12()
        plan = matcore._pattern_plan(12, 5, np.packbits(A != 0.0).tobytes())
        arrays = [plan.entries, plan.flat, *(a for _, terms in plan.levels for term in terms for a in term),
                  plan.csr.cols, plan.csr.counts, plan.csr.rows, plan.csr.starts]
        assert not any(a.flags.writeable for a in arrays)
        assert sum(a.nbytes for a in arrays) == sum(a.nbytes for a in plan.arrays())

    def test_a_plan_is_kept_by_the_bytes_it_holds(self, plans):
        # the 14 x 14 chain at k = 5, two entries a row, with 40964
        # structural top entries: its plan holds 1.94 MB, under the 6.25 MB
        # an entry may take, and two calls build it once
        A = certify_chain(np.random.default_rng([0, 33]), 14)
        first = matcore._minor_table(A, 5)
        second = matcore._minor_table(A, 5)
        assert first.tobytes() == second.tobytes()
        # the second call, a hit, decides on the count of the kept plan
        assert plans.builds() == 1 and len(plans.calls) == 2
        plan, = matcore._PATTERN_PLANS.values()
        assert plan.flat.size == 40964
        assert matcore._cacheable(sum(a.nbytes for a in plan.arrays()))

    @pytest.mark.parametrize("k, zeros, builds", [(4, 0, 0), (4, 1, 0), (4, 8, 0), (4, 9, 1),
                                                  (5, 0, 0), (5, 1, 0), (5, 5, 0), (5, 6, 1)])
    def test_a_pattern_with_few_zeros_builds_nothing(self, k, zeros, builds, plans):
        # every 4- or 5-minor free of zeros is structurally nonzero, and a
        # zero sits in C(11,k-1)^2 of them: with at most eight zeros at
        # k = 4 and five at k = 5 the count is above r^2 / 16, and the
        # pattern is refused with no build and nothing kept; with one zero
        # more it is built, refused there, and the refusal kept
        A = np.random.default_rng(34).standard_normal((12, 12))
        A.ravel()[np.random.default_rng(zeros).permutation(144)[:zeros]] = 0.0
        assert matcore._minor_values(A, k)[0] is None
        assert matcore._minor_table(A, k).tobytes() == matcore._minors(A, k).tobytes()
        assert plans.builds() == builds and plans.calls == []
        assert list(matcore._PATTERN_PLANS.values()) == [None] * builds

    def test_the_cache_keeps_the_last_64_patterns(self, plans):
        # chain12 with one more entry a pattern, at k = 3 (r = 220, a table
        # of more than one level block): 65 patterns keep the last 64, and
        # the first is built again
        patterns = []
        for i, j in zip(*np.nonzero(test_kernel.chain12() == 0.0)):
            A = test_kernel.chain12()
            A[i, j] = 0.01
            patterns.append(A)
            if len(patterns) == 65:
                break
        for A in patterns:
            matcore._minor_table(A, 3)
        assert plans.builds() == 65 and len(matcore._PATTERN_PLANS) == 64
        matcore._minor_table(patterns[-1], 3)
        assert plans.builds() == 65
        matcore._minor_table(patterns[0], 3)
        assert plans.builds() == 66 and len(plans.calls) == 67

    def test_a_dense_gaussian_never_reaches_the_plan(self, plans, pattern_reads):
        # fully nonzero: the gate refuses it with no build
        A = np.random.default_rng(31).standard_normal((12, 12))
        certify_k_diag_stability(A, 5)
        assert pattern_reads == [None] and plans.calls == [] and plans.builds() == 0

    def test_certify_reaches_the_gate_once_a_call(self, monkeypatch):
        # a pattern the gate refuses: certify's one call of
        # matcore._minor_values asks for the pattern's values once, then
        # builds the dense table
        asked, sparse_minors = [], matcore._sparse_minors
        monkeypatch.setattr(matcore, "_sparse_minors", lambda A, k: asked.append(k) or sparse_minors(A, k))
        A = np.random.default_rng(31).standard_normal((12, 12))
        for _ in range(3):
            certify_k_diag_stability(A, 5)
        assert asked == [5, 5, 5]

    def test_no_table_within_one_level_block_reaches_the_plan(self, plans, pattern_reads):
        rng = np.random.default_rng([0, 32])
        for n in range(2, 13):
            A = certify_chain(rng, n)
            for k in range(1, n):
                if math.comb(n, k) ** 2 <= matcore._LEVEL_BLOCK:
                    certify_k_diag_stability(A, k)
        assert len(pattern_reads) > 50 and not any(pattern_reads)
        assert plans.calls == []


def chain12_and(extra):
    """chain12 with `extra` more entries of 0.01, at zeros drawn by a seeded
    permutation."""
    A = test_kernel.chain12()
    zeros = np.argwhere(A == 0.0)
    for i, j in zeros[np.random.default_rng([0, 34]).permutation(len(zeros))[:extra]]:
        A[i, j] = 0.01
    return A


class TestExactCount:
    """The gate admits a pattern on the exact count of its plan's top level,
    at most r^2 / _NONZERO_BREAK_EVEN, and keeps what it decided."""

    @pytest.mark.parametrize("case, k, count", [("chain12", 6, 24752), ("chain12", 7, 27456),
                                                ("chain12 and five entries", 5, 30826)])
    def test_patterns_the_former_bound_refused_are_admitted(self, case, k, count, plans):
        # the bound from the row counts was 59136 at k = 6 and 101376 at
        # k = 7 on chain12, above r^2 / 16 = 53361 and 39204
        A = test_kernel.chain12() if case == "chain12" else chain12_and(5)
        plan, values = matcore._minor_values(A, k)
        assert plan.flat.size == count <= math.comb(12, k) ** 2 // matcore._NONZERO_BREAK_EVEN
        T = matcore._minors(A, k).ravel()
        nonzero = values != 0.0
        assert values[nonzero].tobytes() == T[plan.flat][nonzero].tobytes()
        assert np.count_nonzero(values) == np.count_nonzero(T)
        table = matcore._minor_table(A, k)
        assert np.array_equal(table.ravel(), T) and not np.signbit(table[table == 0.0]).any()
        assert plans.builds() == 1 and len(plans.calls) == 2

    def test_a_count_above_the_gate_is_refused_and_kept(self, plans, monkeypatch):
        # 44352 structural entries at k = 5, above r^2 / 16 = 39204: the
        # plan is built once and refused, and the refusal decides every
        # later call with no build
        A = chain12_and(8)
        assert matcore._minor_values(A, 5)[0] is None and plans.builds() == 1
        assert list(matcore._PATTERN_PLANS.values()) == [None]
        assert matcore._minor_values(A, 5)[0] is None
        assert matcore._minor_table(A, 5).tobytes() == matcore._minors(A, 5).tobytes()
        assert plans.builds() == 1 and plans.calls == []
        key = np.packbits(A != 0.0).tobytes()
        assert matcore._pattern_plan(12, 5, key) is None
        gate = math.comb(12, 5) ** 2 // matcore._NONZERO_BREAK_EVEN
        monkeypatch.setattr(matcore, "_NONZERO_BREAK_EVEN", 1)
        assert matcore._pattern_plan(12, 5, key).flat.size == 44352 > gate

    @pytest.mark.parametrize("case", ["chain12", "upper triangular", "banded", "zero rows", "tight", "random"])
    def test_the_lower_bounds_never_refuse_a_count_the_gate_admits(self, case, monkeypatch, cold_caches):
        # with the gate set to each pattern's exact count, _admitted_plan
        # admits it, whichever bound it passes on the way (the zeros' bound
        # before the build, each level's bound during it), and refuses it
        # with the gate one entry lower; the build's cap is lifted
        monkeypatch.setattr(matcore, "_table_bytes", lambda *shape: 1 << 62)
        if case == "chain12":
            cases = [(test_kernel.chain12(), k) for k in range(2, 9)]
        elif case == "upper triangular":
            cases = [(np.triu(np.ones((12, 12))), k) for k in range(2, 6)]
        elif case == "banded":
            band = np.abs(np.subtract.outer(np.arange(12), np.arange(12)))
            cases = [(1.0 * (band <= w), k) for w in (1, 2, 3) for k in (3, 4, 5)]
        elif case == "zero rows":
            # rows 0-2 are zero: a row set holding one of them has no
            # structural entry, however many its tail holds
            A = np.ones((12, 12))
            A[:3] = 0.0
            cases = [(A, k) for k in (3, 4, 5)]
        elif case == "tight":
            # column 0 and the last row: a row set {a, 11} holds the 11
            # column pairs of 0 with another, its tail's 12 less the one
            # that holds 0, and every other none, so the bound is the count
            A = np.zeros((12, 12))
            A[:, 0] = A[-1] = 1.0
            cases = [(A, 2)]
        else:
            cases = [random_pattern(np.random.default_rng([seed, 31])) for seed in range(12)]
        for A, k in cases:
            n = A.shape[0]
            R = math.comb(n, k)
            monkeypatch.setattr(matcore, "_NONZERO_BREAK_EVEN", 1)
            count = matcore._pattern_plan(n, k, np.packbits(A != 0.0).tobytes()).flat.size
            for gate, admitted in ((count, True), (count - 1, False)):
                if gate > 0:
                    monkeypatch.setattr(matcore, "_NONZERO_BREAK_EVEN", Fraction(R * R, gate))
                    matcore._PATTERN_PLANS.clear()
                    plan = matcore._admitted_plan(A != 0.0, k)
                    assert (plan is not None) == admitted and (plan is None or plan.flat.size == count)


class TestBuildCap:
    """A pattern's build is refused once a level's pairs would pass the
    table's price, or once a built level bounds the top level's count
    above the gate, so a nearly dense pattern never holds more than it."""

    @pytest.mark.parametrize("case", ["upper triangular", "chain12 and twenty entries"])
    def test_a_capped_build_stays_within_the_table_price(self, case, plans):
        # an upper triangular matrix, whose top level's pairs would take
        # 1.9 times the cap, and a chain whose top level takes 0.79 of the
        # cap and whose count is refused: the traced peak of the table, the
        # build and the dense kernel's table after it, is within _table_bytes
        if case == "upper triangular":
            A = np.triu(np.random.default_rng(35).standard_normal((12, 12)))
        else:
            A = chain12_and(20)
        tracemalloc.start()
        try:
            table = matcore._minor_table(A, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= matcore._table_bytes(12, 12, 5)
        assert table.tobytes() == matcore._minors(A, 5).tobytes()
        assert list(matcore._PATTERN_PLANS.values()) == [None] and plans.builds() == 1
        # a refused build is kept as None: the next call builds nothing
        assert matcore._minor_values(A, 5)[0] is None and plans.builds() == 1

    @pytest.mark.parametrize("k", [5, 6])
    def test_a_nearly_dense_build_is_refused_before_its_top_level(self, k, monkeypatch, cold_caches):
        # a Gaussian with ten zero entries: once its level 3 is built, the
        # top level is bounded below by more than r^2 / 16 entries, and the
        # build is refused there, holding a quarter of the table's price at
        # most, with the cap lifted (an uncapped build of one zero held
        # 270 MB at k = 5)
        A = np.random.default_rng(35).standard_normal((12, 12))
        A.ravel()[np.random.default_rng(10).permutation(144)[:10]] = 0.0
        price = matcore._table_bytes(12, 12, k)
        monkeypatch.setattr(matcore, "_table_bytes", lambda *shape: 1 << 62)
        tracemalloc.start()
        try:
            assert matcore._pattern_plan(12, k, np.packbits(A != 0.0).tobytes()) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= price // 4


def admitted_pattern(rng):
    """A mixed-sign n x n matrix, n = 12..14, with one or two nonzeros in
    each row but the first, which holds six, and an order k = 3..5: the
    gate admits it."""
    n, k = int(rng.integers(12, 15)), int(rng.integers(3, 6))
    A = np.zeros((n, n))
    for row in A:
        cols = rng.permutation(n)[: int(rng.integers(1, 3))]
        row[cols] = rng.standard_normal(cols.size)
    A[0, rng.permutation(n)[:6]] = rng.standard_normal(6)
    return A, k


class TestMinorTableRoute:
    """_minor_table writes a table the gate admits into zeros from its
    pattern plan; every other table comes from the dense kernel."""

    def test_the_chains_equal_the_dense_kernel_bit_for_bit(self, plans):
        chains = [test_kernel.chain12(), *test_kernel.TestRowBlocks.chains()]
        for A in chains:
            T = matcore._minor_table(A, 5)
            assert T.flags.c_contiguous and T.tobytes() == matcore._minors(A, 5).tobytes()
        assert len(plans.calls) == 41 and plans.builds() == 1

    def test_sparse_mixed_sign_patterns_equal_the_dense_kernel_in_value(self, plans):
        # every nonzero bit for bit; every zero of the route is 0.0, where
        # the dense kernel's _expand leaves some as -0.0
        signed_zeros = 0
        for seed in range(12):
            A, k = admitted_pattern(np.random.default_rng([seed, 33]))
            T, D = matcore._minor_table(A, k), matcore._minors(A, k)
            assert np.array_equal(T, D) and not np.signbit(T[T == 0.0]).any()
            nonzero = D != 0.0
            assert T[nonzero].tobytes() == D[nonzero].tobytes()
            signed_zeros += int(np.signbit(D[~nonzero]).any())
        assert len(plans.calls) == 12 and signed_zeros >= 6

    @pytest.mark.parametrize("case", ["gaussian", "within one level block", "rectangular", "order 9"])
    def test_tables_the_gate_refuses_never_reach_the_plan(self, case, plans):
        chain = test_kernel.chain12()
        if case == "gaussian":
            A, k = np.random.default_rng(33).standard_normal((12, 12)), 5
        elif case == "within one level block":
            A, k = chain[:10, :10], 3
            assert math.comb(10, 3) ** 2 <= matcore._LEVEL_BLOCK
        elif case == "rectangular":
            A, k = np.hstack([chain, chain[:, :1]]), 5
        else:
            A, k = chain, 9
            assert math.comb(12, 9) ** 2 > matcore._LEVEL_BLOCK
        assert matcore._minor_table(A, k).tobytes() == matcore._minors(A, k).tobytes()
        assert plans.calls == []

    def test_a_table_beyond_the_float_range_is_refused(self, plans):
        # the plan's top level overflows: the gate gives None, and the
        # dense kernel's table, non-finite, is refused
        with pytest.raises(DomainError, match="beyond the float range"):
            minor_table(1e80 * test_kernel.chain12(), 5)
        assert len(plans.calls) == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_verdicts_and_witnesses_equal_the_dense_kernels(self, seed, plans, dense_kernel):
        # k = 4 gives the chains' mixed-sign tables, with both witnesses
        for A in certify_large_pool(seed):
            spec = CyclicSpec(12, tuple(np.diag(A)), (*np.diag(A, 1), A[-1, 0]), ell=5)
            assert np.array_equal(build_cyclic(spec), A)
            for call in (lambda: classify_sign_regularity(A, 4), lambda: classify_sign_regularity(A, 5),
                         lambda: is_k_positive_system(A, 5), lambda: analyze_cyclic(spec)):
                assert repr(call()) == repr(dense_kernel(call))
        assert len(plans.calls) == 16

    @pytest.mark.parametrize("case", ["chain12", "chain12 and five entries"])
    def test_the_traced_peak_is_within_the_price(self, case, plans, budget_prices, cold_caches):
        # the pattern route with its plan built afresh, on chain12 and on a
        # chain with five more entries, which the exact count admits
        A = test_kernel.chain12()
        if case != "chain12":
            A[[0, 2, 4, 6, 8], [5, 7, 9, 11, 1]] = 0.01
        tracemalloc.start()
        try:
            minor_table(A, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plans.builds() == 1 and len(plans.calls) == 1
        (price, _), = budget_prices
        assert peak <= price


def assert_same_certificate(got, expected):
    """d, xi and z bit for bit, the gaps and the radius equal, the margin
    within MARGIN_RTOL."""
    assert isinstance(got, KDiagCertificate) and isinstance(expected, KDiagCertificate)
    for field in ("d", "xi", "z"):
        assert getattr(got, field).tobytes() == getattr(expected, field).tobytes()
    assert (got.xi_gap, got.z_gap) == (expected.xi_gap, expected.z_gap)
    assert (got.k, got.r, got.sign_flipped) == (expected.k, expected.r, expected.sign_flipped)
    assert got.compound_spectral_radius == expected.compound_spectral_radius
    assert abs(got.stein_margin - expected.stein_margin) <= MARGIN_RTOL * expected.stein_margin


@pytest.fixture
def table_reference(dense_kernel, over_positive):
    """table_reference(call): call() on the dense kernel's tables
    (dense_kernel), each nonnegative one of order _DAVIDSON_MIN_ORDER or
    more applied over its positive entries (over_positive), as the plan's
    rows apply it: the reference a certificate of an admitted pattern
    equals bit for bit."""
    return lambda call: over_positive(lambda: dense_kernel(call))


class TestCertifyAgreesWithTheTable:
    @pytest.mark.parametrize("seed", range(3))
    def test_certify_large_chains(self, seed, table_reference, pattern_reads):
        for A in certify_large_pool(seed):
            assert_same_certificate(certify_k_diag_stability(A, 5),
                                    table_reference(lambda: certify_k_diag_stability(A, 5)))
        assert len(pattern_reads) == 4 and all(read is not None for read in pattern_reads)

    def test_chain12_and_its_negation(self, table_reference, pattern_reads):
        # -chain12 has a nonpositive compound at k = 5: the flip
        for A in (test_kernel.chain12(), -test_kernel.chain12()):
            assert_same_certificate(certify_k_diag_stability(A, 5),
                                    table_reference(lambda: certify_k_diag_stability(A, 5)))
        assert [read is not None for read in pattern_reads] == [True, True]

    @pytest.mark.parametrize("seed", range(3))
    def test_even_corner_witness(self, seed, dense_kernel, pattern_reads):
        A = even_corner_chain(seed)
        got = certify_k_diag_stability(A, 5)
        expected = dense_kernel(lambda: certify_k_diag_stability(A, 5))
        assert isinstance(got, CertificationFailure) and got.reason == NOT_SIGN_REGULAR
        assert got == expected and got.witness.value < 0.0
        assert pattern_reads[0] is not None

    def test_compound_not_schur(self, dense_kernel, pattern_reads):
        A = 2.0 * test_kernel.chain12()
        got = certify_k_diag_stability(A, 5)
        assert isinstance(got, CertificationFailure) and got.reason == COMPOUND_NOT_SCHUR
        assert got == dense_kernel(lambda: certify_k_diag_stability(A, 5))
        assert pattern_reads[0] is not None

    def test_lu_fallback(self, table_reference, pattern_reads, monkeypatch):
        # the series would need about 123 terms: M is formed for the LU
        # solves, from the nonzeros, with the table's zeros
        solves = []
        lu_solves = stability._lu_solves
        monkeypatch.setattr(stability, "_lu_solves", lambda M, x, y: solves.append(M.copy()) or lu_solves(M, x, y))
        A = lu_chain()
        got = certify_k_diag_stability(A, 5)
        expected = table_reference(lambda: certify_k_diag_stability(A, 5))
        assert_same_certificate(got, expected)
        assert len(solves) == 2 and solves[0].tobytes() == solves[1].tobytes()
        assert pattern_reads[0] is not None

    def test_eigen_solve_fallback(self, table_reference, pattern_reads, monkeypatch):
        # Davidson stops at its step cap: the gap is formed from M, filled
        # in from the nonzeros, and the eigen-solve decides
        monkeypatch.setattr(stability, "_DAVIDSON_MAX_STEPS", 8)
        gaps, stein_gap = [], stability._stein_gap
        monkeypatch.setattr(stability, "_stein_gap", lambda X, d: gaps.append(X.copy()) or stein_gap(X, d))
        A = certify_large_pool(0)[0]
        got = certify_k_diag_stability(A, 5)
        expected = table_reference(lambda: certify_k_diag_stability(A, 5))
        assert_same_certificate(got, expected)
        assert len(gaps) == 2 and gaps[0].tobytes() == gaps[1].tobytes()
        assert got.stein_margin == expected.stein_margin
        assert pattern_reads[0] is not None

    def test_orders_below_the_davidson_order_apply_m_densely(self, dense_kernel, pattern_reads, rows_applied):
        # r = 220 and 190 hold more than one level block, so the gate
        # reads the pattern, but below _DAVIDSON_MIN_ORDER M is formed and
        # applied densely, and the eigen-solve gives the margin, as on the
        # dense kernel's table.  The corner's sign makes the chain
        # sign-regular at its order k
        rng = np.random.default_rng([1, 32])
        for n, k in ((12, 3), (20, 2)):
            A = certify_chain(rng, n)
            A[-1, 0] *= (-1) ** (k + 1)
            r = math.comb(n, k)
            assert r * r > matcore._LEVEL_BLOCK and r < stability._DAVIDSON_MIN_ORDER
            got = certify_k_diag_stability(A, k)
            expected = dense_kernel(lambda: certify_k_diag_stability(A, k))
            assert_same_certificate(got, expected)
            assert got.stein_margin == expected.stein_margin
        assert len(pattern_reads) == 2 and all(read is not None for read in pattern_reads)
        assert rows_applied == []

    def test_an_all_zero_compound(self, table_reference, pattern_reads):
        # one nonzero column: every 5-minor is zero, rho = 0 sends the
        # solves to LU, and the proof runs over no nonzeros
        A = 0.5 * np.outer(np.ones(12), np.eye(12)[3])
        assert_same_certificate(certify_k_diag_stability(A, 5),
                                table_reference(lambda: certify_k_diag_stability(A, 5)))
        plan, values = pattern_reads[0]
        assert plan.flat.size == values.size == 0


def cancelling_chain(seed):
    """A 12 x 12 cyclic chain of dyadic entries with one more entry, below
    the diagonal, that makes rows i-1 and i proportional on columns i-1
    and i.  Its entries have few bits, so every minor is exact: the
    5-minors that hold that 2 x 2 block are structural entries that cancel
    to 0.0, and the compound stays nonnegative."""
    rng = np.random.default_rng([seed, 34])
    n = 12
    A = np.zeros((n, n))
    A[np.arange(n), np.arange(n)] = rng.integers(2, 6, n) / 8
    A[np.arange(n - 1), np.arange(1, n)] = rng.integers(1, 4, n - 1) / 8
    A[n - 1, 0] = rng.integers(1, 4) / 8
    i = int(rng.integers(1, n))
    A[i, i - 1] = A[i - 1, i - 1] * A[i, i] / A[i - 1, i]
    return A


@pytest.fixture
def rows_applied(monkeypatch):
    """Records the rows (matcore._Csr) certify applies each compound of a
    pattern the gate admits through (stability._over_rows)."""
    applied, over_rows = [], stability._over_rows
    monkeypatch.setattr(stability, "_over_rows", lambda csr, values: applied.append(csr) or over_rows(csr, values))
    return applied


class TestOperatorRows:
    """Certify applies an admitted compound of order _DAVIDSON_MIN_ORDER or
    more through the rows its pattern plan holds (plan.csr), built once per
    pattern, over every structural entry, a cancelled one included."""

    def test_built_once_per_pattern_and_read_only(self, plans, rows_applied, monkeypatch):
        csrs, csr = [], matcore._csr
        monkeypatch.setattr(matcore, "_csr", lambda *args: csrs.append(1) or csr(*args))
        chains = [test_kernel.chain12(), *certify_large_pool(0), *certify_large_pool(1)]
        for A in chains:
            assert isinstance(certify_k_diag_stability(A, 5), KDiagCertificate)
        assert plans.builds() == 1 and len(csrs) == 1
        assert len(rows_applied) == len(chains) and all(rows is rows_applied[0] for rows in rows_applied)
        rows = rows_applied[0]
        assert not any(a.flags.writeable for a in rows[:4])
        # the chains' rows as matcore._csr builds them from the flat indices
        plan, = matcore._PATTERN_PLANS.values()
        r = 792
        assert rows.cols.tobytes() == (plan.flat % r).tobytes()
        assert rows.counts.tobytes() == np.bincount(plan.flat // r, minlength=r).tobytes()
        assert rows.full and rows.rows.tobytes() == np.arange(r).tobytes()
        assert (rows.a, rows.b) == (32, int(np.bincount(plan.flat % r, minlength=r).max()))

    @pytest.mark.parametrize("seed", [*range(10), "chain12"])
    def test_certificates_equal_the_per_call_rows(self, seed, pattern_reads, monkeypatch):
        # against the rows built on every call from the positive values, as
        # certify built them before the plan held them: d, xi, z and both
        # gaps bit for bit, the margin within MARGIN_RTOL of eigvalsh's
        over_rows = stability._over_rows

        def per_call(csr, values):
            r = csr.counts.size
            flat = np.repeat(np.arange(r), csr.counts) * r + csr.cols
            positive = values > 0.0
            return over_rows(matcore._csr(flat[positive], r), values[positive])

        pool = [test_kernel.chain12(), -test_kernel.chain12()] if seed == "chain12" else certify_large_pool(seed)
        for A in pool:
            got = certify_k_diag_stability(A, 5)
            with monkeypatch.context() as m:
                m.setattr(stability, "_over_rows", per_call)
                expected = certify_k_diag_stability(A, 5)
            for field in ("d", "xi", "z"):
                assert getattr(got, field).tobytes() == getattr(expected, field).tobytes()
            assert (got.xi_gap, got.z_gap) == (expected.xi_gap, expected.z_gap)
            exact = smallest_eigenvalue(stein_gap(A, 5)[0])
            assert abs(got.stein_margin - exact) <= MARGIN_RTOL * exact
        assert len(pattern_reads) == 2 * len(pool) and all(read is not None for read in pattern_reads)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_structural_entry_that_cancels_to_zero(self, seed, dense_kernel, pattern_reads, rows_applied):
        # the plan's rows hold the cancelled entries, which the dense
        # table, applied densely, holds as zeros: the same verdict, the
        # margin within MARGIN_RTOL
        A = cancelling_chain(seed)
        got = certify_k_diag_stability(A, 5)
        expected = dense_kernel(lambda: certify_k_diag_stability(A, 5))
        assert isinstance(got, KDiagCertificate) and isinstance(expected, KDiagCertificate)
        assert abs(got.stein_margin - expected.stein_margin) <= MARGIN_RTOL * expected.stein_margin
        (plan, values), = pattern_reads
        assert 0 < np.count_nonzero(values == 0.0) and values.min() == 0.0
        (rows,) = rows_applied
        assert rows is plan.csr and rows.cols.size == values.size
