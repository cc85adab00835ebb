"""Certify's one proof route after the compound, dense or through the nonzeros.

Where the compound M has no negative entry, stability._certify decides
once how M is applied: where r >= _DAVIDSON_MIN_ORDER and the gate admits
its pattern (matcore._sparse_table), over its structural nonzeros through
the rows its plan holds (stability._over_rows), else densely
(stability._dense), k = 1 and orders above 8 included.  The tests build
the sparse form of a dense M themselves (over_positive_entries).  The
Neumann sums, the gaps, and from r >= _DAVIDSON_MIN_ORDER the
Collatz-Wielandt proof from xi and Davidson all run on that pair, the
last two on the implicit gap v -> d v - M^T (d (M v)), whether xi and z were summed or
solved by LU: neither the Gram nor the gap is formed.  A bound that does
not prove the pass, or a Davidson run that does not converge, forms the
gap from the intact M for the eigen-solve, bit for bit what it gives on
the same d.
"""

import tracemalloc

import numpy as np
import pytest

import test_kernel
from kposi import (
    KDiagCertificate,
    NumericError,
    certify_k_diag_stability,
    construct_dlf_nonneg,
    matcore,
    minor_table,
    stability,
)

from test_neumann import AGREEMENT_RTOL, SOLVE, assert_lu_bit_for_bit, upper_shift
from test_neumann import solves  # noqa: F401 (fixture)
from test_stein_enclosure import (
    MARGIN_RTOL,
    certify_chain,
    certify_large_pool,
    over_positive_entries,
    smallest_eigenvalue,
    traced_after_table,
)
from test_stein_enclosure import over_positive, proof_calls  # noqa: F401 (fixtures)


@pytest.fixture
def gap_builds(monkeypatch):
    """Records (X, d) of each stability._stein_gap call, where the Gram of
    X = D^(1/2) M is formed, and the gap it returned."""
    calls = []
    stein_gap = stability._stein_gap

    def recorded(X, d):
        X0 = X.copy()
        gap = stein_gap(X, d)
        calls.append((X0, d, gap))
        return gap

    monkeypatch.setattr(stability, "_stein_gap", recorded)
    return calls


def stein_gap_of(M, d):
    """D - M^T D M as plain numpy forms it, with no syrk."""
    D = np.diag(d)
    return D - M.T @ D @ M


def assert_agrees(M, cert, call):
    """For a nonnegative compound M: xi, z and d within AGREEMENT_RTOL of
    np.linalg.solve componentwise, the margin within MARGIN_RTOL of
    eigvalsh, and the bound from xi in (0.95 λ_min, λ_min]."""
    lhs, ones = np.eye(M.shape[0]) - M, np.ones(M.shape[0])
    xi, z = SOLVE(lhs, ones), SOLVE(lhs.T, ones)
    for got, expected in zip((cert.xi, cert.z, cert.d), (xi, z, z / xi)):
        assert np.all(np.abs(got - expected) <= AGREEMENT_RTOL * expected)
    exact = smallest_eigenvalue(stein_gap_of(M, cert.d))
    assert abs(cert.stein_margin - exact) <= MARGIN_RTOL * exact
    assert call.proof is cert.xi and call.proven and call.ritz == [cert.stein_margin]
    assert 0.95 * exact < call.bound <= exact


def sparse_schur(seed, per_row, r=300, rho=0.1):
    """r x r, nonnegative, per_row nonzeros in U(0.1, 1) in each row at
    random columns, scaled to spectral radius rho: the series is predicted
    to stop within r // 16 terms."""
    rng = np.random.default_rng([seed, 94])
    A = np.zeros((r, r))
    cols = np.argsort(rng.uniform(size=(r, r)), axis=1)[:, :per_row]
    A[np.arange(r)[:, None], cols] = rng.uniform(0.1, 1.0, (r, per_row))
    return A * (rho / np.max(np.abs(np.linalg.eigvals(A))))


class TestAgreement:
    @pytest.mark.parametrize("seed", range(10))
    def test_certify_large_chains(self, seed, proof_calls, gap_builds, solves):
        for A in certify_large_pool(seed):
            cert = certify_k_diag_stability(A, 5)
            assert isinstance(cert, KDiagCertificate) and cert.r == 792
            # summed over the nonzeros, proven on the implicit gap: no
            # Gram, so no syrk, and no LU
            assert gap_builds == [] and solves.lu == 0 and solves.series == [True, True]
            (call,) = proof_calls
            M = minor_table(A, 5)
            assert_agrees(M, cert, call)
            assert abs(cert.xi_gap - np.min((cert.xi - M @ cert.xi) / (1.0 + cert.xi))) <= 1e-15
            assert abs(cert.z_gap - np.min((cert.z - M.T @ cert.z) / (1.0 + cert.z))) <= 1e-15
            proof_calls.clear()
            solves.series.clear()

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("per_row", [8, 30])
    def test_both_sides_of_the_density_threshold(self, per_row, seed, proof_calls, gap_builds,
                                                 solves, over_positive):
        # 8 nonzeros a row (2400) and 30 (9000), either side of the gate's
        # 300^2 / 16 = 5625: at k = 1 certify applies M densely at either
        # density; each matrix also runs over its nonzeros, and both agree,
        # with no gap formed on either side
        A = sparse_schur(seed, per_row)
        dense = construct_dlf_nonneg(A)
        nonzero = over_positive(lambda: construct_dlf_nonneg(A))
        assert gap_builds == [] and solves.lu == 0 and solves.series == [True] * 4
        for cert, call in zip((dense, nonzero), proof_calls):
            assert_agrees(A, cert, call)

    @pytest.mark.parametrize("rho, lu", [(0.1, 0), (0.3, 2)])
    def test_a_full_compound_is_proven_on_its_implicit_gap(self, rho, lu, proof_calls, gap_builds,
                                                           solves):
        # every entry positive, so M is applied densely: its series (rho =
        # 0.1) or its LU (rho = 0.3 predicts 31 terms, above r // 16) is
        # followed by the proof on the implicit gap, with no Gram
        rng = np.random.default_rng([round(10 * rho), 96])
        A = rng.uniform(0.1, 1.0, (300, 300))
        A *= rho / np.max(np.abs(np.linalg.eigvals(A)))
        cert = construct_dlf_nonneg(A)
        assert gap_builds == [] and solves.lu == lu and solves.series == [True, True][: 2 - lu]
        (call,) = proof_calls
        assert_agrees(A, cert, call)


class TestFallback:
    """What the proof leaves open goes to the eigen-solve on the gap formed
    from the intact M, bit for bit what the dense form gives; a series
    that goes to LU keeps the route."""

    def test_bound_below_pd_tol(self, proof_calls, gap_builds, solves, over_positive):
        # y0 = 1e-20 makes d0 tiny and the gap's smallest eigenvalue with
        # it: the bound cannot clear pd_tol and Davidson does not run.  M is
        # diagonal, so the sums over its nonzeros are the dense mat-vecs'
        # bit for bit, and so is the whole refusal; rho = 0.1 keeps the
        # series within its r // 16 terms
        r = 300
        A = 0.1 * np.eye(r)
        y = np.ones(r)
        y[0] = 1e-20
        with pytest.raises(NumericError) as nonzero:
            over_positive(lambda: construct_dlf_nonneg(A, y=y))
        assert solves.series == [True, True] and [c.ritz for c in proof_calls] == [[]]
        assert proof_calls[0].bound <= matcore.pd_tol()
        (X, d, gap), = gap_builds
        assert X.tobytes() == (np.sqrt(d)[:, None] * A).tobytes()
        with pytest.raises(NumericError) as dense:
            construct_dlf_nonneg(A, y=y)
        assert str(nonzero.value) == str(dense.value) == (
            f"constructed D failed the Stein check (margin {smallest_eigenvalue(gap):.3g})"
        )
        assert gap_builds[1][1].tobytes() == d.tobytes()
        assert gap_builds[1][2].tobytes() == gap.tobytes()

    def test_davidson_step_cap(self, monkeypatch, proof_calls, gap_builds, solves):
        # the bound proves the pass but Davidson stops at the cap: the gap
        # is formed from the intact M and the eigen-solve's margin reported
        monkeypatch.setattr(stability, "_DAVIDSON_MAX_STEPS", 8)
        A = certify_large_pool(0)[0]
        cert = certify_k_diag_stability(A, 5)
        assert solves.series == [True, True]
        assert [(c.bound > matcore.pd_tol(), c.ritz) for c in proof_calls] == [(True, [None])]
        M = minor_table(A, 5)
        (X, d, gap), = gap_builds
        assert d is cert.d and X.tobytes() == (np.sqrt(d)[:, None] * M).tobytes()
        assert gap.tobytes() == stability._stein_gap(np.sqrt(d)[:, None] * M, d).tobytes()
        assert cert.stein_margin == smallest_eigenvalue(gap)

    def test_series_to_lu(self, proof_calls, gap_builds, solves, over_positive):
        # 0.1 I plus 0.5 on the superdiagonal, applied over its nonzeros:
        # its series reaches the cap, so LU, and then the proof on the
        # implicit gap over the nonzeros all the same; applied densely, as
        # certify applies it, it takes the same LU and proves the dense
        # implicit gap
        r = 300
        A = 0.1 * np.eye(r) + 0.5 * upper_shift(r)
        cert = over_positive(lambda: certify_k_diag_stability(A, 1))
        assert solves.series == [False] and solves.lu == 2
        assert_lu_bit_for_bit(A, 1, cert)
        dense = certify_k_diag_stability(A, 1)
        assert gap_builds == [] and solves.series == [False, False] and solves.lu == 4
        for field in ("xi", "z", "d"):
            assert getattr(cert, field).tobytes() == getattr(dense, field).tobytes()
        for got, call in zip((cert, dense), proof_calls):
            assert_agrees(A, got, call)


def test_a_floor_beyond_the_float_range_proves_nothing(proof_calls):
    # a d entry above the float range's top over a (2 nonzeros a row here)
    # makes the underflow floor infinite: the bound is -inf and the
    # eigen-solve decides, with no warning
    A = 0.05 * np.eye(300) + 0.05 * upper_shift(300)
    d = np.ones(300)
    d[0] = 1.5e308
    applied = over_positive_entries(A)
    assert applied.proven_margin(d, np.ones(300), applied.matvec(np.ones(300)), matcore.pd_tol()) is None
    assert [(c.bound, c.ritz) for c in proof_calls] == [(-np.inf, [])]


def test_an_all_zero_compound(proof_calls, solves):
    # rho = 0 sends it to LU, and M, applied densely, gives the gap
    # v -> v: the bound from xi clears pd_tol, and Davidson stops after
    # one step with the margin
    cert = construct_dlf_nonneg(np.zeros((300, 300)))
    assert solves.lu == 2 and solves.series == []
    assert cert.d.tobytes() == np.ones(300).tobytes()
    assert abs(cert.stein_margin - 1.0) <= MARGIN_RTOL
    (call,) = proof_calls
    assert matcore.pd_tol() < call.bound <= 1.0 and call.ritz == [cert.stein_margin]


@pytest.mark.parametrize("case", ["chain13-k10", "sparse300-k1"])
def test_compounds_without_a_plan_are_applied_densely(case, proof_calls, gap_builds, monkeypatch):
    # above order 8 and at k = 1 no pattern plan is read: a 13 x 13 chain
    # at k = 10 (r = 286, its corner's sign making A^(10) nonnegative) and
    # a 300 x 300 matrix of 8 nonzeros a row are built as the table and
    # applied densely, and the proof on the implicit gap gives the margin
    rows = []
    monkeypatch.setattr(stability, "_over_rows", lambda *args: rows.append(args))
    if case == "chain13-k10":
        A, k = certify_chain(np.random.default_rng([0, 35]), 13), 10
        A[-1, 0] *= (-1) ** (k + 1)
        M = minor_table(A, k)
    else:
        A, k = sparse_schur(0, 8), 1
        M = A
    cert = certify_k_diag_stability(A, k)
    assert isinstance(cert, KDiagCertificate) and cert.r >= stability._DAVIDSON_MIN_ORDER
    assert rows == [] and gap_builds == []
    (call,) = proof_calls
    assert_agrees(M, cert, call)


@pytest.mark.parametrize("gain", [0.1, 0.0])
def test_davidson_stops_on_an_eigenvector(gain, monkeypatch):
    # xi, all ones over 1 - gain, is an eigenvector of the gap of gain * I:
    # its residual is rounding noise, and the run stops at its first step,
    # on the S xi the bound formed, with no mat-vec of its own and θ, not
    # after _DAVIDSON_MAX_STEPS with None
    steps, thetas, davidson = [], [], stability._davidson_smallest

    def counted(matvec, d, start, product):
        thetas.append(davidson(lambda v: steps.append(1) or matvec(v), d, start, product))
        return thetas[-1]

    monkeypatch.setattr(stability, "_davidson_smallest", counted)
    A = gain * np.eye(300)
    cert = construct_dlf_nonneg(A)
    exact = smallest_eigenvalue(stein_gap_of(A, cert.d))
    assert steps == [] and thetas == [cert.stein_margin]
    assert abs(cert.stein_margin - exact) <= MARGIN_RTOL * exact


@pytest.mark.parametrize("path", ["pattern", "table"])
@pytest.mark.parametrize("chain", [
    pytest.param(test_kernel.TestLaplaceKernel.certify_large_chain, id="kernel"),
    pytest.param(lambda: certify_large_pool(0)[0], id="seed0-chain0"),
    pytest.param(lambda: certify_large_pool(5)[2], id="seed5-chain2"),
    pytest.param(test_kernel.chain12, id="chain12"),
])
def test_nonzero_path_holds_nothing_of_order_r_squared(chain, path, monkeypatch, dense_kernel):
    A = chain()
    if path == "table":
        # the dense table, applied densely, as a table the gate refuses
        # is: from the end of the table to the return, the path adds
        # Davidson's basis, the gap times it (two vectors of r a step) and
        # its small projected matrix above M; the two pool chains went
        # above the bound when Lanczos took 118 and 133 steps for θ.  The
        # traced peak measured 0.29 MB (0.057 r^2 8 bytes) on each chain,
        # with numpy 2.4
        rows = []
        monkeypatch.setattr(stability, "_over_rows", lambda *args: rows.append(args))
        cert, peak = dense_kernel(lambda: traced_after_table(monkeypatch, A, 5))
        assert rows == []
    else:
        # with the pattern plan cached by a first call, the whole certify,
        # its compound included, holds the structural nonzeros and their
        # level below, the nonzeros it is applied over, and Davidson's
        # basis and the gap times it (two vectors of r a step); no table
        # and no gap is formed.  The traced peak measured 0.78 MB
        # (0.155 r^2 8 bytes) on each chain here, chain12 included, with
        # numpy 2.4
        certify_k_diag_stability(A, 5)

        def formed(*args):
            raise AssertionError("an r x r array was formed")

        monkeypatch.setattr(stability, "_minor_table", formed)
        monkeypatch.setattr(stability, "_stein_gap", formed)
        tracemalloc.start()
        try:
            cert = certify_k_diag_stability(A, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert isinstance(cert, KDiagCertificate) and cert.r == 792
    assert peak < 0.25 * 792**2 * 8
