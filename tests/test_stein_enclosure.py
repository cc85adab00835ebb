"""The Stein check of certify, proven from its own xi.

For a nonnegative compound M the construction's xi proves the pass:
with x' = xi - M xi and y' = z - M^T z, (D - M^T D M) xi = y' + M^T D x'
>= y' > 0.  From order _DAVIDSON_MIN_ORDER on, certify applies the gap as
v -> d v - M^T (d (M v)), over the structural nonzeros of a compound whose
pattern the gate admits (stability._over_rows) and densely otherwise, k = 1
included, and never forms it for the proof:
stability._Applied.proven_margin takes a Collatz-Wielandt bound from xi on
it, and a bound above pd_tol proves the pass, with the smallest Ritz value
as the margin.  Every other case, and every stein_holds call, forms the gap
for np.linalg.eigvalsh, whose margin must then come out bit for bit.
"""

import contextlib
import hashlib
import io
import json
import re
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from kposi import (
    KDiagCertificate,
    NumericError,
    certify_k_diag_stability,
    construct_dlf_nonneg,
    matcore,
    stability,
    stein_holds,
)
from kposi.cli import run_cli

DATA = Path(__file__).parent / "data"

# How far the Ritz value may sit from eigvalsh's smallest eigenvalue,
# relative to it: the margin change accepted when the Stein Gram moved to
# one syrk.
MARGIN_RTOL = 2.5e-14

# `kposi certify -k 5 --in tests/data/chain12.json`: the sha256 of stdout
# with the stein_margin value replaced by null, its d, xi and z summed as
# Neumann series over the compound's nonzeros (within 2.5e-16 of the dense
# sums, componentwise), and the margin as the eigen-solve computed it.
CHAIN12_MASKED_SHA256 = "63925f80e418fe312bd1fb95a50ec2abaf142794ac1717e4d9c6aac1369a13ea"
CHAIN12_MARGIN = float.fromhex("0x1.b54947e61c602p-1")


def certify_chain(rng, n=12):
    """A cyclic chain of order n, sign-regular of every odd order.

    Diagonal alpha_i ~ U(0.1, 0.6), superdiagonal and corner
    beta_i = u_i (0.95 - alpha_i), u_i ~ U(0.2, 1): every row sums to at
    most 0.95, so every compound is Schur.
    """
    alphas = rng.uniform(0.1, 0.6, n)
    betas = rng.uniform(0.2, 1.0, n) * (0.95 - alphas)
    A = np.diag(alphas)
    A[np.arange(n - 1), np.arange(1, n)] = betas[: n - 1]
    A[n - 1, 0] = betas[n - 1]
    return A


def certify_large_pool(seed):
    """The four n = 12 chains of the certify-large benchmark pool of `seed`."""
    rng = np.random.default_rng([seed, 1])
    return [certify_chain(rng) for _ in range(4)]


def stein_gap(A, k, x=None, y=None):
    """The gap D - M^T D M that certify proves or builds for A^(k), and its
    xi, solved as certify solves it: by the Neumann series where M has no
    negative entry and its spectral radius makes the series the cheaper
    path, summed over M's positive entries where certify applies the rows
    of its pattern plan, and densely elsewhere."""
    M = matcore._minor_table(A, k)
    if M.max() <= 0.0:
        np.negative(M, out=M)
    nonneg = M.min() >= 0.0
    rho = stability._compound_radius(A, k) if nonneg else 0.0
    r = M.shape[0]
    rows = nonneg and r >= stability._DAVIDSON_MIN_ORDER and matcore._minor_values(A, k)[0] is not None
    applied = over_positive_entries(M) if rows else stability._dense(M)
    x = np.ones(r) if x is None else x
    y = np.ones(r) if y is None else y
    xi, _, d = stability._dlf_solve(lambda: M, x, y, rho, applied)
    return stability._stein_gap(np.sqrt(d)[:, None] * M, d), xi


def over_positive_entries(M):
    """M applied over its positive entries (stability._over_rows), through
    the rows matcore._csr reads from their flat indices: built from a
    dense M, the form in which certify applies the compound of a pattern
    the gate admits."""
    flat = np.flatnonzero(M > 0.0)
    return stability._over_rows(matcore._csr(flat, M.shape[0]), M.take(flat))


@pytest.fixture
def over_positive(monkeypatch):
    """over_positive(call): call() with every M >= 0 of order
    _DAVIDSON_MIN_ORDER or more that certify applies densely
    (stability._dense) applied over its positive entries instead
    (over_positive_entries)."""
    dense = stability._dense

    def applied(M):
        if M.shape[0] < stability._DAVIDSON_MIN_ORDER or M.min() < 0.0:
            return dense(M)
        return over_positive_entries(M)

    def run(call):
        with monkeypatch.context() as m:
            m.setattr(stability, "_dense", applied)
            return call()

    return run


def traced_after_table(monkeypatch, A, k):
    """certify_k_diag_stability(A, k) under tracemalloc, and the peak of
    its traced memory above what it held when the table was built
    (stability._minor_values returned); the gap may not be formed."""
    table, after_table = stability._minor_values, []

    def recording_table(*args):
        built = table(*args)
        after_table.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return built

    def no_gram(*args):
        raise AssertionError("the Stein gap was formed")

    certify_k_diag_stability(A, k)
    monkeypatch.setattr(stability, "_minor_values", recording_table)
    monkeypatch.setattr(stability, "_stein_gap", no_gram)
    tracemalloc.start()
    try:
        cert = certify_k_diag_stability(A, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return cert, peak - after_table[0]


def smallest_eigenvalue(S):
    return float(np.linalg.eigvalsh(S)[0])


@dataclass
class ProofCall:
    """One try of the proof path, stability._Applied.proven_margin: the d of
    the gap, the proof vector, the Collatz-Wielandt bound from it,
    and the results of the Davidson runs that followed (none when the bound
    did not clear pd_tol, None for a run that did not converge)."""

    d: np.ndarray
    proof: np.ndarray
    bound: float
    ritz: list = field(default_factory=list)

    @property
    def proven(self) -> bool:
        """Whether the pass was proven, with the Ritz value as its margin."""
        return len(self.ritz) == 1 and self.ritz[0] is not None and self.bound <= self.ritz[0]


@pytest.fixture
def proof_calls(monkeypatch):
    calls = []
    bound, davidson = stability._Applied.stein_bound, stability._davidson_smallest

    def recorded_bound(applied, d, v, product):
        calls.append(ProofCall(d, v, bound(applied, d, v, product)))
        return calls[-1].bound

    def recorded_davidson(matvec, d, start, product):
        calls[-1].ritz.append(davidson(matvec, d, start, product))
        return calls[-1].ritz[-1]

    monkeypatch.setattr(stability._Applied, "stein_bound", recorded_bound)
    monkeypatch.setattr(stability, "_davidson_smallest", recorded_davidson)
    return calls


def block_cycle(r, gain, coupling):
    """gain * I plus `coupling` on the cyclic superdiagonal: irreducible, nonnegative."""
    A = gain * np.eye(r)
    A[np.arange(r), (np.arange(r) + 1) % r] = coupling
    return A


class TestXiProof:
    @pytest.mark.parametrize("seed", range(10))
    def test_certify_large_margin_matches_the_eigen_solve(self, seed, proof_calls):
        for A in certify_large_pool(seed):
            cert = certify_k_diag_stability(A, 5)
            assert isinstance(cert, KDiagCertificate) and cert.r == 792
            (call,) = proof_calls
            proof_calls.clear()
            assert call.proof is cert.xi
            assert call.proven and call.ritz == [cert.stein_margin]
            exact = smallest_eigenvalue(stein_gap(A, 5)[0])
            assert abs(cert.stein_margin - exact) <= MARGIN_RTOL * exact
            # the bound from xi reads most of the margin, not just pd_tol
            assert 0.95 * exact < call.bound <= exact

    @pytest.mark.parametrize("form", ["nonzeros", "dense"])
    @pytest.mark.parametrize("density", [0.5, 0.05])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_stein_gaps_through_nonzeros(self, seed, density, form):
        # S = D - M^T D M for a random nonnegative M, scaled to
        # ||D^(1/2) M D^(-1/2)||_2 = 0.9, applied as the two-stage product
        # over M's nonzeros (built here whatever its density) or densely:
        # its rounding term keeps the bound from any positive vector at or
        # below eigvalsh's smallest eigenvalue, down to the Perron vector
        # itself, where the rounding term alone keeps it there
        rng = np.random.default_rng([seed, 95])
        r = 300
        M = rng.uniform(0.0, 1.0, (r, r)) * (rng.uniform(0.0, 1.0, (r, r)) < density)
        d = rng.uniform(0.5, 2.0, r)
        root = np.sqrt(d)
        M *= 0.9 / np.linalg.norm(root[:, None] * M / root, 2)
        S = np.diag(d) - M.T @ (d[:, None] * M)
        exact = smallest_eigenvalue(S)
        perron_vector = np.abs(np.linalg.eigh(S)[1][:, 0])
        applied = over_positive_entries(M) if form == "nonzeros" else stability._dense(M)
        vectors = [np.ones(r), rng.uniform(0.1, 1.0, r), rng.uniform(0.0, 1.0, r) ** 8 + 1e-300,
                   perron_vector]
        for v in vectors:
            assert v.min() > 0.0 and applied.stein_bound(d, v, applied.stein_gap(d)(v)) <= exact
        theta = applied.proven_margin(d, perron_vector, applied.matvec(perron_vector), matcore.pd_tol())
        assert theta is not None and abs(theta - exact) <= MARGIN_RTOL * exact

    def test_the_path_allocates_nothing_of_order_r_squared(self, proof_calls, monkeypatch, dense_kernel):
        # a certify-large chain built as the dense kernel's table and
        # applied densely, its series summed: from the end of the table to
        # the return the path adds Davidson's basis and the gap times it
        # (two vectors of r a step), its small projected matrix and a few
        # vectors above M, and forms no gap
        cert, peak = dense_kernel(lambda: traced_after_table(monkeypatch, certify_large_pool(0)[0], 5))
        assert isinstance(cert, KDiagCertificate) and cert.r == 792
        assert proof_calls[-1].proven and proof_calls[-1].ritz == [cert.stein_margin]
        assert peak < 0.25 * 792**2 * 8

    def test_negated_chain_certifies_bit_for_bit(self, proof_calls):
        # -A at odd k has a nonpositive compound; after the flip its zero
        # entries are -0.0, which min >= 0 admits: the Gram of an M with
        # signed zeros is still exactly nonnegative, so the path is taken
        # and sees the same gap as A's
        A = certify_large_pool(3)[0]
        M = -matcore._minor_table(-A, 5)
        assert M.min() >= 0.0 and np.signbit(M[M == 0.0]).any()
        cert, flipped = certify_k_diag_stability(A, 5), certify_k_diag_stability(-A, 5)
        assert flipped.sign_flipped and not cert.sign_flipped
        assert [c.proven for c in proof_calls] == [True, True]
        assert flipped.stein_margin == cert.stein_margin
        for a, b in ((cert.d, flipped.d), (cert.xi, flipped.xi), (cert.z, flipped.z)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("second", ["diagonal", "cycle"])
    def test_reducible_gap(self, second, proof_calls):
        # a cycle block beside a diagonal block, whose rows of the gap have
        # no entry off the diagonal, or beside a second cycle: xi is
        # positive on both blocks, so it proves the pass all the same
        r = 300
        A = np.zeros((r, r))
        A[:150, :150] = block_cycle(150, 0.3, 0.2)
        if second == "diagonal":
            A[150:, 150:] = np.diag(np.linspace(0.1, 0.8, 150))
        else:
            A[150:, 150:] = block_cycle(150, 0.5, 0.1)
        cert = construct_dlf_nonneg(A)
        assert [c.proven for c in proof_calls] == [True]
        exact = smallest_eigenvalue(stein_gap(A, 1)[0])
        assert abs(cert.stein_margin - exact) <= MARGIN_RTOL * exact

    def test_a_bound_beyond_the_float_range_proves_nothing(self, proof_calls):
        # a full compound with rho = 0.001, applied densely, and y = 1.5e308:
        # d is near the top of the float range, and the gap, positive
        # definite, is proven by xi in exact arithmetic, but the rounding
        # term of the bound overflows: the eigen-solve decides, with no
        # warning
        r = stability._DAVIDSON_MIN_ORDER
        A = np.full((r, r), 0.001 / r)
        cert = construct_dlf_nonneg(A, y=np.full(r, 1.5e308))
        assert cert.d.min() > 1e308
        assert [(c.bound, c.ritz) for c in proof_calls] == [(-np.inf, [])]
        assert cert.stein_margin == smallest_eigenvalue(stein_gap(A, 1, y=np.full(r, 1.5e308))[0])


class TestFallback:
    """Every case the proof leaves open goes to the eigen-solve, bit for bit."""

    def test_reducible_gap_of_a_diagonal_matrix(self, proof_calls):
        r = 300
        A = np.diag(np.linspace(0.1, 0.8, r))
        d = np.linspace(1.0, 2.0, r)
        check = stein_holds(A, d)
        assert proof_calls == []
        S = stability._stein_gap(np.sqrt(d)[:, None] * A, d)
        assert check.ok and check.margin == smallest_eigenvalue(S)

    def test_stein_holds_on_a_certificate(self, proof_calls):
        # the D certify proved from its xi: stein_holds gets no xi and
        # runs the eigen-solve, which agrees with the proven margin
        A = certify_large_pool(0)[0]
        cert = certify_k_diag_stability(A, 5)
        assert [c.proven for c in proof_calls] == [True]
        M = matcore._minor_table(A, 5)
        check = stein_holds(M, cert.d)
        assert len(proof_calls) == 1
        S = stability._stein_gap(np.sqrt(cert.d)[:, None] * M, cert.d)
        assert check.ok and check.margin == smallest_eigenvalue(S)
        assert abs(check.margin - cert.stein_margin) <= MARGIN_RTOL * check.margin

    def test_in_band_negative_minors_are_not_vouched(self, proof_calls):
        # the sign gate reads -1e-13 as zero, so A still certifies, but its
        # Gram may have entries of either sign
        A = block_cycle(300, 0.3, 0.2)
        A[0, 5] = -1e-13
        cert = construct_dlf_nonneg(A)
        assert proof_calls == []
        S, _ = stein_gap(A, 1)
        assert cert.stein_margin == smallest_eigenvalue(S)

    def test_positive_off_diagonal_entries_are_not_vouched(self, proof_calls):
        rng = np.random.default_rng(91)
        A = rng.uniform(-1.0, 1.0, (300, 300))
        A *= 0.5 / np.linalg.norm(A, 2)
        d = np.ones(300)
        check = stein_holds(A, d)
        assert proof_calls == []
        S = stability._stein_gap(np.sqrt(d)[:, None] * A, d)
        assert (S - np.diag(np.diag(S))).max() > 0.0
        assert check.ok and check.margin == smallest_eigenvalue(S)
        assert matcore.is_positive_definite(S).margin == smallest_eigenvalue(S)

    def test_no_convergence_within_the_step_cap(self, monkeypatch, proof_calls):
        monkeypatch.setattr(stability, "_DAVIDSON_MAX_STEPS", 8)
        A = certify_large_pool(0)[0]
        cert = certify_k_diag_stability(A, 5)
        assert [(c.bound > matcore.pd_tol(), c.ritz) for c in proof_calls] == [(True, [None])]
        S, _ = stein_gap(A, 5)
        assert cert.stein_margin == smallest_eigenvalue(S)

    def test_below_the_crossover_order(self, proof_calls):
        A = certify_chain(np.random.default_rng(92), n=9)
        cert = certify_k_diag_stability(A, 3)
        assert isinstance(cert, KDiagCertificate) and cert.r < stability._DAVIDSON_MIN_ORDER
        assert proof_calls == []
        S, _ = stein_gap(A, 3)
        assert cert.stein_margin == smallest_eigenvalue(S)

    @pytest.mark.parametrize("case", ["diagonal", "cycle"])
    def test_failed_stein_check_is_unchanged(self, case, proof_calls):
        # a y with one tiny entry makes one d_i tiny and the gap's smallest
        # eigenvalue with it: the bound cannot clear pd_tol, Davidson does
        # not run, and the eigen-solve's margin is the one the error names
        r = 300
        y = np.ones(r)
        y[0] = 1e-20
        if case == "diagonal":
            A, tol = 0.5 * np.eye(r), None
        else:
            A, tol = block_cycle(r, 0.5, 1e-6), 1e-5
        with pytest.raises(NumericError, match="constructed D failed the Stein check") as info:
            construct_dlf_nonneg(A, y=y, tol=tol)
        assert [c.ritz for c in proof_calls] == [[]]
        S, _ = stein_gap(A, 1, y=y)
        assert str(info.value) == (
            f"constructed D failed the Stein check (margin {smallest_eigenvalue(S):.3g})"
        )


def masked(report: str) -> str:
    return re.sub(r'("stein_margin": )[^,\n]+', r"\1null", report)


def test_chain12_certify_report_is_pinned():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run_cli(["certify", "-k", "5", "--in", str(DATA / "chain12.json")])
    assert rc == 0
    report = out.getvalue()
    assert hashlib.sha256(masked(report).encode()).hexdigest() == CHAIN12_MASKED_SHA256
    margin = json.loads(report)["verdicts"]["stein_margin"]
    assert abs(margin - CHAIN12_MARGIN) <= MARGIN_RTOL * CHAIN12_MARGIN
