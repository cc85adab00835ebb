"""Certify's one proof route after the compound, dense or through the nonzeros.

Where the compound M has no negative entry, stability._certify decides
once how M is applied: where r >= _DAVIDSON_MIN_ORDER and M has at most
r^2 / _NONZERO_BREAK_EVEN nonzeros, over them, read once from the table
(stability._nonzeros) or taken from the structural nonzeros of a pattern
the gate admits (matcore._sparse_table), else densely
(stability._dense).  The Neumann
sums, the gaps, and from r >= _DAVIDSON_MIN_ORDER the Collatz-Wielandt
proof from xi and Davidson all run on that pair, the last two on the
implicit gap v -> d v - M^T (d (M v)), whether xi and z were summed or
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
from test_stein_enclosure import MARGIN_RTOL, certify_large_pool, smallest_eigenvalue, traced_after_table
from test_stein_enclosure import proof_calls  # noqa: F401 (fixture)


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


@pytest.fixture
def on_path(monkeypatch):
    """on_path(nonzero, call): call() with every nonnegative compound of
    order _DAVIDSON_MIN_ORDER or more read into its nonzeros (True) or none
    (False), whatever its density."""

    def run(nonzero, call):
        with monkeypatch.context() as m:
            m.setattr(stability, "_NONZERO_BREAK_EVEN", 1 if nonzero else 10**12)
            return call()

    return run


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
                                                 solves, on_path):
        # at r = 300 the nonzero path takes at most 300^2 / 16 = 5625
        # nonzeros: 8 a row (2400) are below that, 30 a row (9000) above;
        # each matrix also runs the other path, and both agree, with no
        # gap formed on either side
        A = sparse_schur(seed, per_row)
        sparse = per_row == 8
        assert (np.count_nonzero(A) * stability._NONZERO_BREAK_EVEN <= A.size) == sparse
        taken = construct_dlf_nonneg(A)
        other = on_path(not sparse, lambda: construct_dlf_nonneg(A))
        assert gap_builds == [] and solves.lu == 0 and solves.series == [True] * 4
        for cert, call in zip((taken, other), proof_calls):
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

    def test_bound_below_pd_tol(self, proof_calls, gap_builds, solves, on_path):
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
            construct_dlf_nonneg(A, y=y)
        assert solves.series == [True, True] and [c.ritz for c in proof_calls] == [[]]
        assert proof_calls[0].bound <= matcore.pd_tol()
        (X, d, gap), = gap_builds
        assert X.tobytes() == (np.sqrt(d)[:, None] * A).tobytes()
        with pytest.raises(NumericError) as dense:
            on_path(False, lambda: construct_dlf_nonneg(A, y=y))
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

    def test_series_to_lu(self, proof_calls, gap_builds, solves, on_path):
        # 0.1 I plus 0.5 on the superdiagonal is read into its nonzeros,
        # but its series reaches the cap: LU, and then the proof on the
        # implicit gap over the nonzeros all the same; applied densely it
        # takes the same LU and proves the dense implicit gap
        r = 300
        A = 0.1 * np.eye(r) + 0.5 * upper_shift(r)
        assert stability._nonzeros(A) is not None
        cert = certify_k_diag_stability(A, 1)
        assert solves.series == [False] and solves.lu == 2
        assert_lu_bit_for_bit(A, 1, cert)
        dense = on_path(False, lambda: certify_k_diag_stability(A, 1))
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
    applied = stability._nonzeros(A)
    assert applied.proven_margin(d, np.ones(300), applied.matvec(np.ones(300)), matcore.pd_tol()) is None
    assert [(c.bound, c.ritz) for c in proof_calls] == [(-np.inf, [])]


def test_an_all_zero_compound(proof_calls, solves):
    # rho = 0 sends it to LU, and its nonzeros, of which there are none,
    # apply the gap v -> v: the bound from xi is taken over them, and
    # clears pd_tol, and Davidson stops after one step with the margin
    cert = construct_dlf_nonneg(np.zeros((300, 300)))
    assert solves.lu == 2 and solves.series == []
    assert cert.d.tobytes() == np.ones(300).tobytes()
    assert abs(cert.stein_margin - 1.0) <= MARGIN_RTOL
    (call,) = proof_calls
    assert matcore.pd_tol() < call.bound <= 1.0 and call.ritz == [cert.stein_margin]


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
        # the dense table, read back through its nonzeros, as a table the
        # gate refuses is: from the end of the table to the return, the
        # path adds its nonzeros (two arrays of nnz), and Davidson's basis,
        # the gap times it (two vectors of r a step) and its small
        # projected matrix above M; the two pool chains went above the
        # bound when Lanczos took 118 and 133 steps for θ.  The traced peak
        # measured 0.75 MB (0.149 r^2 8 bytes) on each chain here, with
        # numpy 2.4
        read, nonzeros = [], stability._nonzeros
        monkeypatch.setattr(stability, "_nonzeros", lambda M: read.append(nonzeros(M)) or read[-1])
        cert, peak = dense_kernel(lambda: traced_after_table(monkeypatch, A, 5))
        assert read and all(applied is not None for applied in read)
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
