import math
import tracemalloc
import warnings

import numpy as np
import pytest

from kposi import (
    CapacityError,
    CertificationFailure,
    CyclicSpec,
    DomainError,
    KDiagCertificate,
    NumericError,
    PreconditionError,
    build_cyclic,
    cayley,
    certify_k_diag_stability,
    construct_dlf_nonneg,
    dlf_compound,
    is_positive_definite,
    is_schur,
    mult_compound,
    necessary_ct_diag,
    necessary_dt_diag,
    solve_top_compound_diagonal,
    stein_holds,
)
from kposi import matcore, stability
from kposi.examples import (
    CERT_3X3,
    CERT_D_REF,
    CERT_P_REF,
    CT_NO_DLF,
    CT_SCREEN_WITNESS,
    CYCLIC_WEDGE,
    DT_NO_DLF,
    DT_SCREEN_WITNESS,
)
from kposi.stability import COMPOUND_NOT_SCHUR, NOT_SIGN_REGULAR

from oracles import random_diagonally_stable, search_diagonal_stein


class TestIsSchur:
    def test_mixed_sign_schur(self):
        assert is_schur(DT_NO_DLF).ok

    def test_unstable_cyclic(self):
        check = is_schur(CYCLIC_WEDGE)
        assert not check.ok and check.spectral_radius == pytest.approx(2.0, abs=1e-9)

    def test_scaled_identity(self):
        assert is_schur(0.5 * np.eye(3)).ok


class TestSteinHolds:
    def test_reference_certificate(self):
        check = stein_holds(mult_compound(CERT_3X3, 2), CERT_D_REF)
        assert check.ok and check.margin > 0.0

    def test_scalar_case_margin(self):
        check = stein_holds(0.5 * np.eye(2), np.ones(2))
        assert check.ok and check.margin == pytest.approx(0.75, abs=1e-12)

    def test_identity_fails(self):
        assert not stein_holds(np.eye(3), np.ones(3)).ok

    def test_accepts_diagonal_matrix_form(self):
        assert stein_holds(0.5 * np.eye(2), np.diag([1.0, 2.0])).ok

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(PreconditionError):
            stein_holds(0.5 * np.eye(2), np.array([1.0, 0.0]))

    def test_rejects_nondiagonal_matrix(self):
        with pytest.raises(PreconditionError):
            stein_holds(0.5 * np.eye(2), np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_size_mismatch(self):
        with pytest.raises(PreconditionError):
            stein_holds(0.5 * np.eye(3), np.ones(2))

    def test_overflowing_gap_is_a_domain_error(self):
        with np.errstate(over="ignore"), pytest.raises(DomainError):
            stein_holds(np.full((3, 3), 1e200), np.ones(3))


class TestConstructDlf:
    def test_scaled_identity_closed_form(self):
        built = construct_dlf_nonneg(0.5 * np.eye(3))
        np.testing.assert_allclose(built.xi, 2.0 * np.ones(3), rtol=1e-14)
        np.testing.assert_allclose(built.z, 2.0 * np.ones(3), rtol=1e-14)
        np.testing.assert_allclose(built.d, np.ones(3), rtol=1e-14)
        assert not built.sign_flipped

    def test_compound_of_unstable_cyclic(self):
        M = mult_compound(CYCLIC_WEDGE, 2)
        built = construct_dlf_nonneg(M)
        assert stein_holds(M, built.d).ok

    def test_random_nonnegative_schur(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            A = np.abs(rng.standard_normal((4, 4)))
            A *= rng.uniform(0.3, 0.9) / max(A.sum(axis=1))
            built = construct_dlf_nonneg(A)
            gap = np.diag(built.d) - A.T @ np.diag(built.d) @ A
            assert is_positive_definite(gap).ok

    def test_nonpositive_matrix_uses_negation(self):
        built = construct_dlf_nonneg(-0.5 * np.eye(3))
        assert built.sign_flipped and built.stein_margin > 0.0

    def test_mixed_sign_rejected(self):
        with pytest.raises(PreconditionError, match="certify_k_diag_stability"):
            construct_dlf_nonneg(np.array([[0.5, -0.1], [0.1, 0.4]]))

    def test_not_schur_rejected(self):
        with pytest.raises(PreconditionError, match="Schur"):
            construct_dlf_nonneg(np.eye(2))

    def test_custom_weights(self):
        rng = np.random.default_rng(32)
        A = np.abs(rng.standard_normal((3, 3)))
        A *= 0.8 / max(A.sum(axis=1))
        x = rng.uniform(0.5, 2.0, 3)
        y = rng.uniform(0.5, 2.0, 3)
        built = construct_dlf_nonneg(A, x, y)
        np.testing.assert_allclose((np.eye(3) - A) @ built.xi, x, atol=1e-12)
        np.testing.assert_allclose((np.eye(3) - A.T) @ built.z, y, atol=1e-12)

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(PreconditionError):
            construct_dlf_nonneg(0.5 * np.eye(2), x=np.array([1.0, -1.0]))

    @staticmethod
    def same_construction(built, cert):
        for a, b in ((built.d, cert.d), (built.xi, cert.xi), (built.z, cert.z)):
            assert a.tobytes() == b.tobytes()
        assert built.stein_margin == cert.stein_margin
        assert built.sign_flipped == cert.sign_flipped

    @pytest.mark.parametrize("n", range(2, 13))
    def test_construction_is_certify_at_order_one(self, n):
        # both signs, entries of +0.0 and -0.0, and default and custom weights
        rng = np.random.default_rng(300 + n)
        for trial in range(8):
            A = rng.uniform(0.0, 1.0, (n, n))
            A[rng.random((n, n)) < 0.3] = 0.0
            A[rng.random((n, n)) < 0.1] = -0.0
            A *= rng.uniform(0.2, 0.95) / max(np.abs(np.linalg.eigvals(A)).max(), 1e-3)
            if trial % 2:
                A = -A
            x = y = None
            if trial >= 4:
                x, y = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
            built = construct_dlf_nonneg(A, x, y)
            cert = certify_k_diag_stability(A, 1, None, x, y)
            assert built.sign_flipped == bool(trial % 2)
            self.same_construction(built, cert)

    @pytest.mark.parametrize("a", [0.5, -0.5, 0.0, -0.0])
    def test_one_by_one_construction(self, a):
        # certify_k_diag_stability needs k <= n - 1; the construction
        # runs its core without that bound
        A = np.array([[a]])
        built = construct_dlf_nonneg(A, [2.0], [3.0])
        assert built.sign_flipped == (a < 0.0)
        np.testing.assert_allclose(built.xi, [2.0 / (1.0 - abs(a))], rtol=1e-15)
        np.testing.assert_allclose(built.d, [1.5], rtol=1e-15)
        assert built.stein_margin == pytest.approx(1.5 * (1.0 - a * a), rel=1e-15)
        with pytest.raises(DomainError):
            certify_k_diag_stability(A, 1)
        with pytest.raises(PreconditionError, match="not Schur"):
            construct_dlf_nonneg([[1.0]])

    def test_tol_sets_the_stein_margin(self, monkeypatch):
        # Schur with radius 0.95 < 1 - 1e-2, but the constructed D has a
        # Stein margin of about 0.0039: above the default PD margin, below
        # 1e-2 passed as tol.  KPOSI_TOL=1e-2 leaves the default in place:
        # only the command line reads it
        A = 1.9 * np.array([[0.5, 0.49], [0.0, 0.5]])
        assert construct_dlf_nonneg(A).stein_margin == pytest.approx(0.00388, abs=1e-5)
        assert isinstance(certify_k_diag_stability(A, 1), KDiagCertificate)
        monkeypatch.delenv("KPOSI_TOL", raising=False)
        for call in (construct_dlf_nonneg, lambda A, tol: certify_k_diag_stability(A, 1, tol)):
            with pytest.raises(NumericError, match="Stein check"):
                call(A, tol=1e-2)
            unset = call(A, tol=None)
            monkeypatch.setenv("KPOSI_TOL", "1e-2")
            got = call(A, tol=None)
            assert (got.stein_margin, got.d.tobytes()) == (unset.stein_margin, unset.d.tobytes())
            monkeypatch.delenv("KPOSI_TOL")


class TestCertify:
    # a bad x is refused before any minor is computed, so no verdict (here
    # COMPOUND_NOT_SCHUR, NOT_SIGN_REGULAR and a certificate) can hide it
    @pytest.mark.parametrize("A, k, x, error, text", [
        (np.eye(3), 1, [-1.0, 5.0], DomainError, "dimension 3"),
        (DT_NO_DLF, 1, [np.nan], DomainError, "x contains NaN"),
        (CERT_3X3, 2, [-1.0, 1.0, 1.0], PreconditionError, "strictly positive"),
    ], ids=["not-schur-short-x", "not-sign-regular-nan-x", "certified-negative-x"])
    def test_bad_x_refused_before_the_verdict(self, table_calls, A, k, x, error, text):
        with pytest.raises(error, match=text):
            certify_k_diag_stability(A, k, x=x)
        assert table_calls == []

    # the unit vectors that complete a given x or y are priced with the
    # certificate: C(40,20), about 1.4e11, is refused before any is made
    @pytest.mark.parametrize("given", [{"x": [1.0]}, {"y": [1.0]}], ids=["x", "y"])
    def test_given_vector_is_refused_before_its_unit_complement(self, given):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="^a certificate of order 137846528820 would hold"):
                certify_k_diag_stability(0.5 * np.eye(40), 20, **given)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_certificate_exists_for_schur_ssr2(self):
        cert = certify_k_diag_stability(CERT_3X3, 2)
        assert isinstance(cert, KDiagCertificate)
        assert cert.stein_margin > 0.0 and cert.r == 3

    def test_certificate_exists_despite_instability(self):
        cert = certify_k_diag_stability(CYCLIC_WEDGE, 2)
        assert isinstance(cert, KDiagCertificate)
        assert not is_schur(CYCLIC_WEDGE).ok

    def test_identity_fails_schur_gate(self):
        res = certify_k_diag_stability(np.eye(3), 1)
        assert isinstance(res, CertificationFailure)
        assert res.reason == COMPOUND_NOT_SCHUR
        assert res.compound_spectral_radius == pytest.approx(1.0, abs=1e-12)

    def test_mixed_sign_minors_fail_sign_gate(self):
        res = certify_k_diag_stability(np.array([[1.0, -1.0], [1.0, 1.0]]), 1)
        assert isinstance(res, CertificationFailure)
        assert res.reason == NOT_SIGN_REGULAR
        assert res.witness is not None and res.witness.value < 0.0

    def test_sign_flip_path(self):
        A = -np.array([[0.5, 0.1], [0.2, 0.4]])
        cert = certify_k_diag_stability(A, 1)
        assert isinstance(cert, KDiagCertificate)
        assert cert.sign_flipped and cert.stein_margin > 0.0

    def test_order_out_of_range(self):
        with pytest.raises(DomainError):
            certify_k_diag_stability(np.eye(3), 3)

    def test_certificate_chain_conditions(self):
        # a successful certificate simultaneously provides the contraction
        # vectors and the Stein inequality for the original compound
        rng = np.random.default_rng(33)
        for A in (CERT_3X3, CYCLIC_WEDGE, -0.6 * np.abs(rng.standard_normal((3, 3)) / 3.0)):
            for k in (1, 2):
                cert = certify_k_diag_stability(A, k)
                if isinstance(cert, CertificationFailure):
                    continue
                M = mult_compound(A, k)
                assert np.all(M @ cert.xi < cert.xi)
                assert np.all(M.T @ cert.z < cert.z)
                assert stein_holds(M, cert.d).ok
                assert cert.xi_gap > 0.0 and cert.z_gap > 0.0


def gaussian_kernel(n, scale):
    """scale * exp(-(i - j)^2 / 4): totally positive, so every compound is nonnegative."""
    i = np.arange(n)
    return scale * np.exp(-((i[:, None] - i[None, :]) ** 2) / 4.0)


class TestInputsAndSteinGap:
    # (A, k): k = 1, whose compound is a copy of A; a nonnegative order-2
    # compound; and nonpositive compounds, which take the sign flip
    CASES = [
        (gaussian_kernel(4, 0.15), 1),
        (-gaussian_kernel(4, 0.15), 1),
        (CERT_3X3, 2),
        (-gaussian_kernel(5, 0.2), 3),
    ]

    @pytest.mark.parametrize("A, k", CASES)
    def test_certify_leaves_its_input_unchanged(self, A, k):
        before = A.copy()
        cert = certify_k_diag_stability(A, k)
        assert isinstance(cert, KDiagCertificate)
        assert cert.sign_flipped == bool(np.all(mult_compound(A, k) <= 0.0))
        np.testing.assert_array_equal(A, before)
        # the flip leaves the Stein form, and so the margin, bit for bit
        assert cert.stein_margin == stein_holds(mult_compound(A, k), cert.d).margin

    @pytest.mark.parametrize("A, k", CASES)
    def test_construct_and_stein_leave_their_inputs_unchanged(self, A, k):
        M = mult_compound(A, k)
        x, y = np.linspace(1.0, 2.0, M.shape[0]), np.linspace(2.0, 1.0, M.shape[0])
        saved = [a.copy() for a in (M, x, y)]
        built = construct_dlf_nonneg(M, x, y)
        D = np.diag(built.d)
        saved_d = [built.d.copy(), D.copy()]
        assert stein_holds(M, built.d).ok and stein_holds(M, D).ok
        for a, b in zip((M, x, y, built.d, D), saved + saved_d):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("r", [7, 84])
    def test_stein_gap_is_exactly_symmetric(self, r):
        rng = np.random.default_rng(r)
        A = rng.uniform(-1.0, 1.0, (r, r))
        A *= 0.5 / np.linalg.norm(A, 2)
        d = rng.uniform(1.0, 2.0, r)
        gap = stability._stein_gap(np.sqrt(d)[:, None] * A, d)
        assert np.array_equal(gap, gap.T)
        # the dense formula the Gram replaced, symmetrized before the solve
        dense = np.diag(d) - A.T @ (d[:, None] * A)
        margin = np.linalg.eigvalsh(0.5 * (dense + dense.T))[0]
        assert abs(stein_holds(A, d).margin - margin) <= 1e-13 * abs(margin)

    def test_certified_margin_matches_the_dense_formula(self):
        rng = np.random.default_rng(34)
        spec = CyclicSpec(9, tuple(rng.uniform(0.1, 0.4, 9)), tuple(rng.uniform(0.1, 0.4, 9)), ell=3)
        A = build_cyclic(spec)
        cert = certify_k_diag_stability(A, 3)
        assert isinstance(cert, KDiagCertificate) and cert.r == 84
        M, d = mult_compound(A, 3), cert.d
        dense = np.diag(d) - M.T @ (d[:, None] * M)
        margin = np.linalg.eigvalsh(0.5 * (dense + dense.T))[0]
        assert abs(cert.stein_margin - margin) <= 1e-13 * abs(margin)



class TestTwoArrayPrice:
    """certify, stein_holds and is_positive_definite hold two r x r arrays
    at their peak, and are priced at both before they allocate either."""

    @pytest.fixture(autouse=True)
    def budget(self, monkeypatch):
        # between the price of one 300 x 300 array (720 kB) and two
        monkeypatch.setattr(matcore, "_BYTE_BUDGET", 12 * 300 * 300)

    def test_certify_is_refused_before_its_table(self, monkeypatch):
        # at k = 1 the table alone is priced at one r x r array, which fits
        def no_table(*args):
            raise AssertionError("the minor table was built")

        monkeypatch.setattr(stability, "_minor_values", no_table)
        A = 0.1 * np.eye(300)
        for call in (lambda: construct_dlf_nonneg(A), lambda: certify_k_diag_stability(A, 1)):
            with pytest.raises(CapacityError, match="^a certificate of order 300 would hold about 1.44 MB"):
                call()

    @pytest.mark.parametrize("call", [
        lambda A: certify_k_diag_stability(A, 1),
        construct_dlf_nonneg,
    ], ids=["certify", "construct_dlf_nonneg"])
    def test_certify_frees_its_table_before_the_eigen_solve(self, monkeypatch, budget_prices, call):
        # k = 1 is the dense route, and r = 200 is below _DAVIDSON_MIN_ORDER,
        # so the margin comes from the eigen-solve.  LAPACK's copy of the gap
        # is made outside tracemalloc's sight: it is counted here as the gap's
        # size on top of what is held when the eigen-solve is reached.
        r = 200
        A = np.random.default_rng(39).uniform(0.0, 1.0, (r, r))
        A *= 0.5 / np.abs(np.linalg.eigvals(A)).max()
        check = stability._pd_check
        held = []

        def counted(S, t):
            held.append(tracemalloc.get_traced_memory()[0] + S.nbytes)
            return check(S, t)

        monkeypatch.setattr(stability, "_pd_check", counted)
        tracemalloc.start()
        try:
            call(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        (price, what), *_ = budget_prices  # then the table's, within it
        assert what == f"a certificate of order {r}"
        # the price is the r x r arrays; beside them are a few r-vectors
        assert len(held) == 1
        assert max(peak, *held) <= price + 16 * 8 * r

    @pytest.mark.parametrize("check, what", [
        (lambda A: stein_holds(A, np.ones(300)), "Stein check"),
        (is_positive_definite, "definiteness check"),
    ], ids=["stein_holds", "is_positive_definite"])
    def test_checks_are_refused_before_their_gap(self, check, what):
        A = 0.1 * np.eye(300)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=f"^a {what} of order 300 would hold about 1.44 MB"):
                check(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 300 * 300 * 8


class TestDlfCompound:
    def test_identity(self):
        np.testing.assert_array_equal(dlf_compound(np.ones(3), 2), np.ones(3))

    def test_products_over_pairs(self):
        np.testing.assert_allclose(
            dlf_compound(np.array([1.0, 2.0, 3.0]), 2), [2.0, 3.0, 6.0], rtol=0
        )

    def test_reference_recovery_pair(self):
        np.testing.assert_allclose(dlf_compound(CERT_P_REF, 2), CERT_D_REF, rtol=1e-12)

    def test_matches_matrix_compound(self):
        rng = np.random.default_rng(34)
        p = rng.uniform(0.2, 3.0, 5)
        for k in range(1, 6):
            np.testing.assert_allclose(
                dlf_compound(p, k), np.diag(mult_compound(np.diag(p), k)), rtol=1e-12
            )

    def test_accepts_matrix_form(self):
        np.testing.assert_allclose(
            dlf_compound(np.diag([1.0, 2.0, 3.0]), 2), [2.0, 3.0, 6.0], rtol=0
        )

    @pytest.mark.parametrize("k, n", [(5, 30), (2, 1000), (12, 20)])
    def test_price_bounds_the_traced_peak(self, budget_prices, k, n):
        # the diagonal is priced before its index sets, which lex_array prices
        p = np.random.default_rng(38).uniform(0.5, 2.0, n)
        tracemalloc.start()
        try:
            d = dlf_compound(p, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.shape == (math.comb(n, k),)
        (price, what), (index_price, _) = budget_prices
        assert what == f"a compound diagonal of {math.comb(n, k)} entries"
        assert peak <= max(price, index_price)

    @pytest.mark.parametrize("k", [-1, 0, 4])
    def test_order_outside_one_to_n_is_a_domain_error(self, k):
        with pytest.raises(DomainError, match=f"order k={k} must satisfy 1 <= k <= n=3"):
            dlf_compound(np.ones(3), k)

    def test_refused_before_its_index_sets(self):
        # C(60,30), about 1.2e17 entries
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="^a compound diagonal of 118264581564861424 entries"):
                dlf_compound(np.ones(60), 30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestSolveTopCompound:
    def test_reference_values(self):
        p = solve_top_compound_diagonal(CERT_D_REF)
        np.testing.assert_allclose(p, CERT_P_REF, rtol=0, atol=1e-12)

    def test_identity_fixed_point(self):
        np.testing.assert_allclose(solve_top_compound_diagonal(np.ones(4)), np.ones(4), rtol=1e-14)

    def test_round_trip_random(self):
        rng = np.random.default_rng(35)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            d = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), n))
            p = solve_top_compound_diagonal(d)
            recon = dlf_compound(p, n - 1)
            assert np.max(np.abs(recon - d) / d) <= 1e-10

    def test_rejects_nonpositive(self):
        with pytest.raises(PreconditionError):
            solve_top_compound_diagonal(np.array([1.0, -2.0]))

    def test_rejects_scalar_problem(self):
        with pytest.raises(PreconditionError):
            solve_top_compound_diagonal(np.array([2.0]))

    @pytest.mark.parametrize("d", [[1e-300, 1e300, 1e300], [1e300, 1e-300, 1e-300]],
                             ids=["p-overflows", "p-underflows"])
    def test_solution_beyond_the_float_range_is_refused(self, d):
        # p_3 would be 1e450 and 1e-450: once an exp RuntimeWarning and a
        # complaint about P's own entries, now one DomainError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="solution P .* floating-point range"):
                solve_top_compound_diagonal(np.array(d))


class TestCayley:
    def test_zero_matrix(self):
        np.testing.assert_allclose(cayley(np.zeros((3, 3))), np.eye(3), atol=1e-14)

    def test_negative_identity(self):
        np.testing.assert_allclose(cayley(-np.eye(3)), np.zeros((3, 3)), atol=1e-14)

    def test_regression_submatrix(self):
        B = cayley(DT_NO_DLF)
        target = np.array([[204.0, 140.0], [497.0, 323.0]]) / 461.0
        np.testing.assert_allclose(B[np.ix_([0, 2], [0, 2])], target, rtol=1e-12)

    def test_eigenvalue_one_rejected(self):
        with pytest.raises(DomainError):
            cayley(np.eye(3))

    @pytest.mark.parametrize("tol", [np.nan, -1.0, "x"])
    def test_invalid_tol_refused(self, tol, monkeypatch):
        monkeypatch.setenv("KPOSI_TOL", "1e-3")  # the default is not read from it
        with pytest.raises(DomainError, match="tol"):
            cayley(np.eye(3), tol=tol)
        assert cayley(np.zeros((3, 3))).shape == (3, 3)

    def test_failed_solve_is_a_numeric_error(self):
        # A - I = [[1, 1], [1, 1]]: its smallest singular value rounds above
        # 0, so tol = 0 lets it through to an exactly singular LU
        with pytest.raises(NumericError, match="solve failed"):
            cayley(np.array([[2.0, 1.0], [1.0, 2.0]]), tol=0.0)


class TestNecessaryScreens:
    def test_dt_regression(self):
        rep = necessary_dt_diag(DT_NO_DLF)
        assert not rep.passed and rep.transform_used == "CAYLEY_DT"
        kappa, value = rep.failing_minor
        assert kappa.indices == DT_SCREEN_WITNESS[0]
        assert value == pytest.approx(DT_SCREEN_WITNESS[1], abs=1e-9)

    def test_dt_zero_matrix_passes(self):
        rep = necessary_dt_diag(np.zeros((3, 3)))
        assert rep.passed and rep.failing_minor is None

    def test_dt_diagonal_passes(self):
        # transform of diag(0.5, -0.5) is diag(3, 1/3): all minors positive
        assert necessary_dt_diag(np.diag([0.5, -0.5])).passed

    def test_ct_regression(self):
        rep = necessary_ct_diag(CT_NO_DLF)
        assert not rep.passed and rep.transform_used == "NEGATE_CT"
        kappa, value = rep.failing_minor
        assert kappa.indices == CT_SCREEN_WITNESS[0]
        assert value == pytest.approx(CT_SCREEN_WITNESS[1], abs=1e-9)

    def test_ct_negative_identity_passes(self):
        assert necessary_ct_diag(-np.eye(3)).passed

    def test_ct_nilpotent_fails_on_zero_diagonal(self):
        rep = necessary_ct_diag(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not rep.passed
        kappa, value = rep.failing_minor
        assert kappa.indices == (1,) and value == 0.0

    def test_screens_ignore_kposi_tol(self, monkeypatch):
        # Cayley(0.5 I) = 3 I and -(-3 I) = 3 I: order-1 minors of 3 fail a
        # threshold of 5 passed as tol.  KPOSI_TOL=5, which check-necessary
        # reads, leaves the library's default threshold of 0 in place.
        monkeypatch.delenv("KPOSI_TOL", raising=False)
        for screen, A in ((necessary_dt_diag, 0.5 * np.eye(2)), (necessary_ct_diag, -3.0 * np.eye(2))):
            rep = screen(A, 5.0)
            assert not rep.passed
            kappa, value = rep.failing_minor
            assert kappa.indices == (1,) and value == pytest.approx(3.0)
            assert screen(A, 2.0).passed
            unset = screen(A)
            monkeypatch.setenv("KPOSI_TOL", "5")
            assert screen(A) == unset and unset.passed
            monkeypatch.delenv("KPOSI_TOL")

    @pytest.mark.parametrize("A", [
        [[-1e200, 1.0, 0.0], [0.0, -1e200, 1.0], [1.0, 0.0, -1e200]],
        [[-1e200, 1e300], [1e300, -1e200]],
    ], ids=["order-2-overflows", "order-2-nan"])
    def test_ct_screen_refuses_minors_beyond_the_float_range(self, A):
        # once two RuntimeWarnings and "passed", or a NaN witness
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="beyond the float range"):
                necessary_ct_diag(np.array(A))

    def test_checked_sweep_decides_minors_within_the_float_range(self):
        # entries of 1e100 lie above the unchecked bound (2^331 at n = 3),
        # but their minors (up to 1e300) do not leave the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert necessary_ct_diag(-1e100 * np.eye(3)).passed
            rep = necessary_ct_diag(np.diag([-1e100, -1e100, 1e100]))
        assert not rep.passed
        kappa, value = rep.failing_minor
        assert kappa.indices == (3,) and value == -1e100

    @pytest.mark.parametrize("screen", [necessary_dt_diag, necessary_ct_diag])
    def test_negative_screen_threshold_refused(self, screen, monkeypatch):
        # a threshold below 0 would let a negative principal minor pass.
        # The library does not read KPOSI_TOL, so a negative value there
        # changes nothing; the command line refuses it (test_cli.py)
        monkeypatch.delenv("KPOSI_TOL", raising=False)
        with pytest.raises(DomainError, match="tol"):
            screen(np.diag([0.5, -0.5]), -1.0)
        unset = screen(np.diag([0.5, -0.5]))
        monkeypatch.setenv("KPOSI_TOL", "-1e-3")
        assert screen(np.diag([0.5, -0.5])) == unset

    def test_diagonal_stability_implies_dt_screen(self):
        rng = np.random.default_rng(36)
        confirmed = 0
        for _ in range(40):
            n = int(rng.integers(2, 4))
            A = rng.standard_normal((n, n))
            rho = max(np.abs(np.linalg.eigvals(A)))
            A *= rng.uniform(0.3, 0.95) / max(rho, 1e-12)
            d = search_diagonal_stein(A, rng, tries=150)
            if d is None:
                continue
            assert necessary_dt_diag(A).passed
            confirmed += 1
        assert confirmed >= 20

    @pytest.mark.parametrize("n", [4, 13, 16])
    def test_screen_is_the_same_with_and_without_its_index_cache(self, n):
        # the principal k-minors of I - cJ are 1 - k c: only the full one
        # fails.  Up to n = 15 the cache keeps every order's block indices;
        # at n = 16 it keeps all but orders 8-10, over a 64th of the budget
        A = np.ones((n, n)) / (n - 0.5) - np.eye(n)
        for _ in range(2):
            kappa, value = necessary_ct_diag(A).failing_minor
            assert kappa.indices == tuple(range(1, n + 1))
            assert value == pytest.approx(1 - n / (n - 0.5), rel=1e-9)
        uncached = []
        for k in range(1, n + 1):
            blocks = stability._screen_blocks.__wrapped__(k, n)
            if not matcore._cacheable(blocks.nbytes):
                uncached.append(k)
                continue
            kept = stability._screen_blocks(k, n)
            assert not kept.flags.writeable and kept.tobytes() == blocks.tobytes()
        assert uncached == ([8, 9, 10] if n == 16 else [])

    def test_screen_at_n21_is_refused_before_any_order(self):
        # -I fails at its first 1x1 minor; I - J/8 passes orders 1-7 (minors
        # 1 - k/8): both are refused before order 1, at the price of the
        # largest order, C(21,11) = 352716 blocks of 11 x 11
        failing, passing = np.eye(21), 0.125 * np.ones((21, 21)) - np.eye(21)
        for A in (failing, passing):
            tracemalloc.start()
            try:
                with pytest.raises(CapacityError, match="^a principal-minor screen of order 21 would hold about 692 MB"):
                    necessary_ct_diag(A)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000

    def test_screen_at_n20_runs_within_its_budget(self, budget_prices):
        # I + J/100 passes every order: the sweep gathers C(20,11) = 167960
        # blocks of 11 x 11 by indexing, beside their indices and no copy
        # of them, from a cold index cache
        stability._screen_blocks.cache_clear()
        tracemalloc.start()
        try:
            report = necessary_ct_diag(-np.eye(20) - 0.01 * np.ones((20, 20)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        price, what = budget_prices[0]
        assert report.passed and what == "a principal-minor screen of order 20" and peak <= price

    @pytest.mark.parametrize("n", [3, 12, 16])
    def test_screen_price_bounds_the_traced_peak(self, budget_prices, n):
        # I - J/(2n) passes every order, so the sweep runs to order n
        stability._screen_blocks.cache_clear()
        tracemalloc.start()
        try:
            report = necessary_ct_diag(np.ones((n, n)) / (2 * n) - np.eye(n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        # then each order's index sets, as lex_array prices them
        (price, what), *index_sets = budget_prices
        assert what == f"a principal-minor screen of order {n}" and peak <= price
        assert [w.startswith("an array of") for _, w in index_sets] == [True] * n

    def test_screen_at_n19_runs(self):
        kappa, value = necessary_ct_diag(np.eye(19)).failing_minor
        assert kappa.indices == (1,) and value == -1.0


class TestDiagonalStabilityPropagation:
    def test_certificate_propagates_to_every_compound_order(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            A, p = random_diagonally_stable(rng, n)
            assert stein_holds(A, p).ok
            for k in range(1, n):
                check = stein_holds(mult_compound(A, k), dlf_compound(p, k))
                assert check.ok and check.margin > 1e-8

    def test_end_to_end_recovery_from_own_certificate(self):
        # certify the order-2 compound, recover a full diagonal matrix from
        # the top-order compound equation, and confirm it certifies A itself
        cert = certify_k_diag_stability(CERT_3X3, 2)
        assert isinstance(cert, KDiagCertificate)
        p = solve_top_compound_diagonal(cert.d)
        assert stein_holds(CERT_3X3, p).ok

    def test_end_to_end_recovery_from_reference_certificate(self):
        p = solve_top_compound_diagonal(CERT_D_REF)
        assert stein_holds(CERT_3X3, p).ok


class TestCayleySingularity:
    # the strictly totally positive Vandermonde matrix on nodes 0.5, 1, ..., 3
    V = np.vander(np.arange(1, 7) * 0.5, increasing=True)

    def test_well_conditioned_large_scale_is_accepted(self):
        A = 1e6 * self.V
        assert np.linalg.cond(A - np.eye(6)) < 1e5
        B = cayley(A)
        np.testing.assert_allclose(B @ (A - np.eye(6)), -(A + np.eye(6)), rtol=1e-9, atol=1e-3)

    def test_threshold_ignores_kposi_tol(self, monkeypatch):
        monkeypatch.setenv("KPOSI_TOL", "5")
        np.testing.assert_allclose(cayley(0.5 * np.eye(3)), 3.0 * np.eye(3), rtol=1e-15)
        monkeypatch.setenv("KPOSI_TOL", "1e-300")
        with pytest.raises(DomainError, match="A - I is singular"):
            cayley(np.eye(3))

    def test_rank_deficient_difference_is_refused(self):
        # A - I = u v^T has rank one, so 1 is an eigenvalue of A
        A = np.eye(4) + np.outer([1.0, 2.0, 3.0, 4.0], [1.0, -1.0, 2.0, 0.5])
        with pytest.raises(DomainError, match="A - I is singular"):
            cayley(A)

    def test_explicit_tolerance(self):
        A = np.diag([0.5, 1.0 + 1e-8])
        cayley(A)
        with pytest.raises(DomainError):
            cayley(A, tol=1e-6)
