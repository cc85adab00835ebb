import math

import numpy as np
import pytest

from kposi import (
    CapacityError,
    DomainError,
    LexIndexSet,
    is_positive_definite,
    lex_index_sets,
    minor,
    minor_table,
    spectral_report,
)
from kposi.examples import CERT_3X3, CYCLIC_WEDGE, DT_NO_DLF, DT_SCREEN_WITNESS
from kposi.matcore import det_stack

from oracles import leibniz_det, sylvester_positive_definite


class TestLexIndexSets:
    def test_two_of_three(self):
        sets = lex_index_sets(2, 3)
        assert [s.indices for s in sets] == [(1, 2), (1, 3), (2, 3)]

    def test_singletons(self):
        assert [s.indices for s in lex_index_sets(1, 4)] == [(1,), (2,), (3,), (4,)]

    def test_full_set(self):
        assert [s.indices for s in lex_index_sets(3, 3)] == [(1, 2, 3)]

    @pytest.mark.parametrize("k,n", [(1, 1), (2, 5), (3, 7), (5, 9)])
    def test_count_and_sortedness(self, k, n):
        sets = lex_index_sets(k, n)
        assert len(sets) == math.comb(n, k)
        seqs = [s.indices for s in sets]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_out_of_range_order(self):
        with pytest.raises(DomainError):
            lex_index_sets(0, 3)
        with pytest.raises(DomainError):
            lex_index_sets(4, 3)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            lex_index_sets(20, 40)

    # a count of over 4300 digits, which str() of an int refuses to write,
    # is written by its exponent
    @pytest.mark.parametrize("k, n, sizes", [
        (2, 10**3000, r"C\(1e3000,2\) = 1e6000"),
        (10**5000 - 1, 10**5000, r"C\(1e5000,1e5000\) = 1e5000"),
    ], ids=["huge-n", "huge-k"])
    def test_capacity_guard_writes_a_huge_count_by_its_exponent(self, k, n, sizes):
        with pytest.raises(CapacityError, match=rf"^{sizes} exceeds [^\n]*\Z"):
            lex_index_sets(k, n)

    def test_index_set_validation(self):
        with pytest.raises(DomainError):
            LexIndexSet(3, (2, 2))
        with pytest.raises(DomainError):
            LexIndexSet(3, (1, 4))


class TestMinor:
    def test_integer_regression_minor(self):
        # hand cofactor expansion: (-4)(-2) - (1)(7) = 1
        A = DT_NO_DLF * 7.0
        assert minor(A, (1, 3), (1, 3)) == pytest.approx(1.0, abs=1e-12)

    def test_identity_principal_minor(self):
        assert minor(np.eye(4), (2, 3), (2, 3)) == 1.0

    def test_transform_block_minor(self):
        B = np.array([[204.0, 140.0], [497.0, 323.0]]) / 461.0
        assert minor(B, (1, 2), (1, 2)) == pytest.approx(DT_SCREEN_WITNESS[1], rel=1e-12)

    def test_against_permutation_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            A = rng.standard_normal((5, 5))
            rows = tuple(sorted(rng.choice(5, size=3, replace=False) + 1))
            cols = tuple(sorted(rng.choice(5, size=3, replace=False) + 1))
            sub = A[np.ix_(np.array(rows) - 1, np.array(cols) - 1)]
            assert minor(A, rows, cols) == pytest.approx(leibniz_det(sub), rel=1e-10)

    def test_accepts_lex_index_set_objects(self):
        A = CERT_3X3
        rows = lex_index_sets(2, 3)
        assert minor(A, rows[0], rows[0]) == minor(A, (1, 2), (1, 2))

    def test_bad_selectors(self):
        A = np.eye(3)
        with pytest.raises(DomainError):
            minor(A, (1, 4), (1, 2))
        with pytest.raises(DomainError):
            minor(A, (2, 1), (1, 2))
        with pytest.raises(DomainError):
            minor(A, (1, 2), (1,))

    def test_principal_minors_cover_triangular_determinant(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            A = np.triu(rng.standard_normal((n, n)))
            diag = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
            A[np.arange(n), np.arange(n)] = diag
            full = tuple(range(1, n + 1))
            det = minor(A, full, full)
            ref = float(np.prod(diag))
            assert abs(det - ref) <= 1e-10 * abs(ref)

    def test_minor_table_matches_minor_calls(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((5, 5))
        for k in (1, 2, 3):
            table = minor_table(A, k)
            sets = lex_index_sets(k, 5)
            for i, r in enumerate(sets):
                for j, c in enumerate(sets):
                    assert table[i, j] == minor(A, r, c)

    def test_det_stack_rejects_nothing_square(self):
        with pytest.raises(DomainError):
            minor_table(np.eye(3), 4)


class TestSpectralReport:
    def test_radius_two_regression(self):
        rep = spectral_report(CYCLIC_WEDGE)
        assert rep.spectral_radius == pytest.approx(2.0, abs=1e-9)

    def test_identity_moduli(self):
        rep = spectral_report(np.eye(3))
        np.testing.assert_allclose(rep.moduli, np.ones(3))

    def test_mixed_sign_matrix_is_schur(self):
        assert spectral_report(DT_NO_DLF).spectral_radius < 1.0

    def test_moduli_sorted_and_radius_consistent(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            rep = spectral_report(rng.standard_normal((n, n)))
            assert np.all(np.diff(rep.moduli) <= 1e-14)
            assert rep.spectral_radius == rep.moduli[0]

    def test_eigenvalue_product_equals_determinant(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            A = rng.standard_normal((n, n))
            rep = spectral_report(A)
            prod = complex(np.prod(rep.eigenvalues))
            det = float(np.linalg.det(A))
            assert abs(prod - det) <= 1e-8 * max(1e-12, abs(det))

    def test_conjugate_consistency(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = rng.standard_normal((5, 5))
            w = spectral_report(A).eigenvalues
            # the spectrum of a real matrix is closed under conjugation
            for lam in w:
                assert np.min(np.abs(w - np.conj(lam))) <= 1e-8 * max(1.0, abs(lam))

    def test_rejects_rectangular(self):
        with pytest.raises(DomainError):
            spectral_report(np.ones((2, 3)))


class TestPositiveDefinite:
    def test_identity(self):
        ok, margin = is_positive_definite(np.eye(3), tol=1e-12)
        assert ok and margin == pytest.approx(1.0, abs=1e-12)

    def test_indefinite_symmetric(self):
        # eigenvalues of [[1,2],[2,1]] are 3 and -1
        ok, margin = is_positive_definite(np.array([[1.0, 2.0], [2.0, 1.0]]), tol=1e-12)
        assert not ok and margin == pytest.approx(-1.0, abs=1e-12)

    def test_zero_matrix_is_only_semidefinite(self):
        assert not is_positive_definite(np.zeros((3, 3))).ok

    def test_symmetrizes_before_testing(self):
        skew = np.array([[1.0, 10.0], [-10.0, 1.0]])
        ok, margin = is_positive_definite(skew)
        assert ok and margin == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_leading_minor_criterion(self):
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(2, 4))
            S = rng.standard_normal((n, n))
            S = 0.5 * (S + S.T)
            ok, margin = is_positive_definite(S, tol=0.0)
            if abs(margin) < 1e-8:
                continue  # boundary cases are tolerance-ambiguous for both tests
            assert ok == sylvester_positive_definite(S)
            checked += 1
        assert checked > 250

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            is_positive_definite(np.array([[np.nan, 0.0], [0.0, 1.0]]))
