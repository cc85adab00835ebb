import math
import tracemalloc
import warnings

import numpy as np
import pytest

from kposi import (
    CapacityError,
    DomainError,
    is_positive_definite,
    k_content,
    minor,
    minor_table,
    mult_compound,
    spectral_report,
    wedge,
)
from kposi import matcore
from kposi.examples import CERT_3X3, DT_NO_DLF

from oracles import well_conditioned


def cyclic_3x3(alphas, betas, ell):
    a1, a2, a3 = alphas
    b1, b2, b3 = betas
    return np.array(
        [[a1, b1, 0.0], [0.0, a2, b2], [(-1.0) ** (ell + 1) * b3, 0.0, a3]]
    )


class TestMultCompound:
    @pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 2), (5, 3), (5, 5)])
    def test_identity_compound(self, n, k):
        np.testing.assert_array_equal(mult_compound(np.eye(n), k), np.eye(math.comb(n, k)))

    @pytest.mark.parametrize("ell", [1, 2])
    def test_cyclic_order2_closed_form(self, ell):
        rng = np.random.default_rng(10 + ell)
        a = rng.uniform(0.1, 2.0, 3)
        b = rng.uniform(0.1, 2.0, 3)
        A = cyclic_3x3(a, b, ell)
        s = (-1.0) ** ell
        expected = np.array(
            [
                [a[0] * a[1], a[0] * b[1], b[0] * b[1]],
                [s * b[0] * b[2], a[0] * a[2], a[2] * b[0]],
                [s * a[1] * b[2], s * b[1] * b[2], a[1] * a[2]],
            ]
        )
        np.testing.assert_allclose(mult_compound(A, 2), expected, rtol=0, atol=1e-14)

    def test_strongly_positive_order2_minors(self):
        assert np.min(mult_compound(DT_NO_DLF, 2)) > 0.0

    def test_order_one_is_the_matrix(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(mult_compound(A, 1), A)

    def test_top_order_is_determinant(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 4))
        C = mult_compound(A, 4)
        assert C.shape == (1, 1)
        assert C[0, 0] == pytest.approx(np.linalg.det(A), rel=1e-12)

    def test_entries_equal_minor_calls(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((5, 5))
        C = mult_compound(A, 3)
        assert C[0, 0] == minor(A, (1, 2, 3), (1, 2, 3))
        assert C[9, 9] == minor(A, (3, 4, 5), (3, 4, 5))

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            mult_compound(np.eye(40), 20)


class TestCompoundProperties:
    """Small-scale structural checks; the full randomized sweep lives in the
    acceptance suite."""

    def test_multiplicative(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, n))
            for k in range(1, n + 1):
                lhs = mult_compound(A @ B, k)
                rhs = mult_compound(A, k) @ mult_compound(B, k)
                scale = max(1.0, float(np.max(np.abs(rhs))))
                assert float(np.max(np.abs(lhs - rhs))) <= 1e-8 * scale

    def test_transpose(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            A = rng.standard_normal((n, n))
            for k in range(1, n + 1):
                diff = mult_compound(A.T, k) - mult_compound(A, k).T
                assert float(np.max(np.abs(diff))) <= 1e-12

    def test_inverse(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            A = well_conditioned(rng, n)
            for k in range(1, n + 1):
                prod = mult_compound(np.linalg.inv(A), k) @ mult_compound(A, k)
                assert np.max(np.abs(prod - np.eye(prod.shape[0]))) <= 1e-7

    def test_diagonal(self):
        rng = np.random.default_rng(6)
        from kposi import lex_index_sets

        for _ in range(20):
            n = int(rng.integers(2, 7))
            d = rng.uniform(-2.0, 2.0, n)
            for k in range(1, n + 1):
                C = mult_compound(np.diag(d), k)
                off = C - np.diag(np.diag(C))
                assert np.max(np.abs(off)) == 0.0
                expected = [np.prod(d[np.array(s.indices) - 1]) for s in lex_index_sets(k, n)]
                np.testing.assert_allclose(np.diag(C), expected, rtol=1e-12)

    def test_eigenvalue_products(self):
        from itertools import combinations

        rng = np.random.default_rng(7)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n))
            eig = np.linalg.eigvals(A)
            for k in range(1, n + 1):
                comp_eig = spectral_report(mult_compound(A, k)).eigenvalues
                for subset in combinations(range(n), k):
                    target = complex(np.prod(eig[list(subset)]))
                    assert np.min(np.abs(comp_eig - target)) <= 1e-6 * max(1.0, abs(target))

    def test_schur_preserved(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            A = rng.standard_normal((n, n))
            A *= rng.uniform(0.2, 0.95) / spectral_report(A).spectral_radius
            for k in range(1, n + 1):
                assert spectral_report(mult_compound(A, k)).spectral_radius < 1.0

    def test_positive_definite_preserved(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            R = rng.standard_normal((n, n))
            A = R @ R.T + 0.2 * np.eye(n)
            for k in range(1, n + 1):
                assert is_positive_definite(mult_compound(A, k)).ok


class TestWedge:
    def test_cross_product_coordinates(self):
        rng = np.random.default_rng(12)
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        w = wedge([a, b])
        expected = np.array(
            [a[0] * b[1] - b[0] * a[1], a[0] * b[2] - b[0] * a[2], a[1] * b[2] - b[1] * a[2]]
        )
        np.testing.assert_allclose(w.coords, expected, rtol=0, atol=1e-15)
        assert np.linalg.norm(w.coords) == pytest.approx(np.linalg.norm(np.cross(a, b)))

    def test_standard_basis_full_wedge(self):
        basis = [np.eye(4)[:, j] for j in range(4)]
        w = wedge(basis)
        assert w.coords.shape == (1,)
        assert w.coords[0] == 1.0

    def test_constant_vector_wedge_closed_form(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(3)
        w = wedge([0.5 * np.ones(3), x])
        expected = 0.5 * np.array([x[1] - x[0], x[2] - x[0], x[2] - x[1]])
        np.testing.assert_allclose(w.coords, expected, rtol=0, atol=1e-15)

    def test_matches_column_stacked_compound(self):
        rng = np.random.default_rng(14)
        vs = [rng.standard_normal(5) for _ in range(3)]
        w = wedge(vs)
        np.testing.assert_array_equal(
            w.coords, mult_compound(np.column_stack(vs), 3)[:, 0]
        )

    @staticmethod
    def traced_wedge(vs):
        tracemalloc.start()
        try:
            w = wedge(vs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return w, peak

    def test_five_vectors_in_r30_run_within_their_price(self, budget_prices, cold_caches):
        # C(30,5) = 142506 coordinates, a one-column table priced with the
        # build of its Laplace plan (2.7 MB of row indices)
        vs = np.random.default_rng(15).standard_normal((5, 30))
        w, peak = self.traced_wedge(vs)
        assert w.coords.shape == (142506,)
        (price, what), = budget_prices
        assert what == "a minor table of 142506x1 order-5 minors" and peak <= price
        stacked, cols = np.column_stack(vs), tuple(range(1, 6))
        for i in np.random.default_rng(16).integers(0, 142506, 10):
            assert w.coords[i] == minor(stacked, matcore.lex_index_set_at(int(i), 5, 30), cols)

    @pytest.mark.parametrize("k, n", [(3, 60), (5, 24), (8, 16)])
    def test_one_column_table_at_the_budget_runs_and_one_over_it_is_refused(self, monkeypatch, budget_prices, cold_caches,
                                                                          k, n):
        # with the budget at the price of k vectors in R^n, their wedge runs
        # within it, plan build included, and k vectors in R^(n+1) are
        # refused before anything of their size is made
        monkeypatch.setattr(matcore, "_BYTE_BUDGET", matcore._table_bytes(n, k, k))
        rng = np.random.default_rng(17)
        w, peak = self.traced_wedge(rng.standard_normal((k, n)))
        assert w.coords.shape == (math.comb(n, k),)
        assert budget_prices == [(matcore._BYTE_BUDGET, f"a minor table of {math.comb(n, k)}x1 order-{k} minors")]
        assert peak <= matcore._BYTE_BUDGET
        vs = rng.standard_normal((k, n + 1))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=f"^a minor table of {math.comb(n + 1, k)}x1 order-{k} minors"):
                wedge(vs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            wedge([np.ones(3), np.ones(4)])
        with pytest.raises(DomainError):
            wedge([np.ones(2), np.ones(2), np.ones(2)])


class TestKContent:
    def test_unit_square(self):
        assert k_content([np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]) == 1.0

    def test_axis_aligned_rectangle(self):
        # area 2 * 3 = 6
        assert k_content([np.array([2.0, 0.0, 0.0]), np.array([0.0, 3.0, 0.0])]) == 6.0

    def test_collinear_degenerate(self):
        a = np.array([1.0, 2.0, -1.0])
        assert k_content([a, 2.0 * a]) == 0.0

    def test_parallelogram_area(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            assert k_content([a, b]) == pytest.approx(
                float(np.linalg.norm(np.cross(a, b))), rel=1e-12
            )


# 1e160 * CERT_3X3: its 2-minors (~1e320) and its determinant leave the
# float range; the 1e200 matrix's 2-minor is inf - inf, that is NaN
@pytest.mark.parametrize(
    "build",
    [
        lambda: minor_table(1e160 * CERT_3X3, 2),
        lambda: mult_compound(np.full((2, 2), 1e200), 2),
        lambda: wedge(list(1e160 * CERT_3X3.T)),
    ],
)
def test_minors_beyond_the_float_range_are_refused_without_a_warning(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="float range"):
            build()
