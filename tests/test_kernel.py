"""The Laplace minor kernel, witness unranking and the compound radius."""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from kposi import (
    CapacityError,
    CertificationFailure,
    CyclicSpec,
    DomainError,
    KDiagCertificate,
    analyze_cyclic,
    build_cyclic,
    certify_k_diag_stability,
    lex_index_sets,
    minor,
    minor_table,
    mult_compound,
    spectral_report,
)
from kposi import matcore
from kposi.matcore import lex_index_set_at
from kposi.stability import COMPOUND_NOT_SCHUR, _compound_radius

from oracles import leibniz_det


def hadamard_scale(A, rows, cols):
    """Product of the row norms of A[rows | cols]: a bound on that minor."""
    return float(np.prod(np.linalg.norm(A[np.ix_(rows, cols)], axis=1)))


class TestLaplaceKernel:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_full_table_matches_leibniz_at_n8(self, k):
        rng = np.random.default_rng(50 + k)
        A = rng.standard_normal((8, 8))
        table = minor_table(A, k)
        sets = list(combinations(range(8), k))
        assert table.shape == (len(sets), len(sets))
        for i, r in enumerate(sets):
            for j, c in enumerate(sets):
                ref = leibniz_det(A[np.ix_(r, c)])
                assert abs(table[i, j] - ref) <= 1e-13 * hadamard_scale(A, r, c)

    @pytest.mark.parametrize("n,k", [(10, 3), (10, 5), (12, 4), (12, 6)])
    def test_random_entries_match_leibniz(self, n, k):
        rng = np.random.default_rng(n * 10 + k)
        A = rng.uniform(-1.0, 1.0, (n, n))
        table = minor_table(A, k)
        sets = list(combinations(range(n), k))
        for i, j in rng.integers(0, len(sets), (60, 2)):
            r, c = sets[i], sets[j]
            ref = leibniz_det(A[np.ix_(r, c)])
            assert abs(table[i, j] - ref) <= 1e-13 * hadamard_scale(A, r, c)

    @pytest.mark.parametrize("shape", [(4, 4), (5, 3), (3, 6)])
    def test_orders_one_and_two_equal_the_closed_forms(self, shape):
        rng = np.random.default_rng(sum(shape))
        A = rng.standard_normal(shape)
        np.testing.assert_array_equal(minor_table(A, 1), A)
        R = np.array(list(combinations(range(shape[0]), 2)))
        C = np.array(list(combinations(range(shape[1]), 2)))
        a = lambda p, q: A[R[:, p][:, None], C[:, q][None, :]]  # noqa: E731
        closed = a(0, 0) * a(1, 1) - a(0, 1) * a(1, 0)
        np.testing.assert_array_equal(minor_table(A, 2), closed)

    def test_batched_wedges_equal_single_wedges(self):
        from kposi.nonlinear import _wedge_coords_batch

        # long enough to span several kernel calls
        rng = np.random.default_rng(60)
        tuples = rng.standard_normal((600, 3, 6))
        batch = _wedge_coords_batch(tuples)
        assert batch.shape == (600, 20) and batch.flags.c_contiguous
        for t in range(600):
            np.testing.assert_array_equal(batch[t], mult_compound(tuples[t].T, 3)[:, 0])

    def test_minor_equals_its_table_entry_at_high_order(self):
        rng = np.random.default_rng(61)
        A = rng.standard_normal((9, 9))
        table = minor_table(A, 6)
        sets = list(combinations(range(1, 10), 6))
        for i, j in rng.integers(0, len(sets), (20, 2)):
            assert table[i, j] == minor(A, sets[i], sets[j])

    def test_table_guard_fires_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                minor_table(np.eye(20), 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_laplace_tables_are_priced_by_their_products(self):
        # R*C*k = 13.2M products fit the guard; the k^2 price of a
        # gathered block (53M) refused this table
        A = np.random.default_rng(66).uniform(-1.0, 1.0, (16, 16))
        tracemalloc.start()
        try:
            table = minor_table(A, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.shape == (1820, 1820)
        assert peak < 40_000_000
        rng = np.random.default_rng(67)
        for i, j in rng.integers(0, 1820, (20, 2)):
            rows, cols = lex_index_set_at(int(i), 4, 16), lex_index_set_at(int(j), 4, 16)
            assert table[i, j] == minor(A, rows, cols)

    def test_table_peak_stays_near_one_table(self):
        # the top level is built in row blocks into one table, so the peak
        # is the table, the level below it and block temporaries
        A = np.random.default_rng(64).uniform(-1.0, 1.0, (12, 12))
        minor_table(A, 5)
        tracemalloc.start()
        try:
            table = minor_table(A, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * table.nbytes

    @staticmethod
    def certify_large_chain():
        rng = np.random.default_rng(65)
        spec = CyclicSpec(12, tuple(rng.uniform(0.1, 0.4, 12)), tuple(rng.uniform(0.1, 0.4, 12)), ell=5)
        return build_cyclic(spec)

    def test_certify_holds_few_compound_sized_arrays(self):
        # at most two compound-sized arrays at once: the compound while the
        # kernel builds it and during the solves, X = D^(1/2) M and its Gram
        # in the Stein step; the copies LAPACK makes inside solve and
        # eigvalsh are not traced
        A = self.certify_large_chain()
        certify_k_diag_stability(A, 5)
        tracemalloc.start()
        try:
            cert = certify_k_diag_stability(A, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(cert, KDiagCertificate) and cert.r == 792
        assert peak <= 2.5 * 792**2 * 8

    def test_certify_solves_in_the_compounds_own_buffer(self, monkeypatch):
        # I - M is built in M's buffer, so when each solve starts the only
        # traced compound-sized array is M itself
        A = self.certify_large_chain()
        certify_k_diag_stability(A, 5)
        solve, traced = np.linalg.solve, []

        def recording_solve(*args):
            traced.append(tracemalloc.get_traced_memory()[0])
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        tracemalloc.start()
        try:
            cert = certify_k_diag_stability(A, 5)
        finally:
            tracemalloc.stop()
        assert isinstance(cert, KDiagCertificate) and cert.r == 792
        assert len(traced) == 2
        assert max(traced) <= 1.25 * 792**2 * 8

    def test_orders_above_the_expansion_agree_with_it(self):
        # order 9 is factorised block by block; expanding it along its
        # first row over the Laplace table of order 8 must give the same
        rng = np.random.default_rng(62)
        A = rng.standard_normal((10, 10))
        t9, t8 = minor_table(A, 9), minor_table(A, 8)
        sets9 = list(combinations(range(10), 9))
        rank8 = {s: i for i, s in enumerate(combinations(range(10), 8))}
        for i, r in enumerate(sets9):
            for j, c in enumerate(sets9):
                assert t9[i, j] == minor(A, [x + 1 for x in r], [x + 1 for x in c])
                expanded = sum(
                    (-1) ** p * A[r[0], c[p]] * t8[rank8[r[1:]], rank8[c[:p] + c[p + 1 :]]]
                    for p in range(9)
                )
                assert abs(t9[i, j] - expanded) <= 1e-13 * hadamard_scale(A, r, c)

    def test_near_full_orders_of_large_matrices(self):
        rng = np.random.default_rng(63)
        A = np.triu(rng.uniform(0.5, 2.0, (20, 20)))
        top = mult_compound(A, 19)
        assert top.shape == (20, 20)
        # principal minors of a triangular matrix: products of its diagonal
        assert top[0, 0] == pytest.approx(np.prod(np.diag(A)[:19]), rel=1e-12)
        assert top[-1, -1] == pytest.approx(np.prod(np.diag(A)[1:]), rel=1e-12)
        full = tuple(range(1, 31))
        assert minor(2.0 * np.eye(30), full, full) == pytest.approx(2.0**30, rel=1e-12)


class TestRowBlocks:
    """Levels above matcore._LEVEL_BLOCK entries are built in row blocks, bit for bit."""

    @staticmethod
    def whole_and_blocked(monkeypatch, A, q, block):
        monkeypatch.setattr(matcore, "_LEVEL_BLOCK", 1 << 62)
        whole = matcore._minors(A, q)
        monkeypatch.setattr(matcore, "_LEVEL_BLOCK", block)
        blocked = matcore._minors(A, q)
        assert blocked.flags.c_contiguous and blocked.shape == whole.shape
        return whole, blocked

    @pytest.mark.parametrize("block", [1, 3, 40])
    @pytest.mark.parametrize("shape", [(9, 9), (8, 11), (11, 7)])
    def test_tables_equal_the_one_block_tables(self, monkeypatch, shape, block):
        A = np.random.default_rng(sum(shape) + block).standard_normal(shape)
        for q in range(1, min(*shape, 8) + 1):
            whole, blocked = self.whole_and_blocked(monkeypatch, A, q, block)
            assert blocked.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("block", [1, 3, 40])
    @pytest.mark.parametrize("shape", [(50, 7, 3), (4, 3, 8, 5)])
    def test_batched_wedge_stacks_equal_the_one_block_stacks(self, monkeypatch, shape, block):
        A = np.random.default_rng(len(shape) + block).standard_normal(shape)
        for q in range(1, shape[-1] + 1):
            whole, blocked = self.whole_and_blocked(monkeypatch, A, q, block)
            assert blocked.tobytes() == whole.tobytes()


class TestLexUnranking:
    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_every_rank_matches_the_full_list(self, n):
        for k in range(1, n + 1):
            sets = lex_index_sets(k, n)
            assert [lex_index_set_at(i, k, n) for i in range(len(sets))] == sets

    def test_rank_out_of_range(self):
        with pytest.raises(DomainError):
            lex_index_set_at(math.comb(6, 3), 3, 6)
        with pytest.raises(DomainError):
            lex_index_set_at(-1, 3, 6)


def complex_spectrum(rng, n):
    """Block-diagonal rotations scaled below and above 1, mixed by a similarity."""
    blocks = np.zeros((n, n))
    for i in range(0, n - 1, 2):
        theta, rho = rng.uniform(0.2, 3.0), rng.uniform(0.3, 1.5)
        c, s = np.cos(theta), np.sin(theta)
        blocks[i : i + 2, i : i + 2] = rho * np.array([[c, -s], [s, c]])
    if n % 2:
        blocks[-1, -1] = rng.uniform(-1.2, 1.2)
    T = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    return T @ blocks @ np.linalg.inv(T)


class TestCompoundRadius:
    def assert_radius(self, A, k):
        direct = spectral_report(mult_compound(A, k)).spectral_radius
        assert abs(_compound_radius(A, k) - direct) <= 1e-12 * direct

    def test_random(self):
        rng = np.random.default_rng(70)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            A = rng.standard_normal((n, n))
            for k in range(1, n):
                self.assert_radius(A, k)

    def test_complex_spectrum(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            A = complex_spectrum(rng, n)
            assert np.any(np.abs(spectral_report(A).eigenvalues.imag) > 0.1)
            for k in range(1, n):
                self.assert_radius(A, k)

    def test_sign_flipped_certificate(self):
        rng = np.random.default_rng(72)
        A = -rng.uniform(0.0, 1.0, (5, 5))
        A *= 0.8 / np.max(np.sum(-A, axis=1))
        cert = certify_k_diag_stability(A, 1)
        assert isinstance(cert, KDiagCertificate) and cert.sign_flipped
        direct = spectral_report(mult_compound(A, 1)).spectral_radius
        assert abs(cert.compound_spectral_radius - direct) <= 1e-12 * direct

    def test_non_schur_failure(self):
        spec = CyclicSpec(8, (0.6,) * 8, (0.9,) * 8, ell=3)
        A = build_cyclic(spec)
        res = certify_k_diag_stability(A, 3)
        assert isinstance(res, CertificationFailure) and res.reason == COMPOUND_NOT_SCHUR
        direct = spectral_report(mult_compound(A, 3)).spectral_radius
        assert direct > 1.0
        assert abs(res.compound_spectral_radius - direct) <= 1e-12 * direct

    @pytest.fixture
    def eigvals_shapes(self, monkeypatch):
        """The shapes of the matrices np.linalg.eigvals is called on."""
        shapes = []
        eigvals = np.linalg.eigvals

        def recorded(M):
            shapes.append(np.shape(M))
            return eigvals(M)

        monkeypatch.setattr(np.linalg, "eigvals", recorded)
        return shapes

    def test_certify_solves_no_eigenproblem_above_order_n(self, eigvals_shapes):
        rng = np.random.default_rng(73)
        spec = CyclicSpec(9, tuple(rng.uniform(0.1, 0.4, 9)), tuple(rng.uniform(0.1, 0.4, 9)), ell=3)
        cert = certify_k_diag_stability(build_cyclic(spec), 3)
        assert isinstance(cert, KDiagCertificate) and cert.r == 84
        assert eigvals_shapes == [(9, 9)]

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_analyze_cyclic_solves_no_eigenproblem_above_order_n(self, eigvals_shapes, ell):
        # an odd ell adds the Schur test of A itself, from the same solve
        rng = np.random.default_rng(74)
        spec = CyclicSpec(9, tuple(rng.uniform(0.1, 0.4, 9)), tuple(rng.uniform(0.1, 0.4, 9)), ell=ell)
        rep = analyze_cyclic(spec)
        assert rep.ell_diag_stable
        assert (rep.diag_stable_if_odd is None) == (ell % 2 == 0)
        assert eigvals_shapes == [(9, 9)]
