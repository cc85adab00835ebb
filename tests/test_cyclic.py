import numpy as np
import pytest

from kposi import (
    CyclicAnalysis,
    CyclicSpec,
    KDiagCertificate,
    DomainError,
    PreconditionError,
    analyze_cyclic,
    build_cyclic,
    certify_k_diag_stability,
    classify_sign_regularity,
    is_schur,
    minor_table,
    mult_compound,
    spectral_report,
)
from kposi.examples import CYCLIC_WEDGE
from kposi.matcore import zero_tol
from kposi.signreg import SR, SSR


def random_spec(rng, n, ell, scale=1.2):
    return CyclicSpec(
        n=n,
        alphas=tuple(rng.uniform(0.0, scale, n)),
        betas=tuple(rng.uniform(0.0, scale, n)),
        ell=ell,
    )


class TestBuildCyclic:
    def test_3x3_even_feedback_layout(self):
        spec = CyclicSpec(3, (0.3, 0.7, 1.1), (0.2, 0.4, 0.9), ell=2)
        A = build_cyclic(spec)
        expected = np.array([[0.3, 0.2, 0.0], [0.0, 0.7, 0.4], [-0.9, 0.0, 1.1]])
        np.testing.assert_array_equal(A, expected)

    def test_zero_betas_gives_diagonal(self):
        spec = CyclicSpec(4, (1.0, 2.0, 3.0, 4.0), (0.0,) * 4, ell=1)
        np.testing.assert_array_equal(build_cyclic(spec), np.diag([1.0, 2.0, 3.0, 4.0]))

    def test_2x2_odd_feedback(self):
        spec = CyclicSpec(2, (0.0, 0.0), (1.0, 1.0), ell=1)
        np.testing.assert_array_equal(build_cyclic(spec), np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_only_parity_of_ell_matters(self):
        a, b = (0.5, 0.6, 0.7), (0.1, 0.2, 0.3)
        np.testing.assert_array_equal(
            build_cyclic(CyclicSpec(3, a, b, ell=1)), build_cyclic(CyclicSpec(3, a, b, ell=5))
        )

    def test_negative_parameters_rejected(self):
        with pytest.raises(PreconditionError):
            CyclicSpec(3, (0.1, -0.2, 0.3), (0.1, 0.2, 0.3), ell=1)
        with pytest.raises(PreconditionError):
            CyclicSpec(3, (0.1, 0.2, 0.3), (0.1, 0.2, 0.3), ell=-1)

    def test_too_small_dimension_rejected(self):
        with pytest.raises(PreconditionError):
            CyclicSpec(1, (0.5,), (0.5,), ell=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_parameters_rejected(self, bad):
        # NaN passed the sign test and came out as NaN entries, inf as a
        # minor table beyond the float range
        with pytest.raises(DomainError, match="finite"):
            CyclicSpec(3, (bad, 0.1, 0.1), (0.2, 0.2, 0.2), ell=1)
        with pytest.raises(DomainError, match="finite"):
            CyclicSpec(3, (0.1, 0.1, 0.1), (0.2, bad, 0.2), ell=1)

    def test_integral_float_ell_is_stored_as_an_int(self):
        spec = CyclicSpec(3, (0.1, 0.1, 0.1), (0.2, 0.2, 0.2), ell=2.0)
        assert spec.ell == 2 and type(spec.ell) is int
        assert analyze_cyclic(spec) == analyze_cyclic(CyclicSpec(3, spec.alphas, spec.betas, ell=2))
        for bad in (2.5, np.nan, np.inf, "2"):
            with pytest.raises(PreconditionError, match="ell"):
                CyclicSpec(3, (0.1, 0.1, 0.1), (0.2, 0.2, 0.2), ell=bad)


class TestAnalyzeCyclic:
    def test_wedge_demo_matrix_is_cyclic_analysis(self):
        spec = CyclicSpec(3, (0.1, 0.05, 2.01), (1.9, 1.95, 0.01), ell=2)
        np.testing.assert_allclose(build_cyclic(spec), CYCLIC_WEDGE, atol=1e-15)
        rep = analyze_cyclic(spec)
        assert rep.sign_class_at_ell.verdict in (SR, SSR)
        assert rep.sign_class_at_ell.signature == 1
        assert rep.ell_diag_stable
        assert rep.diag_stable_if_odd is None

    def test_odd_order_reports_nonnegativity_and_schur_equivalence(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            spec = random_spec(rng, 4, ell=1)
            A = build_cyclic(spec)
            rep = analyze_cyclic(spec)
            assert rep.nonneg_entrywise is True
            assert np.min(A) >= 0.0
            assert rep.diag_stable_if_odd == is_schur(A).ok

    def test_pure_cycle_compound_on_stability_boundary(self):
        spec = CyclicSpec(3, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), ell=2)
        rep = analyze_cyclic(spec)
        assert rep.compound_rho == pytest.approx(1.0, abs=1e-12)
        assert not rep.ell_diag_stable

    def test_order_ell_minors_are_built_once(self, table_calls):
        spec = random_spec(np.random.default_rng(43), 7, ell=3)
        A = build_cyclic(spec)
        # rho(A^(3)) is the product of the 3 largest eigenvalue moduli of A
        rho = float(np.prod(np.sort(np.abs(np.linalg.eigvals(A)))[::-1][:3]))
        direct = spectral_report(mult_compound(A, 3)).spectral_radius
        assert abs(rho - direct) <= 1e-12 * direct
        expected = CyclicAnalysis(
            sign_class_at_ell=classify_sign_regularity(A, 3),
            ell_diag_stable=rho < 1.0 - zero_tol(),
            compound_rho=rho,
            diag_stable_if_odd=is_schur(A).ok,
            nonneg_entrywise=True,
        )
        table_calls.clear()  # the tables built for `expected` above
        assert analyze_cyclic(spec) == expected
        assert len(table_calls) == 1
        assert table_calls[0][1] == 3

    def test_order_out_of_range(self):
        spec = CyclicSpec(3, (0.1,) * 3, (0.1,) * 3, ell=3)
        with pytest.raises(PreconditionError):
            analyze_cyclic(spec)


class TestCyclicMinorStructure:
    """Module-scale randomized sweep; the acceptance suite runs the full one."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_minor_signs_and_stability_link(self, n):
        rng = np.random.default_rng(100 + n)
        for ell in range(1, n):
            for _ in range(30):
                spec = random_spec(rng, n, ell)
                A = build_cyclic(spec)
                minors = minor_table(A, ell)
                scale = max(1.0, float(np.max(np.abs(minors))))
                if ell % 2 == 0:
                    assert float(np.min(minors)) >= -1e-10 * scale
                else:
                    assert float(np.min(A)) >= 0.0
                rho = spectral_report(mult_compound(A, ell)).spectral_radius
                if rho < 1.0 - 1e-9:
                    cert = certify_k_diag_stability(A, ell)
                    assert isinstance(cert, KDiagCertificate)
                    assert cert.stein_margin > 0.0
