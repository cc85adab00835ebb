"""Invariants of the verdict path (classify, k-positivity, certify):
the compound radius, the construction's errors, one minor table per call,
and shared witness index sets."""

import sys
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from kposi import (
    DomainError,
    PreconditionError,
    certify_k_diag_stability,
    classify_sign_regularity,
    is_k_positive_system,
    matcore,
    spectral_report,
)
from kposi.examples import CERT_3X3, CT_NO_DLF, CYCLIC_WEDGE, DT_NO_DLF
from kposi.matcore import LexIndexSet, lex_index_set_at, lex_index_sets
from kposi.stability import _compound_radius, _dlf_solve


def rotation(theta, rho):
    c, s = np.cos(theta), np.sin(theta)
    return rho * np.array([[c, -s], [s, c]])


def tied_spectra():
    """Matrices whose eigenvalue moduli tie: conjugate pairs, +-lambda pairs, equal rotations."""
    rng = np.random.default_rng(13)
    yield np.diag([0.9, -0.9, 0.5, -0.5, 0.3])
    yield np.diag([0.7, 0.7, -0.7, 0.2])
    R = np.zeros((5, 5))
    R[:2, :2], R[2:4, 2:4], R[4, 4] = rotation(0.4, 0.8), rotation(2.1, 0.8), -0.8
    yield R
    yield R[::-1, ::-1].copy()
    for A in (DT_NO_DLF, CT_NO_DLF, CERT_3X3, CYCLIC_WEDGE):
        yield np.asarray(A)
    for n in range(2, 9):
        for _ in range(6):
            yield rng.standard_normal((n, n))
        T = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        blocks = np.zeros((n, n))
        for i in range(0, n - 1, 2):
            blocks[i : i + 2, i : i + 2] = rotation(rng.uniform(0.2, 3.0), 0.9)
        if n % 2:
            blocks[-1, -1] = -0.9
        yield T @ blocks @ np.linalg.inv(T)


class TestCompoundRadius:
    def test_equals_the_product_of_the_reported_moduli_bit_for_bit(self):
        seen_complex = seen_tie = False
        for A in tied_spectra():
            moduli = spectral_report(A).moduli
            seen_complex |= bool(np.any(spectral_report(A).eigenvalues.imag != 0.0))
            seen_tie |= bool(np.any(moduli[1:] == moduli[:-1]))
            for k in range(1, A.shape[0] + 1):
                expected = float(np.prod(moduli[:k]))
                got = _compound_radius(A, k)
                assert got == expected, (A, k, got, expected)
        assert seen_complex and seen_tie


class TestDlfSolveErrors:
    """d = z / xi must come out finite and positive; the class and text of
    each refusal are part of the certify contract."""

    def solve(self, M, x, y):
        # z / xi overflows or divides inf by inf here, which numpy reports
        # as a RuntimeWarning before the refusal is raised
        with np.errstate(over="ignore", invalid="ignore"):
            return _dlf_solve(np.asarray(M, dtype=float), np.asarray(x), np.asarray(y))

    def test_nan_entry(self):
        # xi = (inf, 1e200) and z = (inf, inf), so d = (nan, inf)
        with pytest.raises(DomainError, match=r"^D contains NaN or infinite entries$"):
            self.solve([[0.0, 1e200], [0.0, 0.0]], [1.0, 1e200], [1e200, 1.0])

    def test_overflowing_entry(self):
        with pytest.raises(DomainError, match=r"^D contains NaN or infinite entries$"):
            self.solve(np.zeros((2, 2)), [1e-300, 1.0], [1e300, 1.0])

    def test_underflowing_entry(self):
        with pytest.raises(
            PreconditionError, match=r"^D must have strictly positive diagonal entries$"
        ):
            self.solve(np.zeros((2, 2)), [1e300, 1.0], [1e-300, 1.0])

    def test_defaults_and_explicit_ones_agree(self):
        M = 0.5 * np.abs(CERT_3X3)
        default = _dlf_solve(M, None, None)
        explicit = _dlf_solve(M, np.ones(3), np.ones(3))
        for a, b in zip(default, explicit):
            assert a.tobytes() == b.tobytes()


@pytest.fixture
def table_calls(monkeypatch):
    """Count the calls that reach matcore.minor_table through any kposi module."""
    calls = []
    original = matcore.minor_table

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if (name == "kposi" or name.startswith("kposi.")) and getattr(mod, "minor_table", None) is original:
            monkeypatch.setattr(mod, "minor_table", counted)
    return calls


# (matrix, k): certified, flipped and certified, not sign-regular, not Schur
VERDICT_CASES = [
    (CERT_3X3, 2),
    (-0.5 * np.abs(CERT_3X3), 1),
    (CERT_3X3, 1),
    (CYCLIC_WEDGE, 1),
    (np.diag([0.5, 1.2, 1.3]) + np.diag([0.2, 0.3], 1), 2),
]


class TestOneMinorTablePerCall:
    @pytest.mark.parametrize("A, k", VERDICT_CASES)
    @pytest.mark.parametrize(
        "verdict", [classify_sign_regularity, is_k_positive_system, certify_k_diag_stability]
    )
    def test_each_verdict_call_builds_one_table(self, table_calls, verdict, A, k):
        verdict(A, k)
        assert len(table_calls) == 1
        assert table_calls[0][1] == k


class TestWitnessSets:
    def test_repeated_unranking_gives_equal_frozen_sets(self):
        a, b = lex_index_set_at(17, 3, 7), lex_index_set_at(17, 3, 7)
        assert a == b == lex_index_sets(3, 7)[17] == LexIndexSet(7, (2, 3, 6))
        with pytest.raises(FrozenInstanceError):
            a.indices = (1, 2, 3)
        with pytest.raises(FrozenInstanceError):
            a.n = 8
        assert lex_index_set_at(17, 3, 7) == LexIndexSet(7, (2, 3, 6))

    def test_witnesses_of_repeated_calls_are_equal_and_frozen(self):
        first = classify_sign_regularity(CT_NO_DLF, 2)
        second = classify_sign_regularity(CT_NO_DLF, 2)
        assert first == second
        for w in (first.witness_min, *first.witness_conflict):
            with pytest.raises(FrozenInstanceError):
                w.rows.indices = ()
            with pytest.raises(FrozenInstanceError):
                w.cols = w.rows
            assert isinstance(w.rows.indices, tuple) and isinstance(w.cols.indices, tuple)
        cert = certify_k_diag_stability(CERT_3X3, 1)
        assert cert == certify_k_diag_stability(CERT_3X3, 1)
        with pytest.raises(FrozenInstanceError):
            cert.witness.rows.indices = (2,)
