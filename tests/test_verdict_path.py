"""Invariants of the verdict path (classify, k-positivity, certify):
the compound radius, the construction's errors and solves, inputs left
as they were, one minor table per call, and shared witness index sets."""

import dataclasses
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

from kposi import (
    DomainError,
    KDiagCertificate,
    PreconditionError,
    certify_k_diag_stability,
    classify_sign_regularity,
    construct_dlf_nonneg,
    is_k_positive_system,
    minor_table,
    spectral_report,
    stein_holds,
)
from kposi.examples import CERT_3X3, CT_NO_DLF, CYCLIC_WEDGE, DT_NO_DLF
from kposi.matcore import LexIndexSet, lex_index_set_at, lex_index_sets
from kposi.stability import _compound_radius, _dlf_solve

from test_kernel import chain12


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
            return _dlf_solve(lambda: np.asarray(M, dtype=float), np.asarray(x), np.asarray(y))

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

    @pytest.mark.parametrize("A, k", [(0.5 * np.abs(CERT_3X3), 1), (CERT_3X3, 2), (chain12(), 5)],
                             ids=["abs-cert3x3-1", "cert3x3-2", "chain12-5"])
    def test_defaults_and_explicit_ones_agree(self, A, k):
        # certify sizes the all-ones x and y it solves with where neither
        # is given (chain12 at k = 5 reads its compound from the pattern
        # plan, with no table to size them by)
        default = certify_k_diag_stability(A, k)
        r = default.r
        explicit = certify_k_diag_stability(A, k, x=np.ones(r), y=np.ones(r))
        assert isinstance(default, KDiagCertificate)
        for field in dataclasses.fields(default):
            a, b = getattr(default, field.name), getattr(explicit, field.name)
            assert (a.tobytes() == b.tobytes()) if isinstance(a, np.ndarray) else a == b, field.name


BENCH = Path(__file__).resolve().parents[1] / "bench"

# nonnegative and Schur, with -0.0 entries: its compounds of orders 1-3
# hold -0.0 minors, as do those of its negation
SIGNED_ZEROS = np.array(
    [[0.3, 0.1, 0.0, -0.0], [0.1, 0.2, -0.0, 0.0], [0.0, -0.0, 0.5, -0.0], [-0.0, 0.0, 0.0, 0.3]]
)


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's workload module, for its seeded input pools."""
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    return workloads


def certificate_cases(workloads, tmp_path):
    """(A, k) of the seed-1 verdict-batch certify calls and the signed-zero
    matrix and its negation at orders 1-3: every one solves by LU (the
    certify-large chains sum Neumann series; see test_neumann.py)."""
    pool = workloads.verdict_pool(1, tmp_path)
    yield from ((item["A"], item["k"]) for item in pool if item["mode"] == "full")
    for A in (SIGNED_ZEROS, -SIGNED_ZEROS):
        for k in (1, 2, 3):
            yield A, k


class TestCertifySolves:
    def test_xi_and_z_are_the_solves_of_eye_minus_the_compound(self, workloads, tmp_path):
        # the solves run in the compound's own negated buffer; they must give
        # what solving np.eye(r) - M and its transpose gives, bit for bit
        certified = signed_zero = 0
        for A, k in certificate_cases(workloads, tmp_path):
            cert = certify_k_diag_stability(A, k)
            if not isinstance(cert, KDiagCertificate):
                continue
            M = minor_table(A, k)
            signed_zero += bool(np.any((M == 0.0) & np.signbit(M)))
            lhs = np.eye(cert.r) - (-M if cert.sign_flipped else M)
            ones = np.ones(cert.r)
            assert cert.xi.tobytes() == np.linalg.solve(lhs, ones).tobytes(), (A, k)
            assert cert.z.tobytes() == np.linalg.solve(lhs.T, ones).tobytes(), (A, k)
            certified += 1
        assert certified >= 30 and signed_zero >= 6


def result_bytes(result):
    """A verdict result field by field: arrays by bytes, floats by hex."""
    values = result if isinstance(result, tuple) else dataclasses.astuple(result)
    return tuple(
        v.tobytes() if isinstance(v, np.ndarray) else v.hex() if isinstance(v, float) else repr(v)
        for v in values
    )


# name: (the input, the call)
INPUT_CALLS = {
    "construct": (SIGNED_ZEROS, construct_dlf_nonneg),
    "construct-flipped": (-SIGNED_ZEROS, construct_dlf_nonneg),
    "stein": (SIGNED_ZEROS, lambda A: stein_holds(A, np.array([1.0, 2.0, 0.5, 1.5]))),
    "certify-k1": (SIGNED_ZEROS, lambda A: certify_k_diag_stability(A, 1)),
    "certify-k2": (SIGNED_ZEROS, lambda A: certify_k_diag_stability(A, 2)),
    "certify-k3-flipped": (-SIGNED_ZEROS, lambda A: certify_k_diag_stability(A, 3)),
}


class TestInputsLeftAlone:
    """The construction works in a buffer of its own, never the caller's."""

    @pytest.mark.parametrize("name", INPUT_CALLS)
    def test_writable_input_is_unchanged(self, name):
        given, call = INPUT_CALLS[name]
        A = given.copy()
        call(A)
        assert A.tobytes() == given.tobytes()

    @pytest.mark.parametrize("name", INPUT_CALLS)
    @pytest.mark.parametrize("layout", ["read-only", "fortran"])
    def test_read_only_and_fortran_inputs_give_the_same_result(self, name, layout):
        given, call = INPUT_CALLS[name]
        A = np.asfortranarray(given) if layout == "fortran" else given.copy()
        A.setflags(write=layout != "read-only")
        assert result_bytes(call(A)) == result_bytes(call(given.copy()))
        assert A.tobytes() == given.tobytes()


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
