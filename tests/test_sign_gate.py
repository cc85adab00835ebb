"""The sign gate (signreg._sign_gate): every verdict reads a minor table's
sign from one function.

classify and certify are checked against a mask-based oracle on seeded
tables that hit the edges of the rule: entries exactly at +-band, ties at
the maximum and minimum, all-zero tables and tol = 0.  At k = 1 the table
is the matrix itself, so the tables go through the public calls as they
are.  A table with a minor beyond the float range is refused by every
verdict call, with no RuntimeWarning.
"""

import warnings

import numpy as np
import pytest

from kposi import (
    CertificationFailure,
    CyclicSpec,
    DomainError,
    KDiagCertificate,
    PreconditionError,
    analyze_cyclic,
    certify_k_diag_stability,
    classify_sign_regularity,
    is_k_positive_system,
    sampled_cone_invariance,
)
from kposi import stability
from kposi.examples import CERT_3X3
from kposi.stability import COMPOUND_NOT_SCHUR, NOT_SIGN_REGULAR
from oracles import mask_sign_verdict

TOLS = (1e-9, 1e-3, 0.0)
KINDS = ("mixed", "positive", "negative", "zero", "in-band")


def gate_table(rng, case: int):
    """An n x n table (n = 2..6) and a tol, with band-edge entries and ties."""
    n = int(rng.integers(2, 7))
    tol = TOLS[case % len(TOLS)]
    kind = KINDS[case // len(TOLS) % len(KINDS)]
    T = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-6.0, 3.0)
    if kind == "positive":
        T = np.abs(T)
    elif kind == "negative":
        T = -np.abs(T)
    elif kind == "zero":
        T = np.where(rng.random((n, n)) < 0.5, 0.0, -0.0)
    elif kind == "in-band":
        T *= tol / (2.0 * np.abs(T).max())
    # entries set to +-band leave max|T|, and so the band, as it was
    band = tol * max(1.0, float(np.abs(T).max()))
    edge = rng.random((n, n)) < 0.25
    T[edge] = rng.choice((band, -band), int(edge.sum()))
    # ties: the largest or smallest entry copied to another place
    for pick in (T.argmax, T.argmin):
        if rng.random() < 0.4:
            T.flat[int(rng.integers(n * n))] = T.flat[pick()]
    return T, tol


def assert_at(witness, T, flat_idx):
    n = T.shape[1]
    assert witness.rows.indices == (flat_idx // n + 1,)
    assert witness.cols.indices == (flat_idx % n + 1,)
    assert witness.value == T.flat[flat_idx]


def test_classify_and_certify_agree_with_the_mask_oracle(monkeypatch):
    # certify vouches for its compound, handing its spectral radius to the
    # solves (_dlf_solve; 0.0 otherwise), only when the least entry after
    # the flip is not negative, which it takes from the gate's extremes;
    # in-band negative minors pass the gate and are not vouched.  A k = 1
    # compound is applied densely: no rows (_over_rows) are ever applied
    radii, rows = [], []
    dlf_solve = stability._dlf_solve
    monkeypatch.setattr(stability, "_dlf_solve",
                        lambda formed, x, y, rho, applied: radii.append(rho) or dlf_solve(formed, x, y, rho, applied))
    monkeypatch.setattr(stability, "_over_rows", lambda *args: rows.append(args))
    rng = np.random.default_rng(2024)
    seen = {"at-band": 0, "tie": 0, "all-zero": 0, "tol-0": 0, "certified": 0, "flipped": 0, "not vouched": 0}
    verdicts = set()
    for case in range(10_000):
        T, tol = gate_table(rng, case)
        verdict, signature, i_max, i_min, i_small = mask_sign_verdict(T, tol)
        verdicts.add((verdict, signature))
        band = tol * max(1.0, float(np.abs(T).max()))
        seen["at-band"] += bool(band > 0.0 and np.any(np.abs(T) == band))
        seen["tie"] += int(np.sum(T == T.max()) > 1 or np.sum(T == T.min()) > 1)
        seen["all-zero"] += bool(not T.any())
        seen["tol-0"] += tol == 0.0

        sc = classify_sign_regularity(T, 1, tol)
        assert (sc.verdict, sc.signature) == (verdict, signature), (T, tol)
        assert_at(sc.witness_min, T, i_small)
        radii.clear()
        cert = certify_k_diag_stability(T, 1, tol)
        if verdict == "NONE":
            assert_at(sc.witness_conflict[0], T, i_max)
            assert_at(sc.witness_conflict[1], T, i_min)
            assert isinstance(cert, CertificationFailure) and cert.reason == NOT_SIGN_REGULAR
            assert_at(cert.witness, T, i_min)
            continue
        assert sc.witness_conflict is None
        if isinstance(cert, KDiagCertificate):
            assert cert.sign_flipped == (signature == -1)
            vouched = (-T if cert.sign_flipped else T).min() >= 0.0
            assert radii == [cert.compound_spectral_radius if vouched else 0.0]
            seen["certified"] += 1
            seen["flipped"] += cert.sign_flipped
            seen["not vouched"] += not vouched
        else:
            assert cert.reason == COMPOUND_NOT_SCHUR
    assert verdicts == {("NONE", None), ("ALL_ZERO", None), ("SSR", 1), ("SR", 1), ("SSR", -1), ("SR", -1)}
    assert min(seen.values()) >= 100, seen
    assert rows == []


# 1e160 * CERT_3X3 is SSR of order 2, but its 2-minors (~1e320) overflow;
# those of the 1e200 matrix are inf - inf, that is NaN
OVERFLOW = 1e160 * CERT_3X3
VERDICT_CALLS = {
    "classify": lambda: classify_sign_regularity(OVERFLOW, 2),
    "classify-nan": lambda: classify_sign_regularity(np.full((2, 2), 1e200), 2),
    "kpos": lambda: is_k_positive_system(OVERFLOW, 2),
    "sampled-cone": lambda: sampled_cone_invariance(OVERFLOW, 2, 10, seed=0),
    "certify": lambda: certify_k_diag_stability(OVERFLOW, 2),
    "cyclic": lambda: analyze_cyclic(CyclicSpec(3, (1e160,) * 3, (1e160,) * 3, ell=2)),
}


@pytest.mark.parametrize("name", VERDICT_CALLS)
def test_overflowing_minor_table_is_refused_without_a_warning(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="float range"):
            VERDICT_CALLS[name]()


def test_determinant_guard_does_not_overflow():
    # max|A|^3 ~ 1e330 leaves the float range, but the 2-minors (~1e220) do not
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = is_k_positive_system(1e110 * CERT_3X3, 2)
    assert report.strongly_k_positive
    assert report.sign_class == classify_sign_regularity(1e110 * CERT_3X3, 2)


def test_determinant_guard_refuses_a_large_singular_matrix():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(PreconditionError, match="singular"):
            is_k_positive_system(1e110 * np.arange(1.0, 10.0).reshape(3, 3), 2)


# |det A| within a few ulps of the floor tol * max(1, max|A_ij|)^n: the guard
# decides exactly as that comparison does where the floor is finite
NEAR_FLOOR = [
    np.diag([1.0, 1e-9]),
    np.diag([1.0, 1.0000000000000003e-09]),
    np.diag([1.0, 9.999999999999997e-10]),
    np.diag([1.0, 9.999999999999988e-10]),
    np.diag([1000.0, 1.0000000000000002e-06]),
    np.diag([7.25, 7.250000000000001e-09]),
    np.array([[0.0, 0.0, 3.0000000000000012e-09], [0.0, 3.0, 0.0], [3.0, 0.0, 0.0]]),
    np.array([[0.0, 0.0, 3.0000000000000004e-09], [0.0, 3.0, 0.0], [3.0, 0.0, 0.0]]),
]


def test_near_floor_cases_cover_both_sides():
    floor = [abs(np.linalg.det(A)) <= 1e-9 * max(1.0, np.abs(A).max()) ** A.shape[0] for A in NEAR_FLOOR]
    assert 0 < sum(floor) < len(floor)


@pytest.mark.parametrize("A", NEAR_FLOOR)
def test_determinant_guard_at_the_floor_reads_the_linear_comparison(A):
    singular = abs(np.linalg.det(A)) <= 1e-9 * max(1.0, np.abs(A).max()) ** A.shape[0]
    if singular:
        with pytest.raises(PreconditionError, match="singular"):
            is_k_positive_system(A, 1, 1e-9)
    else:
        assert is_k_positive_system(A, 1, 1e-9).k_positive
