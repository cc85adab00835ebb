"""One sign rule across the library, checked at the edge of the zero band.

classify_sign_regularity, certify_k_diag_stability and construct_dlf_nonneg
must read the same entry as zero or as signed, and sampled_cone_invariance
must refuse as singular exactly what is_k_positive_system refuses.
"""

import numpy as np
import pytest

from kposi import (
    CertificationFailure,
    KDiagCertificate,
    PreconditionError,
    certify_k_diag_stability,
    classify_sign_regularity,
    construct_dlf_nonneg,
    is_k_positive_system,
    mult_compound,
    sampled_cone_invariance,
)
from kposi.matcore import zero_band
from kposi.signreg import NONE, SR
from kposi.stability import NOT_SIGN_REGULAR

REL = 1e-6


def _triangle(c, x):
    """c * diag(0.75, 0.625, 0.5) with x at (1, 2).

    Its compound at order 1 or 2 has one entry that depends on x: x itself
    at order 1, and x * 0.5c (the minor on rows {1,3}, cols {2,3}) at
    order 2, both exact when c is a power of 2.
    """
    A = c * np.diag([0.75, 0.625, 0.5])
    A[0, 1] = x
    return A


def _band_edge(k, c, bulk, side):
    """A whose order-k compound has sign `bulk` but for one entry, -bulk * target,
    with target at (1 + side * REL) times the zero band."""
    factor = 1.0 if k == 1 else 0.5 * c
    target = (1.0 + side * REL) * zero_band(mult_compound(_triangle(c, 0.0), k))
    A = _triangle(c, -target / factor)
    if bulk < 0:
        # -A at odd order; at order 2, J A negates the compound and reverses its rows
        A = -A if k == 1 else A[::-1].copy()
    return A, -bulk * target


def _det_edge(side):
    """diag(0.75, 0.625, t) with det at (1 + side * REL) times the singular guard 1e-9."""
    return np.diag([0.75, 0.625, (1.0 + side * REL) * 1e-9 / (0.75 * 0.625)])


CASES = [
    pytest.param(*_band_edge(k, c, bulk, side), k, None, id=f"k{k}-c{c:g}-bulk{bulk:+d}-side{side:+d}")
    for k in (1, 2)
    for c in (1.0, 4.0)
    for bulk in (1, -1)
    for side in (1, -1)
] + [
    pytest.param(_det_edge(side), None, k, side < 0, id=f"det-k{k}-side{side:+d}")
    for k in (1, 2)
    for side in (1, -1)
]


@pytest.mark.parametrize("A, odd, k, singular", CASES)
def test_sign_rule_agrees_at_the_band_edge(A, odd, k, singular):
    M = mult_compound(A, k)
    sc = classify_sign_regularity(A, k)
    if odd is not None:
        # the fixture's odd entry is where it says, on the side of the band it says
        assert odd in (M.min(), M.max())
        assert (sc.verdict == NONE) == (abs(odd) > zero_band(M))
        if sc.verdict != NONE:
            assert sc.verdict == SR and sc.signature == -np.sign(odd)

    cert = certify_k_diag_stability(A, k)
    if sc.verdict == NONE:
        assert isinstance(cert, CertificationFailure)
        assert cert.reason == NOT_SIGN_REGULAR
        assert cert.witness == sc.witness_conflict[1]
        with pytest.raises(PreconditionError, match="both signs"):
            construct_dlf_nonneg(M)
    else:
        assert not (isinstance(cert, CertificationFailure) and cert.reason == NOT_SIGN_REGULAR)
        if isinstance(cert, KDiagCertificate):
            assert cert.sign_flipped == (sc.signature == -1)
        try:
            built = construct_dlf_nonneg(M)
        except PreconditionError as exc:
            assert "not Schur" in str(exc)
        else:
            assert built.sign_flipped == (sc.signature == -1)

    try:
        report = is_k_positive_system(A, k)
    except PreconditionError:
        assert singular is not False
        with pytest.raises(PreconditionError, match="singular"):
            sampled_cone_invariance(A, k, 20, seed=0)
    else:
        assert not singular
        sampled = sampled_cone_invariance(A, k, 20, seed=0)
        assert sampled.strong_checked == report.strongly_k_positive
