"""Sign-variation counts, variation-bounded cones, and sign-regularity.

A matrix is sign-regular of order k (verdict "SR") when all of its
k-minors share one weak sign, and strictly sign-regular ("SSR") when
they share one strict sign; the shared sign is the signature.  A
nonsingular matrix maps the cone of vectors with at most k-1 sign
variations into itself exactly when it is SR of order k, which is what
the sampling check below probes empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .matcore import (
    LexIndexSet,
    _band,
    as_matrix,
    as_square,
    as_vector,
    lex_index_set_at,
    minor_table,
    zero_tol,
)

SSR = "SSR"
SR = "SR"
ALL_ZERO = "ALL_ZERO"
NONE = "NONE"


def _s_minus(x: np.ndarray) -> int:
    """Sign changes of x after deleting its zero entries, read from sign bits."""
    neg = np.signbit(x[x != 0.0])
    return int(np.count_nonzero(neg[1:] != neg[:-1]))


def sign_variations(x) -> tuple[int, int]:
    """Return (s_minus, s_plus) for a vector.

    s_minus counts sign changes after deleting zero entries (0 for the
    zero vector).  s_plus is the maximum number of sign changes over all
    ways of replacing each zero entry by +1 or -1.  It comes from the
    duality s_plus(x) + s_minus(x*) = n - 1, where x* = (x1, -x2, x3, ...)
    (Gantmacher-Krein; Karlin, Total Positivity), which also holds for
    the zero vector.  Both counts read only signs, so they do not change
    when x is scaled by a nonzero constant.
    """
    x = as_vector(x)
    alt = x.copy()
    alt[1::2] *= -1.0
    return _s_minus(x), x.size - 1 - _s_minus(alt)


def cone_membership(x, k: int) -> tuple[bool, bool]:
    """Whether x lies in the weak / strict variation cones of order k.

    The weak cone collects vectors with s_minus <= k-1, the strict cone
    those with s_plus <= k-1.
    """
    x = as_vector(x)
    if not 1 <= k <= x.size:
        raise DomainError(f"order k={k} must satisfy 1 <= k <= n={x.size}")
    s_minus, s_plus = sign_variations(x)
    return s_minus <= k - 1, s_plus <= k - 1


@dataclass(frozen=True)
class MinorWitness:
    rows: LexIndexSet
    cols: LexIndexSet
    value: float


@dataclass(frozen=True)
class SignClass:
    """Classification of the order-k minors of a matrix.

    verdict is one of "SSR", "SR", "ALL_ZERO", "NONE"; signature (+1/-1)
    is set for the SSR/SR verdicts.  witness_min is the smallest-magnitude
    minor; witness_conflict holds two strictly opposite-signed minors when
    the verdict is "NONE".
    """

    k: int
    verdict: str
    signature: int | None
    witness_min: MinorWitness
    witness_conflict: tuple[MinorWitness, MinorWitness] | None = None


def classify_sign_regularity(A, k: int, tol: float | None = None) -> SignClass:
    """Classify all k-minors of A by sign.

    A minor counts as zero when |value| <= tol * max(1, largest |minor|)
    (matcore.zero_band).  The floor of 1 makes the band absolute when every
    minor is below 1 in magnitude, so verdicts there are not scale-free:
    classify_sign_regularity(1e-5 * A, 2) can read ALL_ZERO where A is SSR
    (ROADMAP item 1).  Verdicts: "SSR" when every minor is strictly one
    sign, "SR" when weakly one sign with at least one nonzero, "ALL_ZERO"
    when every minor vanishes, "NONE" on a strict sign conflict.
    """
    A = as_matrix(A)
    minors = minor_table(A, k, _checked=True)
    return _classify_minors(minors, k, A.shape, zero_tol(tol))


def _classify_minors(minors: np.ndarray, k: int, shape: tuple[int, int], t: float) -> SignClass:
    """classify_sign_regularity on an already-built table of the k-minors of a
    `shape` matrix, with t a resolved zero_tol."""
    def _witness(flat_idx: int) -> MinorWitness:
        i, j = divmod(flat_idx, minors.shape[1])
        return MinorWitness(
            rows=lex_index_set_at(i, k, shape[0]),
            cols=lex_index_set_at(j, k, shape[1]),
            value=float(flat[flat_idx]),
        )

    band = _band(t, float(minors.max()), float(minors.min()))
    flat = minors.ravel()
    witness_min = _witness(int(np.abs(flat).argmin()))

    pos = flat > band
    neg = flat < -band
    any_pos, any_neg = bool(pos.any()), bool(neg.any())
    if any_pos and any_neg:
        i_pos = int(np.where(pos, flat, -np.inf).argmax())
        i_neg = int(np.where(neg, flat, np.inf).argmin())
        conflict = (_witness(i_pos), _witness(i_neg))
        return SignClass(k, NONE, None, witness_min, conflict)
    if not any_pos and not any_neg:
        return SignClass(k, ALL_ZERO, None, witness_min)
    # one side is empty, so the table is strict iff the other holds every minor
    strict = bool((pos if any_pos else neg).all())
    return SignClass(k, SSR if strict else SR, 1 if any_pos else -1, witness_min)


@dataclass(frozen=True)
class KPositivityReport:
    k_positive: bool
    strongly_k_positive: bool
    sign_class: SignClass


def is_k_positive_system(A, k: int, tol: float | None = None) -> KPositivityReport:
    """Decide k-positivity of the linear map x -> Ax for nonsingular A.

    The map preserves the weak order-k variation cone iff A is SR of
    order k, and maps its nonzero part into the strict cone iff A is SSR
    of order k, so the verdict reduces to classification.  A counts as
    singular, and is refused, when |det A| <= tol * max(1, max |A_ij|)^n;
    like the zero band, this floor is absolute for small A (ROADMAP item 1).
    """
    A = as_square(A)
    t = zero_tol(tol)
    scale = max(1.0, float(A.max()), -float(A.min())) ** A.shape[0]
    if abs(float(np.linalg.det(A))) <= t * scale:
        raise PreconditionError(
            "matrix is singular; reduce the dynamics to a lower-dimensional "
            "nonsingular system before testing k-positivity"
        )
    sc = _classify_minors(minor_table(A, k, _checked=True), k, A.shape, t)
    return KPositivityReport(
        k_positive=sc.verdict in (SR, SSR),
        strongly_k_positive=sc.verdict == SSR,
        sign_class=sc,
    )


@dataclass(frozen=True)
class ConeSampleViolation:
    x: np.ndarray
    image: np.ndarray
    s_in: int
    s_out: int
    strong: bool


@dataclass(frozen=True)
class ConeSamplingReport:
    passed: bool
    violations: tuple[ConeSampleViolation, ...]
    num_tested: int
    strong_checked: bool


def _shape_into_cone(rng: np.random.Generator, raw: np.ndarray, k: int) -> np.ndarray:
    """Reassign signs of |raw| over at most k sorted blocks."""
    n = raw.size
    blocks = int(rng.integers(1, k + 1))
    cuts = np.sort(rng.choice(np.arange(1, n), size=blocks - 1, replace=False)) if blocks > 1 else np.array([], dtype=int)
    signs = np.empty(n)
    start = 0
    sgn = 1.0 if rng.random() < 0.5 else -1.0
    for end in list(cuts) + [n]:
        signs[start:end] = sgn
        sgn = -sgn
        start = end
    return np.abs(raw) * signs


def sampled_cone_invariance(
    A, k: int, num_samples: int = 1000, *, seed: int
) -> ConeSamplingReport:
    """Spot-check cone invariance of x -> Ax on random samples.

    Draws standard-normal vectors (every other one sign-shaped into the
    weak cone to keep the yield high), keeps those with s_minus <= k-1,
    and verifies s_minus(Ax) <= k-1.  When A is SSR of order k the image
    of every nonzero sample must additionally satisfy s_plus(Ax) <= k-1.
    A is classified, and refused when singular, by is_k_positive_system.
    """
    A = as_square(A)
    n = A.shape[0]
    if not 1 <= k <= n:
        raise DomainError(f"order k={k} must satisfy 1 <= k <= n={n}")
    strong = is_k_positive_system(A, k).strongly_k_positive
    rng = np.random.default_rng(seed)
    violations: list[ConeSampleViolation] = []
    tested = 0
    for i in range(num_samples):
        x = rng.standard_normal(n)
        if i % 2 == 1:
            x = _shape_into_cone(rng, x, k)
        s_in, _ = sign_variations(x)
        if s_in > k - 1:
            continue
        tested += 1
        y = A @ x
        s_out, s_out_plus = sign_variations(y)
        if s_out > k - 1:
            violations.append(ConeSampleViolation(x, y, s_in, s_out, strong=False))
        elif strong and np.any(x != 0.0) and s_out_plus > k - 1:
            violations.append(ConeSampleViolation(x, y, s_in, s_out_plus, strong=True))
    return ConeSamplingReport(
        passed=not violations,
        violations=tuple(violations),
        num_tested=tested,
        strong_checked=strong,
    )
