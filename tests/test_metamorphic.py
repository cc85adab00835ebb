"""Metamorphic relations: transforms the theory says keep a verdict.

Each relation maps every matrix of a pool to a transformed copy and asks a
verdict function for the same answer on both.  The pool holds the paper's
examples and seeded matrices of the kinds the benchmark's verdict pool
draws (dominant positive, negative and mixed-sign, tridiagonal totally
positive, unstable bidiagonal), plus cyclic chains.

- J A J, with J the reversal permutation, and A^T: the k-minors are the
  same multiset and the spectrum is the same, so every verdict holds.
- 2^e A, exact in floating point: every k-minor scales by exactly
  2^(e k), so the sign verdicts hold and their witnesses name the same
  minors with values scaled by exactly 2^(e k).
- S A S^-1 with S positive diagonal: the k-minors scale by the positive
  factors s_I / s_J and the spectrum and the principal minors of the
  Cayley transform are unchanged, so every verdict holds.

A relation the library breaks today is marked xfail(strict=True), naming
ROADMAP item 1 and the rule at fault, so the fix of item 1 must flip it.
"""

import math

import numpy as np
import pytest

from kposi import (
    CertificationFailure,
    KposiError,
    certify_k_diag_stability,
    classify_sign_regularity,
    is_k_positive_system,
    necessary_dt_diag,
)
from kposi.examples import CERT_3X3, CT_NO_DLF, CYCLIC_WEDGE, DT_NO_DLF


def _dominant(rng, n, signs):
    """Diagonal in [0.4, 0.6], off-diagonal row sums below 0.3: Schur, D = I certifies."""
    A = signs * rng.uniform(0.01, 0.3 / (n - 1), (n, n))
    np.fill_diagonal(A, rng.uniform(0.4, 0.6, n))
    return A


def _mixed(rng, n):
    signs = rng.choice((-1.0, 1.0), (n, n))
    signs[0, 1], signs[0, 2], signs[1, 2] = 1.0, 1.0, -1.0  # a 2-minor of each sign
    return _dominant(rng, n, signs)


def _tridiagonal_tp(rng, n):
    """L D U with positive unit bidiagonal factors: totally positive."""
    L = np.eye(n) + np.diag(rng.uniform(0.1, 0.5, n - 1), -1)
    U = np.eye(n) + np.diag(rng.uniform(0.1, 0.5, n - 1), 1)
    A = L @ np.diag(rng.uniform(0.3, 0.6, n)) @ U
    return A * (rng.uniform(0.5, 0.9) / np.max(np.abs(np.linalg.eigvals(A))))


def _bidiagonal_unstable(rng, n):
    lam = rng.uniform(0.2, 0.8, n)
    lam[-2:] = rng.uniform(1.2, 1.5, 2)
    return np.diag(lam) + np.diag(rng.uniform(0.1, 0.5, n - 1), 1)


def _cyclic_chain(rng, n):
    """Bidiagonal chain closed by a positive corner: sign-regular of odd order, Schur."""
    alphas = rng.uniform(0.1, 0.6, n)
    betas = rng.uniform(0.2, 1.0, n) * (0.95 - alphas)
    A = np.diag(alphas) + np.diag(betas[:-1], 1)
    A[-1, 0] = betas[-1]
    return A


SEEDED = (
    ("pos", 1, lambda rng, n: _dominant(rng, n, np.ones((n, n)))),
    ("neg", 1, lambda rng, n: -_dominant(rng, n, np.ones((n, n)))),
    ("mixed", 1, _mixed),
    ("mixed", 2, _mixed),
    ("tri", 2, _tridiagonal_tp),
    ("tri", 3, _tridiagonal_tp),
    ("unstable", 2, _bidiagonal_unstable),
    ("cyclic", 3, _cyclic_chain),
)


def _pool():
    items = [(name, 2, np.array(A)) for name, A in (
        ("ex1", DT_NO_DLF), ("ex2", CT_NO_DLF), ("ex3", CERT_3X3), ("ex4", CYCLIC_WEDGE))]
    for seed in (0, 1):
        rng = np.random.default_rng([seed, 11])
        for n in (4, 5, 6, 7):
            items += [(f"{cat}-k{k}-n{n}-s{seed}", k, gen(rng, n)) for cat, k, gen in SEEDED]
    return items


POOL = _pool()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except KposiError as exc:
        return type(exc).__name__


def classify_verdict(A, k):
    sc = classify_sign_regularity(A, k)
    return sc.verdict, sc.signature


def kpos_verdict(A, k):
    rep = _outcome(is_k_positive_system, A, k)
    return rep if isinstance(rep, str) else (rep.k_positive, rep.strongly_k_positive)


def certify_verdict(A, k):
    if k > A.shape[0] - 1:
        return None
    cert = _outcome(certify_k_diag_stability, A, k)
    if isinstance(cert, str):
        return cert
    return cert.reason if isinstance(cert, CertificationFailure) else ("certified", cert.sign_flipped)


def screen_verdict(A, k):
    rep = _outcome(necessary_dt_diag, A)
    return rep if isinstance(rep, str) else rep.passed


VERDICTS = {
    "classify": classify_verdict,
    "kpos": kpos_verdict,
    "certify": certify_verdict,
    "screen": screen_verdict,
}


def _reverse(A):
    return A[::-1, ::-1].copy()


def _similar(exponents):
    def transform(A):
        s = exponents(A.shape[0])
        return s[:, None] * A / s[None, :]
    return transform


SIMILARITIES = {
    "simil-2^+-20": _similar(lambda n: np.exp2(np.round(np.linspace(-20.0, 20.0, n)))),
    "simil-10^+-2": _similar(lambda n: 10.0 ** np.linspace(-2.0, 2.0, n)),
    "simil-10^+-4": _similar(lambda n: 10.0 ** np.linspace(-4.0, 4.0, n)),
}
TRANSFORMS = {"JAJ": _reverse, "transpose": lambda A: A.T.copy(), **SIMILARITIES}

# (transform, verdict) pairs that break today, with the ROADMAP item 1 rule at fault
ITEM_1 = {
    "classify": "ROADMAP item 1: the zero band is set by the largest minor, so small minors read as zero",
    "kpos": "ROADMAP item 1: |det A| is compared with the absolute floor tol * max(1, max|A_ij|)^n",
    "certify": "ROADMAP item 1: the constructed D's Stein margin is compared with an absolute pd_tol",
    "screen": "ROADMAP item 1: cayley's singular-value rule refuses A - I as singular",
}
BROKEN = {
    ("simil-2^+-20", "classify"), ("simil-2^+-20", "kpos"),
    ("simil-2^+-20", "certify"), ("simil-2^+-20", "screen"),
    ("simil-10^+-2", "kpos"),
    ("simil-10^+-4", "classify"), ("simil-10^+-4", "kpos"),
    ("simil-10^+-4", "certify"), ("simil-10^+-4", "screen"),
}


def _xfail_if(broken, verdict):
    return [pytest.mark.xfail(strict=True, reason=ITEM_1[verdict])] if broken else []


def _cases():
    for t in TRANSFORMS:
        for v in VERDICTS:
            yield pytest.param(t, v, marks=_xfail_if((t, v) in BROKEN, v), id=f"{t}-{v}")


@pytest.mark.parametrize("transform, verdict", _cases())
def test_transform_keeps_the_verdict(transform, verdict):
    fn, tr = VERDICTS[verdict], TRANSFORMS[transform]
    changed = [name for name, k, A in POOL if fn(tr(A), k) != fn(A, k)]
    assert not changed, changed


def _pow2_cases():
    for e in (-30, -10, 10, 30):
        for v in ("classify", "kpos"):
            yield pytest.param(e, v, marks=_xfail_if(e < 0, v), id=f"2^{e}-{v}")


def _witnesses(sc):
    return (sc.witness_min,) + (sc.witness_conflict or ())


@pytest.mark.parametrize("e, verdict", _pow2_cases())
def test_power_of_two_scaling_keeps_the_verdict_and_scales_witnesses_exactly(e, verdict):
    changed = []
    for name, k, A in POOL:
        scaled = math.ldexp(1.0, e) * A
        if verdict == "kpos":
            changed += [name] if kpos_verdict(scaled, k) != kpos_verdict(A, k) else []
            continue
        sc, sc_scaled = classify_sign_regularity(A, k), classify_sign_regularity(scaled, k)
        expected = [(w.rows, w.cols, math.ldexp(w.value, e * k)) for w in _witnesses(sc)]
        got = [(w.rows, w.cols, w.value) for w in _witnesses(sc_scaled)]
        if (sc.verdict, sc.signature, expected) != (sc_scaled.verdict, sc_scaled.signature, got):
            changed.append(name)
    assert not changed, changed
