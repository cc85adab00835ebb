"""Schur tests, Stein certificates, and k-diagonal stability construction.

A square matrix A is diagonally stable in discrete time when some
positive diagonal D satisfies A^T D A < D (as quadratic forms); it is
k-diagonally stable when the same holds for its k-th multiplicative
compound.  For entrywise-nonnegative Schur matrices the certificate is
constructive: xi = (I-A)^{-1} x and z = (I-A^T)^{-1} y give
D = diag(z_i / xi_i).  The module also provides the principal-minor
necessary conditions that rule diagonal stability out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DomainError, NumericError, PreconditionError
from .matcore import (
    LexIndexSet,
    _band,
    _eigvals,
    _pd_check,
    _require_finite,
    det_stack,
    as_square,
    as_vector,
    lex_array,
    lex_index_set_at,
    minor_table,
    minor_tol,
    pd_tol,
    spectral_report,
    zero_tol,
)
from .signreg import MinorWitness

NOT_SIGN_REGULAR = "NOT_SIGN_REGULAR"
COMPOUND_NOT_SCHUR = "COMPOUND_NOT_SCHUR"

CAYLEY_DT = "CAYLEY_DT"
NEGATE_CT = "NEGATE_CT"

# Principal-minor screens sweep all 2^n - 1 subsets; keep n sane.
_SCREEN_DIM_LIMIT = 20
# Screens up to this dimension keep their index sets and block indices
# (under 3 MB in all).
_SCREEN_CACHE_DIM = 12


def diag_entries(D, name: str = "D", positive: bool = True) -> np.ndarray:
    """Accept a 1-D diagonal-entry vector or a square diagonal matrix."""
    arr = np.asarray(D, dtype=float)
    if arr.ndim == 2:
        sq = as_square(arr, name)
        off = sq - np.diag(np.diag(sq))
        if np.any(off != 0.0):
            raise PreconditionError(f"{name} must be diagonal")
        arr = np.diag(sq)
    d = as_vector(arr, name)
    return _require_positive(d, name) if positive else d


def _require_positive(d: np.ndarray, name: str) -> np.ndarray:
    """d itself when every entry is above 0, else PreconditionError."""
    if (d <= 0.0).any():
        raise PreconditionError(f"{name} must have strictly positive diagonal entries")
    return d


class SchurCheck(NamedTuple):
    ok: bool
    spectral_radius: float


def is_schur(A, tol: float | None = None) -> SchurCheck:
    """True iff the spectral radius is below 1 - tol."""
    return _schur_check(spectral_report(A).spectral_radius, zero_tol(tol))


def _schur_check(rho: float, t: float) -> SchurCheck:
    """The Schur margin 1 - t, t a resolved zero_tol, on a spectral radius already computed."""
    return SchurCheck(ok=rho < 1.0 - t, spectral_radius=rho)


class SteinCheck(NamedTuple):
    ok: bool
    margin: float


def stein_holds(A, D, tol: float | None = None) -> SteinCheck:
    """Whether D - A^T D A is positive definite for positive diagonal D.

    A^T D A is formed as X^T X with X = D^{1/2} A, which numpy computes
    with one BLAS syrk: the difference is exactly symmetric, so it goes
    to the eigen-solve with no symmetrizing copy.  The margin is its
    smallest eigenvalue, and the check passes above pd_tol(tol).
    """
    A = as_square(A)
    d = diag_entries(D)
    if d.size != A.shape[0]:
        raise PreconditionError(
            f"D has {d.size} diagonal entries but A is {A.shape[0]}x{A.shape[0]}"
        )
    return SteinCheck(*_pd_check(_stein_gap(np.sqrt(d)[:, None] * A, d), pd_tol(tol)))


def _stein_gap(X: np.ndarray, d: np.ndarray) -> np.ndarray:
    """D - X^T X for X = D^{1/2} A, that is D - A^T D A, in the Gram's own buffer.

    Off the diagonal an entry is 0 - g, as np.diag(d) - G gives, and on
    it d_i - g_ii.
    """
    G = X.T @ X
    np.subtract(0.0, G, out=G)
    G.flat[:: G.shape[0] + 1] += d
    return G


class DlfConstruction(NamedTuple):
    d: np.ndarray
    xi: np.ndarray
    z: np.ndarray
    stein_margin: float
    sign_flipped: bool


def construct_dlf_nonneg(A, x=None, y=None, tol: float | None = None) -> DlfConstruction:
    """Constructive diagonal Stein certificate for a nonnegative Schur matrix.

    Solves xi = (I-A)^{-1} x and z = (I-A^T)^{-1} y (defaults x = y = 1)
    and returns D = diag(z_i / xi_i).  An entrywise-nonpositive A is
    handled by negating it first, which leaves A^T D A unchanged.  The
    Stein inequality is asserted on the original A before returning.
    """
    A = as_square(A)
    t = zero_tol(tol)
    sign = _nonneg_sign(A, t)
    if sign == 0:
        raise PreconditionError(
            "matrix has entries of both signs; use certify_k_diag_stability "
            "to certify through a compound of definite sign"
        )
    schur = is_schur(A, t)
    if not schur.ok:
        raise PreconditionError(
            f"matrix is not Schur (spectral radius {schur.spectral_radius:.6g}); "
            "no diagonal Stein certificate exists"
        )
    xi, z, d = _dlf_solve(-A if sign < 0 else A, x, y)
    margin = _stein_margin(stein_holds(A, d, tol))
    return DlfConstruction(d=d, xi=xi, z=z, stein_margin=margin, sign_flipped=sign < 0)


def _nonneg_sign(M: np.ndarray, t: float) -> int:
    """The sign s that makes s * M entrywise nonnegative, or 0 if none does.

    Entries inside the zero band of M (matcore.zero_band, t a resolved
    zero_tol) count as zero: s is 1 unless some entry lies below the
    band, and then -1 if none lies above it.
    """
    hi, lo = float(M.max()), float(M.min())
    band = _band(t, hi, lo)
    if not lo < -band:
        return 1
    return -1 if hi <= band else 0


def _dlf_solve(M: np.ndarray, x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """xi, z and d = z / xi of the construction, for a nonnegative Schur M.

    I - M is built once, as 0 - M plus 1 on the diagonal (the entries of
    np.eye(n) - M bit for bit); xi is solved from it and z from its
    transpose view, so LAPACK gets the values of I - M^T without a second
    buffer.  M is left as it is.  xi and z must come out positive, and d
    finite and positive, as diag_entries requires of a diagonal.
    """
    n = M.shape[0]
    if x is None and y is None:
        x = y = np.ones(n)  # the defaults pass every check below
    else:
        x = np.ones(n) if x is None else as_vector(x, "x")
        y = np.ones(n) if y is None else as_vector(y, "y")
        if x.size != n or y.size != n:
            raise DomainError(f"x and y must have dimension {n}")
        if (x <= 0.0).any() or (y <= 0.0).any():
            raise PreconditionError("x and y must be strictly positive")
    lhs = np.subtract(0.0, M)
    lhs.flat[:: n + 1] += 1.0
    try:
        xi = np.linalg.solve(lhs, x)
        z = np.linalg.solve(lhs.T, y)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"(I - A) solve failed: {exc}") from exc
    if (xi <= 0.0).any() or (z <= 0.0).any():
        raise NumericError("construction produced nonpositive xi or z entries")
    return xi, z, _require_positive(_require_finite(z / xi, "D"), "D")


def _stein_margin(check) -> float:
    """The margin of the constructed D's Stein check, which must pass (NumericError)."""
    if not check.ok:
        raise NumericError(
            f"constructed D failed the Stein check (margin {check.margin:.3g})"
        )
    return check.margin


def _compound_radius(A: np.ndarray, k: int) -> float:
    """Spectral radius of A^(k) from one n x n eigen-solve, for a checked square A.

    The eigenvalues of A^(k) are the products of k eigenvalues of A with
    distinct indices, so the largest modulus is the product of the k
    largest moduli.  They are multiplied in descending order, as
    spectral_report(A).moduli[:k] lists them; moduli that tie are equal,
    so their order among themselves cannot change the product.
    """
    descending = -np.sort(-np.abs(_eigvals(A)))
    return float(np.prod(descending[:k]))


@dataclass(frozen=True)
class KDiagCertificate:
    """Diagonal Stein certificate for the k-th compound of a matrix.

    xi and z are the positive vectors with M xi << xi and M^T z << z for
    the (sign-normalized) compound M; xi_gap / z_gap store the worst
    componentwise slack, normalized as gap / (1 + |rhs|).
    """

    k: int
    r: int
    d: np.ndarray
    xi: np.ndarray
    z: np.ndarray
    stein_margin: float
    compound_spectral_radius: float
    sign_flipped: bool
    xi_gap: float
    z_gap: float


@dataclass(frozen=True)
class CertificationFailure:
    """Structured negative verdict from certify_k_diag_stability."""

    k: int
    r: int
    reason: str
    witness: MinorWitness | None = None
    compound_spectral_radius: float | None = None


def certify_k_diag_stability(
    A, k: int, tol: float | None = None, x=None, y=None
) -> KDiagCertificate | CertificationFailure:
    """Build a diagonal Stein certificate for A^(k), or explain why not.

    Pipeline: form M = A^(k); if M is entrywise nonpositive flip its sign
    (recorded on the certificate; the Stein form is unchanged by the
    flip).  M must then be entrywise nonnegative, else the verdict is
    NOT_SIGN_REGULAR with the offending minor.  M must be Schur, else
    COMPOUND_NOT_SCHUR with its spectral radius, the product of the k
    largest eigenvalue moduli of A.  The certificate D, xi, z come from
    the nonnegative construction with defaults x = y = 1.
    """
    A = as_square(A)
    n = A.shape[0]
    if not 1 <= k <= n - 1:
        raise DomainError(f"order k={k} must satisfy 1 <= k <= n-1={n - 1}")
    M = minor_table(A, k, _checked=True)
    r = M.shape[0]
    t = zero_tol(tol)
    sign = _nonneg_sign(M, t)
    if sign == 0:
        # the first most negative minor, classify's negative conflict witness
        i, j = divmod(int(np.argmin(M)), r)
        return CertificationFailure(
            k=k,
            r=r,
            reason=NOT_SIGN_REGULAR,
            witness=MinorWitness(
                rows=lex_index_set_at(i, k, n),
                cols=lex_index_set_at(j, k, n),
                value=float(M[i, j]),
            ),
        )
    rho = _compound_radius(A, k)
    if not _schur_check(rho, t).ok:
        return CertificationFailure(
            k=k, r=r, reason=COMPOUND_NOT_SCHUR, compound_spectral_radius=rho
        )
    sign_flipped = sign < 0
    if sign_flipped:
        np.negative(M, out=M)
    xi, z, d = _dlf_solve(M, x, y)
    xi_gap = float(np.min((xi - M @ xi) / (1.0 + np.abs(xi))))
    z_gap = float(np.min((z - M.T @ z) / (1.0 + np.abs(z))))
    # M is this call's own compound: scale it into X = D^{1/2} M in place
    # and drop it before the eigen-solve.  The flip leaves M^T D M, and so
    # the margin, unchanged.
    gap = _stein_gap(np.multiply(np.sqrt(d)[:, None], M, out=M), d)
    del M
    margin = _stein_margin(_pd_check(gap, pd_tol(tol)))
    return KDiagCertificate(
        k=k,
        r=r,
        d=d,
        xi=xi,
        z=z,
        stein_margin=margin,
        compound_spectral_radius=rho,
        sign_flipped=sign_flipped,
        xi_gap=xi_gap,
        z_gap=z_gap,
    )


def dlf_compound(P, k: int) -> np.ndarray:
    """Diagonal entries of the k-th compound of a positive diagonal matrix.

    Entry s is the product of the p_i over the s-th lexicographic k-subset.
    """
    p = diag_entries(P, "P")
    n = p.size
    sets = lex_array(k, n)
    return np.prod(p[sets], axis=1)


def solve_top_compound_diagonal(D) -> np.ndarray:
    """Positive diagonal P with P^(n-1) = D, solved in closed form.

    The s-th lexicographic (n-1)-subset omits exactly one index j(s), and
    log p_s = (sum_q log d_q)/(n-1) - log d_{j(s)}.  Computed in the log
    domain to tolerate extreme entry ranges; the round trip is asserted
    to 1e-10 relative error before returning.
    """
    d = diag_entries(D, "D")
    n = d.size
    if n < 2:
        raise PreconditionError("need n >= 2 to invert the top-order compound")
    logd = np.log(d)
    # lex (n-1)-subsets omit indices n, n-1, ..., 1 in that order
    missing = (n - 1) - np.arange(n)
    p = np.exp(logd.sum() / (n - 1) - logd[missing])
    recon = dlf_compound(p, n - 1)
    rel = float(np.max(np.abs(recon - d) / d))
    if rel > 1e-10:
        raise NumericError(f"compound round-trip error {rel:.3g} exceeds 1e-10")
    return p


def cayley(A, tol: float | None = None) -> np.ndarray:
    """The transform B = -(A + I)(A - I)^{-1}.

    Bridges the Stein and Lyapunov inequality necessary conditions; A must
    not have 1 as an eigenvalue.  A - I counts as singular when its
    smallest singular value is at most tol times its largest; tol defaults
    to n * eps, the rank rule of np.linalg.matrix_rank, whatever the scale
    of A.
    """
    A = as_square(A)
    n = A.shape[0]
    eye = np.eye(n)
    M = A - eye
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] <= (n * np.finfo(float).eps if tol is None else tol) * sv[0]:
        raise DomainError("A - I is singular (1 is an eigenvalue); transform undefined")
    return np.linalg.solve(M.T, -(A + eye).T).T


@dataclass(frozen=True)
class NecessaryConditionReport:
    passed: bool
    failing_minor: tuple[LexIndexSet, float] | None
    transform_used: str


@lru_cache(maxsize=None)
def _screen_sets(k: int, n: int) -> np.ndarray:
    """lex_array(k, n), read-only, built once per (k, n) up to _SCREEN_CACHE_DIM."""
    sets = lex_array(k, n)
    sets.setflags(write=False)
    return sets


def _block_index(sets: np.ndarray, n: int) -> np.ndarray:
    """Flat indices of the principal blocks picked by `sets` in a C-ordered n x n matrix.

    take on them gives the (C, k, k) stack that B[sets[:, :, None],
    sets[:, None, :]] gives, in one gather.
    """
    return sets[:, :, None] * n + sets[:, None, :]


@lru_cache(maxsize=None)
def _screen_blocks(k: int, n: int) -> np.ndarray:
    """_block_index of _screen_sets(k, n), read-only, built once per (k, n)."""
    blocks = _block_index(_screen_sets(k, n), n)
    blocks.setflags(write=False)
    return blocks


def _principal_minor_screen(B: np.ndarray, tol: float):
    n = B.shape[0]
    if n > _SCREEN_DIM_LIMIT:
        raise CapacityError(
            f"principal-minor screen sweeps 2^{n} subsets; refusing n > {_SCREEN_DIM_LIMIT}"
        )
    cached = n <= _SCREEN_CACHE_DIM
    entries = np.ascontiguousarray(B).ravel()
    for k in range(1, n + 1):
        if cached:
            sets, blocks = _screen_sets(k, n), _screen_blocks(k, n)
        else:
            sets = lex_array(k, n)
            blocks = _block_index(sets, n)
        values = det_stack(entries.take(blocks))
        passed = values > tol
        if not passed.all():
            i = int(passed.argmin())  # the first minor that does not pass
            kappa = LexIndexSet(n, tuple(int(q) + 1 for q in sets[i]))
            return False, (kappa, float(values[i]))
    return True, None


def necessary_dt_diag(A, tol: float | None = None) -> NecessaryConditionReport:
    """Necessary screen for discrete-time diagonal stability.

    If some positive diagonal D satisfies A^T D A < D, then every
    principal minor of -(A + I)(A - I)^{-1} is positive.  A minor passes
    when it exceeds minor_tol(tol).  Reports the first failing minor in
    (order, lexicographic) scan order.
    """
    B = cayley(A)
    passed, failing = _principal_minor_screen(B, minor_tol(tol))
    return NecessaryConditionReport(passed=passed, failing_minor=failing, transform_used=CAYLEY_DT)


def necessary_ct_diag(A, tol: float | None = None) -> NecessaryConditionReport:
    """Necessary screen for continuous-time diagonal stability.

    If some positive diagonal D satisfies D A + A^T D < 0, then every
    principal minor of -A is positive, that is, exceeds minor_tol(tol).
    """
    A = as_square(A)
    passed, failing = _principal_minor_screen(-A, minor_tol(tol))
    return NecessaryConditionReport(passed=passed, failing_minor=failing, transform_used=NEGATE_CT)
