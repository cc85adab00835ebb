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

from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericError, PreconditionError
from .matcore import (
    LexIndexSet,
    _checked_tol,
    _eigvals,
    _finite_extremes,
    _minor_table,
    _pd_check,
    _require_finite,
    det_stack,
    as_square,
    as_vector,
    compound_size,
    lex_array,
    lex_index_set_at,
    minor_tol,
    pd_tol,
    zero_tol,
)
from .signreg import NONE, MinorWitness, _minor_witness, _sign_gate

NOT_SIGN_REGULAR = "NOT_SIGN_REGULAR"
COMPOUND_NOT_SCHUR = "COMPOUND_NOT_SCHUR"

CAYLEY_DT = "CAYLEY_DT"
NEGATE_CT = "NEGATE_CT"

# Screens up to this dimension keep their block indices (under 3 MB in all).
_SCREEN_CACHE_DIM = 12


def diag_entries(D, name: str = "D") -> np.ndarray:
    """Accept a 1-D diagonal-entry vector or a square diagonal matrix with
    strictly positive entries."""
    arr = np.asarray(D, dtype=float)
    if arr.ndim == 2:
        sq = as_square(arr, name)
        off = sq - np.diag(np.diag(sq))
        if np.any(off != 0.0):
            raise PreconditionError(f"{name} must be diagonal")
        arr = np.diag(sq)
    return _require_positive(as_vector(arr, name), name)


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
    return _schur_check(_compound_radius(as_square(A), 1), zero_tol(tol))


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
    smallest eigenvalue, and the check passes above pd_tol(tol).  For an
    entrywise nonnegative A the Gram is too, so the difference is a
    Z-matrix, and _pd_check may prove the pass without the eigen-solve.
    """
    A = as_square(A)
    d = diag_entries(D)
    if d.size != A.shape[0]:
        raise PreconditionError(
            f"D has {d.size} diagonal entries but A is {A.shape[0]}x{A.shape[0]}"
        )
    gap = _stein_gap(np.sqrt(d)[:, None] * A, d)
    return SteinCheck(*_pd_check(gap, pd_tol(tol), z_matrix=bool(A.min() >= 0.0)))


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
    handled by negating it first, which leaves A^T D A unchanged.  This
    is certify_k_diag_stability at k = 1, where A^(1) = A, for any n >= 1;
    its two negative verdicts raise PreconditionError here.
    """
    cert = _certify(as_square(A), 1, tol, x, y)
    if isinstance(cert, KDiagCertificate):
        return DlfConstruction(cert.d, cert.xi, cert.z, cert.stein_margin, cert.sign_flipped)
    if cert.reason == NOT_SIGN_REGULAR:
        raise PreconditionError(
            "matrix has entries of both signs; use certify_k_diag_stability "
            "to certify through a compound of definite sign"
        )
    raise PreconditionError(
        f"matrix is not Schur (spectral radius {cert.compound_spectral_radius:.6g}); "
        "no diagonal Stein certificate exists"
    )


def _dlf_solve(M: np.ndarray, x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """xi, z and d = z / xi of the construction, for a nonnegative Schur M.

    I - M is built in M's own buffer: M is negated in place and 1 added
    to its diagonal.  That gives the entries of np.eye(n) - M, except
    that a zero entry may carry the other sign, a difference LAPACK never
    turns into a different nonzero result.  xi is solved from it and z
    from its transpose view, so LAPACK gets the values of I - M^T without
    a second buffer.  M is then negated back, an exact involution, and
    its saved diagonal written, which restores it bit for bit.  xi and z
    must come out positive, and d finite and positive, as diag_entries
    requires of a diagonal.
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
    diagonal = M.diagonal().copy()
    np.negative(M, out=M)
    M.flat[:: n + 1] += 1.0
    try:
        xi = np.linalg.solve(M, x)
        z = np.linalg.solve(M.T, y)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"(I - A) solve failed: {exc}") from exc
    finally:
        np.negative(M, out=M)
        M.flat[:: n + 1] = diagonal
    if (xi <= 0.0).any() or (z <= 0.0).any():
        raise NumericError("construction produced nonpositive xi or z entries")
    return xi, z, _require_positive(_require_finite(z / xi, "D"), "D")


def _compound_radius(A: np.ndarray, k: int) -> float:
    """Spectral radius of A^(k) from one n x n eigen-solve, for a checked square A.

    The eigenvalues of A^(k) are the products of k eigenvalues of A with
    distinct indices, so the largest modulus is the product of the k
    largest moduli.  They are multiplied in descending order, as
    spectral_report(A).moduli[:k] lists them; moduli that tie are equal,
    so their order among themselves cannot change the product.
    """
    return float(np.prod(_descending_moduli(A)[:k]))


def _descending_moduli(A: np.ndarray) -> np.ndarray:
    """Eigenvalue moduli of a checked square A, largest first, from one eigen-solve."""
    return -np.sort(-np.abs(_eigvals(A)))


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

    Pipeline: form M = A^(k) and read its sign at classify's sign gate
    (signreg._sign_gate; entries beyond the float range are a DomainError).
    If M is entrywise nonpositive flip its sign (recorded on the
    certificate; the Stein form is unchanged by the flip).  M must then
    be entrywise nonnegative, else the verdict is NOT_SIGN_REGULAR with
    its first most negative minor as witness.  M must be Schur, else
    COMPOUND_NOT_SCHUR with its spectral radius, the product of the k
    largest eigenvalue moduli of A.  The certificate D, xi, z come from
    the nonnegative construction with defaults x = y = 1.
    """
    A = as_square(A)
    n = A.shape[0]
    if not 1 <= k <= n - 1:
        raise DomainError(f"order k={k} must satisfy 1 <= k <= n-1={n - 1}")
    return _certify(A, k, tol, x, y)


def _certify(
    A: np.ndarray, k: int, tol: float | None, x, y
) -> KDiagCertificate | CertificationFailure:
    """certify_k_diag_stability on a checked square A, without its k <= n-1 bound.

    construct_dlf_nonneg calls it at k = 1, which a 1 x 1 A needs.
    """
    M = _minor_table(A, k)
    r = M.shape[0]
    t = zero_tol(tol)
    verdict, signature = _sign_gate(M, t)
    if verdict == NONE:
        witness = _minor_witness(M, int(M.argmin()), k, A.shape)
        return CertificationFailure(k=k, r=r, reason=NOT_SIGN_REGULAR, witness=witness)
    rho = _compound_radius(A, k)
    if not _schur_check(rho, t).ok:
        return CertificationFailure(k=k, r=r, reason=COMPOUND_NOT_SCHUR, compound_spectral_radius=rho)
    sign_flipped = signature == -1
    if sign_flipped:
        np.negative(M, out=M)
    xi, z, d = _dlf_solve(M, x, y)
    xi_gap = float(np.min((xi - M @ xi) / (1.0 + np.abs(xi))))
    z_gap = float(np.min((z - M.T @ z) / (1.0 + np.abs(z))))
    # M is this call's own compound: scale it into X = D^{1/2} M in place
    # and drop it before the eigen-solve.  The flip leaves M^T D M, and so
    # the margin, unchanged.  The sign gate lets in-band negative minors
    # through; an M with none has a nonnegative Gram, which makes the gap
    # a Z-matrix.
    z_matrix = bool(M.min() >= 0.0)
    gap = _stein_gap(np.multiply(np.sqrt(d)[:, None], M, out=M), d)
    del M
    check = _pd_check(gap, pd_tol(tol), z_matrix)
    if not check.ok:
        raise NumericError(f"constructed D failed the Stein check (margin {check.margin:.3g})")
    return KDiagCertificate(
        k=k,
        r=r,
        d=d,
        xi=xi,
        z=z,
        stein_margin=check.margin,
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
    domain to tolerate extreme entry ranges; a P whose entries leave the
    float range, to inf or to 0, is a DomainError.  The round trip is
    asserted to 1e-10 relative error before returning.
    """
    d = diag_entries(D, "D")
    n = d.size
    if n < 2:
        raise PreconditionError("need n >= 2 to invert the top-order compound")
    logd = np.log(d)
    # lex (n-1)-subsets omit indices n, n-1, ..., 1 in that order
    missing = (n - 1) - np.arange(n)
    with np.errstate(over="ignore", under="ignore"):
        p = np.exp(logd.sum() / (n - 1) - logd[missing])
        if not (np.isfinite(p).all() and p.min() > 0.0):
            raise DomainError("the solution P of P^(n-1) = D leaves the floating-point range")
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
    of A.  A tol that is not a finite nonnegative number is a DomainError,
    and a failed solve a NumericError.
    """
    A = as_square(A)
    n = A.shape[0]
    t = n * np.finfo(float).eps if tol is None else _checked_tol(tol, "tol")
    eye = np.eye(n)
    M = A - eye
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] <= t * sv[0]:
        raise DomainError("A - I is singular (1 is an eigenvalue); transform undefined")
    try:
        return np.linalg.solve(M.T, -(A + eye).T).T
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"(A - I) solve failed: {exc}") from exc


@dataclass(frozen=True)
class NecessaryConditionReport:
    passed: bool
    failing_minor: tuple[LexIndexSet, float] | None
    transform_used: str


@lru_cache(maxsize=None)
def _screen_blocks(k: int, n: int) -> np.ndarray:
    """Flat indices of the principal k x k blocks of a C-ordered n x n matrix.

    take on them gives the (C(n,k), k, k) stack of principal blocks in
    lexicographic order, in one gather.  Read-only; the screen keeps them
    per (k, n) up to _SCREEN_CACHE_DIM and builds larger ones through
    __wrapped__, uncached.
    """
    sets = lex_array(k, n)
    blocks = sets[:, :, None] * n + sets[:, None, :]
    blocks.setflags(write=False)
    return blocks


def _principal_minor_screen(B: np.ndarray, tol: float):
    """(passed, first failing minor) of the sweep of B's principal minors,
    order by order.  An order with a minor beyond the float range is refused
    (DomainError), as the sign gate refuses such a table.

    An order-k minor, and every intermediate of its LU with partial
    pivoting, is at most (2^(k-1) m)^k in magnitude, m = max |B_ij|.  Where
    that stays below 2^1000 at k = n no minor can leave the float range, and
    the sweep runs unchecked; otherwise it runs under one np.errstate and
    checks each order's minors.  The index-set guard sees the largest
    order, C(n, n // 2), before order 1, so it refuses n >= 20 whatever B holds.
    """
    n = B.shape[0]
    compound_size(n // 2, n)
    blocks = _screen_blocks if n <= _SCREEN_CACHE_DIM else _screen_blocks.__wrapped__
    entries = np.ascontiguousarray(B).ravel()
    checked = not float(np.abs(entries).max()) < 2.0 ** ((1000 - n * (n - 1)) / n)
    with np.errstate(over="ignore", invalid="ignore") if checked else nullcontext():
        for k in range(1, n + 1):
            values = det_stack(entries.take(blocks(k, n)))
            if checked:
                _finite_extremes(values)
            passed = values > tol
            if not passed.all():
                i = int(passed.argmin())  # the first minor that does not pass
                return False, (lex_index_set_at(i, k, n), float(values[i]))
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
