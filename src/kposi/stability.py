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

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, NumericError, PreconditionError
from .matcore import (
    LexIndexSet,
    _Csr,
    _eigvals,
    _finite_extremes,
    _cache_rule,
    _cacheable,
    _check_order,
    _count_text,
    _minor_values,
    _pd_check,
    _require_budget,
    _require_finite,
    _resolve_tol,
    det_stack,
    as_square,
    as_vector,
    lex_array,
    lex_index_set_at,
    minor_tol,
    pd_tol,
    zero_tol,
)
from .signreg import NONE, MinorWitness, _gate, _witness_at

NOT_SIGN_REGULAR = "NOT_SIGN_REGULAR"
COMPOUND_NOT_SCHUR = "COMPOUND_NOT_SCHUR"

CAYLEY_DT = "CAYLEY_DT"
NEGATE_CT = "NEGATE_CT"

# The Neumann series for xi and z (two r x r mat-vecs a term) beats the
# two LUs of I - M up to a term count that measured 5-6 at r = 35 and
# 63-71 at r = 792-924 on one OpenBLAS thread (BENCH_neumann.json).  r // 16
# stays below it at every measured r, so the series runs when it is
# predicted to stop within r // 16 terms.
_NEUMANN_BREAK_EVEN = 16
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)

# Orders from which certify proves the Stein check of a nonnegative compound
# from its own positive xi (_Applied.proven_margin) and takes the margin
# from a Davidson run, not from a full eigen-solve.  250 is the crossover
# measured for Lanczos, which took 5-10 times Davidson's mat-vecs
# (BENCH_lanczos.json); it is not Davidson's own.  Whole certify runs on
# chains, one OpenBLAS thread, had Davidson the faster at r = 126 and 220
# and the eigen-solve only at r = 120.  The value waits for the certify
# sweep over r between 35 and 792 that ROADMAP item 2 lists; it also picks
# the operator applied through the pattern plan's rows.
_DAVIDSON_MIN_ORDER = 250

# Davidson steps after which the run gives up and the eigen-solve decides,
# the residual, relative to the largest Ritz value, at which it stops, and
# the vectors by which its basis grows.
_DAVIDSON_MAX_STEPS = 256
_DAVIDSON_RTOL = 1e-14
_DAVIDSON_CHUNK = 16


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
    smallest eigenvalue, and the check passes above pd_tol(tol).  A
    caller's D comes with no positive vector that proves the pass, so the
    eigen-solve always decides; certify forms this gap only where its own
    proof fails.  Priced at two n x n arrays, the gap and LAPACK's copy.
    """
    A = as_square(A)
    n = A.shape[0]
    d = diag_entries(D)
    if d.size != n:
        raise PreconditionError(f"D has {d.size} diagonal entries but A is {n}x{n}")
    _require_budget(16 * n * n, f"a Stein check of order {n}")
    gap = _stein_gap(np.sqrt(d)[:, None] * A, d)
    return SteinCheck(*_pd_check(gap, pd_tol(tol)))


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


def _dlf_solve(
    formed: Callable[[], np.ndarray], x: np.ndarray, y: np.ndarray, rho: float = 0.0,
    applied: _Applied | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """xi, z and d = z / xi of the construction, for a nonnegative Schur M.

    formed() gives M as an r x r array, and is called only for the LU
    solves; x and y come checked by _right_hand_sides.  A rho above 0
    vouches that M has no negative entry and spectral radius rho.  xi and
    z are then summed as Neumann series through `applied` where that is
    predicted to be cheaper (_neumann_solves); every other case, and a
    series that does not stop in time, solves I - M by LU (_lu_solves).
    xi and z must come out positive, and d finite and positive, as
    diag_entries requires of a diagonal: a d that overflows or underflows
    is refused as such, with no warning.
    """
    solved = _neumann_solves(x, y, rho, applied)
    xi, z = _lu_solves(formed(), x, y) if solved is None else solved
    if (xi <= 0.0).any() or (z <= 0.0).any():
        raise NumericError("construction produced nonpositive xi or z entries")
    with np.errstate(over="ignore", invalid="ignore"):
        d = z / xi
    return xi, z, _require_positive(_require_finite(d, "D"), "D")


def _right_hand_sides(x, y, r: int) -> tuple[np.ndarray, np.ndarray]:
    """x and y as positive vectors of dimension r, all ones where not given.

    DomainError for a vector that is not finite or has another dimension,
    PreconditionError for an entry not above 0.
    """
    x = np.ones(r) if x is None else as_vector(x, "x")
    y = np.ones(r) if y is None else as_vector(y, "y")
    if x.size != r or y.size != r:
        raise DomainError(f"x and y must have dimension {r}")
    if (x <= 0.0).any() or (y <= 0.0).any():
        raise PreconditionError("x and y must be strictly positive")
    return x, y


def _lu_solves(M: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """xi = (I - M)^{-1} x and z = (I - M^T)^{-1} y by two LU solves.

    I - M is built in M's own buffer: M is negated in place and 1 added
    to its diagonal.  That gives the entries of np.eye(n) - M, except
    that a zero entry may carry the other sign, a difference LAPACK never
    turns into a different nonzero result.  xi is solved from it and z
    from its transpose view, so LAPACK gets the values of I - M^T without
    a second buffer.  M is then negated back, an exact involution, and
    its saved diagonal written, which restores it bit for bit.
    """
    n = M.shape[0]
    diagonal = M.diagonal().copy()
    np.negative(M, out=M)
    M.flat[:: n + 1] += 1.0
    try:
        return np.linalg.solve(M, x), np.linalg.solve(M.T, y)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"(I - A) solve failed: {exc}") from exc
    finally:
        np.negative(M, out=M)
        M.flat[:: n + 1] = diagonal


def _neumann_solves(
    x: np.ndarray, y: np.ndarray, rho: float, applied: _Applied | None
) -> tuple[np.ndarray, np.ndarray] | None:
    """xi = sum_j M^j x and z = sum_j (M^T)^j y, for an M >= 0 of spectral
    radius rho, or None where the LU solves are to be used instead.  The
    terms are the mat-vecs of `applied`, dense or over M's nonzeros.

    rho = 0, passed for an M not vouched nonnegative and the radius of a
    nilpotent M, leaves the solves to LU.  Otherwise the series runs when
    the predicted term count, the least t with rho^t <= eps (1 - rho), is
    at most the break-even count r // _NEUMANN_BREAK_EVEN, and its result
    is kept when both sums stop within that count (_neumann_sum).  A
    non-normal M may need more terms than rho predicts; it reaches the
    count and goes to LU.
    """
    cap = x.size // _NEUMANN_BREAK_EVEN
    if not (0.0 < rho < 1.0 and math.log(_EPS * (1.0 - rho)) / math.log(rho) <= cap):
        return None
    xi = _neumann_sum(applied.matvec, x, cap)
    if xi is None:
        return None
    z = _neumann_sum(applied.rmatvec, y, cap)
    return None if z is None else (xi, z)


def _neumann_sum(matvec, x: np.ndarray, cap: int) -> np.ndarray | None:
    """s = x + M x + M^2 x + ..., up to the first term t = M^j x with
    t <= eps * s entrywise, or None when no term of the first cap does
    so or s is not finite; matvec applies M.

    Every term of a nonnegative M and positive x is nonnegative.  On the
    stop, x - (I - M) s is that term t up to the rounding of the
    mat-vecs, so s solves (I - M) s = x with a componentwise backward
    error of about eps.  Each term is one mat-vec of _Applied, dense or
    over M's nonzeros, with no r x r temporary.
    """
    s, t = x.copy(), x
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cap):
            t = matvec(t)
            if (t <= _EPS * s).all():
                return s if np.isfinite(s).all() else None
            s += t
    return None


class _Applied(NamedTuple):
    """An r x r M as certify applies it: v -> M v, v -> M^T v, and the most
    nonzeros a of a row and b of a column, r each when M is dense."""

    matvec: Callable[[np.ndarray], np.ndarray]
    rmatvec: Callable[[np.ndarray], np.ndarray]
    a: int
    b: int

    def stein_gap(self, d: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """v -> d∘v - M^T (d∘(M v)): the Stein gap S = D - M^T D M, applied."""
        return lambda v: d * v - self.rmatvec(d * self.matvec(v))

    def stein_bound(self, d: np.ndarray, v: np.ndarray, product: np.ndarray) -> float:
        """A lower bound on the smallest eigenvalue of the gap S of an M >= 0,
        from v > 0 and product, stein_gap(d)(v) as computed.

        S is then a symmetric Z-matrix.  With μ I - S nonnegative, its
        Perron root is at most max_i ((μ I - S) v)_i / v_i (Collatz-Wielandt;
        Horn and Johnson, Matrix Analysis, 8.1), so λ_min(S) >= min_i
        (S v)_i / v_i.  The computed f = fl(d∘v - M^T (d∘(M v))) is within
        γ_{a+b+2} (d∘v + M^T (d∘(M v))) of S v, and that sum is 2 d∘v - S v.
        f is lowered by (a + b + 12) eps (2 d∘v - f), twice γ_{a+b+2} (which
        is about (a + b + 2) eps / 2) with room for the few roundings after
        the product, and by the floor η (M^T (a d + 1) + b + 1), η the smallest
        subnormal: the underflow of the products of the three stages carried
        through the later ones.  A d near the top of the float range makes
        the floor infinite, and the bound with it: it then proves nothing,
        with no warning.  product is left as it is.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            floor = _TINY * (self.rmatvec(self.a * d + 1.0) + (self.b + 1))
            f = product - ((self.a + self.b + 12) * _EPS * (2.0 * d * v - product) + floor)
            return float(np.min(f / v))

    def proven_margin(self, d: np.ndarray, xi: np.ndarray, m_xi: np.ndarray, t: float) -> float | None:
        """θ of _davidson_smallest on the gap S of an M >= 0, once
        stein_bound proves S > t from xi; None, and the eigen-solve decides,
        in every other case.  m_xi is matvec(xi), as the caller formed it.

        S ξ = d∘ξ - M^T (d∘(M ξ)) is formed once, from m_xi, with the bits
        stein_gap(d)(xi) would give: the bound reads it, and the Davidson
        run starts from ξ with it, so its first step applies no S.  The
        bound proves the pass when it is finite and above t, and θ is
        returned when Davidson converges and θ is not below the bound.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            product = d * xi - self.rmatvec(d * m_xi)
        bound = self.stein_bound(d, xi, product)
        if math.isfinite(bound) and bound > t:
            theta = _davidson_smallest(self.stein_gap(d), d, xi, product)
            if theta is not None and bound <= theta:
                return theta
        return None


def _dense(M: np.ndarray) -> _Applied:
    """M applied as it is: M @ v and M^T @ v, through its transpose view."""
    r = M.shape[0]
    return _Applied(M.__matmul__, M.T.__matmul__, r, r)


def _over_rows(csr: _Csr, values: np.ndarray) -> _Applied:
    """The M whose structural nonzeros are `values`, in the row-major order
    of csr, applied over them: certify's one sparse form, on the rows a
    pattern plan holds for its compound (matcore._minor_values)."""
    _, counts, rows, starts, full, a, b = csr
    r = counts.size
    # np.bincount copies a read-only index array, as a plan's are, on every
    # call: one copy here serves every mat-vec of the call
    cols = csr.cols.copy()

    def matvec(v: np.ndarray) -> np.ndarray:
        """M v: each row's products summed in its column order."""
        p = v[cols]
        p *= values
        if full:
            return np.add.reduceat(p, starts)
        out = np.zeros(r)
        out[rows] = np.add.reduceat(p, starts)
        return out

    def rmatvec(v: np.ndarray) -> np.ndarray:
        """M^T v: each column's products summed in row order."""
        p = np.repeat(v, counts)
        p *= values
        return np.bincount(cols, p, r)

    return _Applied(matvec, rmatvec, a, b)


def _davidson_smallest(matvec, d: np.ndarray, start: np.ndarray, product: np.ndarray) -> float | None:
    """θ, the smallest Ritz value of the symmetric r x r matrix S that matvec
    applies, or None; d is the positive diagonal D of S = D - M^T D M,
    start a positive vector and product S start, as computed.

    Davidson's method (Davidson, J. Comput. Phys. 17, 1975; Morgan and
    Scott, SIAM J. Sci. Stat. Comput. 7, 1986) from start / ||start||,
    whose product with S is product scaled alike, so the first step
    applies no S: certify starts from ξ, whose S ξ its bound has formed.
    Each step applies S to the newest basis vector, adds a row to
    H = V^T S V, and takes θ, the smallest eigenvalue of H, with its Ritz
    vector u and residual g = S u - θ u, formed from the stored products
    with S.  The run stops once ||g|| is at most _DAVIDSON_RTOL times the
    largest Ritz value in modulus.  Otherwise the next basis vector is
    the correction (D - σ I)^{-1} g, orthogonalised against the basis by
    one classical Gram-Schmidt pass, and a second one if the first cut
    its squared norm by more than half (Daniel, Gragg, Kaufman and
    Stewart, Math. Comp. 30, 1976).  The shift σ = min(θ, min d) - ||g||
    keeps D - σ I positive definite, and comes within ||g|| of the lower
    of θ and min d, both at least S's smallest eigenvalue (S <= D).

    Every θ is at least S's smallest eigenvalue, and on the stop one
    eigenvalue lies within ||g|| of it.  S being a symmetric Z-matrix, it
    has a nonnegative bottom eigenvector, which start, positive and always
    in the basis, is not orthogonal to.  The basis and S times it grow in
    place by _DAVIDSON_CHUNK vectors, to at most _DAVIDSON_MAX_STEPS each:
    no r x r array is made.  The run returns None if it takes more than
    _DAVIDSON_MAX_STEPS steps, if a step leaves the float range (entries
    of S near the top of it), or if a correction lies in the basis, with
    no warning.
    """
    r = d.size
    steps = min(_DAVIDSON_MAX_STEPS, r)
    size = min(_DAVIDSON_CHUNK, steps)
    V, W, H = np.empty((size, r)), np.empty((size, r)), np.empty((size, size))
    least = float(d.min())
    with np.errstate(over="ignore", invalid="ignore"):
        # scaled by its largest entry first, so that its norm neither
        # overflows nor underflows
        top = float(start.max())
        v = start / top
        scale = math.sqrt(v @ v)
        v /= scale
        w = product / top
        w /= scale
        for k in range(steps):
            if k == size:
                size = min(size + _DAVIDSON_CHUNK, steps)
                V.resize((size, r), refcheck=False)
                W.resize((size, r), refcheck=False)
                H = np.pad(H, (0, size - k))
            V[k], W[k] = v, matvec(v) if k else w
            H[k, : k + 1] = V[: k + 1] @ W[k]
            try:
                theta, Y = np.linalg.eigh(H[: k + 1, : k + 1], UPLO="L")
            except np.linalg.LinAlgError:
                return None
            y = Y[:, 0]
            g = y @ W[: k + 1] - theta[0] * (y @ V[: k + 1])
            norm = math.sqrt(g @ g)
            if not math.isfinite(norm):
                return None
            if norm <= _DAVIDSON_RTOL * max(abs(theta[0]), abs(theta[-1])):
                return float(theta[0])
            v = g / (d - (min(theta[0], least) - norm))
            before = v @ v
            v -= (V[: k + 1] @ v) @ V[: k + 1]
            after = v @ v
            if after < 0.5 * before:
                v -= (V[: k + 1] @ v) @ V[: k + 1]
                after = v @ v
            if not (math.isfinite(after) and after > 0.0):
                return None
            v /= math.sqrt(after)
    return None


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
    componentwise slack, (xi - M xi) / (1 + |xi|) and (z - M^T z) / (1 + |z|).
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

    construct_dlf_nonneg calls it at k = 1, which a 1 x 1 A needs.  The
    call is priced first at its peak once its compound is read: two r x r
    arrays, M or the Gram, and LAPACK's copy.  A given x or y is then
    checked before any minor is priced or built, so no verdict hides a bad
    vector; with neither given the checks are skipped, as the defaults
    pass them.

    The compound comes from one call of matcore._minor_values, priced as
    the table.  Where the gate admits it, it is its pattern plan and
    structural nonzeros, with no r x r array: the sign gate, the witness
    and the flip act on their values, from _DAVIDSON_MIN_ORDER on an M
    with no negative entry is applied over them through the rows the plan
    holds, with no index work per call, and M is formed only where the LU
    solves, the eigen-solve, an in-band negative minor or a dense
    application needs it.  Any other compound (k = 1, an order above
    matcore._LAPLACE_MAX_ORDER, a pattern the gate refuses) is the dense
    table, held from the start and applied densely; the gate, the witness
    and the flip act on it alike.
    """
    r = math.comb(A.shape[0], k)
    _require_budget(16 * r * r, f"a certificate of order {_count_text(r)}")
    if x is not None or y is not None:
        x, y = _right_hand_sides(x, y, r)
    plan, values = _minor_values(A, k)
    if plan is None:
        M = values
        hi, lo = _finite_extremes(M)
    else:
        # far fewer entries than the table holds: its zeros join them
        M = None
        hi, lo = float(values.max(initial=0.0)), float(values.min(initial=0.0))
    t = zero_tol(tol)
    verdict, signature = _gate(hi, lo, t)
    if verdict == NONE:
        at = int(values.argmin())  # the first most negative minor, in C order
        flat = at if plan is None else int(plan.flat[at])
        witness = _witness_at(*divmod(flat, r), float(values.flat[at]), k, A.shape)
        return CertificationFailure(k=k, r=r, reason=NOT_SIGN_REGULAR, witness=witness)
    rho = _compound_radius(A, k)
    if not _schur_check(rho, t).ok:
        return CertificationFailure(k=k, r=r, reason=COMPOUND_NOT_SCHUR, compound_spectral_radius=rho)
    sign_flipped = signature == -1
    if sign_flipped:
        np.negative(values, out=values)

    def formed() -> np.ndarray:
        """M as an r x r array: the table, or filled in from the nonzeros,
        once, with zeros of the sign the flipped table's would have."""
        nonlocal M
        if M is None:
            M = np.full((r, r), -0.0 if sign_flipped else 0.0)
            M.reshape(-1)[plan.flat] = values
        return M

    # The sign gate lets in-band negative minors through.  An M with none
    # may be solved by its Neumann series, and its Stein gap is a Z-matrix;
    # xi then proves its pass, as (D - M^T D M) xi = y' + M^T D x' >= y' > 0
    # for x' = xi - M xi and y' = z - M^T z.  How M is applied is decided
    # here, once: from _DAVIDSON_MIN_ORDER on, an M with none that the gate
    # admitted through the rows its plan holds, and any other densely.  The
    # series, the gaps, and from that order on the proof and the margin on
    # the implicit gap v -> d v - M^T (d (M v)) all use it: from that order
    # on the Gram is formed only where the proof fails.  M's least entry is
    # read from the gate's extremes: lo, or -hi after the flip; M is None
    # here only where the gate admitted it.
    nonneg = (-hi if sign_flipped else lo) >= 0.0
    provable = nonneg and r >= _DAVIDSON_MIN_ORDER
    applied = _over_rows(plan.csr, values) if provable and M is None else _dense(formed())
    if x is None:  # neither given: all ones, as _right_hand_sides completes them
        x = y = np.ones(r)
    xi, z, d = _dlf_solve(formed, x, y, rho if nonneg else 0.0, applied)
    m_xi = applied.matvec(xi)  # read by xi_gap and by the proof's S xi
    xi_gap = float(np.min((xi - m_xi) / (1.0 + np.abs(xi))))
    z_gap = float(np.min((z - applied.rmatvec(z)) / (1.0 + np.abs(z))))
    pd = pd_tol(tol)
    margin = applied.proven_margin(d, xi, m_xi, pd) if provable else None
    if margin is None:
        # M is this call's own compound, still intact: scale it into
        # X = D^{1/2} M in place and drop it before the eigen-solve, with
        # every other name that holds it: values, which is M on the dense
        # route, and the mat-vecs.  The flip leaves M^T D M, and so the
        # margin, unchanged.
        M = formed()
        gap = _stein_gap(np.multiply(np.sqrt(d)[:, None], M, out=M), d)
        del M, values, applied
        check = _pd_check(gap, pd)
        if not check.ok:
            raise NumericError(f"constructed D failed the Stein check (margin {check.margin:.3g})")
        margin = check.margin
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
    Priced before the index sets are built, which lex_array prices
    itself, at the sets, their gathered entries and the products.
    """
    p = diag_entries(P, "P")
    n = p.size
    _check_order(k, n)  # before math.comb, which meets a negative k with ValueError
    count = math.comb(n, k)
    _require_budget(8 * (2 * k + 1) * count + (1 << 16), f"a compound diagonal of {_count_text(count)} entries")
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
    t = _resolve_tol(tol, n * _EPS)
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


@lru_cache(maxsize=64)
def _screen_blocks(k: int, n: int) -> np.ndarray:
    """Flat indices of the principal k x k blocks of a C-ordered n x n matrix.

    Indexing with them gives the (C(n,k), k, k) stack of principal blocks
    in lexicographic order, in one gather.  Read-only; the screen keeps them
    cached under _cache_rule and builds larger ones through __wrapped__.
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
    checks each order's minors.

    Priced before order 1, whatever B holds, at the block indices the
    sweep leaves cached (_cache_rule), two arrays of C(n,k) k^2 entries at
    its largest order, and 64 KiB of small arrays: at any order the sweep
    holds at most two such arrays, the indices and the blocks gathered by
    indexing with them (np.take would copy the read-only indices first),
    or the build of the indices, no larger.  So n <= 20 runs and n >= 21
    is refused.
    """
    n = B.shape[0]
    sizes = [8 * math.comb(n, k) * k * k for k in range(1, n + 1)]
    kept = sum(size for size in sizes if _cacheable(size))
    _require_budget(kept + 2 * max(sizes) + (1 << 16), f"a principal-minor screen of order {n}")
    entries = np.ascontiguousarray(B).ravel()
    checked = not float(np.abs(entries).max()) < 2.0 ** ((1000 - n * (n - 1)) / n)
    with np.errstate(over="ignore", invalid="ignore") if checked else nullcontext():
        for k, size in enumerate(sizes, 1):
            values = det_stack(entries[_cache_rule(_screen_blocks, size)(k, n)])
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
