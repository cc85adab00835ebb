"""Dense matrix arithmetic shared by the whole toolkit.

Provides index-set combinatorics (lexicographic k-subsets), minors,
spectral data, and positive-definiteness checks.  All interfaces use
1-based row/column indices, matching the usual minor notation; arrays
are converted at the boundary.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DomainError, NumericError

# Default tolerances.  Sign tests treat values inside zero_band as zero;
# definiteness tests require an eigenvalue margin above TAU_PD.
TAU_ZERO = 1e-9
TAU_PD = 1e-10

# Hard limit on C(n, k), the count of k-subsets: it bounds index sets,
# cached Laplace plans and principal-minor screens before memory runs out.
CAPACITY_LIMIT = 100_000

# Bytes of float arrays a path that grows with its input may hold at its
# peak: minor tables, trajectories and content batches.
_BYTE_BUDGET = 400_000_000

# Orders the minor kernel expands by Laplace.  A table of a higher order
# fits the guards only near full order, where the expansion would pass
# through far more minors of middle order than the table holds, so there
# each k x k block is factorised instead.
_LAPLACE_MAX_ORDER = 8

# Orders from which _pd_check takes the margin of a symmetric Z-matrix its
# caller vouches for from Lanczos and a Collatz-Wielandt bound, not from a
# full eigen-solve; below it the eigen-solve is the faster of the two
# (crossover measured in BENCH_lanczos.json).
_LANCZOS_MIN_ORDER = 250

# Lanczos steps after which the enclosure gives up and the eigen-solve
# decides, and the Ritz residual, relative to the largest Ritz value, at
# which it stops.
_LANCZOS_MAX_STEPS = 256
_LANCZOS_RTOL = 1e-14

# Steps between two convergence checks of the Lanczos run at most, and
# before the first one.
_LANCZOS_CHECK_STEPS = 16

# Entries of a Laplace level the kernel builds in one go.  A larger level
# is built in blocks of row sets of about this many entries, written into
# one preallocated table, so its temporaries stay a fraction of the table.
_LEVEL_BLOCK = 1 << 15


def _resolve_tol(tol: float | None, default: float) -> float:
    """Explicit argument wins, then the KPOSI_TOL environment variable, then `default`.

    A given tolerance must be a finite number, not below 0 (DomainError
    otherwise): a negative zero band reads every value as both signs, and
    a negative screen threshold passes negative minors.  `default` is
    trusted as it is.
    """
    if tol is not None:
        return _checked_tol(tol, "tol")
    env = os.environ.get("KPOSI_TOL")
    return _checked_tol(env, "KPOSI_TOL") if env else default


def _checked_tol(value, source: str) -> float:
    try:
        t = float(value)
    except (TypeError, ValueError):
        t = math.nan
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"{source} must be a finite nonnegative number, got {value!r}")
    return t


def _checked_count(value, name: str, least: int) -> int:
    """value as a Python int: an integer, not a bool, of at least `least`, or DomainError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def zero_tol(tol: float | None = None) -> float:
    """Resolve a sign-test tolerance (default TAU_ZERO)."""
    return _resolve_tol(tol, TAU_ZERO)


def zero_band(values: np.ndarray, tol: float | None = None) -> float:
    """Half-width of the band a sign test reads as zero.

    A value v of `values` counts as zero when |v| <= zero_tol(tol) *
    max(1, max |values|).  The floor of 1 makes the band absolute for
    arrays whose entries are all below 1 in magnitude, so verdicts on
    such arrays change with their scale (ROADMAP item 1).  max |values|
    is read as max(max v, -min v), with no |values| copy.
    """
    return _band(zero_tol(tol), float(values.max()), float(values.min()))


def _band(t: float, vmax: float, vmin: float) -> float:
    """zero_band from a resolved tolerance t and the extremes of the values."""
    return t * max(1.0, vmax, -vmin)


def pd_tol(tol: float | None = None) -> float:
    """Resolve a definiteness margin threshold (default TAU_PD)."""
    return _resolve_tol(tol, TAU_PD)


def minor_tol(tol: float | None = None) -> float:
    """Resolve the principal-minor screen threshold (default 0.0)."""
    return _resolve_tol(tol, 0.0)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array with finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise DomainError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DomainError(f"{name} must have at least one row and one column")
    return _require_finite(arr, name)


def _require_finite(arr: np.ndarray, name: str) -> np.ndarray:
    """arr itself when every entry is finite, else DomainError."""
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} contains NaN or infinite entries")
    return arr


def as_square(a, name: str = "matrix") -> np.ndarray:
    arr = as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise DomainError(f"{name} must be square, got shape {arr.shape}")
    return arr


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float array with finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be 1-dimensional, got ndim={arr.ndim}")
    if arr.size < 1:
        raise DomainError(f"{name} must be nonempty")
    return _require_finite(arr, name)


@dataclass(frozen=True)
class LexIndexSet:
    """A strictly increasing tuple of k indices drawn from [1, n].

    These are the row/column selectors for minors; `indices` is 1-based.
    """

    n: int
    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        k = len(self.indices)
        if not 1 <= k <= self.n:
            raise DomainError(f"index set must pick between 1 and n={self.n} indices")
        prev = 0
        for i in self.indices:
            if i <= prev or i > self.n:
                raise DomainError(
                    f"indices must be strictly increasing within [1, {self.n}], got {self.indices}"
                )
            prev = i

    @property
    def k(self) -> int:
        return len(self.indices)

    def zero_based(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.intp) - 1


def compound_size(k: int, n: int) -> int:
    """C(n, k), the order of the k-th compound of an n x n matrix.

    Raises CapacityError beyond CAPACITY_LIMIT, before anything of that
    size is built.
    """
    r = math.comb(n, k)
    if r > CAPACITY_LIMIT:
        raise CapacityError(
            f"C({_count_text(n)},{_count_text(k)}) = {_count_text(r)} exceeds the capacity guard of {CAPACITY_LIMIT}"
        )
    return r


def _count_text(x: int, shift: int = 0) -> str:
    """x / 10**shift for an error message: every digit of a count (shift 0),
    4 significant ones of a scaled value, and beyond the float range only
    the exponent, as 1eN, since Python refuses to write an int of more than
    4300 digits in decimal."""
    if x >= 1e300:
        return f"1e{math.log10(x) - shift:.0f}"
    return f"{x / 10**shift:.4g}" if shift else str(x)


def _require_budget(nbytes: int, what: str) -> None:
    """CapacityError when a path priced at `nbytes` at its peak exceeds _BYTE_BUDGET.

    Called with the integer price before anything of that size is
    allocated.
    """
    if nbytes > _BYTE_BUDGET:
        raise CapacityError(
            f"{what} would hold about {_count_text(nbytes, 6)} MB, "
            f"beyond the budget of {_BYTE_BUDGET / 1e6:.4g} MB"
        )


def lex_index_sets(k: int, n: int) -> list[LexIndexSet]:
    """All k-subsets of [1, n] in lexicographic order (length C(n, k))."""
    if not 1 <= k <= n:
        raise DomainError(f"order k={k} must satisfy 1 <= k <= n={n}")
    compound_size(k, n)
    return [LexIndexSet(n, c) for c in combinations(range(1, n + 1), k)]


def lex_array(k: int, n: int) -> np.ndarray:
    """0-based (C(n,k), k) index array in the same lexicographic order."""
    if not 1 <= k <= n:
        raise DomainError(f"order k={k} must satisfy 1 <= k <= n={n}")
    compound_size(k, n)
    return np.array(list(combinations(range(n), k)), dtype=np.intp)


@lru_cache(maxsize=4096)
def lex_index_set_at(rank: int, k: int, n: int) -> LexIndexSet:
    """The rank-th k-subset of [1, n] in lexicographic order (0-based rank).

    Equals lex_index_sets(k, n)[rank] without building the other sets.
    The sets are frozen, so each (rank, k, n) is unranked and validated
    once and then shared by every witness that names it.
    """
    if not 0 <= rank < math.comb(n, k):
        raise DomainError(f"rank {rank} is outside [0, C({n},{k}))")
    picked, c = [], 0
    for slot in range(k, 0, -1):
        # sets whose next element is c: choose the remaining slot-1 above c
        while rank >= (count := math.comb(n - c - 1, slot - 1)):
            rank -= count
            c += 1
        picked.append(c + 1)
        c += 1
    return LexIndexSet(n, tuple(picked))


def _lex_rank(sets: np.ndarray, n: int) -> np.ndarray:
    """Lexicographic ranks of the rows of a (R, p) array of 0-based p-subsets of range(n)."""
    p = sets.shape[1]
    binom = np.array([[math.comb(a, b) for b in range(p + 1)] for a in range(n + 1)], dtype=np.intp)
    return math.comb(n, p) - 1 - binom[n - 1 - sets, np.arange(p, 0, -1)].sum(axis=1)


@lru_cache(maxsize=64)
def _laplace_plan(n: int, m: int, q: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Index plan of the Laplace expansion, one (first, tail, cols, drop) per level p = 2..q.

    Level p holds the p-subsets of rows q-p..n-1, the only row sets a
    q-minor's expansion reaches, and all p-subsets of the m columns, in
    lexicographic order.  first is each row set's first row and tail the
    rank of the rest at level p-1; cols[j] holds each column set's j-th
    column and drop[j] the rank of the set without it at level p-1.
    The arrays are read-only, since every caller shares them.
    """
    levels = []
    for p in range(2, q + 1):
        rows = np.array(list(combinations(range(n - q + p), p)), dtype=np.intp).reshape(-1, p)
        sets = np.array(list(combinations(range(m), p)), dtype=np.intp).reshape(-1, p)
        first = rows[:, 0] + (q - p)
        tail = _lex_rank(rows[:, 1:] - 1, n - q + p - 1)
        cols = np.ascontiguousarray(sets.T)
        drop = np.stack([_lex_rank(np.delete(sets, j, axis=1), m) for j in range(p)])
        plan = (first, tail, cols, drop)
        for arr in plan:
            arr.setflags(write=False)
        levels.append(plan)
    return tuple(levels)


def _minors(A: np.ndarray, q: int) -> np.ndarray:
    """All q-minors of a (..., n, m) stack, shape (..., C(n,q), C(m,q)).

    Up to _LAPLACE_MAX_ORDER each q-minor is expanded along the first row
    of its row set over (q-1)-minors of the remaining rows, level by level
    from the entries up: O(C(n,q) C(m,q) q) products, with no k x k
    blocks gathered.  Every entry is summed term by term in column order,
    so it rounds the same whichever table, batch or row block it sits in,
    and orders 1 and 2 equal the closed forms bit for bit.  The method
    depends on q alone, so a single minor always matches its table entry.
    A level of more than _LEVEL_BLOCK entries is built in row blocks, so
    the kernel holds the table, the level below it and small temporaries.
    """
    n, m = A.shape[-2:]
    if q > _LAPLACE_MAX_ORDER:
        R, C = lex_array(q, n), lex_array(q, m)
        return np.linalg.det(A[..., R[:, None, :, None], C[None, :, None, :]])
    table = A[..., q - 1 :, :].copy()
    batch = math.prod(A.shape[:-2])
    for first, tail, cols, drop in _laplace_plan(n, m, q):
        per_row = batch * cols.shape[1]
        if first.size * per_row <= _LEVEL_BLOCK:
            table = _expand(A, table, first, tail, cols, drop)
            continue
        out = np.empty(A.shape[:-2] + (first.size, cols.shape[1]))
        step = max(1, _LEVEL_BLOCK // per_row)
        for s in range(0, first.size, step):
            rows = slice(s, s + step)
            _expand(A, table, first[rows], tail[rows], cols, drop, out[..., rows, :])
        table = out
    # fancy indexing can leave a batch axis innermost; BLAS callers such
    # as np.dot round by layout, so hand out the C order a copy would have
    return np.ascontiguousarray(table)


def _expand(A, table, first, tail, cols, drop, out=None) -> np.ndarray:
    """One Laplace level over the row sets (first, tail) of its plan.

    `table` is the level below.  Writes into `out` when given, else
    returns a new array; the products and sums are the same either way.
    """
    head = A[..., first, :]
    below = table[..., tail, :]
    if out is None:
        out = head[..., cols[0]]
        out *= below[..., drop[0]]
    else:
        np.multiply(head[..., cols[0]], below[..., drop[0]], out=out)
    for j in range(1, len(cols)):
        term = head[..., cols[j]]
        term *= below[..., drop[j]]
        if j % 2:
            out -= term
        else:
            out += term
    return out


def det_stack(stack: np.ndarray) -> np.ndarray:
    """Determinants of a (..., k, k) stack.

    Orders 1 and 2 use the closed formulas so small regression minors stay
    bit-stable; larger orders go through LU with partial pivoting.
    """
    k = stack.shape[-1]
    if k == 1:
        return stack[..., 0, 0].copy()
    if k == 2:
        return stack[..., 0, 0] * stack[..., 1, 1] - stack[..., 0, 1] * stack[..., 1, 0]
    return np.linalg.det(stack)


def _normalize_selector(sel, n: int, name: str) -> np.ndarray:
    """Accept a LexIndexSet or a 1-based index sequence; return 0-based array."""
    if isinstance(sel, LexIndexSet):
        if sel.n != n:
            raise DomainError(f"{name} index set is over [1,{sel.n}], matrix has {n}")
        return sel.zero_based()
    idx = np.asarray(tuple(sel), dtype=np.intp)
    if idx.ndim != 1 or idx.size < 1:
        raise DomainError(f"{name} must be a nonempty index sequence")
    if np.any(idx < 1) or np.any(idx > n):
        raise DomainError(f"{name} indices must lie in [1, {n}], got {idx.tolist()}")
    if np.any(np.diff(idx) <= 0):
        raise DomainError(f"{name} indices must be strictly increasing, got {idx.tolist()}")
    return idx - 1


def minor(A, rows, cols) -> float:
    """The minor det(A[rows | cols]) for 1-based, strictly increasing selectors."""
    A = as_matrix(A)
    r = _normalize_selector(rows, A.shape[0], "rows")
    c = _normalize_selector(cols, A.shape[1], "cols")
    if r.size != c.size:
        raise DomainError(
            f"rows and cols must select equally many indices, got {r.size} and {c.size}"
        )
    return float(_minors(A[np.ix_(r, c)], r.size)[0, 0])


def minor_table(A, k: int) -> np.ndarray:
    """All k-minors of A as a C(rows,k) x C(cols,k) array.

    Row/column subsets run in lexicographic order, so entry (i, j) is the
    minor selected by the i-th row set and j-th column set.  A minor
    beyond the float range is a DomainError.
    """
    T = _minor_table(as_matrix(A), k)
    _finite_extremes(T)
    return T


def _minor_table(A: np.ndarray, k: int) -> np.ndarray:
    """minor_table on a checked A, for the verdicts: they read the table's
    extremes, and so refuse a non-finite one, at their sign gate."""
    n, m = A.shape
    if not 1 <= k <= min(n, m):
        raise DomainError(f"order k={k} must satisfy 1 <= k <= min{A.shape}")
    # priced at the products of the top Laplace level, and above
    # _LAPLACE_MAX_ORDER at the scalars of the gathered k x k blocks
    R, C = compound_size(k, n), compound_size(k, m)
    _require_budget(8 * R * C * (k if k <= _LAPLACE_MAX_ORDER else k * k),
                    f"a minor table of {R}x{C} order-{k} minors")
    with np.errstate(over="ignore", invalid="ignore"):
        return _minors(A, k)


def _finite_extremes(T: np.ndarray) -> tuple[float, float]:
    """(max, min) of a minor table; a NaN or infinite minor is a DomainError."""
    hi, lo = float(T.max()), float(T.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise DomainError("minors beyond the float range: the table has NaN or infinite entries")
    return hi, lo


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues sorted by descending modulus, their moduli, and the radius."""

    eigenvalues: np.ndarray
    moduli: np.ndarray
    spectral_radius: float


def spectral_report(A) -> SpectralReport:
    """Full eigenvalue report of a square matrix.

    Eigenvalues come from the standard dense nonsymmetric LAPACK path
    (Hessenberg reduction plus shifted QR) and are sorted by modulus,
    with (re, im) tie-breaking for determinism.
    """
    w = _eigvals(as_square(A))
    order = np.lexsort((-w.imag, -w.real, -np.abs(w)))
    w = w[order]
    moduli = np.abs(w)
    return SpectralReport(eigenvalues=w, moduli=moduli, spectral_radius=float(moduli[0]))


def _eigvals(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of a checked square A, unsorted; NumericError if LAPACK fails."""
    try:
        return np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue iteration failed to converge: {exc}") from exc


class PdCheck(NamedTuple):
    ok: bool
    margin: float


def is_positive_definite(M, tol: float | None = None) -> PdCheck:
    """Positive-definiteness of the symmetric part of M.

    M is symmetrized as (M + M^T)/2 first, which keeps its quadratic
    form, and then goes through the PD rule of _pd_check: the check
    passes when the smallest eigenvalue (returned as the margin) exceeds
    `tol`.
    """
    M = as_square(M)
    return _pd_check(0.5 * (M + M.T), pd_tol(tol))


def _pd_check(S: np.ndarray, t: float, z_matrix: bool = False) -> PdCheck:
    """The PD rule on a symmetric S: its smallest eigenvalue, the margin, exceeds t.

    t is a resolved pd_tol.  S goes to the eigen-solve as it is (LAPACK
    reads one triangle), so a caller that builds S exactly symmetric needs
    no symmetrizing copy.  A NaN or infinite entry is a DomainError, not a
    margin.

    A caller passes z_matrix=True only when no entry of S off its diagonal
    is positive.  From order _LANCZOS_MIN_ORDER on, such an S is first
    tried by _z_matrix_check, whose pass is a proof; every case it leaves
    open goes to the eigen-solve, as any other S does.
    """
    if not (math.isfinite(S.max()) and math.isfinite(S.min())):
        raise DomainError("matrix contains NaN or infinite entries")
    if z_matrix and S.shape[0] >= _LANCZOS_MIN_ORDER:
        check = _z_matrix_check(S, t)
        if check is not None:
            return check
    try:
        eigs = np.linalg.eigvalsh(S)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric eigenvalue solve failed: {exc}") from exc
    margin = float(eigs[0])
    return PdCheck(ok=margin > t, margin=margin)


def _z_matrix_check(S: np.ndarray, t: float) -> PdCheck | None:
    """A proven pass of the PD rule on a finite symmetric Z-matrix S, or None.

    The Ritz pair (θ, v) of _lanczos_smallest is made componentwise
    accurate by _perron_step.  Once v is strictly positive it gives a lower
    bound on the smallest eigenvalue by Collatz-Wielandt
    (_collatz_wielandt_bound), and the pass reports θ as the margin, as
    the eigen-solve would to rounding.  None, for the eigen-solve to
    decide, when Lanczos does not converge, θ is not below the whole
    diagonal, v is not strictly positive (S reducible, or the run settled
    on another eigenvalue, whose eigenvector the step keeps) or the bound
    does not clear t.
    """
    ritz = _lanczos_smallest(S)
    if ritz is None:
        return None
    v = _perron_step(S, *ritz)
    if v is None or not v.min() > 0.0:
        return None
    bound = _collatz_wielandt_bound(S, v)
    if not t < bound <= ritz[0]:
        return None
    return PdCheck(ok=True, margin=ritz[0])


def _perron_step(S: np.ndarray, theta: float, v: np.ndarray) -> np.ndarray | None:
    """N v / (diag(S) - θ) for N = diag(S) - S, or None unless θ is below every diagonal entry.

    With N nonnegative (S a Z-matrix), the smallest eigenvector u of S is
    the Perron vector of N + c I and can be taken positive, and
    (diag(S) - λ) u = N u.  One step of that equation from a Ritz pair
    makes each entry a sum of positive terms, so entries that Lanczos
    holds only to its normwise error come out to rounding.
    """
    diagonal = S.diagonal()
    pivots = diagonal - theta
    if not pivots.min() > 0.0:
        return None
    return (diagonal * v - S @ v) / pivots


def _lanczos_smallest(S: np.ndarray) -> tuple[float, np.ndarray] | None:
    """(θ, v): the smallest Ritz value of symmetric S and its Ritz vector, or None.

    Lanczos (Parlett, The Symmetric Eigenvalue Problem, 1998) from the
    all-ones vector, each new direction orthogonalised against the whole
    basis twice (classical Gram-Schmidt, twice is enough).  The work is one
    mat-vec with S per step plus two products with the basis, which holds
    at most _LANCZOS_MAX_STEPS vectors: no r x r array is made.  The run
    stops once the Ritz residual |beta_j s_j| of θ is at most
    _LANCZOS_RTOL times the largest Ritz value in modulus, and returns
    None if that takes more than _LANCZOS_MAX_STEPS steps.  The
    tridiagonal matrix is solved at checks spaced by the residual's own
    rate of decrease, at most _LANCZOS_CHECK_STEPS apart.  v has unit norm
    and a positive sum.
    """
    r = S.shape[0]
    steps = min(_LANCZOS_MAX_STEPS, r)
    basis = np.empty((steps, r))
    basis[0] = 1.0 / math.sqrt(r)
    alpha, beta = np.empty(steps), np.empty(steps)
    check, last = min(_LANCZOS_CHECK_STEPS, steps), None
    for j in range(steps):
        Q = basis[: j + 1]
        w = S @ Q[j]
        alpha[j] = Q[j] @ w
        w -= (Q @ w) @ Q
        w -= (Q @ w) @ Q
        beta[j] = math.sqrt(w @ w)
        if j + 1 == check or beta[j] == 0.0:
            T = np.diag(alpha[: j + 1])
            T.flat[1 :: j + 2] = T.flat[j + 1 :: j + 2] = beta[:j]
            try:
                theta, s = np.linalg.eigh(T)
            except np.linalg.LinAlgError:
                return None
            residual = beta[j] * abs(s[-1, 0])
            target = _LANCZOS_RTOL * max(abs(theta[0]), abs(theta[-1]))
            if residual <= target:
                v = s[:, 0] @ Q
                return float(theta[0]), (v if v.sum() > 0.0 else -v)
            check = min(j + 1 + _next_check(last, (j + 1, residual), target), steps)
            last = (j + 1, residual)
        if j + 1 < steps:
            basis[j + 1] = w / beta[j]
    return None


def _next_check(last, now, target: float) -> int:
    """Steps to the next convergence check: as many as the residual, falling at
    its rate since the last check, needs to reach target, within 1 and
    _LANCZOS_CHECK_STEPS."""
    if last is None or not 0.0 < now[1] < last[1]:
        return _LANCZOS_CHECK_STEPS
    rate = math.log(last[1] / now[1]) / (now[0] - last[0])
    need = math.log(now[1] / target) / rate if target > 0.0 else math.inf
    return int(min(max(math.ceil(need), 1), _LANCZOS_CHECK_STEPS))


def _collatz_wielandt_bound(S: np.ndarray, v: np.ndarray) -> float:
    """A lower bound on the smallest eigenvalue of a symmetric Z-matrix S, from v > 0.

    With c I - S nonnegative, its Perron root is at most max_i
    ((c I - S) v)_i / v_i (Collatz-Wielandt; Horn and Johnson, Matrix
    Analysis, 8.1), so λ_min(S) >= min_i (S v)_i / v_i.  The computed
    mat-vec f is within γ_r (|S| v)_i of (S v)_i, and as S is a Z-matrix,
    |S| v = (|diag S| + diag S) v - S v, read off f.  γ is taken as
    (r + 10) eps, twice γ_r with room for the few roundings after the
    mat-vec, and r times the smallest subnormal covers underflow.
    """
    r = S.shape[0]
    f = S @ v
    diagonal = S.diagonal()
    spread = (np.abs(diagonal) + diagonal) * v - f
    fin = np.finfo(float)
    f -= (r + 10) * fin.eps * spread + r * fin.smallest_subnormal
    return float(np.min(f / v))
