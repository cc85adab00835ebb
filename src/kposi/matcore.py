"""Dense matrix arithmetic shared by the whole toolkit.

Provides index-set combinatorics (lexicographic k-subsets), minors,
spectral data, and positive-definiteness checks.  All interfaces use
1-based row/column indices, matching the usual minor notation; arrays
are converted at the boundary.
"""

from __future__ import annotations

import math
from collections import OrderedDict
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

# Bytes a path that grows with its input may hold at its peak: minor
# tables, index sets, screens, trajectories and content batches.  Each such
# path is priced in integers before it allocates, and an lru_cache of 64
# entries keeps only entries of at most _BYTE_BUDGET // 64 (_cache_rule).
_BYTE_BUDGET = 400_000_000

# Orders the minor kernel expands by Laplace.  A table of a higher order
# fits the byte budget only near full order, where the expansion would pass
# through far more minors of middle order than the table holds, so there
# each k x k block is factorised instead.
_LAPLACE_MAX_ORDER = 8

# Entries of a Laplace level the kernel builds in one go.  A larger level
# is built in blocks of row sets of about this many entries, written into
# one preallocated table, so its temporaries stay a fraction of the table.
_LEVEL_BLOCK = 1 << 15

# A square table of more than _LEVEL_BLOCK entries with at most
# R^2 / _NONZERO_BREAK_EVEN structural nonzeros is built from its pattern
# plan (_minor_values), and certify applies such a compound, nonnegative
# and of order _DAVIDSON_MIN_ORDER or more, over them through the rows
# the plan holds (_csr); it applies every other compound densely.  A
# sweep at r = 792 on one OpenBLAS thread put the break-even of that
# application with the dense one near r^2 / 6 (128 nonzeros a row); up to
# r^2 / 16 it took at most 0.62 of the dense time (BENCH_sparse.json).
_NONZERO_BREAK_EVEN = 16


def _resolve_tol(tol: float | None, default: float) -> float:
    """The explicit argument if given, else `default`: no other input is read.

    A given tolerance must be a finite number, not below 0 (DomainError
    otherwise): a negative zero band reads every value as both signs, and
    a negative screen threshold passes negative minors.  `default` is
    trusted as it is.
    """
    return default if tol is None else _checked_tol(tol, "tol")


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


def _cacheable(nbytes: int) -> bool:
    """Whether an lru_cache of 64 entries may keep an entry of nbytes: at
    most _BYTE_BUDGET // 64, so the cache never holds more than the budget."""
    return nbytes <= _BYTE_BUDGET // 64


def _cache_rule(cached, nbytes: int):
    """`cached`, an lru_cache of 64 entries, where the entry it would keep,
    of nbytes, is _cacheable; else the function it wraps, which builds afresh."""
    return cached if _cacheable(nbytes) else cached.__wrapped__


def _check_order(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise DomainError(f"order k={k} must satisfy 1 <= k <= n={n}")


def lex_index_sets(k: int, n: int) -> list[LexIndexSet]:
    """All k-subsets of [1, n] in lexicographic order (length C(n, k)).

    Priced before the first set is made at 8 k + 512 bytes a set, for the
    LexIndexSet, its tuple and its slot in the list (the ints are range's
    own), and 64 KiB more.
    """
    _check_order(k, n)
    count = math.comb(n, k)
    _require_budget(count * (8 * k + 512) + (1 << 16), f"{_count_text(count)} index sets of order {_count_text(k)}")
    return [LexIndexSet(n, c) for c in combinations(range(1, n + 1), k)]


def lex_array(k: int, n: int) -> np.ndarray:
    """0-based (C(n,k), k) index array in the same lexicographic order.

    Priced at _lex_bytes(k, n) before it builds.
    """
    _check_order(k, n)
    _require_budget(_lex_bytes(k, n), f"an array of {_count_text(math.comb(n, k))} index sets of order {_count_text(k)}")
    return _lex_subsets(k, n)


def _lex_bytes(k: int, n: int) -> int:
    """Bytes _lex_subsets(k, n) holds at its peak, at most: the k columns of
    the result, its levels, whose sets number C(n+1, k) in all, twice, and
    two index vectors, within (k + 4) C(n+1, k) entries, and 64 KiB of
    small arrays."""
    return 8 * (k + 4) * math.comb(n + 1, k) + (1 << 16)


def _lex_levels(k: int, n: int) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """(first, tail) of the levels j = 1..k of the k-subsets of range(n).

    Level j lists the j-subsets of range(k - j, n), the tails a k-subset
    can end in, in lexicographic order: set i is first[i] followed by set
    tail[i] of level j - 1 (level 1 has no tail, and None for it).  Built
    from integer arrays alone, with no Python tuple, in the order of
    itertools.combinations.
    """
    first = np.arange(k - 1, n, dtype=np.intp)
    levels = [(first, None)]
    for j in range(2, k + 1):
        # the sets led by a are a followed by each set of the level below
        # whose first element is above a: the last ones of that level
        heads = np.arange(k - j, n - j + 1, dtype=np.intp)
        counts = first.size - np.searchsorted(first, heads, side="right")
        ends = np.cumsum(counts)
        tail = np.repeat(first.size - ends, counts)
        tail += np.arange(tail.size, dtype=np.intp)
        first = np.repeat(heads, counts)
        levels.append((first, tail))
    return levels


def _lex_subsets(k: int, n: int) -> np.ndarray:
    """lex_array(k, n) unpriced: each column read down the levels of _lex_levels."""
    levels = _lex_levels(k, n)
    first, rank = levels.pop()
    sets = np.empty((first.size, k), dtype=np.intp)
    sets[:, 0] = first
    for c in range(1, k):
        first, tail = levels.pop()
        sets[:, c] = first[rank]
        rank = tail[rank] if tail is not None else None
    return sets


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


class _Level(NamedTuple):
    """One level p of _laplace_plan(n, m, q): its row sets and its column sets."""

    first: np.ndarray
    tail: np.ndarray
    cols: np.ndarray
    drop: np.ndarray


@lru_cache(maxsize=64)
def _laplace_plan(n: int, m: int, q: int) -> tuple[_Level, ...]:
    """Index plan of the Laplace expansion, one _Level per level p = 2..q.

    Level p holds the p-subsets of rows q-p..n-1, the only row sets a
    q-minor's expansion reaches, and all p-subsets of the m columns, in
    lexicographic order.  first is each row set's first row and tail the
    rank of the rest at level p-1, as _lex_levels(q, n) lists them;
    cols[j] holds each column set's j-th column and drop[j] the rank of
    the set without it at level p-1.  The arrays, _plan_bytes(n, m, q) in
    all, are read-only, since every caller shares them; _minors keeps a
    plan cached under _cache_rule.
    """
    levels = []
    for p, (first, tail) in enumerate(_lex_levels(q, n)[1:], 2):
        sets = _lex_subsets(p, m)
        cols = np.ascontiguousarray(sets.T)
        drop = np.stack([_lex_rank(np.delete(sets, j, axis=1), m) for j in range(p)])
        level = _Level(first, tail, cols, drop)
        for arr in level:
            arr.setflags(write=False)
        levels.append(level)
    return tuple(levels)


@lru_cache(maxsize=64)
def _plan_bytes(n: int, m: int, q: int) -> int:
    """Bytes of the arrays of _laplace_plan(n, m, q); kept, as _minors
    looks it up for _cache_rule on every call."""
    return 8 * sum(2 * math.comb(n - q + p, p) + 2 * p * math.comb(m, p) for p in range(2, q + 1))


def _minors(A: np.ndarray, q: int) -> np.ndarray:
    """All q-minors of a (..., n, m) stack, shape (..., C(n,q), C(m,q)).

    Up to _LAPLACE_MAX_ORDER each q-minor is expanded along the first row
    of its row set over (q-1)-minors of the remaining rows, level by level
    from the entries up: O(C(n,q) C(m,q) q) products, with no k x k
    blocks gathered.  Every entry is summed term by term in column order
    (_expand).  A level of more than _LEVEL_BLOCK entries is built in
    blocks of row sets written into one preallocated table, so the kernel
    holds the table, the level below it and small temporaries.  An entry
    takes the same terms in the same order whichever table, batch or row
    block it sits in, so it rounds to the same bits there, a zero's sign
    included, and orders 1 and 2 equal the closed forms bit for bit.  The
    method depends on q alone, so a single minor always matches its table
    entry in value.  _minor_values builds a sparse square table from its
    pattern plan instead, which skips its zero minors.
    """
    n, m = A.shape[-2:]
    if q > _LAPLACE_MAX_ORDER:
        R, C = lex_array(q, n), lex_array(q, m)
        return np.linalg.det(A[..., R[:, None, :, None], C[None, :, None, :]])
    table = A[..., q - 1 :, :].copy()
    batch = math.prod(A.shape[:-2])
    for first, tail, cols, drop in _cache_rule(_laplace_plan, _plan_bytes(n, m, q))(n, m, q):
        step = max(1, _LEVEL_BLOCK // (batch * cols.shape[1]))
        if first.size <= step:
            table = _expand(A, table, first, tail, cols, drop)
            continue
        out = np.empty(A.shape[:-2] + (first.size, cols.shape[1]))
        for s in range(0, first.size, step):
            r = slice(s, s + step)
            out[..., r, :] = _expand(A, table, first[r], tail[r], cols, drop)
        table = out
    # fancy indexing can leave a batch axis innermost; BLAS callers such
    # as np.dot round by layout, so hand out the C order a copy would have
    return np.ascontiguousarray(table)


def _expand(A, table, first, tail, cols, drop) -> np.ndarray:
    """One Laplace level over the row sets (first, tail) of its plan, as a
    new array; `table` is the level below."""
    head = A[..., first, :]
    below = table[..., tail, :]
    out = head[..., cols[0]]
    out *= below[..., drop[0]]
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


@lru_cache(maxsize=64)
def _table_bytes(n: int, m: int, k: int, batch: int = 1) -> int:
    """Bytes _minors(A, k) holds at its peak for a (batch, n, m) stack A, at
    most (batch 1 for a single n x m A); kept per shape, as the verdicts
    price tables of a few shapes over and over, so _LEVEL_BLOCK and
    _LAPLACE_MAX_ORDER are read once a shape.

    Up to _LAPLACE_MAX_ORDER: the batch R C k products of the top Laplace
    level, which bound the level and the one below it; the temporaries of
    the widest row block, whose max(1, _LEVEL_BLOCK // (batch C(m,p))) row
    sets each make, per matrix, a head row, a row of level p-1 and three
    rows of level p (the result, a term and its gathered factor); the
    build of the plan, four times its arrays; and 64 KiB of small arrays.
    Above: the gathered k x k blocks and their minors, batch R C (k^2 + 1)
    entries, and the two index arrays.  A table built from its pattern
    plan (_minor_values) holds the same at most: the plan's build is
    refused beyond this price less the table's own R C entries, which are
    written once it is built (_pattern_plan).
    """
    R, C = math.comb(n, k), math.comb(m, k)
    if k > _LAPLACE_MAX_ORDER:
        return 8 * batch * R * C * (k * k + 1) + _lex_bytes(k, n) + _lex_bytes(k, m)
    block = 0
    for p in range(2, k + 1):
        width = math.comb(m, p)
        block = max(block, max(1, _LEVEL_BLOCK // (batch * width)) * batch * (m + math.comb(m, p - 1) + 3 * width))
    return 8 * (batch * R * C * k + block) + 4 * _plan_bytes(n, m, k) + (1 << 16)


def _minor_table(A: np.ndarray, k: int) -> np.ndarray:
    """minor_table on a checked A, for the verdicts: they read the table's
    extremes, and so refuse a non-finite one, at their sign gate.

    The table of _minor_values: a pattern plan's values written into
    zeros, equal in value to _minors(A, k), and bit for bit wherever an
    entry is not zero, and with no zero of sign -0.0, or the dense table.
    """
    plan, values = _minor_values(A, k)
    if plan is None:
        return values
    table = np.zeros((math.comb(A.shape[0], k),) * 2)
    table.reshape(-1)[plan.flat] = values
    return table


def _minor_values(A: np.ndarray, k: int):
    """The k-minor table of a checked A, 1 <= k <= min(A.shape), priced
    once: (plan, values) of _sparse_minors where the one gate of the
    pattern plan admits A, else (None, the table of _minors).

    The gate: a square A, 2 <= k <= _LAPLACE_MAX_ORDER, a table of R^2 >
    _LEVEL_BLOCK entries, which _minors would build in row blocks, and at
    most R^2 / _NONZERO_BREAK_EVEN structurally nonzero k-minors, counted
    exactly by the plan of A's zero pattern, which an A with few zeros, a
    build bounded above that count on the way and a build beyond the
    table's price never reach (_admitted_plan).  A level beyond the float
    range also sends A to _minors, whose table then holds it.
    """
    n, m = A.shape
    if not 1 <= k <= min(n, m):
        raise DomainError(f"order k={k} must satisfy 1 <= k <= min{A.shape}")
    _require_budget(_table_bytes(n, m, k),
                    f"a minor table of {_count_text(math.comb(n, k))}x{_count_text(math.comb(m, k))} order-{k} minors")
    if n == m and 2 <= k <= _LAPLACE_MAX_ORDER and math.comb(n, k) ** 2 > _LEVEL_BLOCK:
        sparse = _sparse_minors(A, k)
        if sparse is not None:
            return sparse
    with np.errstate(over="ignore", invalid="ignore"):
        return None, _minors(A, k)


class _Csr(NamedTuple):
    """An r x r operator's nonzeros as rows (_csr): each one's column, in
    row-major order, the count of each row, the rows that hold any and where
    each of those starts, whether every row holds one, and the most
    nonzeros a of a row and b of a column."""

    cols: np.ndarray
    counts: np.ndarray
    rows: np.ndarray
    starts: np.ndarray
    full: bool
    a: int
    b: int


def _csr(flat: np.ndarray, r: int) -> _Csr:
    """The _Csr of the r x r operator whose nonzeros sit at the flat indices
    `flat`, in row-major order."""
    ends = np.searchsorted(flat, np.arange(1, r + 1) * r)
    counts = np.diff(ends, prepend=0)
    rows = np.flatnonzero(counts)
    cols = flat % r
    return _Csr(cols, counts, rows, (ends - counts)[rows], rows.size == r,
                int(counts.max()), int(np.bincount(cols, minlength=r).max()))


class _PatternPlan(NamedTuple):
    """The structural nonzeros of the Laplace levels of the k-minors of an
    n x n matrix of one zero pattern (_pattern_plan).

    entries holds the flat indices into A of the nonzeros of its rows
    k-1..n-1, level 1.  levels holds, for each level p = 2..k, its count of
    structural entries and, for each column position j = 0..p-1, its terms
    (entry, at, below): an entry of the level, the flat index into A of
    its head entry, and the index of its minor in the level below.  flat
    holds the top level's entries as flat indices into the C(n,k) x C(n,k)
    table, in row-major order, which is the order of every level's
    entries, and csr the same entries as the rows of the table read as an
    operator, which certify applies the compound through.
    """

    entries: np.ndarray
    levels: tuple[tuple[int, tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]], ...]
    flat: np.ndarray
    csr: _Csr

    def arrays(self):
        """Every array the plan holds."""
        yield self.entries
        yield self.flat
        for _, terms in self.levels:
            for term in terms:
                yield from term
        yield from self.csr[:4]


# What _admitted_plan decided for each pattern, by (n, k, key), least
# recently used first: its plan, or None where it was refused.  At most 64
# entries, each plan _cacheable by the bytes of its arrays.
_PATTERN_PLANS: OrderedDict[tuple[int, int, bytes], _PatternPlan | None] = OrderedDict()


def _admitted_plan(nonzero: np.ndarray, k: int) -> _PatternPlan | None:
    """The _PatternPlan of the n x n zero pattern `nonzero` at order k where
    its top level holds at most R^2 / _NONZERO_BREAK_EVEN entries, R =
    C(n,k), else None.

    A pattern with few zeros is refused with no build and nothing kept: a
    k x k submatrix with no zero entry is structurally nonsingular, and
    each zero sits in C(n-1,k-1)^2 of them, so the count is at least R^2
    less that for each zero (all of R^2 for a fully nonzero pattern).  A
    pattern found in _PATTERN_PLANS is decided there, with no build.  Any
    other is built (_pattern_plan), which refuses it on its exact count.
    The decision is kept, a plan only when its arrays are _cacheable, the
    least recently used of 65 dropped: the plan's size is known once it is
    built.
    """
    n = nonzero.shape[0]
    R = math.comb(n, k)
    zeros = nonzero.size - np.count_nonzero(nonzero)
    if (R * R - zeros * math.comb(n - 1, k - 1) ** 2) * _NONZERO_BREAK_EVEN > R * R:
        return None
    key = (n, k, np.packbits(nonzero).tobytes())
    if key in _PATTERN_PLANS:
        _PATTERN_PLANS.move_to_end(key)
        return _PATTERN_PLANS[key]
    plan = _pattern_plan(n, k, key[2])
    if plan is None or _cacheable(sum(arr.nbytes for arr in plan.arrays())):
        _PATTERN_PLANS[key] = plan
        if len(_PATTERN_PLANS) > 64:
            _PATTERN_PLANS.popitem(last=False)
    return plan


def _pattern_plan(n: int, k: int, key: bytes) -> _PatternPlan | None:
    """The _PatternPlan of the n x n zero pattern np.packbits(A != 0).tobytes()
    == key, or None where its top level holds more than R^2 /
    _NONZERO_BREAK_EVEN entries, R = C(n,k), or its build would pass the
    table's price.

    Derived level by level from _laplace_plan(n, n, k), with work in
    proportion to the structural terms and no array of a level's size.  A
    row set i with head row a and tail t pairs each nonzero column x of
    row a with each structural entry c of row t of the level below, in x
    order; where x is not in c, the pair is the term at column position j
    of the entry (i, c with x), found through lift, the plan's drop
    inverted for each x.  A stable sort of the terms by their entries
    lists the structural entries in row-major order.  A level's pairs are
    counted before any of them is made: at eight words a pair beside the
    levels already built, they may hold what _table_bytes(n, n, k) prices
    beyond the table itself, and the build is refused past that.  Once a
    level p < k is built, the top level's count is bounded below, and the
    build refused where that passes the gate: a top row set whose other
    k-p rows hold at least k-p nonzeros each can place them in k-p
    distinct columns X (Hall), and each entry c of its tail at level p
    that misses X gives its own entry c with X, so it holds at least its
    tail's count less the C(n,p) - C(n-k+p,p) column sets that meet X.
    The arrays are read-only, since every caller of the pattern shares
    them; _admitted_plan keeps the plans it builds.
    """
    nonzero = np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=n * n).view(bool)
    at = np.flatnonzero(nonzero)
    column = at % n
    ptr = np.searchsorted(at, np.arange(n + 1) * n)
    count = np.diff(ptr)
    entries = at[ptr[k - 1] :]
    keys, width, below_rows = entries - (k - 1) * n, n, n - k + 1
    R = math.comb(n, k)
    room = _table_bytes(n, n, k) - 8 * R * R
    spent = 16 * entries.size
    laplace = _cache_rule(_laplace_plan, _plan_bytes(n, n, k))(n, n, k)
    # for each level 1..k-1, each top row set's tail there and the fewest
    # nonzeros of a row of its other rows
    tails, tail, fewest = [], np.arange(R), np.full(R, n)
    for level in reversed(laplace):
        fewest = np.minimum(fewest, count[level.first[tail]])
        tail = level.tail[tail]
        tails.insert(0, (tail, fewest))
    levels = []
    for p, (first, tail, cols, drop) in enumerate(laplace, 2):
        lower, width = width, cols.shape[1]
        # each row of the level below: where its entries start, and how
        # many; each row set: its pairs (x, c), x-major
        rows = np.searchsorted(keys, np.arange(below_rows + 1) * lower)
        below_rows = first.size
        held = np.diff(rows)
        # the top level's lower bound from the level below (docstring)
        top, heads = tails[p - 2]
        least = held[top] - (lower - math.comb(n - k + p - 1, p - 1))
        if least[(heads > k - p) & (least > 0)].sum() * _NONZERO_BREAK_EVEN > R * R:
            return None
        held = held[tail]
        pairs = held * count[first]
        total = int(pairs.sum())
        if spent + 64 * total > room:
            return None
        i = np.repeat(np.arange(first.size), pairs)
        head, b = np.divmod(np.arange(total) - np.repeat(np.cumsum(pairs) - pairs, pairs), held[i])
        head += ptr[first[i]]
        b += rows[tail[i]]
        # lift[x * C(n,p-1) + c] is j + p * (the set c with x), -1 where c holds x
        lift = np.full(n * lower, -1, dtype=np.intp)
        lift[cols * lower + drop] = np.arange(width) * p + np.arange(p)[:, None]
        placed = column[head]
        placed *= lower
        placed += (keys % lower)[b]
        placed = lift[placed]
        kept = np.flatnonzero(placed >= 0)
        sets, j = np.divmod(placed[kept], p)
        del placed
        sets += i[kept] * width
        del i
        # the terms in their entries' order, a stable sort, then grouped by
        # column position j, a stable radix sort of the small j
        order = np.argsort(sets, kind="stable")
        sets = sets[order]
        new = np.empty(sets.size, dtype=bool)
        new[:1] = True
        np.not_equal(sets[1:], sets[:-1], out=new[1:])
        keys = sets[new]
        del sets
        by_j = np.argsort(j.astype(np.int8)[order], kind="stable")
        entry = (np.cumsum(new) - 1)[by_j]
        order = kept[order[by_j]]
        del kept, by_j
        a, b = at[head[order]], b[order]
        ends = np.cumsum(np.bincount(j, minlength=p))
        terms = [(entry[s:e], a[s:e], b[s:e]) for s, e in zip([0, *ends], ends)]
        levels.append((keys.size, tuple(terms)))
        spent += 32 * entry.size
    if keys.size * _NONZERO_BREAK_EVEN > R * R:
        return None
    plan = _PatternPlan(entries, tuple(levels), keys, _csr(keys, R))
    for arr in plan.arrays():
        arr.setflags(write=False)
    return plan


def _sparse_minors(A: np.ndarray, k: int):
    """(plan, values): the structurally nonzero k-minors of a checked square
    A, 2 <= k <= _LAPLACE_MAX_ORDER, as the plan of A's zero pattern, whose
    flat lists their flat indices into the C(n,k) x C(n,k) table in
    row-major order, and their values, with no array of the table's size.
    None where _admitted_plan refuses A's zero pattern, or where a level
    comes out NaN or infinite.

    _admitted_plan keeps the plan, so a pattern seen before costs only
    the numeric pass.
    Each entry is 0.0 plus its terms, in increasing column position j,
    with sign (-1)^j: _expand's order less the structurally zero terms.
    So every nonzero value equals its entry of _minors(A, k) bit for bit,
    and every entry left out is zero there: a term left out has a zero
    factor, and so adds an exact zero to a finite sum.  A zero may differ
    in sign, and none here is -0.0, as a sum that starts at 0.0 never is.
    The caller prices the table.
    """
    plan = _admitted_plan(A != 0.0, k)
    if plan is None:
        return None
    a = A.ravel()
    values = a[plan.entries]
    with np.errstate(over="ignore", invalid="ignore"):
        for size, terms in plan.levels:
            below, values = values, np.zeros(size)
            for j, (entry, at, rank) in enumerate(terms):
                term = a[at]
                term *= below[rank]
                if j == 0:
                    term += 0.0  # 0.0 plus the term: a -0.0 product gives 0.0
                    values[entry] = term
                elif j % 2:
                    values[entry] -= term
                else:
                    values[entry] += term
            if not np.isfinite(values).all():
                return None
    return plan, values


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
    `tol`.  Priced at two n x n arrays, the symmetric part and LAPACK's copy.
    """
    M = as_square(M)
    n = M.shape[0]
    _require_budget(16 * n * n, f"a definiteness check of order {n}")
    return _pd_check(0.5 * (M + M.T), pd_tol(tol))


def _pd_check(S: np.ndarray, t: float) -> PdCheck:
    """The PD rule on a symmetric S: its smallest eigenvalue, the margin, exceeds t.

    t is a resolved pd_tol.  S goes to the eigen-solve as it is (LAPACK
    reads one triangle), so a caller that builds S exactly symmetric needs
    no symmetrizing copy.  A NaN or infinite entry is a DomainError, not a
    margin.
    """
    if not (math.isfinite(S.max()) and math.isfinite(S.min())):
        raise DomainError("matrix contains NaN or infinite entries")
    try:
        eigs = np.linalg.eigvalsh(S)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric eigenvalue solve failed: {exc}") from exc
    margin = float(eigs[0])
    return PdCheck(ok=margin > t, margin=margin)
