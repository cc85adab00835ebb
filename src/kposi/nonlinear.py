"""Simulation of x(j+1) = A phi(x(j)) with wedge-trajectory diagnostics.

phi acts componentwise through a closed catalog of scalar maps.  When
phi never inflates any wedge coordinate (the k-content preserving
property) and A carries a diagonal Stein certificate at order k, the
quadratic form V(y) = y^T D y decreases along the wedge y(j) of any k
simulated trajectories, which is what the trajectory tools measure.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import InitVar, dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .compound import mult_compound
from .errors import DomainError, NumericError, PreconditionError
from .matcore import (
    LexIndexSet,
    _LAPLACE_MAX_ORDER,
    _LEVEL_BLOCK,
    _checked_count,
    _count_text,
    _minors,
    _require_budget,
    _table_bytes,
    as_square,
    as_vector,
    lex_index_set_at,
    zero_tol,
)
from .stability import diag_entries

IDENTITY = "IDENTITY"
LINEAR = "LINEAR"
POWER = "POWER"
TABLE = "TABLE"

# Wedge recursion and direct evaluation must agree to this relative level.
_RECURSION_RTOL = 1e-9

# Steps per domain test in _iterate.
_BLOCK = 64


@dataclass(frozen=True)
class ScalarMap:
    """One componentwise nonlinearity with phi(0) = 0.

    Kinds: IDENTITY, LINEAR (gain c), POWER (exponent p, odd-extended for
    non-integer p), TABLE (piecewise-linear through sorted breakpoints).
    Construction is permissive; `validate` checks the non-inflating
    conditions against a concrete domain and is normally invoked when a
    NonlinearSystem is assembled.
    """

    kind: str
    c: float = 1.0
    p: float = 1.0
    points: tuple[tuple[float, float], ...] | None = None

    @cached_property
    def _phi(self) -> Callable[[np.ndarray], np.ndarray]:
        """This map's phi, built on first call: the one-map case of the
        evaluator a system builds for each group of its coordinates."""
        return _kind_phi((self,))

    @classmethod
    def identity(cls) -> "ScalarMap":
        return cls(IDENTITY)

    @classmethod
    def linear(cls, c: float) -> "ScalarMap":
        return cls(LINEAR, c=float(c))

    @classmethod
    def power(cls, p: float) -> "ScalarMap":
        return cls(POWER, p=float(p))

    @classmethod
    def table(cls, points) -> "ScalarMap":
        pts = tuple(sorted((float(z), float(v)) for z, v in points))
        return cls(TABLE, points=pts)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        # a one-map group's parameters have length 1, so a 0-d s can come
        # back with shape (1,).  s itself gains no axis: numpy's odd-power
        # loop gives -NaN another sign bit on a length-1 array than 0-d
        out = self._phi(s).reshape(s.shape)
        return out if out.ndim else float(out)

    def validate(self, domain: tuple[float, float]) -> None:
        """Check the map is admissible on [lo, hi]: phi(0)=0 and |phi(z)| <= |z|."""
        lo, hi = float(domain[0]), float(domain[1])
        if self.kind == IDENTITY:
            return
        if self.kind == LINEAR:
            if not 0.0 < self.c <= 1.0:
                raise PreconditionError(f"LINEAR gain must satisfy 0 < c <= 1, got {self.c}")
            return
        if self.kind == POWER:
            if not self.p >= 1.0:
                raise PreconditionError(f"POWER exponent must satisfy p >= 1, got {self.p}")
            if lo < -1.0 or hi > 1.0:
                raise PreconditionError(
                    f"POWER maps need a domain inside [-1, 1], got [{lo}, {hi}]"
                )
            return
        if self.kind == TABLE:
            if self.points is None or len(self.points) < 2:
                raise PreconditionError("TABLE needs at least two breakpoints")
            xs = [z for z, _ in self.points]
            if any(b < a for a, b in zip(xs, xs[1:])):
                raise PreconditionError("TABLE breakpoints must be in nondecreasing order")
            if not (xs[0] <= lo and hi <= xs[-1]):
                raise PreconditionError("TABLE breakpoints must cover the domain")
            if (0.0, 0.0) not in self.points:
                raise PreconditionError("TABLE must contain the breakpoint (0, 0)")
            for z, v in self.points:
                if z != 0.0 and not 0.0 < abs(v) <= abs(z):
                    raise PreconditionError(
                        f"TABLE breakpoint ({z}, {v}) violates 0 < |phi(z)| <= |z|"
                    )
            return
        raise DomainError(f"unknown scalar map kind {self.kind!r}")


def _group_key(m: ScalarMap) -> tuple:
    """Maps with equal keys are evaluated together: one kind, and one
    exponent (POWER) or one breakpoint grid (TABLE)."""
    if m.kind == POWER:
        return (POWER, m.p)
    if m.kind == TABLE:
        return (TABLE, tuple(z for z, _ in m.points or ()))
    return (m.kind,)


def _kind_phi(maps: tuple[ScalarMap, ...], lean: bool = False):
    """phi of maps sharing one group key, as one numpy evaluation.

    The argument's last axis runs over `maps`; a single map's parameters
    have length 1 and broadcast over any argument.  With lean, a TABLE
    group's plan tries the proof that lets its lookup skip the clamp and
    the breakpoint copy (see _TablePlan); its phi then gives the usual
    bits on finite arguments and NaN only.
    """
    m = maps[0]
    if m.kind == IDENTITY:
        return _copy
    if m.kind == LINEAR:
        c = np.array([q.c for q in maps])
        return partial(_linear, c)
    if m.kind == POWER:
        if float(m.p).is_integer():
            return partial(_int_power, int(m.p))
        return partial(_odd_power, m.p)
    if m.kind == TABLE and m.points:
        if len(m.points) == 1:
            # np.interp on one breakpoint: its value everywhere, NaN included
            y = np.array([q.points[0][1] for q in maps])
            return partial(_constant, y)
        return partial(_table_phi, _table_plan(maps, lean))
    return partial(_refuse, m)


def _copy(s):
    return s.copy()


def _linear(c, s):
    return c * s


def _int_power(p, s):
    return s**p


def _odd_power(p, s):
    return np.sign(s) * np.abs(s) ** p


def _constant(y, s):
    out = np.empty_like(s)
    out[...] = y
    return out


def _refuse(m, s):
    if m.kind == TABLE:
        raise DomainError("TABLE needs at least one breakpoint")
    raise DomainError(f"unknown scalar map kind {m.kind!r}")


class _TablePlan(NamedTuple):
    """Breakpoints of g tables on one grid, laid out so that one gather
    (see _table_phi) fetches everything a lookup needs.

    `cuts` is the grid as searchsorted counts it, split at 0.  A negative
    breakpoint x enters as nextafter(x, inf), so a negative argument at x
    falls in the interval left of it, and 0 is inserted unless a cut is
    +-0 already.  Each of the L = len(cuts) + 1 intervals then holds
    arguments of one sign: -0.0 and NaN fall on the + side.  lo and hi are
    the grid's ends.

    Table i's intervals are columns base[i] + (0..L-1) of `rows`, whose
    eight rows hold, per interval: the base breakpoint xb and its value
    yb; the branch sign sig; the slope sb of the segment that starts
    (sig = +1) or ends (sig = -1) at xb; sig*yb; sig*sb; and that
    segment's far end xo and value yo.  An interval outside the table has
    the end breakpoint for base and slope 0.  Every array is read-only, as
    the plan is shared by all maps of a group.

    `exact` lets _table_lookup skip the clamp and the breakpoint copy.  It
    is set only on a finite plan built for a finite domain, and only if
    the plan proves, when it is built, that the lookup then still gives
    its full form's bits on every finite argument and NaN.  The clamp is
    idle on the grid [lo, hi]: it changes no argument there.  Without the
    two steps the lookup computes ((s - xb)*sig*sb + sig*yb)*sig, and with
    sig = +-1, (s - xb)*(sig*sb) rounds as ((s - xb)*sig)*sb does.  So the
    two forms can differ only
    - where s == xb: at a breakpoint, and at +-0 on a zero base;
    - beyond the grid, where the clamp is not idle.  The slope there is 0,
      so on each interval the lean value depends only on the sign of
      s - xb, unless s - xb overflows, which it does first at the
      interval's farthest finite argument.
    The proof compares both forms on each breakpoint, each interval's
    least argument (the cuts, which put one finite argument beyond each
    end of the grid on the bounded side), +-0, the largest finite float
    of either sign, and NaN of either sign."""

    lo: float
    hi: float
    cuts: np.ndarray
    base: np.ndarray
    rows: np.ndarray
    nonfinite: bool
    exact: bool = False


def _table_plan(maps: tuple[ScalarMap, ...], lean: bool = False) -> _TablePlan:
    xs = np.array([[z for z, _ in q.points] for q in maps])
    ys = np.array([[v for _, v in q.points] for q in maps])
    g, K = xs.shape
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        seg = np.diff(ys, axis=1) / np.diff(xs, axis=1)
    # Per table, breakpoints padded with a copy of each end, and the slope
    # of the segment starting at each padded breakpoint (zero at the ends).
    xp = np.pad(xs, ((0, 0), (1, 1)), mode="edge")
    yp = np.pad(ys, ((0, 0), (1, 1)), mode="edge")
    slopes = np.zeros((g, K + 2))
    slopes[:, 1:K] = seg
    grid = xs[0]
    xt = np.where(grid < 0.0, np.nextafter(grid, np.inf), grid)
    cuts = xt if (xt == 0.0).any() else np.insert(xt, xt.searchsorted(0.0), 0.0)
    # Each interval's least argument stands for all of it: i counts the
    # breakpoints at or left of it, a negative one only once the argument
    # is past it.  The base breakpoint is padded index i on the + branch,
    # i + 1 (the one at or right of the argument, nearer 0) on the - one;
    # past an end of the table it is that end, which the clamped argument
    # equals, so the lookup returns its value whatever the branch.
    first = np.concatenate([[-np.inf], cuts])
    i = xt.searchsorted(first, "right")
    neg = first < 0.0
    b = i + neg
    sig = np.where(neg, -1.0, 1.0)
    yb = yp[:, b]
    sb = slopes[:, i]
    far = b + 1 - 2 * neg
    rows = np.stack(
        [xp[:, b], yb, np.broadcast_to(sig, yb.shape), sb, yb * sig, sb * sig, xp[:, far], yp[:, far]]
    )
    plan = _TablePlan(
        lo=grid[0],
        hi=grid[-1],
        cuts=cuts,
        base=np.arange(g) * first.size,
        rows=rows.reshape(rows.shape[0], -1),
        nonfinite=not (np.isfinite(xs).all() and np.isfinite(ys).all() and np.isfinite(seg).all()),
    )
    for arr in (plan.cuts, plan.base, plan.rows):
        arr.setflags(write=False)
    if lean and not plan.nonfinite:
        big = np.finfo(float).max
        probes = np.concatenate([grid, cuts, [0.0, -0.0, big, -big, np.nan, -np.nan]])
        s = np.repeat(probes[:, None], g, axis=1)
        lean_plan = plan._replace(exact=True)
        with np.errstate(over="ignore", invalid="ignore"):
            if _table_lookup(lean_plan, s)[0].tobytes() == _table_lookup(plan, s)[0].tobytes():
                return lean_plan
    return plan


def _table_phi(t: _TablePlan, s):
    """Piecewise-linear phi, bit for bit the rule of np.interp per branch.

    For s >= 0 it is np.interp(s, xs, ys), measured from the breakpoint at
    or left of s; for s < 0 it is -np.interp(-s, -xs[::-1], -ys[::-1]),
    measured from the breakpoint at or right of s, the one nearer 0, so a
    small phi(s) keeps its relative accuracy.  Outside the table it is the
    end value, and at a breakpoint its value, as np.interp gives them.

    One gather from the plan's interval rows, then on both branches
    sig*((s - xb)*sig*sb + sig*yb): with sig = -1 these are the mirrored
    np.interp's operations in its order, so a zero result has the sign
    the mirrored table and the outer minus give it (s = -0.0 is on the +
    branch, as s < 0 is false).  A NaN comes out as it went in.  On an
    exact plan this holds for finite arguments and NaN only.
    """
    if t.nonfinite:
        with np.errstate(invalid="ignore", over="ignore"):
            return _table_retry(s, *_table_lookup(t, s))
    return _table_lookup(t, s)[0]


def _table_lookup(t: _TablePlan, s):
    """np.interp's first try, with the clamped argument and the plan's
    rows gathered at each argument's interval.

    On an exact plan the clamp and the breakpoint copy are turned off, and
    s - xb is scaled by the stored sig*sb in one step: 7 numpy calls, not
    12, with the same bits on every finite argument and NaN, as the plan
    proved when it was built (see _TablePlan).  The clamp is idle on the
    grid; past its ends the copy alone would have restored the end value.
    """
    # Clamped, an argument outside the table lands on an end breakpoint
    # (never inf - x); a NaN stays NaN and comes out unchanged.
    sc = s if t.exact else np.minimum(np.maximum(s, t.lo), t.hi)
    # Counted on s itself: NaN lands in the last interval, on the + branch.
    j = t.cuts.searchsorted(s, "right")
    j += t.base
    rows = t.rows.take(j, axis=1)
    # indexed one by one: unpacking would iterate the array, which costs more
    xb, sig, syb = rows[0], rows[2], rows[4]
    out = sc - xb
    if t.exact:
        out *= rows[5]
    else:
        out *= sig
        out *= rows[3]
    out += syb
    out *= sig
    if not t.exact:
        np.copyto(out, rows[1], where=sc == xb)
    return out, sc, rows


def _table_retry(s, out, sc, rows):
    """np.interp's second try where an infinite slope or value made NaN:
    from the segment's far end, then the common value of a flat segment.
    The mirrored values are negated as np.negative does, NaN signs too."""
    xb, yb, sig, sb, _, _, xo, yo = rows
    neg = sig < 0.0
    again = sb * ((sc - xo) * sig) + np.where(neg, -yo, yo)
    again = np.where(np.isnan(again) & (yb == yo), yb, np.where(neg, -again, again))
    out = np.where(np.isnan(out) & (sc != xb) & (sc == sc), again, out)
    return np.where(sc == sc, out, s)


def _phi_plan(
    maps: tuple[ScalarMap, ...], domain: tuple[float, float] | None = None
) -> Callable[[np.ndarray], np.ndarray]:
    """phi over the last axis of a state array: one evaluation per group.

    Built per call, never stored on the (mutable) system.  A single group
    is applied to the whole array, with no gather or scatter.  Given a
    finite domain, phi is built for it: each TABLE group tries the proof
    that turns off its lookup's clamp and breakpoint copy (see _TablePlan).
    That phi gives the bits of the one built without a domain on every
    finite argument and NaN, so on every state of the domain.
    """
    lean = domain is not None and bool(np.isfinite(domain).all())
    groups: dict[tuple, list[int]] = {}
    for i, m in enumerate(maps):
        groups.setdefault(_group_key(m), []).append(i)
    if len(groups) == 1:
        return _kind_phi(maps, lean)
    parts = [(np.array(idx), _kind_phi(tuple(maps[i] for i in idx), lean)) for idx in groups.values()]

    def phi(x):
        out = np.empty_like(x)
        for idx, f in parts:
            out[..., idx] = f(x[..., idx])
        return out

    return phi


@dataclass
class NonlinearSystem:
    """State update x(j+1) = A phi(x(j)) on the box domain S^n.

    S = [s_lo, s_hi] must contain 0 in its interior; `maps` holds one
    ScalarMap per coordinate.  Pass validate=False to assemble a system
    whose maps deliberately break the admissibility conditions.
    """

    A: np.ndarray
    maps: tuple[ScalarMap, ...]
    domain: tuple[float, float]
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        self.A = as_square(self.A, "A")
        self.maps = tuple(self.maps)
        n = self.A.shape[0]
        if len(self.maps) != n:
            raise DomainError(f"need one scalar map per coordinate ({n}), got {len(self.maps)}")
        lo, hi = float(self.domain[0]), float(self.domain[1])
        if not lo < 0.0 < hi:
            raise PreconditionError(f"domain [{lo}, {hi}] must contain 0 in its interior")
        self.domain = (lo, hi)
        if validate:
            for m in self.maps:
                m.validate(self.domain)

    @property
    def n(self) -> int:
        return self.A.shape[0]


def _as_state(sys: NonlinearSystem, a, name: str) -> np.ndarray:
    """Coerce `a` to a state in S^n, naming it in any error."""
    x = as_vector(a, name)
    if x.size != sys.n:
        raise DomainError(f"{name} has dimension {x.size}, system expects {sys.n}")
    lo, hi = sys.domain
    bad = np.nonzero((x < lo) | (x > hi))[0]
    if bad.size:
        i = int(bad[0])
        raise DomainError(
            f"{name}[{i + 1}] = {x[i]} lies outside the state domain [{lo}, {hi}]"
        )
    return x


def eval_phi(sys: NonlinearSystem, x) -> np.ndarray:
    """Apply phi componentwise to a state in S^n."""
    return _phi_plan(sys.maps)(_as_state(sys, x, "x"))


@dataclass(frozen=True)
class SimResult:
    """States of one simulated trajectory, row j holding x(j).

    exit_step is the index of the first state outside S^n (that state is
    kept as the final row and iteration stops there); None if the whole
    run stayed inside.
    """

    states: np.ndarray
    exit_step: int | None


def _iterate(sys: NonlinearSystem, phi, starts: dict, steps: int) -> tuple[np.ndarray, int | None]:
    """Iterate x(j+1) = A phi(x(j)) from every start (name -> x0) at once,
    phi being the system's _phi_plan for its domain.

    Returns the (T+1, m, n) states and the first step T at which any start
    left S^n (kept as the last row, iteration stops there), or None.  A NaN
    state is never outside S^n.

    Steps run in blocks of _BLOCK with one domain test per block, so up to
    _BLOCK - 1 steps past an exit are computed and dropped; they may
    overflow, which is why the loop ignores overflow and invalid results.
    Every kept step applies phi to a state inside S^n, so a TABLE group
    whose plan proved exact runs without its clamp and breakpoint copy
    (see _TablePlan): on a finite domain the clamp is idle on the grid,
    and the proof covers every finite argument and NaN.  A dropped step
    may see an infinite state, where the two forms can differ.  Each
    step's product is written straight into its row of the block.
    """
    x = np.array([_as_state(sys, a, name) for name, a in starts.items()])
    steps = _checked_count(steps, "steps", 0)
    lo, hi = sys.domain
    A = sys.A
    blocks = [x[None]]
    with np.errstate(over="ignore", invalid="ignore"):
        for done in range(0, steps, _BLOCK):
            buf = np.empty((min(_BLOCK, steps - done), *x.shape))
            for row in buf:
                # A @ p per start, written so each row rounds exactly as A @ p does
                np.matmul(A, phi(x)[..., None], out=row[..., None])
                x = row
            left = np.flatnonzero(((buf < lo) | (buf > hi)).any(axis=(1, 2)))
            if left.size:
                t = int(left[0]) + 1
                blocks.append(buf[:t])
                return np.concatenate(blocks), done + t
            blocks.append(buf)
    return np.concatenate(blocks), None


def simulate(sys: NonlinearSystem, x0, steps: int) -> SimResult:
    """Iterate x(j+1) = A phi(x(j)) for `steps` steps from x0 in S^n.

    Leaving the domain is a reported truncation, not an error: invariance
    of S^n depends on (A, phi, S) and is not guaranteed in general.  The
    run is priced against the byte budget before it starts.
    """
    steps = _checked_count(steps, "steps", 0)
    # the states twice while their blocks are joined, and 64 KiB of small arrays
    _require_budget(16 * (steps + 1) * sys.n + (1 << 16),
                    f"a trajectory of {_count_text(steps)} steps")
    run, exit_step = _iterate(sys, _phi_plan(sys.maps, sys.domain), {"x0": x0}, steps)
    return SimResult(states=run[:, 0], exit_step=exit_step)


@dataclass(frozen=True)
class ContentCounterexample:
    vectors: np.ndarray
    coord: int
    rows: LexIndexSet
    p: float
    q: float


@dataclass(frozen=True)
class ContentReport:
    """Outcome of sampling the k-content preserving conditions.

    passed covers the zero-propagation and no-inflation clauses.  Sampled
    tuples where a wedge coordinate of the image vanishes while the
    pre-image coordinate does not are surfaced via strict_zero_count and
    an example; they fail the run only under strict=True (sign
    cancellations on symmetric grids produce them even for admissible
    even-power maps).
    """

    passed: bool
    counterexample: ContentCounterexample | None
    num_tuples: int
    strict_zero_count: int
    strict_zero_example: ContentCounterexample | None
    strict: bool


def _wedge_coords_batch(tuples: np.ndarray, phi=None) -> np.ndarray:
    """Wedge coordinates for a (T, k, n) batch of k-tuples; result (T, r).

    Row t equals wedge(tuples[t]).coords bit for bit: both are the order-k
    minors of the n x k column stack, from the one minor kernel, which
    gives an entry the same bits whatever batch it sits in.  With phi
    given, row t is the wedge of phi(tuples[t]) instead.  Both run on
    chunks of _wedge_chunk(k, n) tuples, whose widest Laplace levels hold
    about one of the kernel's own blocks, so their temporaries stay small
    next to the result however long the batch is.  Unpriced: the content
    check and the wedge trajectory price the batch before they make it,
    the kernel's temporaries at _chunk_bytes.
    """
    T, k, n = tuples.shape
    coords = np.empty((T, math.comb(n, k)))
    step = _wedge_chunk(k, n)
    for s in range(0, T, step):
        chunk = tuples[s : s + step]
        if phi is not None:
            chunk = phi(chunk)
        coords[s : s + step] = _minors(np.swapaxes(chunk, 1, 2), k)[..., 0]
    return coords


def _wedge_chunk(k: int, n: int) -> int:
    """Tuples per kernel call in _wedge_coords_batch: max(1, _LEVEL_BLOCK //
    w), so that w, what one tuple takes in the kernel, fills about one of
    its blocks.

    w is the C(n,k) k products of the top Laplace level, by which
    _table_bytes prices a level and the one below it.  For k near n two
    adjacent levels can hold more, C(n-k+p, p) C(k,p) entries at level p
    (at k = n = 8, 126 at levels 3 and 4 against 8); w is then their sum,
    so the chunk's levels stay within its price.  Above _LAPLACE_MAX_ORDER
    the kernel gathers k x k blocks and builds no levels.
    """
    w = math.comb(n, k) * k
    if k <= _LAPLACE_MAX_ORDER:
        level = [math.comb(n - k + p, p) * math.comb(k, p) for p in range(1, k + 1)]
        w = max([w] + [a + b for a, b in zip(level, level[1:])])
    return max(1, _LEVEL_BLOCK // w)


def _chunk_bytes(count: int, k: int, n: int) -> int:
    """Bytes the minor kernel holds at its peak on one chunk of
    _wedge_coords_batch over count k-tuples in R^n: _table_bytes of a
    batch of min(count, _wedge_chunk(k, n)) n x k stacks."""
    return _table_bytes(n, k, k, min(count, _wedge_chunk(k, n)))


def check_k_content_preserving(
    sys: NonlinearSystem,
    k: int,
    samples_per_axis: int = 5,
    num_random: int = 1000,
    *,
    seed: int,
    strict: bool = False,
    tol: float | None = None,
) -> ContentReport:
    """Sample tuples (a^1..a^k) from S^n and test the wedge conditions.

    For p = wedge(a^1..a^k) and q = wedge(phi(a^1)..phi(a^k)), every
    coordinate must satisfy: p_i = 0 (within tol) implies q_i = 0, and
    otherwise |q_i| <= |p_i| + tol.  Tuples come from the full per-axis
    grid product plus `num_random` seeded uniform draws; both counts are
    integers, samples_per_axis >= 1 and num_random >= 0, or DomainError.
    A domain whose width hi - lo is not finite cannot be sampled, and is a
    DomainError too.  The first violation is returned as a concrete
    counterexample.
    """
    n = sys.n
    if not 1 <= k <= n - 1:
        raise DomainError(f"order k={k} must satisfy 1 <= k <= n-1={n - 1}")
    samples_per_axis = _checked_count(samples_per_axis, "samples_per_axis", 1)
    num_random = _checked_count(num_random, "num_random", 0)
    lo, hi = sys.domain
    if not np.isfinite(hi - lo):
        raise DomainError(f"the content check needs a domain of finite width, got [{lo}, {hi}]")
    t = zero_tol(tol)
    # the tuples and the random draws again while they are copied in, then
    # p, q and the arrays of their size that compare them, the kernel's
    # chunk, and 64 KiB more
    kn = k * n
    total_grid = samples_per_axis**kn
    count = total_grid + num_random
    _require_budget(8 * count * (6 * math.comb(n, k) + 2 * kn) + _chunk_bytes(count, k, n) + (1 << 16),
                    f"a content check of {_count_text(count)} tuples")
    axis = np.linspace(lo, hi, samples_per_axis)
    # grid tuple t, flattened, reads axis at the kn base-s digits of t, the
    # first slowest: itertools.product's order, n coordinates by k vectors
    tuples = np.empty((count, k, n))
    flat = tuples[:total_grid].reshape(total_grid, kn)
    for d in range(kn):
        flat.reshape(samples_per_axis**d, samples_per_axis, -1, kn)[:, :, :, d] = axis[:, None]
    tuples[total_grid:] = np.random.default_rng(seed).uniform(lo, hi, size=(num_random, k, n))

    p = _wedge_coords_batch(tuples)
    q = _wedge_coords_batch(tuples, _phi_plan(sys.maps))

    p_zero = np.abs(p) <= t
    weak_bad = np.where(p_zero, np.abs(q) > t, np.abs(q) > np.abs(p) + t)
    strict_zero = ~p_zero & (np.abs(q) <= t)

    def _example(mask: np.ndarray) -> ContentCounterexample | None:
        hits = np.argwhere(mask)
        if hits.size == 0:
            return None
        ti, ci = int(hits[0, 0]), int(hits[0, 1])
        return ContentCounterexample(
            vectors=tuples[ti].copy(),
            coord=ci + 1,
            rows=lex_index_set_at(ci, k, n),
            p=float(p[ti, ci]),
            q=float(q[ti, ci]),
        )

    strict_example = _example(strict_zero)
    strict_count = int(strict_zero.sum())
    counterexample = _example(weak_bad)
    passed = counterexample is None
    if strict and strict_count:
        passed = False
        if counterexample is None:
            counterexample = strict_example
    return ContentReport(
        passed=passed,
        counterexample=counterexample,
        num_tuples=tuples.shape[0],
        strict_zero_count=strict_count,
        strict_zero_example=strict_example,
        strict=strict,
    )


@dataclass(frozen=True)
class WedgeTrajectory:
    """Joint evolution of k trajectories and their wedge.

    states[i, j] is x(j, a^i); y_series[j] holds the wedge of the k
    states at step j (verified against the compound recursion); v_series
    holds V(y(j)) = y^T D y.  Steps j where V rose by more than tol times
    max(V(j-1), V(j)) are listed in v_increase_steps.  exit_step reports
    early truncation.
    """

    k: int
    initials: np.ndarray
    states: np.ndarray
    y_series: np.ndarray
    v_series: np.ndarray
    d_used: np.ndarray
    v_increase_steps: tuple[int, ...]
    exit_step: int | None


def wedge_trajectory(
    sys: NonlinearSystem, k: int, initials, D, steps: int, tol: float | None = None
) -> WedgeTrajectory:
    """Simulate k initial conditions and track wedge and Lyapunov series.

    The k runs stop together at the first exit from S^n.  Every y(j) is
    cross-checked against the compound recursion y(j) = A^(k)
    wedge(phi(x(j-1, a^1)), ..., phi(x(j-1, a^k))).  A disagreement beyond
    1e-9 times the larger rounding scale of the two sides, Hadamard's
    bound prod_i ||x(j, a^i)|| and max(|A^(k)| |wedge(phi(...))|), plus
    4 (r + k) times the smallest subnormal for underflow, raises
    NumericError, however small the wedge.
    """
    n = sys.n
    if not 1 <= k <= n:
        raise DomainError(f"order k={k} must satisfy 1 <= k <= n={n}")
    starts = {f"initials[{i}]": a for i, a in enumerate(initials)}
    if len(starts) != k:
        raise DomainError(f"need exactly k={k} initial conditions, got {len(starts)}")
    d = diag_entries(D, "D")
    steps = _checked_count(steps, "steps", 0)
    # the states twice while their blocks are joined, y, w_phi and the
    # arrays of their size in the cross-check, the compound and its build,
    # the kernel's chunk, and 64 KiB of small arrays
    r = math.comb(n, k)
    _require_budget(8 * ((steps + 1) * (5 * r + 2 * k * n) + 3 * r * r) + _chunk_bytes(steps + 1, k, n) + (1 << 16),
                    f"a wedge trajectory of {_count_text(steps)} steps")
    Ak = mult_compound(sys.A, k)
    if d.size != Ak.shape[0]:
        raise PreconditionError(
            f"D has {d.size} entries but the order-{k} compound is {Ak.shape[0]}x{Ak.shape[0]}"
        )
    # built for the domain: of its values only those at states inside S^n
    # are kept, the loop's kept steps and the recursion check's run[:-1]
    phi = _phi_plan(sys.maps, sys.domain)
    run, exit_step = _iterate(sys, phi, starts, steps)

    y = _wedge_coords_batch(run)
    w_phi = _wedge_coords_batch(run[:-1], phi)
    err = np.max(np.abs(y[1:] - w_phi @ Ak.T), axis=1)
    scale = np.maximum(
        np.prod(np.linalg.norm(run[1:], axis=2), axis=1),
        np.max(np.abs(w_phi) @ np.abs(Ak).T, axis=1),
    )
    # each of the r products of a recursion coordinate and the k of a minor's
    # top Laplace level may lose a subnormal to underflow; 4 covers the rest
    floor = 4 * (r + k) * np.finfo(float).smallest_subnormal
    bad = np.nonzero(err > _RECURSION_RTOL * scale + floor)[0]
    if bad.size:
        j = int(bad[0])
        raise NumericError(
            f"wedge recursion disagrees with direct wedge at step {j + 1} "
            f"(err {err[j]:.3g}, scale {scale[j]:.3g})"
        )
    # Row by row this rounds exactly as np.dot(y * d, y).
    v = ((y * d)[:, None, :] @ y[:, :, None])[:, 0, 0]
    return WedgeTrajectory(
        k=k,
        initials=run[0],
        states=run.swapaxes(0, 1),
        y_series=y,
        v_series=v,
        d_used=d,
        v_increase_steps=tuple((np.nonzero(_v_rises(v, zero_tol(tol)))[0] + 1).tolist()),
        exit_step=exit_step,
    )


def _v_rises(v: np.ndarray, t: float) -> np.ndarray:
    """Per step j >= 1: whether V(j) - V(j-1) exceeds t * max(V(j-1), V(j)).

    The band scales with V, so a rise is seen however small V has become.
    """
    return np.diff(v) > t * np.maximum(v[:-1], v[1:])


@dataclass(frozen=True)
class LyapunovReport:
    monotone: bool
    worst_increase: float
    strict_ok: bool


def lyapunov_decrement_report(traj: WedgeTrajectory, tol: float | None = None) -> LyapunovReport:
    """Summarize monotonicity of V along a wedge trajectory.

    monotone holds when no step rises by more than tol times the larger
    of its two V values; strict_ok additionally requires a strict decrease
    at every step whose starting V is above tol times that larger value.
    This is a diagnostic, not an assertion: steps near y = 0 can wiggle
    below tolerance.
    """
    t = zero_tol(tol)
    v = traj.v_series
    if v.size < 2:
        return LyapunovReport(monotone=True, worst_increase=0.0, strict_ok=True)
    diffs = np.diff(v)
    nonzero_start = v[:-1] > t * np.maximum(v[:-1], v[1:])
    strict_ok = bool(np.all(diffs[nonzero_start] < 0.0)) if nonzero_start.any() else True
    return LyapunovReport(
        monotone=not _v_rises(v, t).any(),
        worst_increase=float(np.max(diffs)),
        strict_ok=strict_ok,
    )


def write_csv(fp, columns: list[str], rows) -> None:
    """CSV with header j,<columns>, one numbered line per row of floats.

    Floats carry 17 significant digits, so they re-ingest bit-identically.
    Column names are written as given, so they must not need CSV quoting.
    The rows are formatted and written in blocks (see _write_columns), so
    the writer holds one block of text and Python numbers whatever the
    row count.
    """
    table = np.asarray(rows, dtype=float)
    _write_columns(fp, columns, list(table.T), table.shape[0])


def _write_columns(fp, names: list[str], cols: list[np.ndarray], count: int) -> None:
    """write_csv over `count` rows given as one 1-D array per column.

    A block of max(1, _LEVEL_BLOCK // (1 + len(cols))) rows is one %
    format of the block's line pattern over a flat argument list, the row
    numbers and each column's tolist() interleaved by slice assignment,
    and is written as soon as it is formatted: %d and %.17g per value, the
    bytes a line-by-line format gives.
    """
    fp.write(",".join(["j", *names]) + "\n")
    width = 1 + len(cols)
    line = "%d" + ",%.17g" * len(cols) + "\n"
    step = max(1, _LEVEL_BLOCK // width)
    for s in range(0, count, step):
        e = min(s + step, count)
        args = [None] * (width * (e - s))
        args[::width] = range(s, e)
        for c, col in enumerate(cols, 1):
            args[c::width] = col[s:e].tolist()
        fp.write(line * (e - s) % tuple(args))


def export_trajectory_csv(traj: WedgeTrajectory, fp, include_states: bool = False) -> None:
    """Write the trajectory as CSV with header j,V (17 significant digits).

    With include_states, per-trajectory state columns x{i}_{coord} are
    appended after V.  The V series and the state series are read a block
    of rows at a time, in place: no table of all the columns is made.
    """
    k, rows, n = traj.states.shape
    names, cols = ["V"], [traj.v_series]
    if include_states:
        names += [f"x{i + 1}_{c + 1}" for i in range(k) for c in range(n)]
        cols += [traj.states[i, :, c] for i in range(k) for c in range(n)]
    _write_columns(fp, names, cols, rows)
