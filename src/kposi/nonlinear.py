"""Simulation of x(j+1) = A phi(x(j)) with wedge-trajectory diagnostics.

phi acts componentwise through a closed catalog of scalar maps.  When
phi never inflates any wedge coordinate (the k-content preserving
property) and A carries a diagonal Stein certificate at order k, the
quadratic form V(y) = y^T D y decreases along the wedge y(j) of any k
simulated trajectories, which is what the trajectory tools measure.
"""

from __future__ import annotations

import csv
from dataclasses import InitVar, dataclass, field
from itertools import product

import numpy as np

from .compound import mult_compound
from .errors import CapacityError, DomainError, NumericError, PreconditionError
from .matcore import (
    LexIndexSet,
    _minors,
    as_square,
    as_vector,
    compound_size,
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

_GRID_TUPLE_LIMIT = 1_000_000

# Tuples per call of the minor kernel in _wedge_coords_batch.
_WEDGE_CHUNK = 256


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
    # TABLE breakpoints as arrays (xs, ys), then their mirror: -xs and -ys
    # reversed, which is increasing again.
    _table: tuple[np.ndarray, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.points is not None:
            xs = np.array([z for z, _ in self.points])
            ys = np.array([v for _, v in self.points])
            object.__setattr__(self, "_table", (xs, ys, -xs[::-1], -ys[::-1]))

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
        if self.kind == IDENTITY:
            out = s.copy()
        elif self.kind == LINEAR:
            out = self.c * s
        elif self.kind == POWER:
            if float(self.p).is_integer():
                out = s ** int(self.p)
            else:
                out = np.sign(s) * np.abs(s) ** self.p
        elif self.kind == TABLE:
            # np.interp works from the breakpoint left of its argument.  For
            # z < 0 that is the one farther from 0, and its rounding (about
            # eps times the spacing) swamps a small phi(z); the mirrored
            # table starts from the breakpoint nearer 0 instead.
            xs, ys, mxs, mys = self._table
            out = np.where(s < 0.0, -np.interp(-s, mxs, mys), np.interp(s, xs, ys))
        else:
            raise DomainError(f"unknown scalar map kind {self.kind!r}")
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
            if self.p < 1.0:
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


def _apply_phi(sys: NonlinearSystem, x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    for i, m in enumerate(sys.maps):
        out[..., i] = m(x[..., i])
    return out


def eval_phi(sys: NonlinearSystem, x) -> np.ndarray:
    """Apply phi componentwise to a state in S^n."""
    return _apply_phi(sys, _as_state(sys, x, "x"))


@dataclass(frozen=True)
class SimResult:
    """States of one simulated trajectory, row j holding x(j).

    exit_step is the index of the first state outside S^n (that state is
    kept as the final row and iteration stops there); None if the whole
    run stayed inside.
    """

    states: np.ndarray
    exit_step: int | None


def _iterate(sys: NonlinearSystem, starts: dict, steps: int) -> tuple[np.ndarray, int | None]:
    """Iterate x(j+1) = A phi(x(j)) from every start (name -> x0) at once.

    Returns the (T+1, m, n) states and the first step T at which any start
    left S^n (kept as the last row, iteration stops there), or None.
    """
    x = np.array([_as_state(sys, a, name) for name, a in starts.items()])
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    lo, hi = sys.domain
    rows = [x]
    for j in range(steps):
        # A @ p per start, written so each row rounds exactly as A @ p does
        x = (sys.A @ _apply_phi(sys, x)[..., None])[..., 0]
        rows.append(x)
        if np.any(x < lo) or np.any(x > hi):
            return np.array(rows), j + 1
    return np.array(rows), None


def simulate(sys: NonlinearSystem, x0, steps: int) -> SimResult:
    """Iterate x(j+1) = A phi(x(j)) for `steps` steps from x0 in S^n.

    Leaving the domain is a reported truncation, not an error: invariance
    of S^n depends on (A, phi, S) and is not guaranteed in general.
    """
    run, exit_step = _iterate(sys, {"x0": x0}, steps)
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


def _wedge_coords_batch(tuples: np.ndarray, k: int, n: int) -> np.ndarray:
    """Wedge coordinates for a (T, k, n) batch of k-tuples; result (T, r).

    Row t equals wedge(tuples[t]).coords bit for bit: both are the order-k
    minors of the n x k column stack, from the one minor kernel.  The
    kernel runs on _WEDGE_CHUNK tuples at a time, so its per-level
    gathers stay small next to the result however long the batch is.
    """
    cols = np.swapaxes(tuples, 1, 2)
    coords = np.empty((cols.shape[0], compound_size(k, n)))
    for s in range(0, cols.shape[0], _WEDGE_CHUNK):
        coords[s : s + _WEDGE_CHUNK] = _minors(cols[s : s + _WEDGE_CHUNK], k)[..., 0]
    return coords


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
    grid product plus `num_random` seeded uniform draws.  The first
    violation is returned as a concrete counterexample.
    """
    n = sys.n
    if not 1 <= k <= n - 1:
        raise DomainError(f"order k={k} must satisfy 1 <= k <= n-1={n - 1}")
    t = zero_tol(tol)
    lo, hi = sys.domain
    axis = np.linspace(lo, hi, samples_per_axis)
    per_vector = samples_per_axis**n
    total_grid = per_vector**k
    if total_grid > _GRID_TUPLE_LIMIT:
        raise CapacityError(
            f"grid of {total_grid} tuples exceeds {_GRID_TUPLE_LIMIT}; lower samples_per_axis"
        )
    grid_vectors = np.array(list(product(axis, repeat=n)))
    idx = np.array(list(product(range(per_vector), repeat=k)))
    grid_tuples = grid_vectors[idx]  # (total_grid, k, n)
    rng = np.random.default_rng(seed)
    random_tuples = rng.uniform(lo, hi, size=(num_random, k, n))
    tuples = np.concatenate([grid_tuples, random_tuples], axis=0)

    p = _wedge_coords_batch(tuples, k, n)
    q = _wedge_coords_batch(_apply_phi(sys, tuples), k, n)

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
    bound prod_i ||x(j, a^i)|| and max(|A^(k)| |wedge(phi(...))|), raises
    NumericError, however small the wedge.
    """
    n = sys.n
    if not 1 <= k <= n:
        raise DomainError(f"order k={k} must satisfy 1 <= k <= n={n}")
    starts = {f"initials[{i}]": a for i, a in enumerate(initials)}
    if len(starts) != k:
        raise DomainError(f"need exactly k={k} initial conditions, got {len(starts)}")
    d = diag_entries(D, "D")
    Ak = mult_compound(sys.A, k)
    if d.size != Ak.shape[0]:
        raise PreconditionError(
            f"D has {d.size} entries but the order-{k} compound is {Ak.shape[0]}x{Ak.shape[0]}"
        )
    run, exit_step = _iterate(sys, starts, steps)

    y = _wedge_coords_batch(run, k, n)
    w_phi = _wedge_coords_batch(_apply_phi(sys, run[:-1]), k, n)
    err = np.max(np.abs(y[1:] - w_phi @ Ak.T), axis=1)
    scale = np.maximum(
        np.prod(np.linalg.norm(run[1:], axis=2), axis=1),
        np.max(np.abs(w_phi) @ np.abs(Ak).T, axis=1),
    )
    bad = np.nonzero(err > _RECURSION_RTOL * scale)[0]
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
    """
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["j", *columns])
    writer.writerows([str(j), *(f"{v:.17g}" for v in row)] for j, row in enumerate(rows))


def export_trajectory_csv(traj: WedgeTrajectory, fp, include_states: bool = False) -> None:
    """Write the trajectory as CSV with header j,V (17 significant digits).

    With include_states, per-trajectory state columns x{i}_{coord} are
    appended after V.
    """
    k, rows, n = traj.states.shape
    columns, table = ["V"], traj.v_series[:, None]
    if include_states:
        columns += [f"x{i + 1}_{c + 1}" for i in range(k) for c in range(n)]
        table = np.column_stack([table, traj.states.swapaxes(0, 1).reshape(rows, k * n)])
    write_csv(fp, columns, table)
