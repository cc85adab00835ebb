"""phi evaluated per group of coordinates sharing a map kind.

The oracle here is written independently of kposi.nonlinear: each
coordinate on its own, a TABLE map as np.interp on the plain table for
s >= 0 and on the mirrored table for s < 0.  Results are compared with
tobytes(), so signed zeros and NaN payloads count.  phi built for a
domain, and the trajectories that use it, are compared with phi built
without one, whose full table lookup the oracle checks.
"""

import csv
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from kposi import (
    CyclicSpec,
    NonlinearSystem,
    ScalarMap,
    WedgeTrajectory,
    build_cyclic,
    eval_phi,
    export_trajectory_csv,
    nonlinear,
    simulate,
    wedge,
    wedge_trajectory,
)
from kposi.matcore import _LEVEL_BLOCK
from kposi.nonlinear import write_csv

TINY = 5e-324

TABLES = (
    # through (0, 0), five breakpoints
    [(-1.0, -0.9), (-0.5, -0.5), (0.0, 0.0), (0.5, 0.45), (1.0, 0.99)],
    # without (0, 0), three breakpoints
    [(-1.0, -0.7), (0.25, 0.2), (1.0, 0.6)],
    # five breakpoints on another grid
    [(-2.0, -1.5), (-0.3, -0.2), (0.0, 0.0), (0.7, 0.5), (2.0, 1.0)],
    # every breakpoint positive: negative arguments lie outside the table
    [(0.1, 0.05), (0.4, 0.3), (0.8, 0.6), (1.5, 1.1)],
    # zero values of either sign, which a breakpoint must return as they are
    [(-1.0, 0.0), (0.0, -0.0), (1.0, 0.5)],
    # the lookup splits each grid at 0; tables that split must get right:
    # every breakpoint negative, so arguments >= 0 lie past the table's end
    [(-2.0, -1.5), (-1.0, -0.8), (-0.5, -0.3)],
    # a -0.0 breakpoint, which is the split itself
    [(-1.0, -0.9), (-0.0, 0.0), (1.0, 0.7)],
    # zero values of either sign on flat pieces
    [(-1.0, -0.0), (-0.5, 0.0), (0.0, 0.0), (0.5, -0.0), (1.0, 0.5)],
    # decreasing
    [(-1.0, 0.8), (0.0, 0.0), (1.0, -0.6)],
    # 0 strictly inside a segment
    [(-1.0, -0.6), (0.7, 0.5), (1.5, 0.9)],
    # one breakpoint: np.interp gives its value everywhere, NaN included
    [(0.5, 0.2)],
)


def oracle_map(kind, param, col):
    """One coordinate's phi on the array `col`, elementwise by definition."""
    if kind == "identity":
        return col.copy()
    if kind == "linear":
        return param * col
    if kind == "power":
        if float(param).is_integer():
            return col ** int(param)
        return np.sign(col) * np.abs(col) ** param
    xs = np.array([z for z, _ in param])
    ys = np.array([v for _, v in param])
    out = np.empty_like(col)
    for idx in np.ndindex(col.shape):
        s = col[idx]
        if s < 0.0:
            out[idx] = -np.interp(-s, -xs[::-1], -ys[::-1])
        else:
            out[idx] = np.interp(s, xs, ys)
    return out


def make_map(kind, param):
    if kind == "identity":
        return ScalarMap.identity()
    if kind == "linear":
        return ScalarMap.linear(param)
    if kind == "power":
        return ScalarMap.power(param)
    return ScalarMap.table(param)


MIXED = (
    ("table", TABLES[0]),
    ("identity", None),
    ("power", 3.0),
    ("table", TABLES[1]),
    ("linear", 0.7),
    ("power", 1.5),
    ("table", TABLES[2]),
    ("power", 2.0),
    ("table", TABLES[3]),
    ("linear", 0.25),
    ("power", 1.0005),
    ("table", TABLES[4]),
)


def special_arguments(rng, shape, specs):
    """Random values with breakpoints, signed zeros, NaN, infinities,
    subnormals and out-of-table values mixed in, per coordinate."""
    x = rng.uniform(-2.5, 2.5, shape)
    for i, (kind, param) in enumerate(specs):
        pool = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, TINY, -TINY, 1e-310, -1e-310, 3.0, -3.0]
        if kind == "table":
            zs = [z for z, _ in param]
            pool += zs + [-z for z in zs] + list(np.nextafter(zs, np.inf)) + list(np.nextafter(zs, -np.inf))
        col = x[..., i]
        mask = rng.random(col.shape) < 0.5
        col[mask] = rng.choice(np.array(pool), int(mask.sum()))
    return x


def oracle_phi(specs, x):
    """Per coordinate, always on arrays (never 0-d), as np.power's array
    loop may round differently from its scalar one."""
    x2 = np.atleast_2d(x)
    out = np.empty_like(x2)
    for i, (kind, param) in enumerate(specs):
        out[..., i] = oracle_map(kind, param, x2[..., i])
    return out.reshape(x.shape)


@pytest.mark.parametrize("lead", [(), (3,), (40, 3)])
def test_mixed_kinds_match_the_per_coordinate_oracle(lead):
    rng = np.random.default_rng(3)
    maps = tuple(make_map(*s) for s in MIXED)
    phi = nonlinear._phi_plan(maps)
    for _ in range(20):
        x = special_arguments(rng, lead + (len(MIXED),), MIXED)
        assert phi(x).tobytes() == oracle_phi(MIXED, x).tobytes()


@pytest.mark.parametrize("lead", [(), (3,), (40, 3)])
def test_table_groups_match_the_oracle(lead):
    # all the tables in one system, grouped by breakpoint grid
    rng = np.random.default_rng(4)
    specs = tuple(("table", t) for t in TABLES) + (("table", TABLES[0]),)
    phi = nonlinear._phi_plan(tuple(make_map(*s) for s in specs))
    for _ in range(20):
        x = special_arguments(rng, lead + (len(specs),), specs)
        assert phi(x).tobytes() == oracle_phi(specs, x).tobytes()


@pytest.mark.parametrize("lead", [(), (3,), (40, 3)])
def test_tables_on_one_shared_grid_match_the_oracle(lead):
    rng = np.random.default_rng(6)
    grid = [z for z, _ in TABLES[0]]
    specs = tuple(("table", [(z, float(v)) for z, v in zip(grid, rng.uniform(-1, 1, 5))]) for _ in range(3))
    specs += (("table", [(z, 0.5 * z) for z in grid]),)
    phi = nonlinear._phi_plan(tuple(make_map(*s) for s in specs))
    for _ in range(20):
        x = special_arguments(rng, lead + (len(specs),), specs)
        assert phi(x).tobytes() == oracle_phi(specs, x).tobytes()


INFINITE_TABLES = (
    # saturation: flat beyond +-1 out to infinite breakpoints
    [(-np.inf, -1.0), (-1.0, -1.0), (0.0, 0.0), (1.0, 1.0), (np.inf, 1.0)],
    # no (0, 0) next to an infinite breakpoint: 0 * inf on the first try
    [(-np.inf, -1.0), (1.0, 1.0)],
    [(-1.0, -1.0), (0.5, 0.25), (np.inf, 2.0)],
    # infinite values: NaN slopes, and a flat infinite segment
    [(-2.0, -np.inf), (-1.0, -np.inf), (0.0, 0.0), (1.0, np.inf), (2.0, np.inf)],
)


@pytest.mark.parametrize("lead", [(), (3,), (40, 3)])
def test_infinite_breakpoints_and_values_match_the_oracle(lead):
    rng = np.random.default_rng(8)
    specs = tuple(("table", t) for t in INFINITE_TABLES)
    maps = tuple(make_map(*s) for s in specs)
    phi = nonlinear._phi_plan(maps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(20):
            x = special_arguments(rng, lead + (len(specs),), specs)
            assert phi(x).tobytes() == oracle_phi(specs, x).tobytes()


def test_table_plan_arrays_are_read_only():
    # one plan serves every map of its group, so no caller may write to it
    maps = (make_map("table", TABLES[0]), ScalarMap.table([(z, 0.5 * z) for z, _ in TABLES[0]]))
    plan = nonlinear._phi_plan(maps).args[0]
    arrays = [v for v in plan if isinstance(v, np.ndarray)]
    assert len(arrays) == 3
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_one_group_is_applied_to_the_whole_array():
    gains = (0.99, 0.995, 1.0)
    maps = tuple(ScalarMap.table([(z, c * z) for z in (-1.0, 0.0, 1.0)]) for c in gains)
    phi = nonlinear._phi_plan(maps)
    # the group's own evaluator, with no gather/scatter wrapper around it
    assert phi.func is nonlinear._table_phi
    assert nonlinear._phi_plan((ScalarMap.power(1.5),) * 4).func is nonlinear._odd_power


def test_a_system_builds_one_table_plan_per_group(monkeypatch):
    # a map builds its own phi only when called on its own, so a six-map
    # TABLE system plans its one group once, and no map plans itself
    calls = []
    plan = nonlinear._table_plan

    def counted(maps, *rest):
        calls.append(maps)
        return plan(maps, *rest)

    monkeypatch.setattr(nonlinear, "_table_plan", counted)
    maps = tuple(ScalarMap.table([(z, c * z) for z in (-1.0, 0.0, 1.0)])
                 for c in (0.9, 0.92, 0.94, 0.96, 0.98, 1.0))
    sys_ = NonlinearSystem(0.15 * np.ones((6, 6)), maps, (-1.0, 1.0))
    simulate(sys_, np.linspace(-0.5, 0.5, 6), 20)
    assert len(calls) == 1 and calls[0] == maps


def test_tables_are_grouped_by_breakpoint_grid():
    # TABLES[0] and TABLES[2] have five breakpoints each, on two grids
    key = nonlinear._group_key
    same_grid = ScalarMap.table([(z, 0.5 * z) for z, _ in TABLES[0]])
    assert key(same_grid) == key(make_map("table", TABLES[0]))
    assert key(make_map("table", TABLES[2])) != key(make_map("table", TABLES[0]))


# phi built for a finite domain: a TABLE group's lookup skips its clamp and
# breakpoint copy when its plan proves that gives the same bits

LOOKUP_DOMAIN = (-3.0, 3.0)

# (table, whether the lookup without the two steps proves exact on it);
# the domain is wider than every grid here, so no system would validate
DOMAIN_TABLES = tuple((t, True) for t in TABLES[:4]) + (
    # the breakpoint (0, -0.0): the lean form gives 0.0 at s = +0
    (TABLES[4], False),
    (TABLES[5], True),
    (TABLES[6], True),
    # (0.5, -0.0) on the + branch: the lean form's zero has the other sign
    (TABLES[7], False),
    (TABLES[8], True),
    (TABLES[9], True),
    # an origin value of -0.0
    ([(-1.0, -0.9), (0.0, -0.0), (1.0, 0.8)], False),
    # zero values at nonzero breakpoints: a zero on the - branch at -0.5
    # keeps its sign, -0.0 at 0.5 on the + branch does not
    ([(-1.0, -0.9), (-0.5, 0.0), (0.0, 0.0), (0.5, 0.0), (1.0, 0.9)], True),
    ([(-1.0, -0.9), (-0.5, -0.0), (0.0, 0.0), (0.5, -0.0), (1.0, 0.9)], False),
    # grids narrower than the domain: past their ends the clamp is not idle
    ([(-0.5, -0.4), (0.0, 0.0), (0.5, 0.45)], True),
    ([(0.2, 0.1), (0.6, 0.5)], True),
    # duplicate breakpoints: a nonfinite plan
    ([(-1.0, -0.9), (0.0, 0.0), (0.0, 0.0), (1.0, 0.9)], False),
)


def lookup_arguments(rng, table, domain):
    """Uniform draws from the domain, each breakpoint and its two float
    neighbours, +-0, the domain's ends and NaN of either sign, the finite
    ones inside the domain."""
    zs = np.array([z for z, _ in table])
    x = np.concatenate([
        rng.uniform(*domain, 20000) if np.isfinite(domain).all() else rng.uniform(-5.0, 5.0, 20000),
        zs, np.nextafter(zs, np.inf), np.nextafter(zs, -np.inf),
        [0.0, -0.0, np.nan, -np.nan], domain,
    ])
    return x[np.isnan(x) | ((x >= domain[0]) & (x <= domain[1]))]


@pytest.mark.parametrize("table, exact", DOMAIN_TABLES)
def test_the_domain_lookup_matches_the_full_one(table, exact):
    m = ScalarMap.table(table)
    plan = nonlinear._phi_plan((m,), LOOKUP_DOMAIN).args[0]
    full = nonlinear._table_plan((m,))
    x = lookup_arguments(np.random.default_rng(12), table, LOOKUP_DOMAIN)
    assert nonlinear._table_phi(plan, x).tobytes() == nonlinear._table_phi(full, x).tobytes()
    assert (plan.exact, full.exact) == (exact, False)


def test_a_one_breakpoint_table_has_no_lookup_to_lean():
    # TABLES[-1]: its value everywhere, with or without a domain
    m = make_map("table", TABLES[-1])
    phi = nonlinear._phi_plan((m,), LOOKUP_DOMAIN)
    assert phi.func is nonlinear._constant
    x = lookup_arguments(np.random.default_rng(15), TABLES[-1], LOOKUP_DOMAIN)
    assert phi(x).tobytes() == nonlinear._phi_plan((m,))(x).tobytes()


def test_the_proof_refuses_a_negative_zero_at_the_origin():
    # forced on, the lean form returns 0.0 at s = +0 where the table says -0.0
    m = ScalarMap.table([(-1.0, -0.9), (0.0, -0.0), (1.0, 0.8)])
    full = nonlinear._table_plan((m,))
    assert nonlinear._table_plan((m,), lean=True).exact is False
    zeros = np.array([0.0, -0.0])
    assert nonlinear._table_phi(full, zeros).tobytes() == np.array([-0.0, -0.0]).tobytes()
    forced = nonlinear._table_phi(full._replace(exact=True), zeros)
    assert forced.tobytes() == np.array([0.0, -0.0]).tobytes()


def test_one_table_refuses_the_proof_for_its_group():
    # a group shares one plan: a -0.0 value in one table keeps the clamp
    # and the copy for every table on its grid
    grid = [z for z, _ in TABLES[0]]
    maps = (make_map("table", TABLES[0]), ScalarMap.table([(z, -0.0 if z == 0.0 else 0.5 * z) for z in grid]))
    assert nonlinear._phi_plan(maps[:1], LOOKUP_DOMAIN).args[0].exact is True
    plan = nonlinear._phi_plan(maps, LOOKUP_DOMAIN).args[0]
    assert plan.exact is False
    x = np.stack([lookup_arguments(np.random.default_rng(13), TABLES[0], LOOKUP_DOMAIN)] * 2, axis=1)
    assert nonlinear._table_phi(plan, x).tobytes() == nonlinear._table_phi(nonlinear._table_plan(maps), x).tobytes()


@pytest.mark.parametrize("domain", [(-np.inf, np.inf), (-1.0, np.inf), (-np.inf, 1.0)])
def test_an_infinite_domain_keeps_the_full_lookup(domain):
    # the proof covers finite arguments only, and such a domain holds +-inf
    m = make_map("table", TABLES[0])
    plan = nonlinear._phi_plan((m,), domain).args[0]
    assert plan.exact is False
    x = np.concatenate([lookup_arguments(np.random.default_rng(14), TABLES[0], domain), [np.inf, -np.inf]])
    assert nonlinear._table_phi(plan, x).tobytes() == oracle_map("table", TABLES[0], x).tobytes()


def test_other_callers_keep_the_full_lookup(monkeypatch):
    # eval_phi, a map's own call and the content check build phi without a
    # domain, so their table plans never skip the clamp or the copy
    plans = []
    build = nonlinear._table_plan

    def recorded(*args):
        plans.append(build(*args))
        return plans[-1]

    monkeypatch.setattr(nonlinear, "_table_plan", recorded)
    maps = tuple(make_map("table", t) for t in (TABLES[0], TABLES[0], TABLES[2]))
    sys_ = NonlinearSystem(0.3 * np.eye(3), maps, (-1.0, 1.0))
    eval_phi(sys_, np.zeros(3))
    ScalarMap.table(TABLES[1])(0.5)
    nonlinear.check_k_content_preserving(sys_, 1, 2, 4, seed=0)
    assert len(plans) == 5 and not any(p.exact for p in plans)
    simulate(sys_, np.zeros(3), 3)
    assert len(plans) == 7 and all(p.exact for p in plans[5:])


@pytest.mark.parametrize("kind, param", MIXED)
def test_scalar_map_call_on_scalars(kind, param):
    m = make_map(kind, param)
    args = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, TINY, -TINY, 0.3, -0.3, 5.0, -5.0]
    if kind == "table":
        args += [z for z, _ in param] + [-z for z, _ in param]
    for s in args:
        got = m(s)
        assert type(got) is float
        # 0-d, as the map sees a scalar
        want = oracle_map(kind, param, np.asarray(s))
        assert np.float64(got).tobytes() == np.asarray(want).tobytes(), s


def test_scalar_map_call_on_arrays():
    rng = np.random.default_rng(5)
    for kind, param in MIXED + tuple(("table", t) for t in TABLES):
        x = special_arguments(rng, (7, 5, 1), ((kind, param),))[..., 0]
        assert make_map(kind, param)(x).tobytes() == oracle_map(kind, param, x).tobytes()


def test_unknown_kind_refused_when_called():
    m = ScalarMap("SINE")
    with pytest.raises(nonlinear.DomainError, match="unknown scalar map kind"):
        m(0.1)


def test_eval_phi_on_a_mixed_state():
    specs = (("table", TABLES[0]), ("linear", 0.5), ("power", 2.0))
    sys_ = NonlinearSystem(np.eye(3) * 0.5, tuple(make_map(*s) for s in specs), (-1.0, 1.0))
    x = np.array([-0.3, 0.8, -0.6])
    assert eval_phi(sys_, x).tobytes() == oracle_phi(specs, x).tobytes()


def reference_simulation(A, specs, x0, lo, hi, steps):
    """One state per step: phi per coordinate, then A @ p."""
    rows = [np.asarray(x0, dtype=float)]
    for _ in range(steps):
        x = A @ oracle_phi(specs, rows[-1][None])[0]
        rows.append(x)
        if np.any(x < lo) or np.any(x > hi):
            return np.array(rows), len(rows) - 1
    return np.array(rows), None


@pytest.mark.parametrize("growth, exits", [(0.0, False), (1.2, True)])
def test_simulate_matches_a_per_step_loop(growth, exits):
    specs = (
        ("table", TABLES[0]),
        ("identity", None),
        ("linear", 0.8),
        ("power", 3.0),
        ("table", [(-1.0, -1.0), (-0.2, -0.15), (0.0, 0.0), (0.2, 0.15), (1.0, 1.0)]),
    )
    rng = np.random.default_rng(11)
    A = rng.uniform(-1.0, 1.0, (5, 5)) / 5 + growth * np.eye(5)
    sys_ = NonlinearSystem(A, tuple(make_map(*s) for s in specs), (-1.0, 1.0))
    x0 = rng.uniform(-0.9, 0.9, 5)
    res = simulate(sys_, x0, 300)
    states, exit_step = reference_simulation(A, specs, x0, -1.0, 1.0, 300)
    assert (res.exit_step is not None) == exits
    assert res.exit_step == exit_step
    assert res.states.tobytes() == states.tobytes()


def test_wedge_trajectory_never_calls_a_scalar_map(monkeypatch):
    rng = np.random.default_rng(2)
    n, k = 4, 3
    maps = tuple(
        ScalarMap.table([(z, c * z) for z in (-1.0, -0.5, 0.0, 0.5, 1.0)])
        for c in rng.uniform(0.9995, 1.0, n)
    )
    A = np.roll(np.eye(n), 1, axis=1) * 0.999
    sys_ = NonlinearSystem(A, maps, (-1.0, 1.0))
    initials = list(rng.uniform(-0.5, 0.5, (k, n)))

    def refuse(self, s):
        raise AssertionError("ScalarMap.__call__ used in the batched loop")

    monkeypatch.setattr(ScalarMap, "__call__", refuse)
    traj = wedge_trajectory(sys_, k, initials, np.ones(4), 2000)
    assert traj.v_series.shape == (2001,) and traj.exit_step is None


# simulate and wedge_trajectory against a per-step loop with the full
# lookup: the same bits, whatever the domain lookup skips

# (n, k, map kind, exponent): the four shapes of the wedge-sim benchmark
WEDGE_SHAPES = ((3, 2, "power", 1.0005), (4, 3, "table", None), (5, 2, "power", 1.001), (6, 3, "table", None))


def wedge_system(seed, n, k, kind, p):
    """A signed cyclic chain with ||A||_inf < 1 and k starts in the box:
    power maps on [-0.5, 0.5], or tables of gain near 1 on [-1, 1]."""
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.0, 0.0005, n)
    A = build_cyclic(CyclicSpec(n=n, alphas=tuple(alphas), betas=tuple(rng.uniform(0.998, 0.999, n) - alphas), ell=k))
    if kind == "power":
        s, maps = 0.5, (ScalarMap.power(p),) * n
    else:
        s = 1.0
        maps = tuple(ScalarMap.table([(z, c * z) for z in (-s, -s / 2, 0.0, s / 2, s)])
                     for c in rng.uniform(0.9995, 1.0, n))
    return NonlinearSystem(A, maps, (-s, s)), list(rng.uniform(-0.9 * s, 0.9 * s, (k, n)))


def reference_run(sys_, starts, steps):
    """Per step and start: phi with the full lookup, then A @ p; stops at
    the first state outside the domain, keeping it."""
    phi = nonlinear._phi_plan(sys_.maps)
    lo, hi = sys_.domain
    runs = [[np.asarray(a, dtype=float)] for a in starts]
    for _ in range(steps):
        for run in runs:
            run.append(sys_.A @ phi(run[-1]))
        if any(np.any((run[-1] < lo) | (run[-1] > hi)) for run in runs):
            return np.array(runs), len(runs[0]) - 1
    return np.array(runs), None


def assert_trajectories_match(sys_, starts, steps):
    k = len(starts)
    d = np.random.default_rng(k).uniform(0.5, 1.5, math.comb(sys_.n, k))
    states, exit_step = reference_run(sys_, starts, steps)
    res = simulate(sys_, starts[0], steps)
    assert res.exit_step == exit_step
    assert res.states.tobytes() == reference_run(sys_, starts[:1], steps)[0][0].tobytes()
    traj = wedge_trajectory(sys_, k, starts, d, steps, tol=1e-9)
    y = np.array([wedge(list(states[:, j])).coords for j in range(states.shape[1])])
    v = np.array([np.dot(row * d, row) for row in y])
    rises = tuple(j for j in range(1, v.size) if v[j] - v[j - 1] > 1e-9 * max(v[j - 1], v[j]))
    assert traj.exit_step == exit_step
    assert traj.states.tobytes() == states.tobytes()
    assert traj.y_series.tobytes() == y.tobytes()
    assert traj.v_series.tobytes() == v.tobytes()
    assert traj.v_increase_steps == rises
    return traj


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("shape", WEDGE_SHAPES)
def test_wedge_shapes_match_the_per_step_loop(shape, seed):
    sys_, starts = wedge_system(seed, *shape)
    if shape[2] == "table":
        assert nonlinear._phi_plan(sys_.maps, sys_.domain).args[0].exact is True
    assert assert_trajectories_match(sys_, starts, 300).exit_step is None


def test_a_run_that_overflows_after_its_exit_matches_the_per_step_loop():
    # the third coordinate grows 1e10-fold a step: it leaves the domain at
    # step 10, mid-block, and the block's dropped steps overflow, feeding
    # +-inf and NaN to the tables, where the two lookups differ
    maps = (make_map("table", TABLES[0]), make_map("table", TABLES[0]), ScalarMap.linear(1e10))
    A = np.array([[0.3, 0.2, 0.5], [-0.2, 0.4, 0.5], [0.0, 0.0, 1.0]])
    sys_ = NonlinearSystem(A, maps, (-1.0, 1.0), validate=False)
    starts = [np.array([0.5, -0.4, 1e-95]), np.array([-0.6, 0.2, -3e-96])]
    traj = assert_trajectories_match(sys_, starts, 200)
    assert traj.exit_step == 10
    # the rest of the block, as the loop computes and drops it
    x, phi = traj.states[:, -1], nonlinear._phi_plan(maps)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(nonlinear._BLOCK - 10):
            x = (A @ phi(x)[..., None])[..., 0]
    assert not np.isfinite(x).any()


def test_a_grid_narrower_than_the_domain_matches_the_per_step_loop():
    # unvalidated: the tables end at +-0.5 on a domain of [-1, 1], so the
    # states beyond the grid take the end values the clamp gives them
    maps = tuple(ScalarMap.table([(-0.5, -0.45 * c), (0.0, 0.0), (0.5, 0.45 * c)]) for c in (1.0, 0.9, 0.8, 1.1))
    A = build_cyclic(CyclicSpec(n=4, alphas=(0.01, 0.02, 0.01, 0.0), betas=(0.97, 0.96, 0.98, 0.95), ell=3))
    sys_ = NonlinearSystem(A, maps, (-1.0, 1.0), validate=False)
    assert nonlinear._phi_plan(sys_.maps, sys_.domain).args[0].exact is True
    starts = list(np.random.default_rng(9).uniform(-0.9, 0.9, (3, 4)))
    traj = assert_trajectories_match(sys_, starts, 200)
    assert traj.exit_step is None and (np.abs(traj.states) > 0.5).any()


def reference_csv(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["j", *columns])
    writer.writerows([str(j), *(f"{v:.17g}" for v in row)] for j, row in enumerate(rows))
    return buf.getvalue()


SPECIAL_ROWS = np.array(
    [
        [0.1, np.nan, -0.0],
        [np.inf, -np.inf, 0.0],
        [TINY, -TINY, 1e-310],
        [1.0 / 3.0, -2.0 / 3.0, 1e300],
        [123456789.0, 1e-5, -7.0],
    ]
)


# SPECIAL_ROWS tiled past 3 of the writer's blocks of _LEVEL_BLOCK values
# at the two columns j,V, and past 12 at the eight of j,V and six states,
# ending 3 rows into the next
LONG_ROWS = np.tile(SPECIAL_ROWS, (3 * _LEVEL_BLOCK // 10 + 1, 1))


def test_write_csv_matches_the_csv_module():
    for rows in (SPECIAL_ROWS, LONG_ROWS):
        buf = io.StringIO()
        write_csv(buf, ["a", "b", "c"], rows)
        assert buf.getvalue() == reference_csv(["a", "b", "c"], rows)
    buf = io.StringIO()
    write_csv(buf, ["a"], np.empty((0, 1)))
    assert buf.getvalue() == "j,a\n"


def test_trajectory_csv_with_state_columns_matches_the_csv_module():
    for special in (SPECIAL_ROWS, LONG_ROWS):
        k, n, T = 2, 3, special.shape[0]
        rng = np.random.default_rng(1)
        states = rng.uniform(-1.0, 1.0, (k, T, n))
        states[0, :, 0] = special[:, 0]
        states[1, :, 2] = special[:, 2]
        traj = WedgeTrajectory(
            k=k,
            initials=states[:, 0],
            states=states,
            y_series=np.zeros((T, 3)),
            v_series=special[:, 1].copy(),
            d_used=np.ones(3),
            v_increase_steps=(),
            exit_step=None,
        )
        columns = ["V"] + [f"x{i}_{c}" for i in (1, 2) for c in (1, 2, 3)]
        table = np.column_stack([traj.v_series, states.swapaxes(0, 1).reshape(T, k * n)])
        for include_states, cols, rows in ((False, ["V"], table[:, :1]), (True, columns, table)):
            buf = io.StringIO()
            export_trajectory_csv(traj, buf, include_states=include_states)
            assert buf.getvalue() == reference_csv(cols, rows)


class _Discard:
    def write(self, text):
        pass


def test_write_csv_peak_does_not_grow_with_the_row_count():
    # one block (_LEVEL_BLOCK // 2 rows at one column) against 200 000 and
    # 800 000 rows: a writer that held the whole table would read over
    # 30 MB and 120 MB at the two
    def peak(T):
        rows = np.linspace(-1.0, 1.0, T)[:, None]
        tracemalloc.start()
        try:
            write_csv(_Discard(), ["a"], rows)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return top

    block = peak(_LEVEL_BLOCK // 2)
    short, long = peak(200_000), peak(800_000)
    assert short <= 2 * block and abs(long - short) <= block
