import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from kposi import (
    CapacityError,
    DomainError,
    KDiagCertificate,
    LyapunovReport,
    NonlinearSystem,
    NumericError,
    PreconditionError,
    ScalarMap,
    certify_k_diag_stability,
    check_k_content_preserving,
    eval_phi,
    export_trajectory_csv,
    lyapunov_decrement_report,
    mult_compound,
    nonlinear,
    simulate,
    wedge,
    wedge_trajectory,
)
from kposi.examples import CYCLIC_WEDGE, WEDGE_A1, WEDGE_A2


def squared_map_system():
    return NonlinearSystem(
        CYCLIC_WEDGE, tuple(ScalarMap.power(2) for _ in range(3)), (-0.5, 0.5)
    )


def wedge_demo_certificate() -> KDiagCertificate:
    cert = certify_k_diag_stability(CYCLIC_WEDGE, 2)
    assert isinstance(cert, KDiagCertificate)
    return cert


class TestScalarMap:
    def test_identity(self):
        m = ScalarMap.identity()
        assert m(0.3) == 0.3 and m(0.0) == 0.0

    def test_linear(self):
        m = ScalarMap.linear(0.5)
        assert m(-0.4) == -0.2

    def test_integer_power(self):
        m = ScalarMap.power(2)
        assert m(-0.5) == 0.25 and m(0.0) == 0.0
        assert ScalarMap.power(3)(-0.5) == -0.125

    def test_fractional_power_is_odd_extended(self):
        m = ScalarMap.power(1.5)
        assert m(-0.25) == pytest.approx(-(0.25**1.5))

    def test_table_interpolation(self):
        m = ScalarMap.table([(-1.0, -0.5), (0.0, 0.0), (1.0, 0.5)])
        assert m(0.0) == 0.0
        assert m(0.5) == pytest.approx(0.25)
        assert m(-1.0) == -0.5

    def test_table_small_negative_argument_keeps_relative_accuracy(self):
        # interpolating -1e-12 from the breakpoint at -1 loses about eps/1e-12
        m = ScalarMap.table([(-1.0, -0.9996), (0.0, 0.0), (1.0, 0.9996)])
        exact = -0.9996e-12
        assert abs(m(-1e-12) - exact) <= 1e-15 * abs(exact)

    def test_linear_gain_validation(self):
        with pytest.raises(PreconditionError):
            ScalarMap.linear(2.0).validate((-1.0, 1.0))
        with pytest.raises(PreconditionError):
            ScalarMap.linear(0.0).validate((-1.0, 1.0))
        ScalarMap.linear(1.0).validate((-1.0, 1.0))

    def test_power_validation(self):
        with pytest.raises(PreconditionError):
            ScalarMap.power(0.5).validate((-0.5, 0.5))
        with pytest.raises(PreconditionError):
            ScalarMap.power(2).validate((-2.0, 2.0))
        ScalarMap.power(2).validate((-1.0, 1.0))

    def test_power_validation_refuses_a_nan_exponent(self):
        # NaN fails p >= 1 and p < 1 alike; a NaN exponent simulates NaN states
        with pytest.raises(PreconditionError, match="p >= 1"):
            ScalarMap.power(float("nan")).validate((-0.5, 0.5))
        with pytest.raises(PreconditionError, match="p >= 1"):
            NonlinearSystem(np.eye(2), (ScalarMap.power(float("nan")),) * 2, (-0.5, 0.5))

    def test_table_validation(self):
        with pytest.raises(PreconditionError):
            ScalarMap.table([(-1.0, -0.5), (1.0, 0.5)]).validate((-1.0, 1.0))
        with pytest.raises(PreconditionError):
            ScalarMap.table([(-1.0, -2.0), (0.0, 0.0), (1.0, 2.0)]).validate((-1.0, 1.0))
        with pytest.raises(PreconditionError):
            ScalarMap.table([(-0.5, -0.2), (0.0, 0.0), (0.5, 0.2)]).validate((-1.0, 1.0))

    def test_table_validation_rejects_unsorted_breakpoints(self):
        # interpolating through these points out of order gives m(0.25) = 0.225
        points = ((-1.0, -0.5), (0.5, 0.1), (0.0, 0.0), (1.0, 0.9))
        with pytest.raises(PreconditionError, match="nondecreasing"):
            ScalarMap("TABLE", points=points).validate((-1.0, 1.0))
        ScalarMap.table(points).validate((-1.0, 1.0))


class TestSystemAssembly:
    def test_domain_must_straddle_zero(self):
        with pytest.raises(PreconditionError):
            NonlinearSystem(np.eye(2), (ScalarMap.identity(),) * 2, (0.0, 1.0))

    def test_map_count_must_match(self):
        with pytest.raises(DomainError):
            NonlinearSystem(np.eye(2), (ScalarMap.identity(),), (-1.0, 1.0))

    def test_validation_can_be_bypassed(self):
        sys_ = NonlinearSystem(
            np.eye(2), (ScalarMap.linear(2.0),) * 2, (-1.0, 1.0), validate=False
        )
        assert sys_.maps[0].c == 2.0


class TestEvalPhi:
    def test_squared_coordinates(self):
        sys_ = squared_map_system()
        np.testing.assert_allclose(
            eval_phi(sys_, [0.5, -0.5, 0.4]), [0.25, 0.25, 0.16], rtol=0, atol=1e-15
        )

    def test_zero_maps_to_zero_exactly(self):
        sys_ = squared_map_system()
        np.testing.assert_array_equal(eval_phi(sys_, np.zeros(3)), np.zeros(3))

    def test_identity_maps(self):
        sys_ = NonlinearSystem(np.eye(3), (ScalarMap.identity(),) * 3, (-1.0, 1.0))
        x = np.array([0.1, -0.7, 0.3])
        np.testing.assert_array_equal(eval_phi(sys_, x), x)

    def test_domain_violation_names_coordinate(self):
        sys_ = squared_map_system()
        with pytest.raises(DomainError, match=r"x\[2\]"):
            eval_phi(sys_, [0.1, 0.7, 0.1])


class TestSimulate:
    def test_one_step_closed_form(self):
        # constant vector at 1/2: row sums of A are all 2, so the squared
        # state (1/4)*ones maps straight back to (1/2)*ones
        sys_ = squared_map_system()
        res = simulate(sys_, WEDGE_A1, 1)
        np.testing.assert_allclose(res.states[1], [0.5, 0.5, 0.5], rtol=1e-14)

    def test_invariant_box(self):
        sys_ = squared_map_system()
        for x0 in (WEDGE_A1, WEDGE_A2):
            res = simulate(sys_, x0, 25)
            assert res.exit_step is None
            assert res.states.shape == (26, 3)
            assert np.all(np.abs(res.states) <= 0.5)

    def test_origin_is_fixed(self):
        sys_ = squared_map_system()
        res = simulate(sys_, np.zeros(3), 5)
        np.testing.assert_array_equal(res.states, np.zeros((6, 3)))

    def test_domain_exit_truncates(self):
        sys_ = NonlinearSystem(
            np.array([[1.5]]), (ScalarMap.identity(),), (-1.0, 1.0)
        )
        res = simulate(sys_, [0.9], 10)
        assert res.exit_step == 1
        assert res.states.shape == (2, 1)
        assert res.states[1, 0] == pytest.approx(1.35)

    def test_bad_start_rejected(self):
        sys_ = squared_map_system()
        with pytest.raises(DomainError):
            simulate(sys_, [0.6, 0.0, 0.0], 3)

    @pytest.mark.parametrize("steps", [-1, 2.5, True])
    def test_invalid_step_counts_refused(self, steps):
        # 2.5 once raised TypeError and True ran one step
        with pytest.raises(DomainError, match="steps"):
            simulate(squared_map_system(), WEDGE_A1, steps)
        with pytest.raises(DomainError, match="steps"):
            wedge_trajectory(squared_map_system(), 1, [WEDGE_A1], np.ones(3), steps)


def per_step_run(sys_, starts, steps):
    """States and exit step of x(j+1) = A phi(x(j)), one domain test per step."""
    phi = nonlinear._phi_plan(sys_.maps)
    lo, hi = sys_.domain
    x = np.array(starts, dtype=float)
    rows = [x]
    for j in range(steps):
        x = (sys_.A @ phi(x)[..., None])[..., 0]
        rows.append(x)
        if ((x < lo) | (x > hi)).any():
            return np.array(rows), j + 1
    return np.array(rows), None


def doubling_system():
    # x1 doubles exactly under the identity map, so a start at 1.5 * 2^-t
    # first leaves [-1, 1] at step t; the other coordinates stay bounded.
    A = np.array([[2.0, 0.0, 0.0], [0.1, 0.5, -0.3], [0.0, 0.3, 0.5]])
    maps = (
        ScalarMap.identity(),
        ScalarMap.table([(-1.0, -0.9), (-0.3, -0.2), (0.0, 0.0), (0.3, 0.25), (1.0, 0.95)]),
        ScalarMap.linear(0.9),
    )
    return NonlinearSystem(A, maps, (-1.0, 1.0))


def exit_starts(t):
    return [np.array([1.5 * 2.0**-t, 0.3, -0.2]), np.array([0.5 * 2.0**-t, -0.4, 0.6])]


class TestBlockStepping:
    """_iterate tests the domain once per block of steps; every output must
    still equal the per-step loop's, bit for bit, on and around block edges."""

    @pytest.mark.parametrize("t", [1, 63, 64, 65, 128])
    def test_exit_at_a_block_edge(self, t):
        sys_ = doubling_system()
        starts = exit_starts(t)
        ref, ref_exit = per_step_run(sys_, starts[:1], t + 200)
        assert ref_exit == t
        res = simulate(sys_, starts[0], t + 200)
        assert res.exit_step == t
        assert res.states.tobytes() == ref[:, 0].tobytes()

        ref, ref_exit = per_step_run(sys_, starts, t + 200)
        assert ref_exit == t
        traj = wedge_trajectory(sys_, 2, starts, np.ones(3), t + 200)
        assert traj.exit_step == t
        assert traj.states.tobytes() == ref.swapaxes(0, 1).tobytes()
        assert traj.v_series.shape == (t + 1,)

    @pytest.mark.parametrize("steps", [0, 1, 63, 64, 65, 130])
    def test_no_exit_run_lengths(self, steps):
        sys_ = doubling_system()
        starts = exit_starts(200)
        ref, ref_exit = per_step_run(sys_, starts, steps)
        assert ref_exit is None
        res = simulate(sys_, starts[0], steps)
        assert res.exit_step is None
        assert res.states.tobytes() == ref[:, 0].tobytes()
        traj = wedge_trajectory(sys_, 2, starts, np.ones(3), steps)
        assert traj.exit_step is None
        assert traj.states.tobytes() == ref.swapaxes(0, 1).tobytes()

    def test_early_exit_of_a_huge_run_holds_one_block(self):
        # 10^6 steps are priced at 48 MB, within the byte budget (10^9 are
        # refused, TestByteBudget); the run exits at step 3, in its first block
        sys_ = doubling_system()
        tracemalloc.start()
        try:
            res = simulate(sys_, exit_starts(3)[0], 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.exit_step == 3 and res.states.shape == (4, 3)
        assert peak < 2**20

    def test_steps_past_an_exit_raise_no_warning(self):
        # phi(1.9) = 1.9^400 ~ 1e111 leaves the box at step 1; the steps
        # after it overflow to inf, then inf - inf gives NaN
        sys_ = NonlinearSystem(
            np.array([[1.0, 0.5], [0.5, 1.0]]),
            (ScalarMap.power(400),) * 2,
            (-2.0, 2.0),
            validate=False,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = simulate(sys_, [1.9, 0.1], 100)
        assert res.exit_step == 1 and res.states.shape == (2, 2)

    def test_nan_state_never_exits(self):
        # phi(x)_2 is NaN, and 0 * NaN in A @ phi(x) makes every coordinate
        # NaN, so x1 = 2 * 0.75 would leave the box at step 1 but never does
        sys_ = NonlinearSystem(
            np.diag([2.0, 0.5]),
            (ScalarMap.identity(), ScalarMap.linear(float("nan"))),
            (-1.0, 1.0),
            validate=False,
        )
        ref, ref_exit = per_step_run(sys_, [[0.75, 0.5]], 130)
        res = simulate(sys_, [0.75, 0.5], 130)
        assert ref_exit is None and res.exit_step is None
        assert np.isnan(res.states[1:]).all()
        assert res.states.tobytes() == ref[:, 0].tobytes()


class TestContentPreserving:
    def test_squared_maps_pass_at_order_two(self):
        rep = check_k_content_preserving(squared_map_system(), 2, seed=7)
        assert rep.passed
        assert rep.num_tuples == 5**3 * 5**3 + 1000

    def test_identity_passes_every_order(self):
        sys_ = NonlinearSystem(np.eye(3), (ScalarMap.identity(),) * 3, (-1.0, 1.0))
        for k in (1, 2):
            rep = check_k_content_preserving(sys_, k, seed=8)
            assert rep.passed and rep.strict_zero_count == 0

    def test_doubling_map_fails_with_counterexample(self):
        sys_ = NonlinearSystem(
            np.eye(3), (ScalarMap.linear(2.0),) * 3, (-1.0, 1.0), validate=False
        )
        rep = check_k_content_preserving(sys_, 1, seed=9)
        assert not rep.passed
        ce = rep.counterexample
        assert ce is not None
        assert abs(ce.q) == pytest.approx(2.0 * abs(ce.p))

    def test_strict_mode_surfaces_cancellation_zeros(self):
        # even-power maps cancel symmetric grid tuples to an exactly zero
        # image coordinate; the weak run records them, the strict run fails
        weak = check_k_content_preserving(squared_map_system(), 2, seed=7)
        assert weak.passed and weak.strict_zero_count > 0
        assert weak.strict_zero_example is not None
        strict = check_k_content_preserving(squared_map_system(), 2, seed=7, strict=True)
        assert not strict.passed

    def test_order_out_of_range(self):
        with pytest.raises(DomainError):
            check_k_content_preserving(squared_map_system(), 3, seed=1)

    @pytest.mark.parametrize("kwargs", [
        {"samples_per_axis": 0}, {"samples_per_axis": -1}, {"samples_per_axis": 2.5},
        {"num_random": -1}, {"num_random": 2.5},
        {"samples_per_axis": True}, {"num_random": False},
    ], ids=["samples-0", "samples-negative", "samples-fractional", "random-negative",
            "random-fractional", "samples-bool", "random-bool"])
    def test_invalid_sample_counts_refused(self, kwargs):
        # once IndexError, ValueError or TypeError from the grid and draws
        with pytest.raises(DomainError, match=next(iter(kwargs))):
            check_k_content_preserving(squared_map_system(), 1, seed=1, **kwargs)

    @pytest.mark.parametrize("domain", [(-1e308, 1e308), (-np.inf, np.inf)],
                             ids=["width-overflows", "infinite"])
    def test_domain_of_infinite_width_refused(self, domain):
        # the grid and the draws of such a domain overflow; the system
        # itself stays valid, and simulate runs on it
        sys_ = NonlinearSystem(np.eye(3) * 0.5, (ScalarMap.linear(0.5),) * 3, domain)
        with pytest.raises(DomainError, match="finite width"):
            check_k_content_preserving(sys_, 1, seed=1)
        with pytest.raises(DomainError, match="finite width"):
            check_k_content_preserving(sys_, 1, 10**9, seed=1)
        assert simulate(sys_, [1.0, -2.0, 4.0], 2).exit_step is None

    def test_smallest_sample_counts_run(self):
        rep = check_k_content_preserving(squared_map_system(), 1, 1, 0, seed=1)
        assert rep.num_tuples == 1
        rep = check_k_content_preserving(squared_map_system(), 1, np.int64(1), np.int32(0), seed=1)
        assert rep.num_tuples == 1


class TestWedgeTrajectory:
    def test_lyapunov_series_decreases(self):
        cert = wedge_demo_certificate()
        traj = wedge_trajectory(squared_map_system(), 2, [WEDGE_A1, WEDGE_A2], cert.d, 5)
        assert traj.v_series.shape == (6,)
        assert np.all(np.diff(traj.v_series[1:6]) < -1e-12)
        assert traj.v_increase_steps == ()
        assert traj.exit_step is None

    def test_dependent_initials_give_zero_wedge(self):
        cert = wedge_demo_certificate()
        traj = wedge_trajectory(squared_map_system(), 2, [WEDGE_A2, WEDGE_A2], cert.d, 4)
        np.testing.assert_array_equal(traj.y_series, np.zeros((5, 3)))
        np.testing.assert_array_equal(traj.v_series, np.zeros(5))

    def test_linear_system_matches_matrix_power(self):
        rng = np.random.default_rng(51)
        A = 0.5 * rng.standard_normal((3, 3))
        sys_ = NonlinearSystem(A, (ScalarMap.identity(),) * 3, (-10.0, 10.0))
        inits = [rng.uniform(-0.5, 0.5, 3) for _ in range(2)]
        traj = wedge_trajectory(sys_, 2, inits, np.ones(3), 6)
        M = mult_compound(A, 2)
        y0 = wedge(inits).coords
        for j in range(7):
            np.testing.assert_allclose(
                traj.y_series[j], np.linalg.matrix_power(M, j) @ y0, rtol=0, atol=1e-12
            )

    def test_fixed_line_expansion(self):
        # with the constant starting vector held fixed, 4 V(y(j)) equals the
        # weighted sum of squared coordinate gaps of the second trajectory
        cert = wedge_demo_certificate()
        d = cert.d
        traj = wedge_trajectory(squared_map_system(), 2, [WEDGE_A1, WEDGE_A2], d, 8)
        for j in range(9):
            x = traj.states[1, j]
            expected = (
                d[0] * (x[1] - x[0]) ** 2
                + d[1] * (x[2] - x[0]) ** 2
                + d[2] * (x[2] - x[1]) ** 2
            )
            assert 4.0 * traj.v_series[j] == pytest.approx(expected, abs=1e-10)

    def test_order_one_reduces_to_state_quadratic(self):
        A = np.array([[0.3, 0.2], [0.1, 0.4]])
        cert = certify_k_diag_stability(A, 1)
        assert isinstance(cert, KDiagCertificate)
        sys_ = NonlinearSystem(A, (ScalarMap.linear(0.8),) * 2, (-1.0, 1.0))
        traj = wedge_trajectory(sys_, 1, [np.array([0.9, -0.7])], cert.d, 8)
        states = traj.states[0]
        for j in range(9):
            np.testing.assert_allclose(traj.y_series[j], states[j], atol=1e-15)
            assert traj.v_series[j] == pytest.approx(states[j] @ (cert.d * states[j]))
        assert np.all(np.diff(traj.v_series) <= 0.0)

    def test_wrong_diag_size_rejected(self):
        with pytest.raises(PreconditionError):
            wedge_trajectory(squared_map_system(), 2, [WEDGE_A1, WEDGE_A2], np.ones(4), 3)

    def test_wrong_initial_count_rejected(self):
        with pytest.raises(DomainError):
            wedge_trajectory(squared_map_system(), 2, [WEDGE_A1], np.ones(3), 3)

    def test_zero_steps_gives_initial_wedge_only(self):
        traj = wedge_trajectory(squared_map_system(), 2, [WEDGE_A1, WEDGE_A2], np.ones(3), 0)
        assert traj.v_series.shape == (1,)
        np.testing.assert_allclose(
            traj.y_series[0], wedge([WEDGE_A1, WEDGE_A2]).coords, atol=1e-15
        )

    @pytest.mark.parametrize(
        "maps, k, x_scale",
        [
            ((ScalarMap.power(2),) * 3, 2, 0.5),
            ((ScalarMap.linear(0.9), ScalarMap.identity(), ScalarMap.linear(0.7)), 1, 0.5),
            ((ScalarMap.identity(),) * 3, 3, 0.5),
            ((ScalarMap.power(3),) * 4, 3, 0.9),
        ],
    )
    def test_batched_series_equal_the_per_step_evaluation(self, maps, k, x_scale):
        # reference: one simulate run per start, one wedge and one dot per step
        rng = np.random.default_rng(17)
        n = len(maps)
        A = rng.uniform(-1.0, 1.0, (n, n)) / n
        sys_ = NonlinearSystem(A, maps, (-1.0, 1.0))
        inits = list(rng.uniform(-x_scale, x_scale, (k, n)))
        d = rng.uniform(0.5, 2.0, mult_compound(A, k).shape[0])
        traj = wedge_trajectory(sys_, k, inits, d, 40)
        for i, a in enumerate(inits):
            np.testing.assert_array_equal(traj.states[i], simulate(sys_, a, 40).states)
        for j in range(41):
            y = wedge(traj.states[:, j]).coords
            np.testing.assert_array_equal(traj.y_series[j], y)
            assert traj.v_series[j] == float(np.dot(y * d, y))

    def test_recursion_check_scales_with_the_states(self, monkeypatch):
        # states near 1e-5, so every wedge coordinate is below 1e-9; a 1e-6
        # relative corruption of one state must still be caught
        sys_ = NonlinearSystem(0.5 * CYCLIC_WEDGE, (ScalarMap.identity(),) * 3, (-1.0, 1.0))
        inits = [1e-5 * WEDGE_A1, 1e-5 * WEDGE_A2]
        traj = wedge_trajectory(sys_, 2, inits, np.ones(3), 6)
        assert np.max(np.abs(traj.y_series)) < 1e-9

        iterate = nonlinear._iterate

        def corrupted(*args):
            run, exit_step = iterate(*args)
            run[3, 1, 0] *= 1.0 + 1e-6
            return run, exit_step

        monkeypatch.setattr(nonlinear, "_iterate", corrupted)
        with pytest.raises(NumericError, match="step 3"):
            wedge_trajectory(sys_, 2, inits, np.ones(3), 6)

    def test_recursion_check_allows_for_subnormal_wedges(self):
        # the wedges of this decaying run turn subnormal near step 440, where
        # a rounding of 2 subnormals once read as a disagreement
        n, k = 8, 3
        A = 0.4 * np.eye(n)
        A[np.arange(n), (np.arange(n) + 1) % n] = 0.3
        sys_ = NonlinearSystem(A, (ScalarMap.linear(0.9),) * n, (-1.0, 1.0))
        traj = wedge_trajectory(sys_, k, chain_starts(n, k), np.ones(56), 2000)
        assert traj.exit_step is None and traj.y_series.shape == (2001, 56)
        tiny = np.abs(traj.y_series[446])
        assert 0.0 < tiny.max() < np.finfo(float).tiny

    def test_recursion_check_still_catches_corruption_near_1e_300(self, monkeypatch):
        # states near 1e-100 give wedges near 1e-300, still normal floats:
        # a 1e-6 relative corruption of one state is far above the
        # underflow allowance and must be caught
        sys_ = NonlinearSystem(0.5 * np.eye(3), (ScalarMap.identity(),) * 3, (-1.0, 1.0))
        inits = [1e-100 * np.roll([1.0, 0.5, 0.25], i) for i in range(3)]
        traj = wedge_trajectory(sys_, 3, inits, np.ones(1), 6)
        assert 1e-305 < abs(traj.y_series[3, 0]) < 1e-295

        iterate = nonlinear._iterate

        def corrupted(*args):
            run, exit_step = iterate(*args)
            run[3, 1, 0] *= 1.0 + 1e-6
            return run, exit_step

        monkeypatch.setattr(nonlinear, "_iterate", corrupted)
        with pytest.raises(NumericError, match="step 3"):
            wedge_trajectory(sys_, 3, inits, np.ones(1), 6)

    def test_domain_exit_truncates_all_series(self):
        sys_ = NonlinearSystem(
            np.diag([1.5, 1.5]), (ScalarMap.identity(),) * 2, (-1.0, 1.0)
        )
        traj = wedge_trajectory(sys_, 1, [np.array([0.8, 0.1])], np.ones(2), 10)
        assert traj.exit_step == 1
        assert traj.states.shape == (1, 2, 2)
        assert traj.y_series.shape == (2, 2) and traj.v_series.shape == (2,)


class TestLyapunovReport:
    def test_certified_run_is_monotone(self):
        cert = wedge_demo_certificate()
        traj = wedge_trajectory(squared_map_system(), 2, [WEDGE_A1, WEDGE_A2], cert.d, 5)
        rep = lyapunov_decrement_report(traj)
        assert rep.monotone and rep.strict_ok and rep.worst_increase < 0.0

    def test_zero_trajectory_is_trivially_monotone(self):
        cert = wedge_demo_certificate()
        traj = wedge_trajectory(squared_map_system(), 2, [WEDGE_A1, WEDGE_A1], cert.d, 4)
        rep = lyapunov_decrement_report(traj)
        assert rep.monotone and rep.worst_increase == 0.0

    def test_uncertified_diagonal_can_increase(self):
        # identity weights on an expanding linear map: V must grow somewhere
        sys_ = NonlinearSystem(
            1.2 * np.eye(2), (ScalarMap.identity(),) * 2, (-10.0, 10.0)
        )
        traj = wedge_trajectory(sys_, 1, [np.array([1.0, 0.5])], np.ones(2), 4)
        rep = lyapunov_decrement_report(traj)
        assert not rep.monotone and rep.worst_increase > 0.0
        assert len(traj.v_increase_steps) > 0

    def test_rises_are_seen_however_small_v_is(self):
        # V grows 1.44x a step from 1.25e-22, far below the 1e-9 tolerance
        sys_ = NonlinearSystem(1.2 * np.eye(2), (ScalarMap.identity(),) * 2, (-1.0, 1.0))
        traj = wedge_trajectory(sys_, 1, [np.array([1e-11, 5e-12])], np.ones(2), 4)
        assert traj.v_series[0] == pytest.approx(1.25e-22, rel=1e-12)
        assert traj.v_increase_steps == (1, 2, 3, 4)
        rep = lyapunov_decrement_report(traj)
        assert not rep.monotone and not rep.strict_ok

    def test_constant_v_is_no_rise_at_any_scale(self):
        # a constant V neither rises nor strictly decreases, however small
        sys_ = NonlinearSystem(np.eye(2), (ScalarMap.identity(),) * 2, (-1.0, 1.0))
        for scale in (1e-12, 1.0):
            traj = wedge_trajectory(sys_, 1, [scale * np.array([0.5, 0.25])], np.ones(2), 3)
            assert traj.v_increase_steps == ()
            rep = lyapunov_decrement_report(traj)
            assert rep.monotone and not rep.strict_ok and rep.worst_increase == 0.0

    def test_a_zero_step_run_has_no_step_to_rise(self):
        # V(0) alone: no step, so nothing rises and nothing fails to fall
        cert = wedge_demo_certificate()
        traj = wedge_trajectory(squared_map_system(), 2, [WEDGE_A1, WEDGE_A2], cert.d, 0)
        assert traj.v_series.shape == (1,) and traj.v_increase_steps == ()
        assert lyapunov_decrement_report(traj) == LyapunovReport(monotone=True, worst_increase=0.0, strict_ok=True)


class TestCsvExport:
    def test_header_and_roundtrip_precision(self):
        cert = wedge_demo_certificate()
        traj = wedge_trajectory(squared_map_system(), 2, [WEDGE_A1, WEDGE_A2], cert.d, 4)
        buf = io.StringIO()
        export_trajectory_csv(traj, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "j,V"
        assert len(lines) == 6
        for j, line in enumerate(lines[1:]):
            sj, sv = line.split(",")
            assert int(sj) == j
            assert float(sv) == traj.v_series[j]

    def test_state_columns(self):
        cert = wedge_demo_certificate()
        traj = wedge_trajectory(squared_map_system(), 2, [WEDGE_A1, WEDGE_A2], cert.d, 2)
        buf = io.StringIO()
        export_trajectory_csv(traj, buf, include_states=True)
        header = buf.getvalue().splitlines()[0].split(",")
        assert header == ["j", "V"] + [f"x{i}_{c}" for i in (1, 2) for c in (1, 2, 3)]
        row1 = buf.getvalue().splitlines()[1].split(",")
        assert float(row1[2]) == traj.states[0, 0, 0]


def decaying_chain_system(n):
    """A cyclic chain with spectral radius 0.95 and identity maps: its wedges
    decay slowly enough to stay normal floats for thousands of steps."""
    A = 0.5 * np.eye(n)
    A[np.arange(n - 1), np.arange(1, n)] = 0.45
    A[n - 1, 0] = 0.45
    return NonlinearSystem(A, (ScalarMap.linear(1.0),) * n, (-1.0, 1.0))


def chain_starts(n, k):
    return [np.roll(np.linspace(-0.5, 0.5, n) * (i + 1) / k, i) for i in range(k)]


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestByteBudget:
    """simulate, wedge_trajectory and check_k_content_preserving price their
    peak bytes against matcore._BYTE_BUDGET before they allocate anything
    that size."""

    def test_trajectory_refused_before_allocating(self):
        # 15000 steps at r = 792 are priced at about 505 MB
        sys_, d = decaying_chain_system(12), np.ones(792)

        def run():
            with pytest.raises(CapacityError, match="wedge trajectory of 15000 steps"):
                wedge_trajectory(sys_, 5, chain_starts(12, 5), d, 15_000)

        assert traced_peak(run) < 1_000_000

    def test_simulation_refused_before_allocating(self):
        # 10^9 steps of a 12-state system are priced at about 192 GB
        sys_ = decaying_chain_system(12)

        def run():
            with pytest.raises(CapacityError, match="^a trajectory of 1000000000 steps"):
                simulate(sys_, chain_starts(12, 1)[0], 10**9)

        assert traced_peak(run) < 1_000_000

    def test_content_check_refused_before_allocating(self):
        # 13001 tuples at r = 792 are priced at about 507 MB
        sys_ = decaying_chain_system(12)

        def run():
            with pytest.raises(CapacityError, match="content check of 13001 tuples"):
                check_k_content_preserving(sys_, 5, samples_per_axis=1, num_random=13_000, seed=1)

        assert traced_peak(run) < 1_000_000

    def test_large_grid_refused_before_its_axis(self):
        # 2e6 samples an axis: the axis alone would take 16 MB
        def run():
            with pytest.raises(CapacityError, match="content check of 4000000001000 tuples"):
                check_k_content_preserving(decaying_chain_system(2), 1, samples_per_axis=2_000_000, seed=1)

        assert traced_peak(run) < 1_000_000

    def test_numpy_step_count_is_priced_as_a_python_int(self):
        # in int64 the price of 2^60 steps at r = 3 wraps to a negative number
        with pytest.raises(CapacityError, match="wedge trajectory"):
            wedge_trajectory(decaying_chain_system(3), 1, chain_starts(3, 1), np.ones(3), np.int64(2**60))

    def test_price_beyond_the_float_range_refused(self):
        with pytest.raises(CapacityError, match="about 1e396 MB"):
            check_k_content_preserving(decaying_chain_system(2), 1, num_random=10**400, seed=1)
        with pytest.raises(CapacityError, match="wedge trajectory"):
            wedge_trajectory(decaying_chain_system(3), 1, chain_starts(3, 1), np.ones(3), 10**400)

    # a count of over 4300 digits, which str() of an int refuses to write,
    # is written by its exponent
    @pytest.mark.parametrize("call, count", [
        (lambda: check_k_content_preserving(decaying_chain_system(2), 1, num_random=10**5000, seed=1),
         "content check of 1e5000 tuples"),
        (lambda: check_k_content_preserving(decaying_chain_system(3), 1, samples_per_axis=10**2000, seed=1),
         "content check of 1e6000 tuples"),
        (lambda: wedge_trajectory(decaying_chain_system(3), 1, chain_starts(3, 1), np.ones(3), 10**5000),
         "wedge trajectory of 1e5000 steps"),
    ], ids=["num-random", "samples-per-axis", "steps"])
    def test_count_beyond_the_digit_limit_refused_in_one_line(self, call, count):
        with pytest.raises(CapacityError, match=f"^a {count} would hold about [^\\n]*\\Z"):
            call()

    @pytest.fixture
    def prices(self, monkeypatch):
        priced, original = [], nonlinear._require_budget

        def recorded(nbytes, what):
            priced.append(nbytes)
            original(nbytes, what)

        monkeypatch.setattr(nonlinear, "_require_budget", recorded)
        return priced

    # n = 10 at k = 2, 5, 8, 9: the minor kernel's temporaries on a chunk of
    # nonlinear._wedge_chunk(k, n) states, Laplace row blocks or gathered
    # k x k blocks, are most of the peak.  At n = 3, k = 2 the 4681 states
    # of 4680 steps are exactly one chunk.  At n = k = 8 the middle levels
    # are wider than the top, whose products alone would size a chunk of
    # 4096 states that holds more than its price.  At n = 12, k = 9 the
    # compound's build, which gathers its 9 x 9 blocks, holds more than
    # the run
    @pytest.mark.parametrize("n, k, steps", [(12, 5, 300), (8, 3, 2000), (4, 1, 100), (3, 2, 10),
                                             (10, 2, 300), (10, 5, 300), (10, 8, 300), (10, 9, 300),
                                             (3, 2, 4680), (8, 8, 2000), (12, 9, 300)])
    def test_trajectory_price_bounds_the_traced_peak(self, prices, n, k, steps):
        sys_, d = decaying_chain_system(n), np.ones(math.comb(n, k))
        peak = traced_peak(lambda: wedge_trajectory(sys_, k, chain_starts(n, k), d, steps))
        assert len(prices) == 1 and peak <= prices[0]
        if (n, k, steps) == (3, 2, 4680):
            assert nonlinear._wedge_chunk(k, n) == steps + 1

    @pytest.mark.parametrize("n, steps", [(12, 3000), (6, 64), (3, 65), (2, 0)])
    def test_simulation_price_bounds_the_traced_peak(self, prices, n, steps):
        sys_ = decaying_chain_system(n)
        results = []
        peak = traced_peak(lambda: results.append(simulate(sys_, chain_starts(n, 1)[0], steps)))
        assert results[0].states.shape == (steps + 1, n) and results[0].exit_step is None
        assert len(prices) == 1 and peak <= prices[0]

    # at n = 14, k = 7 a chunk is one tuple, whose top level alone makes
    # C(14,7) k = 24024 products: most of one of the kernel's blocks
    @pytest.mark.parametrize("n, k, axis, draws", [(12, 5, 1, 500), (6, 2, 2, 3000), (3, 2, 5, 100), (3, 1, 3, 0),
                                                   (10, 2, 1, 299), (10, 5, 1, 299), (10, 8, 1, 299), (10, 9, 1, 299),
                                                   (14, 7, 1, 3)])
    def test_content_price_bounds_the_traced_peak(self, prices, n, k, axis, draws):
        sys_ = decaying_chain_system(n)
        peak = traced_peak(lambda: check_k_content_preserving(
            sys_, k, samples_per_axis=axis, num_random=draws, seed=1))
        assert len(prices) == 1 and peak <= prices[0]
        if (n, k) == (14, 7):
            # one kernel call a tuple: each row is that tuple's own wedge
            assert nonlinear._wedge_chunk(k, n) == 1
            phi = nonlinear._phi_plan(sys_.maps)
            tuples = np.random.default_rng(1).uniform(*sys_.domain, (3, k, n))
            for rows, arg in ((nonlinear._wedge_coords_batch(tuples), tuples),
                              (nonlinear._wedge_coords_batch(tuples, phi), phi(tuples))):
                for t in range(3):
                    assert rows[t].tobytes() == wedge(arg[t]).coords.tobytes()

    def test_grid_over_a_million_tuples_runs_within_its_price(self, prices):
        # 1001^2 tuples: over the grid limit that once refused them
        sys_ = decaying_chain_system(2)
        reports = []
        peak = traced_peak(lambda: reports.append(check_k_content_preserving(
            sys_, 1, samples_per_axis=1001, num_random=0, seed=1)))
        assert reports[0].num_tuples == 1001**2 and reports[0].passed
        assert len(prices) == 1 and peak <= prices[0]

