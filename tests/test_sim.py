import math

import numpy as np
import pytest
from scipy.linalg import expm

from reference import arm_model, joint_accel_reference, rk4_step
from safefl.clbf import HalfPlaneUnsafe
from safefl.cli import safety_monitor
from safefl.errors import NearSingular, NonFiniteState
from safefl.manipulator import ArmStage, ManipulatorPlant
from safefl.scenario import (
    build_bundle,
    default_config_path,
    load_config,
    run_case,
    verify_bundle,
)
from safefl.sim import SimConfig, Trajectory, simulate_closed_loop
from tests.conftest import replace


def _out_of_reach_controller(bundle):
    # a goal beyond the arm's reach pulls it into its stretched-out
    # singularity, where the torques diverge at t = 0.698 s
    return replace(bundle.controller(1.5), goal=np.array([2.2, 0.0]))


class TestRk4Step:
    def test_exponential_decay(self):
        x = rk4_step(lambda t, x: (-x[0],), 0.0, (1.0,), 0.1)
        assert x[0] == pytest.approx(math.exp(-0.1), abs=1e-7)

    def test_zero_field(self):
        x0 = (0.3, -0.7)
        assert rk4_step(lambda t, x: (0.0, 0.0), 0.0, x0, 0.1) == x0

    def test_constant_field(self):
        x = rk4_step(lambda t, x: (1.0,), 0.0, (2.0,), 0.25)
        assert x[0] == pytest.approx(2.25)

    def test_fourth_order_convergence(self):
        # error ratio between step sizes h and h/2 approaches 2^5 locally
        field = lambda t, x: (x[0] * math.sin(t + 1.0),)
        exact = math.exp(math.cos(1.0) - math.cos(1.1))
        err_h = abs(rk4_step(field, 0.0, (1.0,), 0.1)[0] - exact)
        exact_half = math.exp(math.cos(1.0) - math.cos(1.05))
        err_half = abs(rk4_step(field, 0.0, (1.0,), 0.05)[0] - exact_half)
        assert err_h / err_half > 16.0

    def test_non_finite_detection(self):
        with pytest.raises(NonFiniteState):
            rk4_step(lambda t, x: (x[0] * x[0] * x[0],), 0.0, (1e200,), 1.0)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0, horizon=1.0, x0=np.zeros(4))
        with pytest.raises(ValueError):
            SimConfig(dt=0.02, horizon=1.0, x0=np.zeros(4))
        with pytest.raises(ValueError):
            SimConfig(dt=1e-3, horizon=0.0, x0=np.zeros(4))
        with pytest.raises(ValueError):
            SimConfig(dt=1e-3, horizon=1.0, x0=np.zeros(4), record_stride=0)

    @pytest.mark.parametrize(
        "x0",
        [
            [0.1, 0.2, 0.0],
            [0.1, 0.2, 0.0, 0.0, 0.0],
            [[0.1, 0.2], [0.0, 0.0]],
            [0.1, 0.2, math.inf, 0.0],
            [0.1, math.nan, 0.0, 0.0],
        ],
    )
    def test_rejects_x0_not_four_entries(self, x0):
        # a joint state is four finite floats (q1, q2, qd1, qd2); any other
        # shape, or an inf or NaN entry, must fail here, not inside the
        # kernel (math.sin(inf) raises) or at t = 0
        with pytest.raises(ValueError, match="x0"):
            SimConfig(dt=1e-3, horizon=0.01, x0=x0)

    def test_step_count(self):
        config = SimConfig(dt=1e-3, horizon=1.0, x0=np.zeros(4))
        assert config.n_steps == 1000

    @pytest.mark.parametrize(
        "horizon, dt, steps",
        [
            (16.1, 1e-3, 16100),
            (8.05, 5e-4, 16100),
            (8.13, 5e-4, 16260),
            (16.01, 5e-4, 32020),
            (10.0, 1e-3, 10000),
            (2.0, 1e-3, 2000),
            (0.0105, 1e-3, 11),
            (1e-4, 1e-3, 1),
        ],
    )
    def test_step_count_ignores_quotient_rounding(self, horizon, dt, steps):
        # horizon / dt can land a rounding error above an integer; that must
        # not add a step past the horizon, while true fractions still round up
        assert SimConfig(dt=dt, horizon=horizon, x0=np.zeros(4)).n_steps == steps


class TestSimulateClosedLoop:
    def test_matches_matrix_exponential(self, default_bundle):
        # without the safety input the linearized loop makes each task-space
        # error coordinate the linear subsystem x' = A x
        config = SimConfig(dt=1e-3, horizon=1.0, x0=default_bundle.x0)
        traj = simulate_closed_loop(default_bundle.controller(0.0), default_bundle.params, config)
        assert len(traj) == 1001
        goal = default_bundle.config.goal
        for i, sub in enumerate(default_bundle.subsystems):
            A = np.array([[0.0, 1.0], [-sub.kp, -sub.kd]])
            expected = expm(A * 1.0) @ np.array(sub.xbar0)
            final = sub.sign * np.array([traj.pos[-1, i] - goal[i], traj.vel[-1, i]])
            np.testing.assert_allclose(final, expected, atol=1e-6)

    def test_time_grid(self, default_bundle):
        config = SimConfig(dt=1e-3, horizon=0.25, x0=default_bundle.x0)
        traj = simulate_closed_loop(default_bundle.controller(1.5), default_bundle.params, config)
        assert traj.t[0] == 0.0
        assert traj.t[-1] == pytest.approx(0.25)
        assert np.all(np.diff(traj.t) > 0.0)

    def test_record_stride(self, default_bundle):
        config = SimConfig(dt=1e-3, horizon=0.2, x0=default_bundle.x0, record_stride=10)
        traj = simulate_closed_loop(default_bundle.controller(1.5), default_bundle.params, config)
        assert len(traj) == 21
        assert traj.t[1] == pytest.approx(0.01)
        assert traj.meta["steps"] == 200

    def test_last_step_recorded_off_stride(self, default_bundle):
        # 25 steps at stride 10 record steps 0, 10, 20 and the last one
        config = SimConfig(dt=1e-3, horizon=0.025, x0=default_bundle.x0, record_stride=10)
        traj = simulate_closed_loop(default_bundle.controller(1.5), default_bundle.params, config)
        np.testing.assert_allclose(traj.t, [0.0, 0.01, 0.02, 0.025], rtol=0.0, atol=1e-15)
        assert traj.meta["steps"] == 25

    def test_determinism(self, default_bundle):
        config = SimConfig(dt=1e-3, horizon=0.5, x0=default_bundle.x0)
        controller = default_bundle.controller(1.5)
        a = simulate_closed_loop(controller, default_bundle.params, config)
        b = simulate_closed_loop(controller, default_bundle.params, config)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.t, b.t)

    def test_abort_returns_partial_trajectory(self, default_bundle):
        config = SimConfig(dt=1e-3, horizon=2.0, x0=default_bundle.x0)
        traj = simulate_closed_loop(
            _out_of_reach_controller(default_bundle), default_bundle.params, config
        )
        assert traj.failed
        assert traj.meta["failure"]["error"] == "NonFiniteState"
        assert len(traj) == 699
        assert traj.t[-1] == traj.meta["failure"]["time"]

    def test_steps_on_abort(self, default_bundle):
        # step 698 diverges; at stride 10 the last record is step 690
        config = SimConfig(dt=1e-3, horizon=2.0, x0=default_bundle.x0, record_stride=10)
        traj = simulate_closed_loop(
            _out_of_reach_controller(default_bundle), default_bundle.params, config
        )
        assert traj.failed
        assert traj.meta["steps"] == 698
        assert len(traj) == 70

    def test_divergence_aborts(self, default_bundle):
        config = SimConfig(dt=1e-2, horizon=5.0, x0=np.array([0.3, 0.8, 1e160, 0.0]))
        traj = simulate_closed_loop(default_bundle.controller(1.5), default_bundle.params, config)
        assert traj.failed
        assert traj.meta["failure"]["error"] == "NonFiniteState"


class TestScenarioIntegration:
    def test_goal_equilibrium_is_stationary(self, default_bundle):
        from safefl.manipulator import inverse_kinematics

        q_goal = inverse_kinematics(default_bundle.params, default_bundle.config.goal)
        x0 = np.concatenate([q_goal, np.zeros(2)])
        config = SimConfig(dt=1e-3, horizon=2.0, x0=x0)
        traj = simulate_closed_loop(default_bundle.controller(1.5), default_bundle.params, config)
        drift = np.abs(traj.pos - default_bundle.config.goal).max()
        assert drift < 1e-6

    def test_halving_step_leaves_endpoint_unchanged(self, default_bundle):
        coarse = run_case(default_bundle, 1.5, dt=1e-3)
        fine = run_case(default_bundle, 1.5, dt=5e-4)
        assert np.abs(coarse.pos[-1] - fine.pos[-1]).max() < 1e-6

    def test_run_case_meta(self, default_bundle):
        traj = run_case(default_bundle, 0.5, horizon=0.05)
        assert traj.meta["k_safe"] == 0.5
        for column in (traj.w, traj.pos, traj.force_safe):
            assert column.shape == (len(traj), 2)
        assert traj.safe.shape == (len(traj),)


def _random_states(seed, count=300):
    # joint states away from the singular band |sin q2| < 0.05
    rng = np.random.default_rng(seed)
    states = []
    while len(states) < count:
        q = rng.uniform(-math.pi, math.pi, size=2)
        if abs(math.sin(q[1])) >= 0.05:
            states.append(np.concatenate([q, rng.uniform(-2.0, 2.0, size=2)]))
    return states


def _outcome(step, *args):
    """step(*args), or the type and message of the abort it raises."""
    try:
        return step(*args)
    except (NearSingular, NonFiniteState) as err:
        return type(err).__name__, str(err)


# the stage's accelerations against the torques fed back through the joint
# dynamics, the reference model's dense solve and the reference y, relative to
# 1 + max(|qdd|, |tau|)
EXACT_MODEL_RTOL = 1e-13


def _assert_stage_matches(controller, plant_params, states, dt=1e-3):
    """ArmStage on a plant with parameters plant_params and its own model
    equals, bit for bit, the controller's torques fed to
    ManipulatorPlant.derivative. On the
    controller's own model the stage returns the law's y = J^-1 (a - Jdot qdot),
    which equals those torques fed back and the reference y within
    EXACT_MODEL_RTOL. Either way the acceleration equals the reference
    model's dense solve M^-1 (tau - c - g) within EXACT_MODEL_RTOL, record()
    returns the call's derivative, its row equals the controller's action
    followed by the plant's task state, and its RK4 step equals the generic
    reference step over the stage field, aborts included."""
    stage = ArmStage(controller, plant_params)
    plant = ManipulatorPlant(plant_params)
    exact = plant_params == controller.params
    for x in states:
        q, qd = x[:2], x[2:]
        state = tuple(x.tolist())
        action = controller(0.0, x)
        tau = action["inputs"]
        expected = tuple(plant.derivative(0.0, x, tau).tolist())
        _, _, _, M, c, g = arm_model(plant_params, q, qd)
        references = [np.linalg.solve(M, tau - c - g)]
        derivative = stage(0.0, state)
        if exact:
            assert derivative[:2] == state[2:]
            references += [expected[2:], joint_accel_reference(controller, q, qd)]
        else:
            assert derivative == expected
        scale = 1.0 + max(*np.abs(derivative[2:]), *np.abs(tau))
        for accel in references:
            assert np.abs(np.subtract(derivative[2:], accel)).max() <= EXACT_MODEL_RTOL * scale
        recorded, row = stage.record(0.0, state)
        assert recorded == derivative
        fields = [action[name] for name in ("inputs", "force", "force_safe", "w", "margins")]
        np.testing.assert_array_equal(row, np.concatenate([*fields, *plant.task_state(x)]))
        assert _outcome(stage.step, 0.5, state, dt, derivative) == _outcome(
            rk4_step, stage, 0.5, state, dt, derivative
        )


class TestFusedArmStage:
    """The fused arm stage against the controller's action, the plant's
    forward dynamics and the reference model."""

    @pytest.mark.parametrize("k_safe", [0.0, 0.2, 0.5, 1.5])
    def test_bundled_runs_bit_identical(self, default_bundle, k_safe):
        config = SimConfig(
            dt=default_bundle.config.dt, horizon=default_bundle.config.horizon, x0=default_bundle.x0
        )
        controller = default_bundle.controller(k_safe)
        traj = simulate_closed_loop(controller, default_bundle.params, config)
        assert not traj.failed
        visited = list(traj.states[::10])
        _assert_stage_matches(controller, default_bundle.params, visited + _random_states(41))

    @pytest.mark.parametrize("field, factor", [("m2", 1.1), ("L2", 1.05)])
    def test_mismatched_plant_model(self, default_bundle, field, factor):
        # the plant integrates its own model, not the controller's
        params = default_bundle.params
        plant = replace(params, **{field: factor * getattr(params, field)})
        config = SimConfig(dt=1e-3, horizon=2.0, x0=default_bundle.x0)
        controller = default_bundle.controller(1.5)
        mismatched = simulate_closed_loop(controller, plant, config)
        nominal = simulate_closed_loop(controller, default_bundle.params, config)
        assert np.abs(mismatched.states[-1] - nominal.states[-1]).max() > 1e-6
        visited = list(mismatched.states[::10])
        _assert_stage_matches(controller, plant, visited + _random_states(43))

    @pytest.mark.parametrize(
        "x0, error, length",
        [
            ([0.3, 0.0, 0.0, 0.0], "NearSingular", 0),
            ([0.3, 1.2e-4, 0.0, -0.05], "NearSingular", 1),
            ([0.3, 1e-3, 0.0, -0.05], "NonFiniteState", 3),
            ([0.3, 0.8, 1e160, 0.0], "NonFiniteState", 1),
        ],
    )
    def test_aborts_match(self, default_bundle, x0, error, length):
        config = SimConfig(dt=1e-3, horizon=0.2, x0=np.array(x0))
        controller, params = default_bundle.controller(1.5), default_bundle.params
        traj = simulate_closed_loop(controller, params, config)
        assert traj.meta["failure"]["error"] == error
        assert len(traj) == length
        # the aborted step starts at the failure time
        assert traj.meta["steps"] == round(traj.meta["failure"]["time"] / config.dt)
        if length:
            np.testing.assert_array_equal(traj.states[0], x0)
            # the aborted step, taken alone, aborts as the reference step does
            stage = ArmStage(controller, params)
            t, x = float(traj.t[-1]), tuple(traj.states[-1].tolist())
            k1 = stage(t, x)
            aborted = _outcome(stage.step, t, x, config.dt, k1)
            assert aborted == _outcome(rk4_step, stage, t, x, config.dt, k1)
            assert aborted[0] == error


def _records(bundle):
    """(value records, identity records): every record the bundled
    configuration builds, with a run's SimConfig and Trajectory and one
    verification report with its conditions."""
    config, sub = bundle.config, bundle.subsystems[0]
    cert = sub.certificate
    (_, report), _ = verify_bundle(bundle, grid_resolution=50)
    value = [
        config.manipulator, *config.constraints, *bundle.subsystems, sub.clf, sub.region,
        HalfPlaneUnsafe(cert.shape.d), cert, cert.shape, cert.bounds, report, *report.conditions(),
    ]
    identity = [
        config, bundle, bundle.controller(1.5), SimConfig(dt=1e-3, horizon=0.01, x0=bundle.x0),
        run_case(bundle, 1.5, horizon=0.01),
    ]
    return value, identity


class TestValueEquality:
    def test_pickled_copies_compare_to_a_bool(self, default_bundle):
        import pickle

        config = SimConfig(dt=1e-3, horizon=0.2, x0=default_bundle.x0)
        for obj in (default_bundle.controller(1.5), config):
            copy = pickle.loads(pickle.dumps(obj))
            assert (obj == copy) is False
            assert (obj == obj) is True

    def test_records_are_immutable_but_a_trajectory(self, default_bundle):
        value, identity = _records(default_bundle)
        *frozen, traj = identity
        for record in value + frozen:
            name = record.__slots__[0]
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                delattr(record, name)
        traj.meta = {"k_safe": 0.0}
        assert traj.meta == {"k_safe": 0.0}

    def test_pickle_round_trip(self, default_bundle):
        import pickle

        value, identity = _records(default_bundle)
        for record in value + identity:
            copy = pickle.loads(pickle.dumps(record))
            assert type(copy) is type(record) and repr(copy) == repr(record)
            # a value record's copy is equal; an identity record's is not
            assert (copy == record) is (record in value)
            assert (copy == copy) is True

    def test_equal_value_records_hash_alike(self, default_bundle):
        value, _ = _records(default_bundle)
        again, _ = _records(build_bundle(load_config(default_config_path())))
        for a, b in zip(value, again):
            assert a is not b and a == b and hash(a) == hash(b)


class TestSafetyMonitor:
    """cli.safety_monitor reduces a run to its summary entry and figure series."""

    def _toy_trajectory(self):
        t = np.linspace(0.0, 0.4, 5)
        margins = np.array([[0.5, 0.4], [0.2, 0.3], [-0.1, 0.2], [0.1, 0.2], [0.3, 0.1]])
        w = np.array([[-1.0, -2.0], [-0.5, -1.0], [0.2, -0.5], [-0.2, -0.4], [-0.1, -0.3]])
        force = np.tile([1.0, 0.0], (5, 1))
        force_safe = np.tile([0.5, 0.0], (5, 1))
        return Trajectory(
            t=t,
            states=np.zeros((5, 4)),
            inputs=np.zeros((5, 2)),
            pos=np.zeros((5, 2)),
            vel=np.zeros((5, 2)),
            force=force,
            force_safe=force_safe,
            w=w,
            margins=margins,
            safe=np.all(margins > 0.0, axis=1),
            meta={"k_safe": 1.5, "steps": 4},
        )

    def test_violation_detection(self, default_bundle):
        entry, _ = safety_monitor(default_bundle, self._toy_trajectory())
        assert entry["safe"] is False
        assert entry["min_margin"] == pytest.approx(-0.1)
        assert entry["first_violation_time"] == pytest.approx(0.2)
        goal_distance = np.linalg.norm(default_bundle.config.goal)
        assert entry["final_goal_distance"] == pytest.approx(goal_distance)

    def test_input_norms(self, default_bundle):
        _, series = safety_monitor(default_bundle, self._toy_trajectory())
        np.testing.assert_allclose(series.phi_norm, 0.5 * np.ones(5))
        np.testing.assert_allclose(series.force_safe_norm, 0.5 * np.ones(5))

    def test_constant_goal_run(self, default_bundle):
        from safefl.manipulator import inverse_kinematics
        from safefl.sim import SimConfig, simulate_closed_loop

        q_goal = inverse_kinematics(default_bundle.params, default_bundle.config.goal)
        config = SimConfig(dt=1e-3, horizon=0.5, x0=np.concatenate([q_goal, np.zeros(2)]))
        traj = simulate_closed_loop(default_bundle.controller(1.5), default_bundle.params, config)
        traj.meta["k_safe"] = 1.5
        entry, _ = safety_monitor(default_bundle, traj)
        assert entry["safe"] is True and entry["first_violation_time"] is None
        assert entry["min_margin"] > 0.0
        # stationary run: margins and certificate values constant
        assert np.abs(traj.margins - traj.margins[0]).max() < 1e-9
        assert np.abs(np.diff(traj.w, axis=0)).max() < 1e-6 * config.dt

    def test_rejects_empty_trajectory(self, default_bundle):
        # a start on the singularity aborts before its first record: the
        # run is unsafe and has nothing to plot
        config = SimConfig(dt=1e-3, horizon=0.05, x0=np.array([0.3, 0.0, 0.0, 0.0]))
        traj = simulate_closed_loop(default_bundle.controller(1.5), default_bundle.params, config)
        traj.meta["k_safe"] = 1.5
        assert len(traj) == 0
        entry, series = safety_monitor(default_bundle, traj)
        assert entry["safe"] is False and entry["failure"]["error"] == "NearSingular"
        assert series is None
