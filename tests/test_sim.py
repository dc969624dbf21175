import math

import numpy as np
import pytest
from scipy.linalg import expm

from safefl.errors import NearSingular, NonFiniteState
from safefl.manipulator import ArmStage, ManipulatorPlant
from safefl.scenario import run_case
from safefl.sim import (
    SimConfig,
    Trajectory,
    rk4_step,
    safety_monitor,
    simulate_closed_loop,
)
from tests.conftest import DecoupledSubsystemPlant, zero_controller


class FragilePlant(DecoupledSubsystemPlant):
    def derivative(self, t, x, u):
        if t > 0.05:
            raise NearSingular("synthetic singularity")
        return super().derivative(t, x, u)


class TestRk4Step:
    def test_exponential_decay(self):
        x = rk4_step(lambda t, x: -x, 0.0, np.array([1.0]), 0.1)
        assert x[0] == pytest.approx(math.exp(-0.1), abs=1e-7)

    def test_zero_field(self):
        x0 = np.array([0.3, -0.7])
        np.testing.assert_array_equal(rk4_step(lambda t, x: np.zeros(2), 0.0, x0, 0.1), x0)

    def test_constant_field(self):
        x = rk4_step(lambda t, x: np.ones(1), 0.0, np.array([2.0]), 0.25)
        assert x[0] == pytest.approx(2.25)

    def test_fourth_order_convergence(self):
        # error ratio between step sizes h and h/2 approaches 2^5 locally
        field = lambda t, x: np.array([x[0] * math.sin(t + 1.0)])
        exact = math.exp(math.cos(1.0) - math.cos(1.1))
        err_h = abs(rk4_step(field, 0.0, np.array([1.0]), 0.1)[0] - exact)
        exact_half = math.exp(math.cos(1.0) - math.cos(1.05))
        err_half = abs(rk4_step(field, 0.0, np.array([1.0]), 0.05)[0] - exact_half)
        assert err_h / err_half > 16.0

    def test_non_finite_detection(self):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteState):
            rk4_step(lambda t, x: x ** 3, 0.0, np.array([1e200]), 1.0)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0, horizon=1.0, x0=np.zeros(2))
        with pytest.raises(ValueError):
            SimConfig(dt=0.02, horizon=1.0, x0=np.zeros(2))
        with pytest.raises(ValueError):
            SimConfig(dt=1e-3, horizon=0.0, x0=np.zeros(2))
        with pytest.raises(ValueError):
            SimConfig(dt=1e-3, horizon=1.0, x0=np.zeros(2), record_stride=0)

    def test_step_count(self):
        config = SimConfig(dt=1e-3, horizon=1.0, x0=np.zeros(2))
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
        assert SimConfig(dt=dt, horizon=horizon, x0=np.zeros(2)).n_steps == steps


class TestSimulateClosedLoop:
    def test_matches_matrix_exponential(self):
        plant = DecoupledSubsystemPlant(kp=1.0, kd=1.0)
        config = SimConfig(dt=1e-3, horizon=1.0, x0=np.array([1.0, 0.0]))
        traj = simulate_closed_loop(plant, zero_controller(), config)
        assert len(traj) == 1001
        A = np.array([[0.0, 1.0], [-1.0, -1.0]])
        expected = expm(A * 1.0) @ np.array([1.0, 0.0])
        np.testing.assert_allclose(traj.states[-1], expected, atol=1e-6)

    def test_time_grid(self):
        plant = DecoupledSubsystemPlant(kp=1.0, kd=1.0)
        config = SimConfig(dt=1e-3, horizon=0.25, x0=np.zeros(2))
        traj = simulate_closed_loop(plant, zero_controller(), config)
        assert traj.t[0] == 0.0
        assert traj.t[-1] == pytest.approx(0.25)
        assert np.all(np.diff(traj.t) > 0.0)

    def test_record_stride(self):
        plant = DecoupledSubsystemPlant(kp=1.0, kd=1.0)
        config = SimConfig(dt=1e-3, horizon=0.2, x0=np.array([1.0, 0.0]), record_stride=10)
        traj = simulate_closed_loop(plant, zero_controller(), config)
        assert len(traj) == 21
        assert traj.t[1] == pytest.approx(0.01)
        assert traj.meta["steps"] == 200

    def test_determinism(self):
        plant = DecoupledSubsystemPlant(kp=1.3, kd=0.7)
        config = SimConfig(dt=1e-3, horizon=0.5, x0=np.array([0.4, -0.2]))
        a = simulate_closed_loop(plant, zero_controller(), config)
        b = simulate_closed_loop(plant, zero_controller(), config)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.t, b.t)

    def test_abort_returns_partial_trajectory(self):
        plant = FragilePlant(kp=1.0, kd=1.0)
        config = SimConfig(dt=1e-3, horizon=1.0, x0=np.array([1.0, 0.0]))
        traj = simulate_closed_loop(plant, zero_controller(), config)
        assert traj.failed
        assert traj.meta["failure"]["error"] == "NearSingular"
        assert 0 < len(traj) < 1001
        assert traj.t[-1] <= 0.052

    def test_steps_on_abort(self):
        # step 50 starts at t = 0.05 and fails at its second stage
        config = SimConfig(dt=1e-3, horizon=1.0, x0=np.array([1.0, 0.0]), record_stride=10)
        traj = simulate_closed_loop(FragilePlant(kp=1.0, kd=1.0), zero_controller(), config)
        assert traj.failed
        assert traj.meta["steps"] == 50
        assert len(traj) == 6

    def test_divergence_aborts(self):
        class ExplodingPlant:
            state_dim = 1

            def derivative(self, t, x, u):
                return x ** 3

        config = SimConfig(dt=1e-2, horizon=5.0, x0=np.array([5.0]))
        with np.errstate(over="ignore"):
            traj = simulate_closed_loop(ExplodingPlant(), zero_controller(), config)
        assert traj.failed
        assert traj.meta["failure"]["error"] == "NonFiniteState"


class TestScenarioIntegration:
    def test_goal_equilibrium_is_stationary(self, default_bundle):
        from safefl.manipulator import inverse_kinematics

        q_goal = inverse_kinematics(default_bundle.params, default_bundle.config.goal)
        x0 = np.concatenate([q_goal, np.zeros(2)])
        config = SimConfig(dt=1e-3, horizon=2.0, x0=x0)
        traj = simulate_closed_loop(
            default_bundle.plant(), default_bundle.controller(1.5), config
        )
        drift = np.abs(traj.pos - default_bundle.config.goal).max()
        assert drift < 1e-6

    def test_halving_step_leaves_endpoint_unchanged(self, default_bundle):
        coarse = run_case(default_bundle, 1.5, dt=1e-3)
        fine = run_case(default_bundle, 1.5, dt=5e-4)
        assert np.abs(coarse.pos[-1] - fine.pos[-1]).max() < 1e-6

    def test_run_case_meta(self, default_bundle):
        traj = run_case(default_bundle, 0.5, horizon=0.05)
        assert traj.meta["k_safe"] == 0.5
        assert traj.w is not None and traj.safe is not None
        assert traj.pos is not None and traj.force_safe is not None


def _unfused(controller):
    # a plain callable has no closed_loop_stage, so the simulator falls back
    # to the generic plant/controller stage
    return lambda t, x: controller(t, x)


_DIAGNOSTICS = ("t", "states", "inputs", "force", "force_safe", "w", "margins", "safe")


class TestFusedArmStage:
    """The fused arm stage against the generic (plant, controller) stage."""

    def test_arm_pair_uses_fused_stage(self, default_bundle):
        stage = default_bundle.controller(1.5).closed_loop_stage(default_bundle.plant())
        assert isinstance(stage, ArmStage)

        class CustomPlant(ManipulatorPlant):
            pass

        assert default_bundle.controller(1.5).closed_loop_stage(CustomPlant(default_bundle.params)) is None

    @pytest.mark.parametrize("k_safe", [0.0, 0.2, 0.5, 1.5])
    def test_bundled_runs_bit_identical(self, default_bundle, k_safe):
        config = SimConfig(
            dt=default_bundle.config.dt, horizon=default_bundle.config.horizon, x0=default_bundle.x0
        )
        controller = default_bundle.controller(k_safe)
        fused = simulate_closed_loop(default_bundle.plant(), controller, config)
        generic = simulate_closed_loop(default_bundle.plant(), _unfused(controller), config)
        assert not fused.failed and not generic.failed
        for name in _DIAGNOSTICS:
            np.testing.assert_array_equal(getattr(fused, name), getattr(generic, name), err_msg=name)
        np.testing.assert_allclose(fused.pos, generic.pos, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(fused.vel, generic.vel, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("field, factor", [("m2", 1.1), ("L2", 1.05)])
    def test_mismatched_plant_model(self, default_bundle, field, factor):
        # the plant integrates its own model, not the controller's
        from dataclasses import replace

        params = default_bundle.params
        plant = ManipulatorPlant(replace(params, **{field: factor * getattr(params, field)}))
        config = SimConfig(dt=1e-3, horizon=2.0, x0=default_bundle.x0)
        controller = default_bundle.controller(1.5)
        fused = simulate_closed_loop(plant, controller, config)
        generic = simulate_closed_loop(plant, _unfused(controller), config)
        nominal = simulate_closed_loop(default_bundle.plant(), controller, config)
        for name in _DIAGNOSTICS:
            np.testing.assert_array_equal(getattr(fused, name), getattr(generic, name), err_msg=name)
        assert np.abs(fused.states[-1] - nominal.states[-1]).max() > 1e-6
        pos = np.empty_like(fused.pos)
        vel = np.empty_like(fused.vel)
        for i, state in enumerate(fused.states):
            pos[i], vel[i] = plant.task_state(state)
        np.testing.assert_allclose(fused.pos, pos, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(fused.vel, vel, rtol=0.0, atol=1e-12)

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
        controller = default_bundle.controller(1.5)
        fused = simulate_closed_loop(default_bundle.plant(), controller, config)
        generic = simulate_closed_loop(default_bundle.plant(), _unfused(controller), config)
        assert fused.meta["failure"]["error"] == error
        assert fused.meta["failure"] == generic.meta["failure"]
        assert len(fused) == len(generic) == length
        # the aborted step starts at the failure time
        steps = round(fused.meta["failure"]["time"] / config.dt)
        assert fused.meta["steps"] == generic.meta["steps"] == steps
        np.testing.assert_array_equal(fused.states, generic.states)


class TestValueEquality:
    def test_pickled_copies_compare_to_a_bool(self, default_bundle):
        import pickle

        config = SimConfig(dt=1e-3, horizon=0.2, x0=default_bundle.x0)
        for obj in (default_bundle.controller(1.5), config, default_bundle.gain_schedule(1.5)):
            copy = pickle.loads(pickle.dumps(obj))
            assert (obj == copy) is False
            assert (obj == obj) is True


class TestSafetyMonitor:
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
        )

    def test_violation_detection(self):
        report = safety_monitor(self._toy_trajectory())
        assert report.min_margin == pytest.approx(-0.1)
        assert report.first_violation_time == pytest.approx(0.2)
        np.testing.assert_allclose(report.min_margin_per_constraint, [-0.1, 0.1])

    def test_certificate_crossing_detection(self):
        report = safety_monitor(self._toy_trajectory())
        assert report.w_crossing_times[0] == pytest.approx(0.2)
        assert report.w_crossing_times[1] is None

    def test_rate_estimates(self):
        report = safety_monitor(self._toy_trajectory())
        assert report.w_dot.shape == (4, 2)
        assert report.w_dot[0, 0] == pytest.approx(0.5 / 0.1)

    def test_input_norms(self):
        report = safety_monitor(self._toy_trajectory())
        np.testing.assert_allclose(report.phi_norm, 0.5 * np.ones(5))
        np.testing.assert_allclose(report.force_safe_norm, 0.5 * np.ones(5))

    def test_constant_goal_run(self, default_bundle):
        from safefl.manipulator import inverse_kinematics
        from safefl.sim import SimConfig, simulate_closed_loop

        q_goal = inverse_kinematics(default_bundle.params, default_bundle.config.goal)
        traj = simulate_closed_loop(
            default_bundle.plant(),
            default_bundle.controller(1.5),
            SimConfig(dt=1e-3, horizon=0.5, x0=np.concatenate([q_goal, np.zeros(2)])),
        )
        report = safety_monitor(traj)
        assert report.first_violation_time is None
        assert report.min_margin > 0.0
        # stationary run: margins constant, certificate rates ~ 0
        assert np.abs(traj.margins - traj.margins[0]).max() < 1e-9
        assert np.abs(report.w_dot).max() < 1e-6

    def test_requires_diagnostics(self):
        plant = DecoupledSubsystemPlant(kp=1.0, kd=1.0)
        config = SimConfig(dt=1e-3, horizon=0.05, x0=np.array([1.0, 0.0]))
        traj = simulate_closed_loop(plant, zero_controller(), config)
        with pytest.raises(ValueError):
            safety_monitor(traj)
