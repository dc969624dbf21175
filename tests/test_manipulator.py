import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from reference import (
    arm_model,
    jacobian_det,
    kinetic_energy,
    rk4_step,
    safe_aux_input,
    sontag_universal,
    task_space_terms,
)
from safefl import manipulator
from safefl.clbf import HalfPlaneUnsafe, assemble_weak_clbf
from safefl.errors import NearSingular
from safefl.manipulator import (
    ArmStage,
    ManipulatorParams,
    ManipulatorPlant,
    SafeTaskController,
    forward_kinematics,
    inverse_kinematics,
    jacobian,
    _axis,
    _axis_law,
)
from safefl.scenario import parameter_report, run_case
from safefl.sim import SimConfig, simulate_closed_loop
from tests.conftest import BOX_SUB1

PARAMS = ManipulatorParams(m1=0.8, m2=0.8, L1=1.0, L2=1.0, gravity=9.81)


def _mass(params, q):
    return arm_model(params, q, (0.0, 0.0))[3]


def _coriolis(params, q, qdot):
    return arm_model(params, q, qdot)[4]


def _gravity(params, q):
    return arm_model(params, q, (0.0, 0.0))[5]


def _plant_accel(params, q, qdot, tau):
    """The plant's forward dynamics at joint state (q, qdot) under torque tau."""
    return ManipulatorPlant(params).derivative(0.0, np.concatenate([q, qdot]), tau)[2:]


class TestModelQuantities:
    """Hand-computed M, c and g of the reference model."""

    def test_mass_stretched(self):
        np.testing.assert_allclose(
            _mass(PARAMS, [0.0, 0.0]), [[4.0, 1.6], [1.6, 0.8]], atol=1e-12
        )

    def test_mass_right_angle(self):
        np.testing.assert_allclose(
            _mass(PARAMS, [0.3, math.pi / 2]),
            [[2.4, 0.8], [0.8, 0.8]],
            atol=1e-12,
        )

    def test_mass_lower_corner_constant(self):
        rng = np.random.default_rng(2)
        for q in rng.uniform(-math.pi, math.pi, size=(25, 2)):
            M = _mass(PARAMS, q)
            assert M[1, 1] == pytest.approx(0.8)
            assert M[0, 1] == M[1, 0]

    def test_coriolis_zero_velocity(self):
        np.testing.assert_allclose(
            _coriolis(PARAMS, [0.4, 1.1], [0.0, 0.0]), [0.0, 0.0]
        )

    def test_coriolis_right_angle(self):
        np.testing.assert_allclose(
            _coriolis(PARAMS, [0.0, math.pi / 2], [1.0, 1.0]),
            [-2.4, 0.8],
            atol=1e-12,
        )

    def test_coriolis_straight_arm(self):
        np.testing.assert_allclose(
            _coriolis(PARAMS, [1.2, 0.0], [3.0, -2.0]), [0.0, 0.0], atol=1e-12
        )

    def test_gravity_upright(self):
        np.testing.assert_allclose(
            _gravity(PARAMS, [math.pi / 2, 0.0]), [0.0, 0.0], atol=1e-12
        )

    def test_gravity_horizontal(self):
        np.testing.assert_allclose(
            _gravity(PARAMS, [0.0, 0.0]), [23.544, 7.848], atol=1e-9
        )

    def test_gravity_second_component_depends_on_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q1 = rng.uniform(-2, 2)
            shift = rng.uniform(-1, 1)
            a = _gravity(PARAMS, [q1, 0.7])[1]
            b = _gravity(PARAMS, [q1 + shift, 0.7 - shift])[1]
            assert a == pytest.approx(b, abs=1e-12)


# the stretched arm at rest: g = (23.544, 7.848), M = [[4, 1.6], [1.6, 0.8]]
_G_STRETCHED = np.array([23.544, 7.848])
_M_STRETCHED = np.array([[4.0, 1.6], [1.6, 0.8]])


def _dense_accel(params, q, qdot, tau):
    """M^-1 (tau - c - g) of the reference model by a dense solve."""
    _, _, _, M, c, g = arm_model(params, q, qdot)
    return np.linalg.solve(M, np.asarray(tau, dtype=float) - c - g)


class TestForwardDynamics:
    """The hand-computed M and g pin the plant's forward dynamics and the
    reference model's: gravity torque holds the stretched arm at rest, and
    tau = g + M e_i accelerates it by e_i."""

    @pytest.mark.parametrize("accel", [_plant_accel, _dense_accel])
    def test_gravity_torque_holds_the_arm(self, accel):
        qdd = accel(PARAMS, np.zeros(2), np.zeros(2), _G_STRETCHED)
        np.testing.assert_allclose(qdd, [0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("accel", [_plant_accel, _dense_accel])
    def test_unit_accelerations(self, accel):
        for e in np.eye(2):
            qdd = accel(PARAMS, np.zeros(2), np.zeros(2), _G_STRETCHED + _M_STRETCHED @ e)
            np.testing.assert_allclose(qdd, e, atol=1e-12)


class TestParamsValidation:
    @pytest.mark.parametrize("field", ["m1", "m2", "L1", "L2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_masses_and_lengths(self, field, value):
        with pytest.raises(ValueError):
            replace(PARAMS, **{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_gravity(self, value):
        with pytest.raises(ValueError):
            replace(PARAMS, gravity=value)


class TestKinematics:
    def test_forward_cases(self):
        np.testing.assert_allclose(forward_kinematics(PARAMS, [0.0, 0.0]), [2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(
            forward_kinematics(PARAMS, [math.pi / 2, 0.0]), [0.0, 2.0], atol=1e-12
        )
        np.testing.assert_allclose(
            forward_kinematics(PARAMS, [0.0, math.pi / 2]), [1.0, 1.0], atol=1e-12
        )

    def test_reach_bound(self):
        rng = np.random.default_rng(5)
        for q in rng.uniform(-math.pi, math.pi, size=(50, 2)):
            assert np.linalg.norm(forward_kinematics(PARAMS, q)) <= 2.0 + 1e-12

    def test_jacobian_case(self):
        J = jacobian(PARAMS, [0.0, math.pi / 2])
        np.testing.assert_allclose(J, [[-1.0, -1.0], [1.0, 0.0]], atol=1e-12)
        assert np.linalg.det(J) == pytest.approx(1.0)

    def test_jacobian_determinant_closed_form(self):
        rng = np.random.default_rng(7)
        for q in rng.uniform(-math.pi, math.pi, size=(50, 2)):
            J = jacobian(PARAMS, q)
            assert np.linalg.det(J) == pytest.approx(jacobian_det(PARAMS, q), abs=1e-12)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for q in rng.uniform(-math.pi, math.pi, size=(100, 2)):
            J = jacobian(PARAMS, q)
            for j in range(2):
                dq = np.zeros(2)
                dq[j] = h
                fd = (
                    forward_kinematics(PARAMS, q + dq)
                    - forward_kinematics(PARAMS, q - dq)
                ) / (2 * h)
                np.testing.assert_allclose(J[:, j], fd, atol=1e-6)

    def test_jacobian_dot_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        h = 1e-6
        for _ in range(100):
            q = rng.uniform(-math.pi, math.pi, size=2)
            qd = rng.uniform(-2, 2, size=2)
            fd = (jacobian(PARAMS, q + h * qd) - jacobian(PARAMS, q - h * qd)) / (2 * h)
            np.testing.assert_allclose(arm_model(PARAMS, q, qd)[2], fd, atol=1e-6)

    def test_jacobian_dot_zero_velocity(self):
        np.testing.assert_allclose(
            arm_model(PARAMS, [0.7, -0.4], [0.0, 0.0])[2], np.zeros((2, 2)), atol=1e-15
        )

    def test_inverse_kinematics_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            radius = rng.uniform(0.3, 1.9)
            angle = rng.uniform(-math.pi, math.pi)
            p = radius * np.array([math.cos(angle), math.sin(angle)])
            for elbow in ("up", "down"):
                q = inverse_kinematics(PARAMS, p, elbow)
                np.testing.assert_allclose(forward_kinematics(PARAMS, q), p, atol=1e-9)
        q_up = inverse_kinematics(PARAMS, [1.0, 0.4], "up")
        assert q_up[1] > 0.0

    def test_inverse_kinematics_unreachable(self):
        with pytest.raises(ValueError):
            inverse_kinematics(PARAMS, [2.5, 0.0])

    def test_plant_task_state(self):
        q, qdot = np.array([0.2, 1.1]), np.array([0.5, -0.3])
        p, v = ManipulatorPlant(PARAMS).task_state(np.concatenate([q, qdot]))
        np.testing.assert_allclose(p, forward_kinematics(PARAMS, q))
        np.testing.assert_allclose(v, jacobian(PARAMS, q) @ qdot)


class TestTaskSpaceTerms:
    def test_reassembly_identity(self):
        rng = np.random.default_rng(19)
        count = 0
        while count < 1000:
            q = rng.uniform(-math.pi, math.pi, size=2)
            if abs(math.sin(q[1])) < 0.05:
                continue
            qd = rng.uniform(-2, 2, size=2)
            m_p, _, _ = task_space_terms(PARAMS, q, qd)
            J = jacobian(PARAMS, q)
            np.testing.assert_allclose(
                J.T @ m_p @ J, _mass(PARAMS, q), atol=1e-9
            )
            count += 1

    def test_velocity_terms_vanish_at_rest(self):
        _, c_p, _ = task_space_terms(PARAMS, [0.5, 1.2], [0.0, 0.0])
        np.testing.assert_allclose(c_p, [0.0, 0.0], atol=1e-12)

    def test_singular_configuration_rejected(self, default_bundle):
        # the law refuses a pose with |det J| = L1 L2 |sin q2| at or below
        # the arm's threshold 1e-4 L1 L2, and acts just above it
        stage = ArmStage(default_bundle.controller(0.0), PARAMS)
        threshold = PARAMS.singularity_threshold
        for q2 in (0.0, 0.5 * threshold, -0.5 * threshold):
            with pytest.raises(NearSingular):
                stage(0.0, (0.3, q2, 0.0, 0.0))
        assert all(map(math.isfinite, stage(0.0, (0.3, 2.0 * threshold, 0.0, 0.0))))

    def test_mass_positive_definite(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            q = rng.uniform(-math.pi, math.pi, size=2)
            if abs(math.sin(q[1])) < 0.05:
                continue
            m_p, _, _ = task_space_terms(PARAMS, q, [0.0, 0.0])
            ev = np.linalg.eigvalsh(0.5 * (m_p + m_p.T))
            assert np.all(ev > 0.0)


class TestDynamicsConsistency:
    def test_joint_accel_against_dense_solve(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            q = rng.uniform(-math.pi, math.pi, size=2)
            qd = rng.uniform(-3, 3, size=2)
            tau = rng.uniform(-10, 10, size=2)
            np.testing.assert_allclose(
                _plant_accel(PARAMS, q, qd, tau), _dense_accel(PARAMS, q, qd, tau), atol=1e-12
            )

    def test_energy_conserved_without_gravity_and_torque(self):
        # checks that the mass matrix and velocity coupling are consistent
        params = ManipulatorParams(m1=0.8, m2=0.8, L1=1.0, L2=1.0, gravity=0.0)
        plant = ManipulatorPlant(params)
        torque_free = lambda t, x: plant.derivative(t, x, (0.0, 0.0))
        x = (0.3, 0.8, 0.4, -0.3)
        energy = [kinetic_energy(params, x[:2], x[2:])]
        for step in range(10000):
            x = rk4_step(torque_free, step * 1e-3, x, 1e-3)
            energy.append(kinetic_energy(params, x[:2], x[2:]))
        drift = np.abs(np.array(energy) - energy[0]).max() / energy[0]
        assert drift < 1e-6


def _scenario_controller(bundle, k_safe):
    return bundle.controller(k_safe)


def _gain_controller(**fields):
    """A SafeTaskController on PARAMS with unconstrained axes, the fields
    given replacing its defaults."""
    defaults = {
        "kp": [1.5, 1.0], "kd": [1.0, 1.0], "k_safe": [1.5, 1.5],
        "certificates": [None, None],
    }
    return SafeTaskController(PARAMS, goal=[0.3, 1.0], signs=[1.0, -1.0], **{**defaults, **fields})


class TestGainSchedule:
    """The per-axis gains kp, kd and k_safe that SafeTaskController holds
    and checks at construction."""

    def test_gain_validation(self):
        kp = np.array([1.5, 1.0])
        controller = _gain_controller(kp=kp, k_safe=0.5 * np.ones(2))
        kp[0] = 9.0  # the controller holds its own float copies
        assert controller.kp.tolist() == [1.5, 1.0]
        assert controller.k_safe.dtype == float
        cases = [
            ({"kp": [1.0, -1.0]}, "kp and kd must be positive"),
            ({"kd": [1.0, 0.0]}, "kp and kd must be positive"),
            ({"kp": [1.0]}, "per task axis"),
            ({"k_safe": [0.5, 0.5, 0.5]}, "per task axis"),
            ({"certificates": [None]}, "per task axis"),
            ({"k_safe": [-0.5, 0.0]}, "k_safe must be non-negative"),
        ]
        for gains, message in cases:
            with pytest.raises(ValueError, match=message):
                _gain_controller(**gains)

    @pytest.mark.parametrize("name", ["kp", "kd", "k_safe"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_gains(self, name, value):
        # a NaN k_safe would fail k_safe > 0 and silently switch the safety
        # input off
        gains = {"kp": [1.5, 1.0], "kd": [1.0, 1.0], "k_safe": [1.5, 1.5]}
        gains[name] = [value, gains[name][1]]
        with pytest.raises(ValueError, match="gains must be finite"):
            _gain_controller(**gains)


class TestSafeTaskController:
    def test_gravity_compensation_at_goal(self, default_bundle):
        controller = _scenario_controller(default_bundle, 0.0)
        q_goal = inverse_kinematics(PARAMS, default_bundle.config.goal)
        action = controller(0.0, np.concatenate([q_goal, np.zeros(2)]))
        _, _, g_p = task_space_terms(PARAMS, q_goal, np.zeros(2))
        np.testing.assert_allclose(action["force"], g_p, atol=1e-9)
        np.testing.assert_allclose(action["force_safe"], np.zeros(2), atol=1e-12)

    def test_zero_safety_gain_reduces_to_plain_law(self, default_bundle):
        plain = _scenario_controller(default_bundle, 0.0)
        lifted = _scenario_controller(default_bundle, 1.5)
        x = np.array([-0.4, 1.8, 0.5, -0.7])
        a0 = plain(0.0, x)
        a1 = lifted(0.0, x)
        np.testing.assert_allclose(a0["force_safe"], np.zeros(2), atol=1e-12)
        np.testing.assert_allclose(a1["force"] - a1["force_safe"], a0["force"], atol=1e-9)

    def test_initial_error_coordinates(self, default_bundle):
        # state map at the bundled initial condition: x1 = (-0.7, -0.6),
        # x2 = (-1.5, -2.5) for p = (1.0, 0.4), v = (1.5, -2.5), goal (0.3, 1.0)
        subs = default_bundle.subsystems
        assert subs[0].xbar0 == pytest.approx((-0.7, -1.5))
        assert subs[1].xbar0 == pytest.approx((-0.6, -2.5))

    def test_matches_composed_pipeline(self, default_bundle):
        # the computed-torque kernel must agree with the task-space law
        # composed from the reference model's M_p, c_p and g_p
        controller = _scenario_controller(default_bundle, 1.5)
        signs = default_bundle.signs
        goal = default_bundle.config.goal
        kp, kd, k_safe = controller.kp, controller.kd, controller.k_safe
        certs = default_bundle.certificates
        rng = np.random.default_rng(31)
        for _ in range(50):
            q = rng.uniform(-math.pi, math.pi, size=2)
            if abs(math.sin(q[1])) < 0.05:
                continue
            qd = rng.uniform(-2, 2, size=2)
            action = controller(0.0, np.concatenate([q, qd]))

            m_p, c_p, g_p = task_space_terms(PARAMS, q, qd)
            p, J, _, _, _, _ = arm_model(PARAMS, q, qd)
            v = J @ qd
            x1 = signs * (p - goal)
            x2 = signs * v
            acc = -kp * x1 - kd * x2
            a_safe = np.array(
                [safe_aux_input(certs[i], (x1[i], x2[i]), kp[i], kd[i], k_safe[i]) for i in (0, 1)]
            )
            force_safe = m_p @ (signs * a_safe)
            force = m_p @ (signs * acc) + c_p + g_p + force_safe
            tau = J.T @ force
            np.testing.assert_allclose(action["force"], force, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(action["force_safe"], force_safe, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(action["inputs"], tau, rtol=1e-9, atol=1e-9)

    def test_initial_state_diagnostics(self, default_bundle):
        action = _scenario_controller(default_bundle, 1.5)(0.0, default_bundle.x0)
        np.testing.assert_allclose(
            action["inputs"], jacobian(PARAMS, default_bundle.q0).T @ action["force"], rtol=1e-12
        )
        np.testing.assert_allclose(
            action["w"], parameter_report(default_bundle)["initial_w"], rtol=1e-9
        )

    def test_call_reads_the_recorded_row(self, default_bundle):
        # the call's names are the layout's, and its values are the
        # simulator's record at the same state, bit for bit
        controller = _scenario_controller(default_bundle, 1.5)
        config = SimConfig(dt=1e-3, horizon=0.3, x0=default_bundle.x0)
        traj = simulate_closed_loop(controller, default_bundle.params, config)
        assert not traj.failed
        for i in (0, 137, len(traj) - 1):
            action = controller(float(traj.t[i]), traj.states[i])
            assert list(action) == [name for name, _ in ArmStage.layout]
            for name, values in action.items():
                assert _bits(values) == _bits(getattr(traj, name)[i])

    def test_singularity_propagates(self, default_bundle):
        controller = _scenario_controller(default_bundle, 0.0)
        with pytest.raises(NearSingular):
            controller(0.0, np.array([0.3, 0.0, 0.0, 0.0]))


def _bits(values):
    """The IEEE bit patterns of values: equal bits, equal floats, with signed
    zeros told apart and NaN equal to itself."""
    return np.array(values, dtype=float).view(np.uint64).tolist()


def _composed_axis_law(cert, axis, p, v):
    """_axis_law's outputs composed from WeakCLBF.value_and_grad and the
    reference universal formula."""
    sign, goal, kp, kd, k_safe = axis[:5]
    x1 = sign * (p - goal)
    x2 = sign * v
    acc = -kp * x1 - kd * x2
    if cert is None:
        return sign * acc, 0.0, math.nan, math.inf
    w, g1, g2 = cert.value_and_grad(x1, x2)
    safe = k_safe * sontag_universal(g1 * x2 + g2 * acc, g2) if k_safe > 0.0 else 0.0
    return sign * (acc + safe), sign * safe, w, x1 - cert.shape.d


def _clamped_certificate(p_sub1):
    # l = 600, far above the slope bound 2 / x1_max = 4, puts
    # l (x1 - center) beyond the +-700 exponent clamp at x1 = 0.5 and -2.5
    return assemble_weak_clbf(
        p_sub1, BOX_SUB1, HalfPlaneUnsafe(-1.0), v2=2.0, l=600.0, delta=0.1, theta=50.0,
        enforce_bounds=False,
    )


class TestAxisLaw:
    """The law's certificate, gradient and universal formula, written from
    plain floats, against WeakCLBF.value_and_grad (with sigmoid_eval) and the
    reference universal formula, bit for bit."""

    @pytest.mark.parametrize("k_safe", [0.0, 0.2, 0.5, 1.5])
    def test_stage_matches_composed_law(self, default_bundle, monkeypatch, k_safe):
        controller = default_bundle.controller(k_safe)
        per_axis = zip(
            controller.signs, controller.goal, controller.kp, controller.kd, controller.k_safe,
            controller.certificates,
        )
        certs = {_axis(*row): row[-1] for row in per_axis}
        traj = run_case(default_bundle, k_safe)
        assert not traj.failed
        # the visited states and 300 random ones away from |sin q2| < 0.05
        rng = np.random.default_rng(47)
        states = traj.states[::10].tolist()
        random = rng.uniform([-math.pi, -math.pi, -2.0, -2.0], [math.pi, math.pi, 2.0, 2.0], (400, 4))
        states += random[np.abs(np.sin(random[:, 1])) >= 0.05][:300].tolist()
        stage = ArmStage(controller, default_bundle.params)
        records = [stage.record(0.0, x) for x in states]
        fields = [stage(0.0, x) for x in states]
        monkeypatch.setattr(
            manipulator,
            "_axis_law",
            lambda axis, p, v, diagnostics: _composed_axis_law(certs[axis], axis, p, v),
        )
        expected = [stage.record(0.0, x) for x in states]
        assert _bits([d for d, _ in records]) == _bits([d for d, _ in expected])
        # the w and force_safe columns, and every other column with them
        assert _bits([row for _, row in records]) == _bits([row for _, row in expected])
        assert _bits(fields) == _bits([d for d, _ in expected])

    def test_sigmoid_clamp(self, p_sub1):
        cert = _clamped_certificate(p_sub1)
        axis = _axis(1.0, 0.0, 1.5, 1.0, 1.0, cert)
        for x1 in (-2.5, 0.5):
            assert abs(cert.shape.l * (x1 - cert.shape.center)) > 700.0
            for x2 in (-1.5, 0.3, 2.0):
                law = _axis_law(axis, x1, x2, False)
                assert _bits(law) == _bits(_composed_axis_law(cert, axis, x1, x2))
                assert all(map(math.isfinite, law))

    def test_deadzone_gives_zero_safety_input(self, table_cert_sub1):
        # on the line x2 = -c x1, dW/dx2 vanishes up to rounding
        cert = table_cert_sub1
        axis = _axis(1.0, 0.0, 1.5, 1.0, 1.0, cert)
        c = cert.line_slope
        for x1 in (0.0, -0.8, -0.3, 0.2, 0.4):
            x2 = -c * x1
            _, g1, g2 = cert.value_and_grad(x1, x2)
            a = g1 * x2 + g2 * (-1.5 * x1 - 1.0 * x2)
            assert abs(g2) < 1e-12 * (1.0 + abs(a))
            law = _axis_law(axis, x1, x2, False)
            assert law[1] == 0.0
            assert _bits(law) == _bits(_composed_axis_law(cert, axis, x1, x2))

    def test_unconstrained_axis(self):
        axis = _axis(-1.0, 0.3, 1.5, 1.0, 1.0, None)
        for diagnostics in (False, True):
            a, a_safe, w, margin = _axis_law(axis, 0.9, -0.4, diagnostics)
            assert a == -1.0 * (-1.5 * (-1.0 * (0.9 - 0.3)) - 1.0 * (-1.0 * -0.4))
            assert a_safe == 0.0
            assert math.isnan(w)
            assert margin == math.inf

    def test_step_call_budget(self, default_bundle):
        # one RK4 step is one step call, three stage kernels and two axis
        # laws per stage: 10 Python calls
        calls = _step_profile(default_bundle, "call")
        assert len(calls) <= 10, [frame.f_code.co_name for frame, _ in calls]

    def test_step_trig_budget(self, default_bundle):
        # on the controller's own model a stage takes sin and cos of q1 and
        # q1 + q2 only, and forms no torque: 4 per stage, 12 per step
        calls = _step_profile(default_bundle, "c_call")
        trig = [fn.__name__ for _, fn in calls if fn in (math.sin, math.cos)]
        assert len(trig) <= 12, trig


def _step_profile(bundle, kind):
    """(frame, arg) of each profile event of one kind during one exact-model
    ArmStage.step at k_safe 1.5 from the bundled start, k1 passed in."""
    stage = ArmStage(bundle.controller(1.5), bundle.params)
    x = tuple(bundle.x0.tolist())
    k1 = stage(0.0, x)
    events = []

    def profile(frame, event, arg):
        if event == kind:
            events.append((frame, arg))

    sys.setprofile(profile)
    try:
        stage.step(0.0, x, 1e-3, k1)
    finally:
        sys.setprofile(None)
    return events


class TestTaskJointAgreement:
    def test_task_space_and_joint_space_runs_agree(self, default_bundle):
        # the linearized loop makes each error coordinate an exact decoupled
        # subsystem; integrating those directly must reproduce the Cartesian
        # trajectory of the full joint-space simulation
        k_safe = 1.5
        horizon = 5.0
        joint = simulate_closed_loop(
            default_bundle.controller(k_safe),
            default_bundle.params,
            SimConfig(dt=1e-3, horizon=horizon, x0=default_bundle.x0),
        )
        assert not joint.failed

        for i, sub in enumerate(default_bundle.subsystems):

            def error_loop(t, x, sub=sub):
                aux = safe_aux_input(sub.certificate, (x[0], x[1]), sub.kp, sub.kd, k_safe)
                return (x[1], -sub.kp * x[0] - sub.kd * x[1] + aux)

            x = tuple(sub.xbar0)
            x1 = [x[0]]
            for step in range(len(joint) - 1):
                x = rk4_step(error_loop, step * 1e-3, x, 1e-3)
                x1.append(x[0])
            p_ref = default_bundle.config.goal[i] + sub.sign * np.array(x1)
            np.testing.assert_allclose(joint.pos[:, i], p_ref, atol=1e-4)
