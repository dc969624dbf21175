import math

import numpy as np
import pytest

from reference import arm_model, rk4_step, task_space_terms
from safefl.errors import NearSingular
from safefl.manipulator import (
    ArmStage,
    GainSchedule,
    ManipulatorParams,
    ManipulatorPlant,
    coriolis_vector,
    forward_kinematics,
    gravity_vector,
    inverse_kinematics,
    jacobian,
    jacobian_det,
    jacobian_dot,
    joint_accel,
    kinetic_energy,
    mass_matrix,
)
from safefl.sim import SimConfig, simulate_closed_loop
from safefl.sontag import safe_aux_input

PARAMS = ManipulatorParams(m1=0.8, m2=0.8, L1=1.0, L2=1.0, gravity=9.81)


class TestModelQuantities:
    def test_mass_stretched(self):
        np.testing.assert_allclose(
            mass_matrix(PARAMS, [0.0, 0.0]), [[4.0, 1.6], [1.6, 0.8]], atol=1e-12
        )

    def test_mass_right_angle(self):
        np.testing.assert_allclose(
            mass_matrix(PARAMS, [0.3, math.pi / 2]),
            [[2.4, 0.8], [0.8, 0.8]],
            atol=1e-12,
        )

    def test_mass_lower_corner_constant(self):
        rng = np.random.default_rng(2)
        for q in rng.uniform(-math.pi, math.pi, size=(25, 2)):
            M = mass_matrix(PARAMS, q)
            assert M[1, 1] == pytest.approx(0.8)
            assert M[0, 1] == M[1, 0]

    def test_coriolis_zero_velocity(self):
        np.testing.assert_allclose(
            coriolis_vector(PARAMS, [0.4, 1.1], [0.0, 0.0]), [0.0, 0.0]
        )

    def test_coriolis_right_angle(self):
        np.testing.assert_allclose(
            coriolis_vector(PARAMS, [0.0, math.pi / 2], [1.0, 1.0]),
            [-2.4, 0.8],
            atol=1e-12,
        )

    def test_coriolis_straight_arm(self):
        np.testing.assert_allclose(
            coriolis_vector(PARAMS, [1.2, 0.0], [3.0, -2.0]), [0.0, 0.0], atol=1e-12
        )

    def test_gravity_upright(self):
        np.testing.assert_allclose(
            gravity_vector(PARAMS, [math.pi / 2, 0.0]), [0.0, 0.0], atol=1e-12
        )

    def test_gravity_horizontal(self):
        np.testing.assert_allclose(
            gravity_vector(PARAMS, [0.0, 0.0]), [23.544, 7.848], atol=1e-9
        )

    def test_gravity_second_component_depends_on_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q1 = rng.uniform(-2, 2)
            shift = rng.uniform(-1, 1)
            a = gravity_vector(PARAMS, [q1, 0.7])[1]
            b = gravity_vector(PARAMS, [q1 + shift, 0.7 - shift])[1]
            assert a == pytest.approx(b, abs=1e-12)


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
            np.testing.assert_allclose(jacobian_dot(PARAMS, q, qd), fd, atol=1e-6)

    def test_jacobian_dot_zero_velocity(self):
        np.testing.assert_allclose(
            jacobian_dot(PARAMS, [0.7, -0.4], [0.0, 0.0]), np.zeros((2, 2)), atol=1e-15
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
                J.T @ m_p @ J, mass_matrix(PARAMS, q), atol=1e-9
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
            expected = np.linalg.solve(
                mass_matrix(PARAMS, q),
                tau - coriolis_vector(PARAMS, q, qd) - gravity_vector(PARAMS, q),
            )
            np.testing.assert_allclose(joint_accel(PARAMS, q, qd, tau), expected, atol=1e-12)

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


class TestGainSchedule:
    def test_gain_validation(self):
        import safefl

        assert safefl.GainSchedule is GainSchedule
        with pytest.raises(ValueError):
            GainSchedule(kp=[1.0, -1.0], kd=[1.0, 1.0], k_safe=[0.0, 0.0])
        with pytest.raises(ValueError):
            GainSchedule(kp=[1.0], kd=[1.0, 1.0], k_safe=[0.0, 0.0])
        with pytest.raises(ValueError):
            GainSchedule(kp=[1.0, 1.0], kd=[1.0, 1.0], k_safe=[-0.5, 0.0])


class TestSafeTaskController:
    def test_gravity_compensation_at_goal(self, default_bundle):
        controller = _scenario_controller(default_bundle, 0.0)
        q_goal = inverse_kinematics(PARAMS, default_bundle.config.goal)
        action = controller.compute(q_goal, np.zeros(2))
        _, _, g_p = task_space_terms(PARAMS, q_goal, np.zeros(2))
        np.testing.assert_allclose(action.force, g_p, atol=1e-9)
        np.testing.assert_allclose(action.force_safe, np.zeros(2), atol=1e-12)

    def test_zero_safety_gain_reduces_to_plain_law(self, default_bundle):
        plain = _scenario_controller(default_bundle, 0.0)
        lifted = _scenario_controller(default_bundle, 1.5)
        x = np.array([-0.4, 1.8, 0.5, -0.7])
        a0 = plain(0.0, x)
        a1 = lifted(0.0, x)
        np.testing.assert_allclose(a0.force_safe, np.zeros(2), atol=1e-12)
        np.testing.assert_allclose(a1.force - a1.force_safe, a0.force, atol=1e-9)

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
        gains = default_bundle.gain_schedule(1.5)
        certs = default_bundle.certificates
        rng = np.random.default_rng(31)
        for _ in range(50):
            q = rng.uniform(-math.pi, math.pi, size=2)
            if abs(math.sin(q[1])) < 0.05:
                continue
            qd = rng.uniform(-2, 2, size=2)
            action = controller.compute(q, qd)

            m_p, c_p, g_p = task_space_terms(PARAMS, q, qd)
            p, J, _, _, _, _ = arm_model(PARAMS, q, qd)
            v = J @ qd
            x1 = signs * (p - goal)
            x2 = signs * v
            acc = -gains.kp * x1 - gains.kd * x2
            a_safe = np.array(
                [
                    safe_aux_input(
                        certs[i], (x1[i], x2[i]), gains.kp[i], gains.kd[i], gains.k_safe[i]
                    )
                    for i in range(2)
                ]
            )
            force_safe = m_p @ (signs * a_safe)
            force = m_p @ (signs * acc) + c_p + g_p + force_safe
            tau = J.T @ force
            np.testing.assert_allclose(action.force, force, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(action.force_safe, force_safe, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(action.u, tau, rtol=1e-9, atol=1e-9)

    def test_initial_state_diagnostics(self, default_bundle):
        action = _scenario_controller(default_bundle, 1.5).compute(
            default_bundle.q0, default_bundle.qdot0
        )
        np.testing.assert_allclose(
            action.u, jacobian(PARAMS, default_bundle.q0).T @ action.force, rtol=1e-12
        )
        np.testing.assert_allclose(
            action.w_values, default_bundle.initial_w(), rtol=1e-9
        )

    def test_singularity_propagates(self, default_bundle):
        controller = _scenario_controller(default_bundle, 0.0)
        with pytest.raises(NearSingular):
            controller.compute(np.array([0.3, 0.0]), np.zeros(2))


class TestTaskJointAgreement:
    def test_task_space_and_joint_space_runs_agree(self, default_bundle):
        # the linearized loop makes each error coordinate an exact decoupled
        # subsystem; integrating those directly must reproduce the Cartesian
        # trajectory of the full joint-space simulation
        k_safe = 1.5
        horizon = 5.0
        joint = simulate_closed_loop(
            default_bundle.plant(),
            default_bundle.controller(k_safe),
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
