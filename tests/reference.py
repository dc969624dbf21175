"""Test references written from the formulas, independent of safefl's kernels.

rk4_step is the generic classical Runge-Kutta step over any vector field of
float tuples, the reference that ArmStage.step must reproduce bit for bit.
The arm quantities below are written from the formulas with numpy and
compose the task-space terms M_p, c_p and g_p, an independent derivation of
the law that the controller evaluates in computed-torque form.
"""

import math

import numpy as np

from safefl.errors import NonFiniteState


def _check_finite(values, message, t):
    if not all(map(math.isfinite, values)):
        raise NonFiniteState(f"{message} near t = {t}")


def rk4_step(field, t, x, dt, k1=None):
    """Classical 4th-order Runge-Kutta update; local error O(dt^5).

    The state is a sequence of floats; stage states and the result are
    tuples. field returns the derivative as a sequence of floats. k1 may be
    supplied when the caller already evaluated the field at (t, x). Raises
    NonFiniteState if any stage or the update produces NaN or infinity;
    every stage is checked before the next one uses it.
    """
    if k1 is None:
        k1 = field(t, x)
    half = 0.5 * dt
    _check_finite(k1, "integration stage diverged", t)
    k2 = field(t + half, tuple([xi + half * ki for xi, ki in zip(x, k1)]))
    _check_finite(k2, "integration stage diverged", t)
    k3 = field(t + half, tuple([xi + half * ki for xi, ki in zip(x, k2)]))
    _check_finite(k3, "integration stage diverged", t)
    k4 = field(t + dt, tuple([xi + dt * ki for xi, ki in zip(x, k3)]))
    _check_finite(k4, "integration stage diverged", t)
    sixth = dt / 6.0
    x_next = tuple(
        [
            xi + sixth * (a + 2.0 * b + 2.0 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
        ]
    )
    _check_finite(x_next, "integration diverged", t)
    return x_next


def arm_model(params, q, qdot):
    """(p, J, Jdot, M, c, g) of the planar two-link arm at joint state (q, qdot):
    end-effector position, Jacobian and its time derivative, mass matrix,
    Coriolis/centrifugal vector and gravity vector."""
    m1, m2, l1, l2, grav = params.m1, params.m2, params.L1, params.L2, params.gravity
    q1, q2 = q
    w1, w2 = qdot
    s1, c1 = np.sin(q1), np.cos(q1)
    s2, c2 = np.sin(q2), np.cos(q2)
    s12, c12 = np.sin(q1 + q2), np.cos(q1 + q2)
    p = np.array([l1 * c1 + l2 * c12, l1 * s1 + l2 * s12])
    J = np.array([[-l1 * s1 - l2 * s12, -l2 * s12], [l1 * c1 + l2 * c12, l2 * c12]])
    Jdot = np.array(
        [
            [-l1 * c1 * w1 - l2 * c12 * (w1 + w2), -l2 * c12 * (w1 + w2)],
            [-l1 * s1 * w1 - l2 * s12 * (w1 + w2), -l2 * s12 * (w1 + w2)],
        ]
    )
    M = np.array(
        [
            [(m1 + m2) * l1**2 + m2 * l2**2 + 2 * m2 * l1 * l2 * c2, m2 * l2**2 + m2 * l1 * l2 * c2],
            [m2 * l2**2 + m2 * l1 * l2 * c2, m2 * l2**2],
        ]
    )
    h = m2 * l1 * l2 * s2
    c = np.array([-h * (2 * w1 * w2 + w2**2), h * w1**2])
    g = np.array([(m1 + m2) * grav * l1 * c1 + m2 * grav * l2 * c12, m2 * grav * l2 * c12])
    return p, J, Jdot, M, c, g


def task_space_terms(params, q, qdot):
    """Cartesian-space (M_p, c_p, g_p): M_p = J^-T M J^-1,
    c_p = J^-T c - M_p Jdot qdot and g_p = J^-T g."""
    _, J, Jdot, M, c, g = arm_model(params, q, qdot)
    J_inv = np.linalg.inv(J)
    m_p = J_inv.T @ M @ J_inv
    return m_p, J_inv.T @ c - m_p @ Jdot @ np.asarray(qdot), J_inv.T @ g
