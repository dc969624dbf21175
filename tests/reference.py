"""Test references written from the formulas, independent of safefl's kernels.

rk4_step is the generic classical Runge-Kutta step over any vector field of
float tuples, the reference that ArmStage.step must reproduce bit for bit.
The arm quantities below are written from the formulas with numpy and
compose the task-space terms M_p, c_p and g_p, an independent derivation of
the law that the controller evaluates in computed-torque form.
sontag_universal and safe_aux_input compose the per-axis safety input from
a certificate's value_and_grad, the reference for the law that the
controller evaluates from plain-float constants; joint_accel_reference
composes both into the joint acceleration y = J^-1 (a - Jdot qdot) that the
law commands. finite_diff_grad, kinetic_energy and jacobian_det are the
numerical and closed-form checks that the model and certificate tests use.
svg_polyline maps and formats a figure's points one at a time, the
reference, written apart from it, for svg._Frame.polyline.
lyapunov_reference solves the reduced Lyapunov system with
np.linalg.solve, the reference for the float elimination of
numerics.solve_lyapunov_2x2.
"""

import math
from typing import NamedTuple

import numpy as np

from safefl.errors import NonFiniteState


def lyapunov_reference(A, Q):
    """P of A'P + PA = -Q from the reduced 3x3 system in (p11, p12, p22),
    solved by np.linalg.solve with no error state set."""
    (a11, a12), (a21, a22) = np.asarray(A, dtype=float)
    system = np.array(
        [[2.0 * a11, 2.0 * a21, 0.0], [a12, a11 + a22, a21], [0.0, 2.0 * a12, 2.0 * a22]]
    )
    Q = np.asarray(Q, dtype=float)
    p11, p12, p22 = np.linalg.solve(system, -np.array([Q[0, 0], Q[0, 1], Q[1, 1]]))
    return np.array([[p11, p12], [p12, p22]])


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


def jacobian_det(params, q):
    """det J = L1 L2 sin(q2)."""
    return params.L1 * params.L2 * math.sin(q[1])


def kinetic_energy(params, q, qdot):
    """0.5 qdot' M(q) qdot."""
    M = arm_model(params, q, qdot)[3]
    qd = np.asarray(qdot, dtype=float)
    return 0.5 * float(qd @ M @ qd)


def finite_diff_grad(f, x, h=1e-6):
    """Central-difference gradient of a scalar field on R^2, error O(h^2)."""
    if h <= 0.0:
        raise ValueError("step h must be positive")
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad


def task_space_terms(params, q, qdot):
    """Cartesian-space (M_p, c_p, g_p): M_p = J^-T M J^-1,
    c_p = J^-T c - M_p Jdot qdot and g_p = J^-T g."""
    _, J, Jdot, M, c, g = arm_model(params, q, qdot)
    J_inv = np.linalg.inv(J)
    m_p = J_inv.T @ M @ J_inv
    return m_p, J_inv.T @ c - m_p @ Jdot @ np.asarray(qdot), J_inv.T @ g


_B_DEADZONE = 1e-12  # relative to 1 + |a|; below this the channel is treated as closed


class LieValues(NamedTuple):
    """Certificate derivatives along the drift (a) and the input direction (b)."""

    a: float
    b: float


def sontag_universal(a, b):
    """Sontag's universal formula kappa(a, b) = -(a + sqrt(a^2 + b^4)) / b,
    zero where the channel b is closed; a + b*kappa = -sqrt(a^2 + b^4)."""
    if abs(b) < _B_DEADZONE * (1.0 + abs(a)):
        return 0.0
    return -(a + math.hypot(a, b * b)) / b


def lie_derivatives(W, x1, x2, kp, kd):
    """(a, b) = (dW along the subsystem drift, dW along the input direction)."""
    _, g1, g2 = W.value_and_grad(x1, x2)
    return LieValues(a=g1 * x2 + g2 * (-kp * x1 - kd * x2), b=g2)


def safe_aux_input(W, xbar, kp, kd, k_safe):
    """Auxiliary input k_safe * kappa(a, b) for one constrained subsystem.

    With k_safe = 1 the subsystem's certificate derivative along the closed
    loop is exactly -sqrt(a^2 + b^4) <= 0 wherever b != 0; where b = 0 the
    decrease is the certificate's own line condition, not the controller's.
    """
    if k_safe < 0.0:
        raise ValueError("k_safe must be non-negative")
    a, b = lie_derivatives(W, xbar[0], xbar[1], kp, kd)
    return k_safe * sontag_universal(a, b)


def joint_accel_reference(controller, q, qdot):
    """Joint acceleration y = J^-1 (a - Jdot qdot) commanded by a
    SafeTaskController at (q, qdot): per axis the error coordinates
    x1 = sign (p - goal), x2 = sign v, the loop acceleration -kp x1 - kd x2
    plus the certificate's safety input, mapped back by the sign."""
    p, J, Jdot, _, _, _ = arm_model(controller.params, q, qdot)
    v = J @ np.asarray(qdot, dtype=float)
    per_axis = zip(
        controller.signs, controller.kp, controller.kd, controller.k_safe, controller.certificates
    )
    a = np.empty(2)
    for i, (sign, kp, kd, k_safe, cert) in enumerate(per_axis):
        x1, x2 = sign * (p[i] - controller.goal[i]), sign * v[i]
        safe = 0.0 if cert is None else safe_aux_input(cert, (x1, x2), kp, kd, k_safe)
        a[i] = sign * (-kp * x1 - kd * x2 + safe)
    return np.linalg.solve(J, a - Jdot @ np.asarray(qdot, dtype=float))


def svg_polyline(frame, xs, ys, color, width=1.5, dash=""):
    """The SVG polyline through the finite points (x, y) of xs and ys on the
    viewport of frame, each point mapped and formatted on its own; "" if
    no point is finite."""
    from safefl.svg import _HEIGHT, _MARGIN, _WIDTH

    def px(value):
        span = frame.x1 - frame.x0
        return _MARGIN + (value - frame.x0) / span * (_WIDTH - 2 * _MARGIN)

    def py(value):
        span = frame.y1 - frame.y0
        return _HEIGHT - _MARGIN - (value - frame.y0) / span * (_HEIGHT - 2 * _MARGIN)

    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = np.isfinite(xs) & np.isfinite(ys)
    if not np.any(keep):
        return ""
    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs[keep], ys[keep]))
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline points="{pts}" fill="none" stroke="{color}" '
        f'stroke-width="{width}"{dash_attr}/>'
    )
