"""Planar two-link manipulator: joint dynamics, kinematics, task-space control.

The safe task controller feedback-linearizes the Cartesian dynamics around a
goal position, imposes decoupled second-order error loops per axis, and adds
the universal-formula safety input of each axis certificate on top.

The closed loop that the simulator integrates is one flat kernel in ArmStage:
it evaluates controller and plant on one set of joint trigonometry and
commands the joint acceleration y = J^-1 (a - Jdot qdot), so the task-space
terms M_p, c_p and g_p are never formed. On the controller's own model
computed torque tau = M y + c + g leaves exactly qddot = y, so the kernel
returns y and forms tau only for the recorded diagnostics; a plant with
another model gets its acceleration M^-1 (tau - c - g) from its own
constants through _joint_accel, which ManipulatorPlant.derivative also
calls. The joint dynamics M, c and g are thus written twice, in the kernel
and in _joint_accel, both over the constants of _model. The tests hold the
two texts together: on the exact model the kernel's torque fed through
_joint_accel gives back y to within EXACT_MODEL_RTOL, and on a mismatched
plant the kernel's acceleration equals that torque fed through
ManipulatorPlant.derivative bit for bit. Each axis's law evaluates its
certificate W = (1 + theta*sigma(x1)) V - k, its gradient and Sontag's
universal formula kappa(a, b) = -(a + sqrt(a^2 + b^4)) / b, zero where b
vanishes (Syst. Control Lett. 13, 1989): a + b*kappa = -sqrt(a^2 + b^4), so W
decreases wherever the input acts on it. ArmStage.step is classical RK4
unrolled over the four state scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .clbf import _EXP_CLAMP, _ONE_BELOW, WeakCLBF
from .errors import NearSingular, NonFiniteState

_B_DEADZONE = 1e-12  # relative to 1 + |a|; below this the channel is treated as closed


@dataclass(frozen=True)
class ManipulatorParams:
    """Link masses (kg), link lengths (m), gravitational acceleration (m/s^2)."""

    m1: float
    m2: float
    L1: float
    L2: float
    gravity: float = 9.81

    def __post_init__(self):
        sizes = (self.m1, self.m2, self.L1, self.L2)
        if not (all(0.0 < v < math.inf for v in sizes) and math.isfinite(self.gravity)):
            raise ValueError("masses and lengths must be positive and finite, gravity finite")

    @property
    def singularity_threshold(self) -> float:
        # |det J| = L1 L2 |sin(theta2)| ; below this the arm is treated as singular
        return 1e-4 * self.L1 * self.L2


# ---------------------------------------------------------------------------
# kinematic and dynamic kernels


def _task_entries(
    p: ManipulatorParams, s1: float, c1: float, s12: float, c12: float, qd1: float, qd2: float
) -> tuple[tuple[float, float, float, float], tuple[float, float], tuple[float, float]]:
    """The Jacobian's entries (j11, j12, j21, j22), the end-effector position
    (p1, p2) and velocity (v1, v2) from a joint state's trigonometry."""
    a, b = p.L1 * s1, p.L2 * s12
    c, d = p.L1 * c1, p.L2 * c12
    j11, j12, j21, j22 = -a - b, -b, c + d, d
    return (j11, j12, j21, j22), (c + d, a + b), (j11 * qd1 + j12 * qd2, j21 * qd1 + j22 * qd2)


def _model(p: ManipulatorParams) -> tuple[float, ...]:
    """(L1, L2, h, m22, m11_0, g1, g2): the plain-float constants of the arm
    dynamics M = [[m11_0 + 2 h c2, m22 + h c2], [m22 + h c2, m22]],
    c = h s2 (-(2 qd1 qd2 + qd2^2), qd1^2) and g = (g1 c1 + g2 c12, g2 c12)
    (Siciliano et al., Robotics: Modelling, Planning and Control, 2009,
    ch. 7)."""
    m22 = p.m2 * p.L2 * p.L2
    return (
        p.L1,
        p.L2,
        p.m2 * p.L1 * p.L2,
        m22,
        (p.m1 + p.m2) * p.L1 * p.L1 + m22,
        (p.m1 + p.m2) * p.L1 * p.gravity,
        p.m2 * p.gravity * p.L2,
    )


def _joint_accel(model, c1, c12, s2, c2, qd1, qd2, tau1, tau2) -> tuple[float, float]:
    """Forward dynamics qddot = M^-1 (tau - c - g) over the constants of
    _model, from the joint state's trigonometry and velocities."""
    _, _, h, m22, m11_0, g1, g2 = model
    coupling = h * c2
    m11, m12 = m11_0 + 2.0 * coupling, m22 + coupling
    hs = h * s2
    gv2 = g2 * c12
    n1 = tau1 - -hs * (2.0 * qd1 * qd2 + qd2 * qd2) - (g1 * c1 + gv2)
    n2 = tau2 - hs * qd1 * qd1 - gv2
    det = m11 * m22 - m12 * m12
    return (m22 * n1 - m12 * n2) / det, (m11 * n2 - m12 * n1) / det


# ---------------------------------------------------------------------------
# public model functions


def _kinematics(params: ManipulatorParams, q):
    """_task_entries at joint angles q, at rest."""
    t12 = q[0] + q[1]
    return _task_entries(
        params, math.sin(q[0]), math.cos(q[0]), math.sin(t12), math.cos(t12), 0.0, 0.0
    )


def forward_kinematics(params: ManipulatorParams, q) -> np.ndarray:
    return np.array(_kinematics(params, q)[1])


def jacobian(params: ManipulatorParams, q) -> np.ndarray:
    j11, j12, j21, j22 = _kinematics(params, q)[0]
    return np.array([[j11, j12], [j21, j22]])


def inverse_kinematics(params: ManipulatorParams, p, elbow: str = "up") -> np.ndarray:
    """Joint angles reaching Cartesian p; elbow selects the sign of theta2."""
    r2 = p[0] * p[0] + p[1] * p[1]
    cos_t2 = (r2 - params.L1 ** 2 - params.L2 ** 2) / (2.0 * params.L1 * params.L2)
    if abs(cos_t2) > 1.0:
        raise ValueError(f"point {tuple(p)} is out of reach")
    t2 = math.acos(cos_t2)
    if elbow == "down":
        t2 = -t2
    elif elbow != "up":
        raise ValueError("elbow must be 'up' or 'down'")
    t1 = math.atan2(p[1], p[0]) - math.atan2(
        params.L2 * math.sin(t2), params.L1 + params.L2 * math.cos(t2)
    )
    return np.array([t1, t2])


# ---------------------------------------------------------------------------
# safe task-space controller


def _axis(sign, goal, kp, kd, k_safe, cert: Optional[WeakCLBF]) -> tuple:
    """_axis_law's tuple (sign, goal, kp, kd, k_safe, d, p11, p12, p22, l,
    center, theta, k) of plain floats: the axis's map and gains, then its
    certificate's threshold, P, sigmoid slope and center d + delta/2,
    scaling and offset, all None on an unconstrained axis."""
    head = (float(sign), float(goal), float(kp), float(kd), float(k_safe))
    if cert is None:
        return head + (None,) * 8
    clf, shape = cert.clf, cert.shape
    values = (shape.d, clf.p11, clf.p12, clf.p22, shape.l, shape.center, cert.theta, cert.k)
    return head + tuple(map(float, values))


def _axis_law(axis: tuple, p: float, v: float, diagnostics: bool):
    """(a, a_safe, W, margin) of one task axis at end-effector position p
    and velocity v along it, from the plain floats of _axis.

    a is the commanded task-space acceleration and a_safe its safety part
    k_safe * kappa(a, b), both mapped back from the error coordinates
    x1 = sign * (p - goal), x2 = sign * v. W is evaluated only when the safety
    input needs it or it is recorded, and is NaN otherwise; the margin is
    infinite on an unconstrained axis. The arithmetic is that of sigmoid_eval
    and WeakCLBF.value_and_grad, so the outputs equal theirs bit for bit.
    """
    sign, goal, kp, kd, k_safe, d, p11, p12, p22, l, center, theta, k = axis
    x1 = sign * (p - goal)
    x2 = sign * v
    acc = -kp * x1 - kd * x2
    if d is None:
        return sign * acc, 0.0, math.nan, math.inf
    if not (diagnostics or k_safe > 0.0):
        return sign * acc, 0.0, math.nan, x1 - d
    v1 = p11 * x1 + p12 * x2
    v2 = p12 * x1 + p22 * x2
    value = 0.5 * (v1 * x1 + v2 * x2)
    z = l * (x1 - center)
    if z > _EXP_CLAMP:
        z = _EXP_CLAMP
    elif z < -_EXP_CLAMP:
        z = -_EXP_CLAMP
    s = 1.0 / (1.0 + math.exp(z))
    if not s < 1.0:
        s = _ONE_BELOW
    scale = 1.0 + theta * s
    w = scale * value - k
    safe = 0.0
    if k_safe > 0.0:
        # the universal formula on a = dW along the drift and b = dW/dx2
        g1 = theta * value * (-l * s * (1.0 - s)) + scale * v1
        g2 = scale * v2
        a = g1 * x2 + g2 * acc
        if not abs(g2) < _B_DEADZONE * (1.0 + abs(a)):
            safe = k_safe * (-(a + math.hypot(a, g2 * g2)) / g2)
    return sign * (acc + safe), sign * safe, w, x1 - d


@dataclass(frozen=True, eq=False)
class SafeTaskController:
    """Feedback-linearizing force controller with per-axis safety inputs.

    signs maps task coordinates onto the canonical error coordinates
    (x1_i = signs_i * (p_i - goal_i), x2_i = signs_i * v_i), so that each
    constrained axis sees its unsafe set as a left half plane. kp, kd and
    k_safe are the per-axis position, velocity and safety gains.
    certificates holds one WeakCLBF per axis, or None for an unconstrained
    axis. The law itself is ArmStage's kernel; calling the controller at a
    joint state x = (q, qdot) reads its recorded row on the controller's own
    model.
    """

    params: ManipulatorParams
    goal: np.ndarray
    signs: np.ndarray
    kp: np.ndarray
    kd: np.ndarray
    k_safe: np.ndarray
    certificates: Sequence[Optional[WeakCLBF]]

    def __post_init__(self):
        for name in ("goal", "signs", "kp", "kd", "k_safe"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float, ndmin=1))
        kp, kd, k_safe = self.kp, self.kd, self.k_safe
        if not (len(self.certificates) == 2 and kp.shape == kd.shape == k_safe.shape == (2,)):
            raise ValueError("one gain of each kind and one certificate per task axis required")
        if not np.all(np.isfinite(np.concatenate((kp, kd, k_safe)))):
            raise ValueError("gains must be finite")
        if np.any(kp <= 0.0) or np.any(kd <= 0.0):
            raise ValueError("kp and kd must be positive")
        if np.any(k_safe < 0.0):
            raise ValueError("k_safe must be non-negative")

    def __call__(self, t: float, x: np.ndarray) -> dict[str, np.ndarray]:
        """The recorded row at (t, x) as {name: array}, keyed by ArmStage.layout."""
        state = (float(x[0]), float(x[1]), float(x[2]), float(x[3]))
        _, row = ArmStage(self, self.params).record(t, state)
        return ArmStage.columns(np.array(row))


class ManipulatorPlant:
    """Joint-space plant x = (q, qdot), tau in: its forward dynamics and task
    state. The simulator takes only the plant's ManipulatorParams."""

    def __init__(self, params: ManipulatorParams):
        self.params = params

    def derivative(self, t: float, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        q1, q2, qd1, qd2 = x[0], x[1], x[2], x[3]
        qdd1, qdd2 = _joint_accel(
            _model(self.params),
            math.cos(q1),
            math.cos(q1 + q2),
            math.sin(q2),
            math.cos(q2),
            qd1,
            qd2,
            u[0],
            u[1],
        )
        return np.array((qd1, qd2, qdd1, qdd2))

    def task_state(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q1, q2, qd1, qd2 = (float(v) for v in x)
        t12 = q1 + q2
        _, pos, vel = _task_entries(
            self.params, math.sin(q1), math.cos(q1), math.sin(t12), math.cos(t12), qd1, qd2
        )
        return np.array(pos), np.array(vel)


class ArmStage:
    """Closed loop of a SafeTaskController driving an arm with parameters
    plant_params: its vector field and the RK4 step over it.

    One kernel (_field) evaluates, on one set of joint trigonometry, the
    controller's Jacobian with the NearSingular check on |det J|, the
    per-axis law and the joint acceleration y = J^-1 (a - Jdot qdot) that
    realises it. When the plant's model equals the controller's, y is the
    plant's acceleration and the kernel returns it, with no sin or cos of q2
    and no torque. Otherwise, and for recorded rows, it forms the torque
    tau = M y + c + g with the controller's model; a plant whose model
    differs from the controller's takes its acceleration from tau through
    its own M, c and g (_joint_accel), so it is integrated exactly. Every setting is a
    plain float unpacked at construction. Calling the stage returns the
    state derivative; record() also returns the diagnostics row that the
    simulator stores at recorded steps, and layout names the row's blocks as
    (Trajectory field, width) pairs. step() advances the state by one RK4
    step.
    """

    layout = (
        ("inputs", 2),
        ("force", 2),
        ("force_safe", 2),
        ("w", 2),
        ("margins", 2),
        ("pos", 2),
        ("vel", 2),
    )

    def __init__(self, controller: SafeTaskController, plant_params: ManipulatorParams):
        rows = zip(
            controller.signs, controller.goal, controller.kp, controller.kd, controller.k_safe,
            controller.certificates,
        )
        axes = [_axis(*row) for row in rows]
        model = controller.params
        plant = _model(plant_params)
        if plant == _model(model):
            plant = None  # the plant's acceleration is the law's own y
        self._constants = (*_model(model), model.singularity_threshold, *axes, plant)
        self.plant_params = plant_params

    @classmethod
    def columns(cls, rows: np.ndarray) -> dict[str, np.ndarray]:
        """rows split along their last axis into the named blocks of layout,
        as views."""
        out, start = {}, 0
        for name, width in cls.layout:
            out[name] = rows[..., start : start + width]
            start += width
        return out

    def __call__(self, t: float, x) -> tuple[float, float, float, float]:
        return self._field(*x)

    def record(self, t: float, x) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return self._field(*x, diagnostics=True)

    def _field(self, q1, q2, qd1, qd2, diagnostics=False):
        """(qd1, qd2, qdd1, qdd2), or with diagnostics that derivative and
        the row described by layout. Raises NearSingular when |det J| is at
        or below the controller arm's threshold."""
        L1, L2, h, m22, m11_0, g1, g2, threshold, axis0, axis1, plant = self._constants
        s1 = math.sin(q1)
        c1 = math.cos(q1)
        t12 = q1 + q2
        s12 = math.sin(t12)
        c12 = math.cos(t12)

        # Jacobian, end-effector position (e1 + d, e2 + b) and velocity
        e1, e2 = L1 * c1, L1 * s1
        b, d = L2 * s12, L2 * c12
        j11, j12, j21, j22 = -e2 - b, -b, e1 + d, d
        det = j11 * j22 - j12 * j21
        if abs(det) <= threshold:
            raise NearSingular(f"|det J| = {abs(det):.3e} at q = ({q1}, {q2})")
        a1, safe1, w1, margin1 = _axis_law(axis0, e1 + d, j11 * qd1 + j12 * qd2, diagnostics)
        a2, safe2, w2, margin2 = _axis_law(axis1, e2 + b, j21 * qd1 + j22 * qd2, diagnostics)

        # y = J^-1 (a - Jdot qdot), the joint acceleration that realises a, where
        # Jdot qdot = -(e1 qd1^2 + d (qd1 + qd2)^2, e2 qd1^2 + b (qd1 + qd2)^2)
        w12 = qd1 + qd2
        qq, ww = qd1 * qd1, w12 * w12
        r1 = a1 + e1 * qq + d * ww
        r2 = a2 + e2 * qq + b * ww
        y1 = (j22 * r1 - j12 * r2) / det
        y2 = (j11 * r2 - j21 * r1) / det
        if plant is None and not diagnostics:
            return qd1, qd2, y1, y2

        # tau = M y + c + g with the controller's model
        s2 = math.sin(q2)
        c2 = math.cos(q2)
        coupling = h * c2
        m11, m12 = m11_0 + 2.0 * coupling, m22 + coupling
        hs = h * s2
        cq = 2.0 * qd1 * qd2 + qd2 * qd2
        gv2 = g2 * c12
        tau1 = m11 * y1 + m12 * y2 + -hs * cq + (g1 * c1 + gv2)
        tau2 = m12 * y1 + m22 * y2 + hs * qd1 * qd1 + gv2

        if plant is None:
            qdd1, qdd2 = y1, y2
        else:
            # the plant's joint acceleration from its own model
            qdd1, qdd2 = _joint_accel(plant, c1, c12, s2, c2, qd1, qd2, tau1, tau2)
        if not diagnostics:
            return qd1, qd2, qdd1, qdd2

        # F = J^-T tau and F_safe = J^-T M J^-1 a_safe with the controller's model
        ys1 = (j22 * safe1 - j12 * safe2) / det
        ys2 = (j11 * safe2 - j21 * safe1) / det
        z1 = m11 * ys1 + m12 * ys2
        z2 = m12 * ys1 + m22 * ys2
        if plant is None:
            # the plant's kinematics are the controller's, already evaluated
            task = (e1 + d, e2 + b, j11 * qd1 + j12 * qd2, j21 * qd1 + j22 * qd2)
        else:
            _, pos, vel = _task_entries(self.plant_params, s1, c1, s12, c12, qd1, qd2)
            task = (*pos, *vel)
        row = (
            tau1,
            tau2,
            (j22 * tau1 - j21 * tau2) / det,
            (j11 * tau2 - j12 * tau1) / det,
            (j22 * z1 - j21 * z2) / det,
            (j11 * z2 - j12 * z1) / det,
            w1,
            w2,
            margin1,
            margin2,
            *task,
        )
        return (qd1, qd2, qdd1, qdd2), row

    def step(self, t: float, x, dt: float, k1) -> tuple[float, float, float, float]:
        """Classical 4th-order Runge-Kutta update of the state x from t to
        t + dt; local error O(dt^5).

        k1 is the stage's derivative at (t, x), which the caller has already
        evaluated. Every stage and the update are checked with math.isfinite
        before use; NaN or infinity raises NonFiniteState, and a stage state
        at the singularity raises NearSingular.
        """
        field = self._field
        isfinite = math.isfinite
        x1, x2, x3, x4 = x
        a1, a2, a3, a4 = k1
        if not (isfinite(a1) and isfinite(a2) and isfinite(a3) and isfinite(a4)):
            raise NonFiniteState(f"integration stage diverged near t = {t}")
        half = 0.5 * dt
        b1, b2, b3, b4 = field(x1 + half * a1, x2 + half * a2, x3 + half * a3, x4 + half * a4)
        if not (isfinite(b1) and isfinite(b2) and isfinite(b3) and isfinite(b4)):
            raise NonFiniteState(f"integration stage diverged near t = {t}")
        c1, c2, c3, c4 = field(x1 + half * b1, x2 + half * b2, x3 + half * b3, x4 + half * b4)
        if not (isfinite(c1) and isfinite(c2) and isfinite(c3) and isfinite(c4)):
            raise NonFiniteState(f"integration stage diverged near t = {t}")
        d1, d2, d3, d4 = field(x1 + dt * c1, x2 + dt * c2, x3 + dt * c3, x4 + dt * c4)
        if not (isfinite(d1) and isfinite(d2) and isfinite(d3) and isfinite(d4)):
            raise NonFiniteState(f"integration stage diverged near t = {t}")
        sixth = dt / 6.0
        x1 = x1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        x2 = x2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
        x3 = x3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
        x4 = x4 + sixth * (a4 + 2.0 * b4 + 2.0 * c4 + d4)
        if not (isfinite(x1) and isfinite(x2) and isfinite(x3) and isfinite(x4)):
            raise NonFiniteState(f"integration diverged near t = {t}")
        return x1, x2, x3, x4
