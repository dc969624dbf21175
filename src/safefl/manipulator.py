"""Planar two-link manipulator: joint dynamics, kinematics, task-space control.

The safe task controller feedback-linearizes the Cartesian dynamics around a
goal position, imposes decoupled second-order error loops per axis, and adds
the universal-formula safety input of each axis certificate on top.

The model quantities are written as scalar kernels shared between the public
array-valued functions, the controller law and the fused closed-loop stage
(ArmStage), which evaluates controller and plant on one set of joint
trigonometry at every integrator stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .clbf import WeakCLBF
from .errors import NearSingular
from .numerics import is_hurwitz_2x2
from .sontag import sontag_universal


@dataclass(frozen=True)
class ManipulatorParams:
    """Link masses (kg), link lengths (m), gravitational acceleration (m/s^2)."""

    m1: float
    m2: float
    L1: float
    L2: float
    gravity: float = 9.81

    def __post_init__(self):
        if min(self.m1, self.m2, self.L1, self.L2) <= 0.0:
            raise ValueError("masses and lengths must be positive")

    @property
    def singularity_threshold(self) -> float:
        # |det J| = L1 L2 |sin(theta2)| ; below this the arm is treated as singular
        return 1e-4 * self.L1 * self.L2


# ---------------------------------------------------------------------------
# scalar kernels


def _trig(q1: float, q2: float) -> tuple[float, float, float, float, float, float]:
    """(sin q1, cos q1, sin(q1+q2), cos(q1+q2), sin q2, cos q2)."""
    t12 = q1 + q2
    return (
        math.sin(q1),
        math.cos(q1),
        math.sin(t12),
        math.cos(t12),
        math.sin(q2),
        math.cos(q2),
    )


def _position_entries(
    p: ManipulatorParams, s1: float, c1: float, s12: float, c12: float
) -> tuple[float, float]:
    return p.L1 * c1 + p.L2 * c12, p.L1 * s1 + p.L2 * s12


def _mass_entries(p: ManipulatorParams, c2: float) -> tuple[float, float, float]:
    a = p.m2 * p.L1 * p.L2 * c2
    m22 = p.m2 * p.L2 * p.L2
    m11 = (p.m1 + p.m2) * p.L1 * p.L1 + m22 + 2.0 * a
    return m11, m22 + a, m22


def _coriolis_entries(
    p: ManipulatorParams, s2: float, qd1: float, qd2: float
) -> tuple[float, float]:
    h = p.m2 * p.L1 * p.L2 * s2
    return -h * (2.0 * qd1 * qd2 + qd2 * qd2), h * qd1 * qd1


def _gravity_entries(p: ManipulatorParams, c1: float, c12: float) -> tuple[float, float]:
    second = p.m2 * p.gravity * p.L2 * c12
    return (p.m1 + p.m2) * p.L1 * p.gravity * c1 + second, second


def _jacobian_entries(
    p: ManipulatorParams, s1: float, c1: float, s12: float, c12: float
) -> tuple[float, float, float, float]:
    a, b = p.L1 * s1, p.L2 * s12
    c, d = p.L1 * c1, p.L2 * c12
    return -a - b, -b, c + d, d


def _jacobian_dot_entries(
    p: ManipulatorParams,
    s1: float,
    c1: float,
    s12: float,
    c12: float,
    qd1: float,
    qd2: float,
) -> tuple[float, float, float, float]:
    w12 = qd1 + qd2
    a, b = p.L1 * c1 * qd1, p.L2 * c12 * w12
    c, d = p.L1 * s1 * qd1, p.L2 * s12 * w12
    return -a - b, -b, -c - d, -d


def _accel_entries(
    p: ManipulatorParams,
    c2: float,
    s2: float,
    qd1: float,
    qd2: float,
    c1: float,
    c12: float,
    tau1: float,
    tau2: float,
) -> tuple[float, float]:
    m11, m12, m22 = _mass_entries(p, c2)
    cv1, cv2 = _coriolis_entries(p, s2, qd1, qd2)
    gv1, gv2 = _gravity_entries(p, c1, c12)
    r1 = tau1 - cv1 - gv1
    r2 = tau2 - cv2 - gv2
    det = m11 * m22 - m12 * m12
    return (m22 * r1 - m12 * r2) / det, (m11 * r2 - m12 * r1) / det


def _task_space_entries(
    p: ManipulatorParams,
    threshold: float,
    q1: float,
    q2: float,
    qd1: float,
    qd2: float,
    trig,
) -> tuple[float, ...]:
    """Jacobian, M_p, c_p and g_p entries at one joint state.

    trig holds the _trig values of (q1, q2). Returns (j11, j12, j21, j22,
    mp11, mp12, mp21, mp22, cp1, cp2, gp1, gp2) with M_p = J^-T M J^-1,
    c_p = J^-T c - M_p Jdot qdot and g_p = J^-T g. Raises NearSingular when
    |det J| is at or below threshold.
    """
    s1, c1, s12, c12, s2, c2 = trig
    j11, j12, j21, j22 = _jacobian_entries(p, s1, c1, s12, c12)
    det = j11 * j22 - j12 * j21
    if abs(det) <= threshold:
        raise NearSingular(f"|det J| = {abs(det):.3e} at q = ({q1}, {q2})")
    ji11, ji12 = j22 / det, -j12 / det
    ji21, ji22 = -j21 / det, j11 / det

    m11, m12, m22 = _mass_entries(p, c2)
    cv1, cv2 = _coriolis_entries(p, s2, qd1, qd2)
    gv1, gv2 = _gravity_entries(p, c1, c12)

    # M_p = Jinv' M Jinv
    a11 = m11 * ji11 + m12 * ji21
    a12 = m11 * ji12 + m12 * ji22
    a21 = m12 * ji11 + m22 * ji21
    a22 = m12 * ji12 + m22 * ji22
    mp11 = ji11 * a11 + ji21 * a21
    mp12 = ji11 * a12 + ji21 * a22
    mp21 = ji12 * a11 + ji22 * a21
    mp22 = ji12 * a12 + ji22 * a22

    jd11, jd12, jd21, jd22 = _jacobian_dot_entries(p, s1, c1, s12, c12, qd1, qd2)
    u1 = jd11 * qd1 + jd12 * qd2
    u2 = jd21 * qd1 + jd22 * qd2
    cp1 = -(mp11 * u1 + mp12 * u2) + ji11 * cv1 + ji21 * cv2
    cp2 = -(mp21 * u1 + mp22 * u2) + ji12 * cv1 + ji22 * cv2
    gp1 = ji11 * gv1 + ji21 * gv2
    gp2 = ji12 * gv1 + ji22 * gv2
    return j11, j12, j21, j22, mp11, mp12, mp21, mp22, cp1, cp2, gp1, gp2


# ---------------------------------------------------------------------------
# public model functions


def mass_matrix(params: ManipulatorParams, q) -> np.ndarray:
    m11, m12, m22 = _mass_entries(params, math.cos(q[1]))
    return np.array([[m11, m12], [m12, m22]])


def coriolis_vector(params: ManipulatorParams, q, qdot) -> np.ndarray:
    return np.array(_coriolis_entries(params, math.sin(q[1]), qdot[0], qdot[1]))


def gravity_vector(params: ManipulatorParams, q) -> np.ndarray:
    return np.array(_gravity_entries(params, math.cos(q[0]), math.cos(q[0] + q[1])))


def forward_kinematics(params: ManipulatorParams, q) -> np.ndarray:
    t12 = q[0] + q[1]
    return np.array(
        _position_entries(
            params, math.sin(q[0]), math.cos(q[0]), math.sin(t12), math.cos(t12)
        )
    )


def jacobian(params: ManipulatorParams, q) -> np.ndarray:
    t12 = q[0] + q[1]
    j11, j12, j21, j22 = _jacobian_entries(
        params, math.sin(q[0]), math.cos(q[0]), math.sin(t12), math.cos(t12)
    )
    return np.array([[j11, j12], [j21, j22]])


def jacobian_det(params: ManipulatorParams, q) -> float:
    return params.L1 * params.L2 * math.sin(q[1])


def jacobian_dot(params: ManipulatorParams, q, qdot) -> np.ndarray:
    t12 = q[0] + q[1]
    jd11, jd12, jd21, jd22 = _jacobian_dot_entries(
        params,
        math.sin(q[0]),
        math.cos(q[0]),
        math.sin(t12),
        math.cos(t12),
        qdot[0],
        qdot[1],
    )
    return np.array([[jd11, jd12], [jd21, jd22]])


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


def joint_accel(params: ManipulatorParams, q, qdot, tau) -> np.ndarray:
    """Forward dynamics: solve M(q) qddot = tau - c(q, qdot) - g(q)."""
    t12 = q[0] + q[1]
    return np.array(
        _accel_entries(
            params,
            math.cos(q[1]),
            math.sin(q[1]),
            qdot[0],
            qdot[1],
            math.cos(q[0]),
            math.cos(t12),
            tau[0],
            tau[1],
        )
    )


def kinetic_energy(params: ManipulatorParams, q, qdot) -> float:
    M = mass_matrix(params, q)
    qd = np.asarray(qdot, dtype=float)
    return 0.5 * float(qd @ M @ qd)


def task_space_terms(
    params: ManipulatorParams, q, qdot
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cartesian-space mass, velocity and gravity terms (M_p, c_p, g_p).

    Raises NearSingular when |det J| falls at or below the arm's threshold
    (1e-4 * L1 * L2) rather than regularizing.
    """
    q1, q2 = float(q[0]), float(q[1])
    _, _, _, _, mp11, mp12, mp21, mp22, cp1, cp2, gp1, gp2 = _task_space_entries(
        params,
        params.singularity_threshold,
        q1,
        q2,
        float(qdot[0]),
        float(qdot[1]),
        _trig(q1, q2),
    )
    return np.array([[mp11, mp12], [mp21, mp22]]), np.array((cp1, cp2)), np.array((gp1, gp2))


# ---------------------------------------------------------------------------
# safe task-space controller


@dataclass(frozen=True, eq=False)
class GainSchedule:
    """Per-subsystem position/velocity gains and safety gains."""

    kp: np.ndarray
    kd: np.ndarray
    k_safe: np.ndarray

    def __post_init__(self):
        kp = np.atleast_1d(np.asarray(self.kp, dtype=float))
        kd = np.atleast_1d(np.asarray(self.kd, dtype=float))
        k_safe = np.atleast_1d(np.asarray(self.k_safe, dtype=float))
        if not (kp.shape == kd.shape == k_safe.shape):
            raise ValueError("gain arrays must share one length")
        if np.any(kp <= 0.0) or np.any(kd <= 0.0):
            raise ValueError("kp and kd must be positive")
        if np.any(k_safe < 0.0):
            raise ValueError("k_safe must be non-negative")
        for kp_i, kd_i in zip(kp, kd):
            if not is_hurwitz_2x2([[0.0, 1.0], [-kp_i, -kd_i]]):
                raise ValueError(f"subsystem gains ({kp_i}, {kd_i}) are not stabilizing")
        object.__setattr__(self, "kp", kp)
        object.__setattr__(self, "kd", kd)
        object.__setattr__(self, "k_safe", k_safe)


def _axis_law(
    x1: float,
    x2: float,
    kp: float,
    kd: float,
    k_safe: float,
    cert: Optional[WeakCLBF],
    diagnostics: bool,
) -> tuple[float, float, float]:
    """(loop acceleration, safety acceleration, W) of one error subsystem.

    The certificate is evaluated only when the safety input needs its
    gradient or its value is to be recorded; W is NaN otherwise.
    """
    acc = -kp * x1 - kd * x2
    if cert is None or not (diagnostics or k_safe > 0.0):
        return acc, 0.0, math.nan
    w, g1, g2 = cert.value_and_grad(x1, x2)
    a_safe = k_safe * sontag_universal(g1 * x2 + g2 * acc, g2) if k_safe > 0.0 else 0.0
    return acc, a_safe, w


def _task_law(constants: tuple, q1, q2, qd1, qd2, trig, diagnostics: bool):
    """The safe task-space control law at one joint state.

    constants is SafeTaskController.constants and trig the _trig values of
    (q1, q2). Returns (tau1, tau2), or with diagnostics
    (tau1, tau2, (F1, F2, Fsafe1, Fsafe2, W1, W2, margin1, margin2)).
    Raises NearSingular when |det J| is at or below the arm's threshold.
    """
    p, threshold, goal, sign, kp, kd, k_safe, cert, d = constants
    entries = _task_space_entries(p, threshold, q1, q2, qd1, qd2, trig)
    j11, j12, j21, j22, mp11, mp12, mp21, mp22, cp1, cp2, gp1, gp2 = entries
    s1, c1, s12, c12, _, _ = trig
    p1, p2 = _position_entries(p, s1, c1, s12, c12)
    v1 = j11 * qd1 + j12 * qd2
    v2 = j21 * qd1 + j22 * qd2

    x10, x20 = sign[0] * (p1 - goal[0]), sign[0] * v1
    x11, x21 = sign[1] * (p2 - goal[1]), sign[1] * v2
    acc0, safe0, w0 = _axis_law(x10, x20, kp[0], kd[0], k_safe[0], cert[0], diagnostics)
    acc1, safe1, w1 = _axis_law(x11, x21, kp[1], kd[1], k_safe[1], cert[1], diagnostics)

    sa0, sa1 = sign[0] * acc0, sign[1] * acc1
    ss0, ss1 = sign[0] * safe0, sign[1] * safe1
    fs1 = mp11 * ss0 + mp12 * ss1
    fs2 = mp21 * ss0 + mp22 * ss1
    f1 = mp11 * sa0 + mp12 * sa1 + cp1 + gp1 + fs1
    f2 = mp21 * sa0 + mp22 * sa1 + cp2 + gp2 + fs2
    tau1 = j11 * f1 + j21 * f2
    tau2 = j12 * f1 + j22 * f2
    if not diagnostics:
        return tau1, tau2
    margin0 = math.inf if cert[0] is None else x10 - d[0]
    margin1 = math.inf if cert[1] is None else x11 - d[1]
    return tau1, tau2, (f1, f2, fs1, fs2, w0, w1, margin0, margin1)


@dataclass(eq=False)
class ControlAction:
    """Joint torques of the safe task controller with the diagnostics
    recorded alongside them: task-space force, its safety part, certificate
    values and constraint margins, one entry per task axis."""

    u: np.ndarray
    force: np.ndarray
    force_safe: np.ndarray
    w_values: np.ndarray
    margins: np.ndarray


def _floats(values) -> tuple:
    return tuple(None if v is None else float(v) for v in values)


@dataclass(frozen=True, eq=False)
class SafeTaskController:
    """Feedback-linearizing force controller with per-axis safety inputs.

    signs maps task coordinates onto the canonical error coordinates
    (x1_i = signs_i * (p_i - goal_i), x2_i = signs_i * v_i), so that each
    constrained axis sees its unsafe set as a left half plane. certificates
    holds one WeakCLBF per axis, or None for an unconstrained axis. The law
    reads its settings as plain floats taken at construction (constants).
    """

    params: ManipulatorParams
    goal: np.ndarray
    signs: np.ndarray
    gains: GainSchedule
    certificates: Sequence[Optional[WeakCLBF]]

    def __post_init__(self):
        object.__setattr__(self, "goal", np.asarray(self.goal, dtype=float))
        object.__setattr__(self, "signs", np.asarray(self.signs, dtype=float))
        if len(self.certificates) != 2:
            raise ValueError("one certificate slot per task axis required")
        constants = (
            self.params,
            self.params.singularity_threshold,
            _floats(self.goal),
            _floats(self.signs),
            _floats(self.gains.kp),
            _floats(self.gains.kd),
            _floats(self.gains.k_safe),
            tuple(self.certificates),
            _floats(None if c is None else c.shape.d for c in self.certificates),
        )
        object.__setattr__(self, "constants", constants)

    def __call__(self, t: float, x: np.ndarray) -> ControlAction:
        return self.compute((x[0], x[1]), (x[2], x[3]))

    def compute(self, q, qdot) -> ControlAction:
        q1, q2 = float(q[0]), float(q[1])
        tau1, tau2, diag = _task_law(
            self.constants, q1, q2, float(qdot[0]), float(qdot[1]), _trig(q1, q2), True
        )
        f1, f2, fs1, fs2, w0, w1, margin0, margin1 = diag
        return ControlAction(
            u=np.array((tau1, tau2)),
            force=np.array((f1, f2)),
            force_safe=np.array((fs1, fs2)),
            w_values=np.array((w0, w1)),
            margins=np.array((margin0, margin1)),
        )


def _task_entries(
    p: ManipulatorParams, trig, qd1: float, qd2: float
) -> tuple[float, float, float, float]:
    """End-effector (p1, p2, v1, v2) from a joint state's _trig values."""
    s1, c1, s12, c12, _, _ = trig
    j11, j12, j21, j22 = _jacobian_entries(p, s1, c1, s12, c12)
    p1, p2 = _position_entries(p, s1, c1, s12, c12)
    return p1, p2, j11 * qd1 + j12 * qd2, j21 * qd1 + j22 * qd2


class ManipulatorPlant:
    """Joint-space plant x = (q, qdot), tau in, integrated by the simulator."""

    def __init__(self, params: ManipulatorParams):
        self.params = params

    def derivative(self, t: float, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        q1, q2, qd1, qd2 = x[0], x[1], x[2], x[3]
        qdd1, qdd2 = _accel_entries(
            self.params,
            math.cos(q2),
            math.sin(q2),
            qd1,
            qd2,
            math.cos(q1),
            math.cos(q1 + q2),
            u[0],
            u[1],
        )
        return np.array((qd1, qd2, qdd1, qdd2))

    def task_state(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q1, q2, qd1, qd2 = (float(v) for v in x)
        p1, p2, v1, v2 = _task_entries(self.params, _trig(q1, q2), qd1, qd2)
        return np.array((p1, p2)), np.array((v1, v2))


class ArmStage:
    """Closed-loop stage of a SafeTaskController driving a ManipulatorPlant.

    Controller and plant share the trigonometry of the joint state; each
    side's model entries come from its own parameters, so a plant whose
    model differs from the controller's is integrated correctly. Calling the
    stage returns the state derivative only; record() also returns the
    diagnostics row that the simulator stores at recorded steps. layout names
    the row's blocks as (Trajectory field, width) pairs. Both raise
    NearSingular when the controller cannot act.
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
        self.constants = controller.constants
        self.plant_params = plant_params

    def __call__(self, t: float, x) -> tuple[float, float, float, float]:
        q1, q2, qd1, qd2 = x
        trig = _trig(q1, q2)
        tau1, tau2 = _task_law(self.constants, q1, q2, qd1, qd2, trig, False)
        _, c1, _, c12, s2, c2 = trig
        qdd1, qdd2 = _accel_entries(self.plant_params, c2, s2, qd1, qd2, c1, c12, tau1, tau2)
        return qd1, qd2, qdd1, qdd2

    def record(self, t: float, x) -> tuple[tuple[float, ...], tuple[float, ...]]:
        q1, q2, qd1, qd2 = x
        trig = _trig(q1, q2)
        tau1, tau2, diag = _task_law(self.constants, q1, q2, qd1, qd2, trig, True)
        _, c1, _, c12, s2, c2 = trig
        plant = self.plant_params
        qdd1, qdd2 = _accel_entries(plant, c2, s2, qd1, qd2, c1, c12, tau1, tau2)
        row = (tau1, tau2, *diag, *_task_entries(plant, trig, qd1, qd2))
        return (qd1, qd2, qdd1, qdd2), row
