"""Fixed-step closed-loop simulation with safety and input monitors.

The controller is treated as continuous feedback: it is evaluated at every
integrator stage, so the classical Runge-Kutta order applies to the closed
loop. Runs are deterministic for identical configurations.

The loop integrates a stage: the closed-loop vector field of one plant under
one controller, over a tuple of floats. A controller that can fuse with its
plant supplies the stage itself (closed_loop_stage(plant); the arm's
SafeTaskController does so for a ManipulatorPlant, see manipulator.ArmStage).
Any other pair is wrapped by PlantControllerStage, which calls the plant and
the controller on numpy arrays. Only the first stage of a recorded step
computes the diagnostics row (inputs, forces, certificate values, margins,
task-space position and velocity); the other stages return the derivative
alone. Rows go straight into arrays allocated once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, Sequence

import numpy as np

from .errors import NearSingular, NonFiniteState

# A step count horizon / dt within this relative distance of an integer is
# taken as that integer: the quotient of two decimal floats can land a
# rounding error above it (16.1 / 1e-3 = 16100.000000000002).
_STEP_SNAP = 1e-9


def _check_finite(values: Sequence[float], message: str, t: float) -> None:
    if not all(map(math.isfinite, values)):
        raise NonFiniteState(f"{message} near t = {t}")


def rk4_step(
    field: Callable[[float, Sequence[float]], Sequence[float]],
    t: float,
    x: Sequence[float],
    dt: float,
    k1: Optional[Sequence[float]] = None,
) -> Sequence[float]:
    """Classical 4th-order Runge-Kutta update; local error O(dt^5).

    The state is a sequence of floats; stage states and the result are
    tuples, or numpy arrays when x is one. field returns the derivative as a
    sequence of floats. k1 may be supplied when the caller already evaluated
    the field at (t, x). Raises NonFiniteState if any stage or the update
    produces NaN or infinity; every stage is checked before the next one
    uses it.
    """
    pack = np.array if isinstance(x, np.ndarray) else tuple
    if k1 is None:
        k1 = field(t, x)
    half = 0.5 * dt
    _check_finite(k1, "integration stage diverged", t)
    k2 = field(t + half, pack([xi + half * ki for xi, ki in zip(x, k1)]))
    _check_finite(k2, "integration stage diverged", t)
    k3 = field(t + half, pack([xi + half * ki for xi, ki in zip(x, k2)]))
    _check_finite(k3, "integration stage diverged", t)
    k4 = field(t + dt, pack([xi + dt * ki for xi, ki in zip(x, k3)]))
    _check_finite(k4, "integration stage diverged", t)
    sixth = dt / 6.0
    x_next = pack(
        [
            xi + sixth * (a + 2.0 * b + 2.0 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
        ]
    )
    _check_finite(x_next, "integration diverged", t)
    return x_next


def check_timing(dt: float, horizon: float, record_stride: int) -> None:
    """Raise ValueError unless 0 < dt <= 1e-2, 0 < horizon < inf and
    record_stride >= 1. NaN fails every check."""
    if not 0.0 < dt <= 1e-2:
        raise ValueError(f"dt must lie in (0, 1e-2], got {dt}")
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    if not record_stride >= 1:
        raise ValueError(f"record_stride must be >= 1, got {record_stride}")


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Step size, horizon, initial plant state and recording stride."""

    dt: float
    horizon: float
    x0: np.ndarray
    record_stride: int = 1

    def __post_init__(self):
        check_timing(self.dt, self.horizon, self.record_stride)
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))

    @property
    def n_steps(self) -> int:
        """Steps that cover the horizon: ceil(horizon / dt), with quotients
        a rounding error away from an integer taken as that integer."""
        ratio = self.horizon / self.dt
        nearest = round(ratio)
        if nearest >= 1 and abs(ratio - nearest) <= _STEP_SNAP * nearest:
            return nearest
        return math.ceil(ratio)


@dataclass(eq=False)
class ControlAction:
    """Input applied to the plant plus the diagnostics recorded alongside it."""

    u: np.ndarray
    force: Optional[np.ndarray] = None
    force_safe: Optional[np.ndarray] = None
    w_values: Optional[np.ndarray] = None
    margins: Optional[np.ndarray] = None


class Plant(Protocol):
    state_dim: int

    def derivative(self, t: float, x: np.ndarray, u: np.ndarray) -> np.ndarray: ...


class ClosedLoopStage(Protocol):
    """Closed-loop vector field of a plant under its controller.

    Calling it maps (t, x), x a tuple of floats, to the derivative. record
    returns the same derivative and the diagnostics row of a recorded step;
    layout names the row's blocks as (Trajectory field, width) pairs and is
    read after the first record. Both raise NearSingular when the controller
    cannot act.
    """

    layout: tuple[tuple[str, int], ...]

    def __call__(self, t: float, x: tuple) -> Sequence[float]: ...

    def record(self, t: float, x: tuple) -> tuple[Sequence[float], Sequence[float]]: ...


class PlantControllerStage:
    """Stage of any plant under any controller returning a ControlAction.

    The row holds the action's u, force, force_safe, w_values and margins
    that are present, then the plant's task-space position and velocity when
    it has task_state.
    """

    def __init__(self, plant: Plant, controller: Callable[[float, np.ndarray], ControlAction]):
        self.plant = plant
        self.controller = controller
        self.layout: tuple[tuple[str, int], ...] = ()

    def __call__(self, t: float, x: tuple) -> list:
        state = np.array(x)
        return self.plant.derivative(t, state, self.controller(t, state).u).tolist()

    def record(self, t: float, x: tuple) -> tuple[list, np.ndarray]:
        state = np.array(x)
        action = self.controller(t, state)
        blocks = [
            ("inputs", action.u),
            ("force", action.force),
            ("force_safe", action.force_safe),
            ("w", action.w_values),
            ("margins", action.margins),
        ]
        if hasattr(self.plant, "task_state"):
            blocks += zip(("pos", "vel"), self.plant.task_state(state))
        blocks = [(name, np.ravel(value)) for name, value in blocks if value is not None]
        self.layout = tuple((name, value.size) for name, value in blocks)
        row = np.concatenate([value for _, value in blocks])
        return self.plant.derivative(t, state, action.u).tolist(), row


@dataclass(eq=False)
class Trajectory:
    """Time-indexed record of one closed-loop run.

    The task-space blocks (pos/vel/force/...) are present when the plant and
    controller provide them and None otherwise; all present arrays share the
    leading length of t.
    """

    t: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    pos: Optional[np.ndarray] = None
    vel: Optional[np.ndarray] = None
    force: Optional[np.ndarray] = None
    force_safe: Optional[np.ndarray] = None
    w: Optional[np.ndarray] = None
    margins: Optional[np.ndarray] = None
    safe: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.t.shape[0]

    @property
    def failed(self) -> bool:
        return "failure" in self.meta

    def check_lengths(self) -> None:
        n = len(self)
        for name in ("states", "inputs", "pos", "vel", "force", "force_safe", "w", "margins", "safe"):
            arr = getattr(self, name)
            if arr is not None and arr.shape[0] != n:
                raise ValueError(f"column {name} has length {arr.shape[0]}, expected {n}")
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("time stamps must be strictly increasing")


def simulate_closed_loop(
    plant: Plant,
    controller: Callable[[float, np.ndarray], ControlAction],
    config: SimConfig,
) -> Trajectory:
    """Integrate the plant under the controller, recording diagnostics per step.

    A step is recorded once its first stage has been evaluated. NearSingular
    and NonFiniteState abort the run; the partial trajectory is returned
    with failure metadata instead of raising. meta["steps"] counts the
    completed integration steps, whatever the recording stride.
    """
    fuse = getattr(controller, "closed_loop_stage", None)
    stage: Optional[ClosedLoopStage] = fuse(plant) if fuse is not None else None
    if stage is None:
        stage = PlantControllerStage(plant, controller)

    dt, stride = config.dt, config.record_stride
    n_steps = config.n_steps
    n_records = n_steps // stride + 1
    x = tuple(config.x0.tolist())

    t_out = np.empty(n_records)
    states = np.empty((n_records, len(x)))
    rows: Optional[np.ndarray] = None
    failure: Optional[dict] = None
    count = 0
    # overflow at extreme states is reported through NonFiniteState, not as
    # console warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps + 1):
            t = step * dt
            try:
                if step % stride == 0 or step == n_steps:
                    k1, row = stage.record(t, x)
                    if rows is None:
                        rows = np.empty((n_records, len(row)))
                    t_out[count] = t
                    states[count] = x
                    rows[count] = row
                    count += 1
                else:
                    k1 = stage(t, x)
                if step == n_steps:
                    break
                x = rk4_step(stage, t, x, dt, k1=k1)
            except (NearSingular, NonFiniteState) as err:
                failure = {"error": type(err).__name__, "message": str(err), "time": t}
                break

    columns: dict[str, np.ndarray] = {}
    if rows is not None:
        start = 0
        for name, width in stage.layout:
            columns[name] = rows[:count, start : start + width]
            start += width
    inputs = columns.pop("inputs", np.empty((count, 0)))
    margins = columns.get("margins")

    traj = Trajectory(
        t=t_out[:count],
        states=states[:count],
        inputs=inputs,
        safe=None if margins is None else np.all(margins > 0.0, axis=1),
        # the loop leaves step at n_steps, or at the step that aborted
        meta={"dt": config.dt, "horizon": config.horizon, "steps": step},
        **columns,
    )
    if failure is not None:
        traj.meta["failure"] = failure
    traj.check_lengths()
    return traj


@dataclass(frozen=True, eq=False)
class MonitorReport:
    """Safety and input summary of one trajectory."""

    min_margin: float
    min_margin_per_constraint: np.ndarray
    first_violation_time: Optional[float]
    w_dot: np.ndarray
    w_crossing_times: list[Optional[float]]
    phi_norm: np.ndarray
    force_safe_norm: np.ndarray


def safety_monitor(traj: Trajectory) -> MonitorReport:
    """Distance-to-constraint, certificate-rate and input-norm time series.

    The plain feedback-linearization magnitude is recovered as the recorded
    total force minus the recorded safety force. Certificate rates are
    forward differences of the recorded values; a crossing time is the first
    instant a certificate moves from <= 0 to > 0.
    """
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    if traj.margins is None or traj.w is None or traj.force is None:
        raise ValueError("trajectory carries no safety diagnostics to monitor")

    per_constraint = np.min(traj.margins, axis=0)
    min_margin = float(np.min(per_constraint))
    violated = np.flatnonzero(np.any(traj.margins <= 0.0, axis=1))
    first_violation = float(traj.t[violated[0]]) if violated.size else None

    dt = np.diff(traj.t)
    w_dot = np.diff(traj.w, axis=0) / dt[:, None]

    crossings: list[Optional[float]] = []
    for j in range(traj.w.shape[1]):
        col = traj.w[:, j]
        idx = np.flatnonzero((col[:-1] <= 0.0) & (col[1:] > 0.0))
        crossings.append(float(traj.t[idx[0] + 1]) if idx.size else None)

    phi = traj.force - traj.force_safe if traj.force_safe is not None else traj.force
    phi_norm = np.linalg.norm(phi, axis=1)
    fsafe_norm = (
        np.linalg.norm(traj.force_safe, axis=1)
        if traj.force_safe is not None
        else np.zeros(len(traj))
    )
    return MonitorReport(
        min_margin=min_margin,
        min_margin_per_constraint=per_constraint,
        first_violation_time=first_violation,
        w_dot=w_dot,
        w_crossing_times=crossings,
        phi_norm=phi_norm,
        force_safe_norm=fsafe_norm,
    )
