"""Fixed-step closed-loop simulation of the arm with safety and input monitors.

The controller is treated as continuous feedback: it is evaluated at every
integrator stage, so the classical Runge-Kutta order applies to the closed
loop. Runs are deterministic for identical configurations.

The loop advances a tuple of four floats with manipulator.ArmStage.step, the
RK4 step over the closed-loop vector field of the safe task controller on the
arm. Each step starts from the derivative at its own state, which at a
recorded step comes with the diagnostics row (inputs, forces, certificate
values, margins, task-space position and velocity); the other stages compute
the derivative alone. Rows go straight into arrays allocated once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NearSingular, NonFiniteState
from .manipulator import ArmStage, ManipulatorParams, SafeTaskController

# A step count horizon / dt within this relative distance of an integer is
# taken as that integer: the quotient of two decimal floats can land a
# rounding error above it (16.1 / 1e-3 = 16100.000000000002).
_STEP_SNAP = 1e-9

# Most records one run may hold: its rows, states and times take about
# 152 bytes per record, so the buffers stay near 1.5 GB.
MAX_RECORDS = 10_000_000


def _step_count(dt: float, horizon: float) -> int:
    ratio = horizon / dt
    nearest = round(ratio)
    if nearest >= 1 and abs(ratio - nearest) <= _STEP_SNAP * nearest:
        return nearest
    return math.ceil(ratio)


def _record_count(n_steps: int, record_stride: int) -> int:
    # every record_stride-th step and the last step
    return -(-n_steps // record_stride) + 1


def check_timing(dt: float, horizon: float, record_stride: float) -> None:
    """Raise ValueError unless 0 < dt <= 1e-2, 0 < horizon < inf, record_stride
    is an integer >= 1 and the run holds at most MAX_RECORDS records. NaN
    fails every check."""
    if not 0.0 < dt <= 1e-2:
        raise ValueError(f"dt must lie in (0, 1e-2], got {dt}")
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    if not (record_stride >= 1 and float(record_stride).is_integer()):
        raise ValueError(f"record_stride must be an integer >= 1, got {record_stride}")
    records = _record_count(_step_count(dt, horizon), int(record_stride))
    if records > MAX_RECORDS:
        raise ValueError(
            f"a run of {records} records exceeds the limit of {MAX_RECORDS}; "
            "shorten the horizon or raise record_stride"
        )


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Step size, horizon, initial plant state and recording stride."""

    dt: float
    horizon: float
    x0: np.ndarray
    record_stride: int = 1

    def __post_init__(self):
        check_timing(self.dt, self.horizon, self.record_stride)
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (4,):
            raise ValueError(f"x0 must be the joint state (q1, q2, qd1, qd2), got shape {x0.shape}")
        object.__setattr__(self, "x0", x0)

    @property
    def n_steps(self) -> int:
        """Steps that cover the horizon: ceil(horizon / dt), with quotients
        a rounding error away from an integer taken as that integer."""
        return _step_count(self.dt, self.horizon)


@dataclass(eq=False)
class Trajectory:
    """Time-indexed record of one closed-loop run; every array shares the
    leading length of t."""

    t: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    pos: np.ndarray
    vel: np.ndarray
    force: np.ndarray
    force_safe: np.ndarray
    w: np.ndarray
    margins: np.ndarray
    safe: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.t.shape[0]

    @property
    def failed(self) -> bool:
        return "failure" in self.meta

    def check_lengths(self) -> None:
        n = len(self)
        for name in ("states", "inputs", "pos", "vel", "force", "force_safe", "w", "margins", "safe"):
            length = getattr(self, name).shape[0]
            if length != n:
                raise ValueError(f"column {name} has length {length}, expected {n}")
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("time stamps must be strictly increasing")


def simulate_closed_loop(
    controller: SafeTaskController,
    plant_params: ManipulatorParams,
    config: SimConfig,
) -> Trajectory:
    """Integrate the arm with parameters plant_params under the safe task
    controller, recording diagnostics per step. The plant may differ from
    the controller's model, controller.params.

    A step is recorded once its first stage has been evaluated. NearSingular
    and NonFiniteState abort the run; the partial trajectory is returned
    with failure metadata instead of raising. meta["steps"] counts the
    completed integration steps, whatever the recording stride.
    """
    stage = ArmStage(controller, plant_params)
    dt, stride = config.dt, config.record_stride
    n_steps = config.n_steps
    n_records = _record_count(n_steps, stride)
    x = tuple(config.x0.tolist())

    t_out = np.empty(n_records)
    states = np.empty((n_records, len(x)))
    rows = np.empty((n_records, sum(width for _, width in ArmStage.layout)))
    failure: Optional[dict] = None
    count = 0
    for step in range(n_steps + 1):
        t = step * dt
        try:
            if step % stride == 0 or step == n_steps:
                k1, row = stage.record(t, x)
                t_out[count] = t
                states[count] = x
                rows[count] = row
                count += 1
            else:
                k1 = stage(t, x)
            if step == n_steps:
                break
            x = stage.step(t, x, dt, k1)
        except (NearSingular, NonFiniteState) as err:
            failure = {"error": type(err).__name__, "message": str(err), "time": t}
            break

    columns = ArmStage.columns(rows[:count])
    traj = Trajectory(
        t=t_out[:count],
        states=states[:count],
        safe=np.all(columns["margins"] > 0.0, axis=1),
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

    # a run that diverged records huge or non-finite values; their rates and
    # norms overflow to inf, which is what the report should say
    with np.errstate(over="ignore", invalid="ignore"):
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

        phi_norm = np.linalg.norm(traj.force - traj.force_safe, axis=1)
        force_safe_norm = np.linalg.norm(traj.force_safe, axis=1)

    return MonitorReport(
        min_margin=min_margin,
        min_margin_per_constraint=per_constraint,
        first_violation_time=first_violation,
        w_dot=w_dot,
        w_crossing_times=crossings,
        phi_norm=phi_norm,
        force_safe_norm=force_safe_norm,
    )
