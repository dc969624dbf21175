"""Fixed-step closed-loop simulation of the arm.

The controller is treated as continuous feedback: it is evaluated at every
integrator stage, so the classical Runge-Kutta order applies to the closed
loop. Runs are deterministic for identical configurations.

The loop advances a tuple of four floats with manipulator.ArmStage.step, the
RK4 step over the closed-loop vector field of the safe task controller on the
arm. Each step starts from the derivative at its own state, which at a
recorded step comes with the diagnostics row (inputs, forces, certificate
values, margins, task-space position and velocity); the other stages compute
the derivative alone. Rows go straight into arrays allocated once per run.
A record is safe when every margin at it is positive (Trajectory.safe); the
CSV's safe_flag and cli.safety_monitor's summary of the run read that flag.

numpy is imported by simulate_closed_loop, where the arrays are made, not
by this module: SimConfig and the timing checks are plain floats, so
configuring a run does not load numpy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from .errors import NearSingular, NonFiniteState
from .manipulator import ArmStage, ManipulatorParams, SafeTaskController
from .records import Record, set_field

if TYPE_CHECKING:
    import numpy as np

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


class SimConfig(Record):
    """Step size, horizon, initial plant state (four finite floats) and
    recording stride."""

    __slots__ = ("dt", "horizon", "x0", "record_stride")

    def __init__(self, dt: float, horizon: float, x0, record_stride: int = 1):
        check_timing(dt, horizon, record_stride)
        try:
            state = tuple(map(float, x0))
        except (TypeError, ValueError):
            state = ()
        if not (len(state) == 4 and all(map(math.isfinite, state))):
            raise ValueError(
                f"x0 must be the joint state (q1, q2, qd1, qd2) in finite floats, got {x0!r}"
            )
        set_field(self, "dt", dt)
        set_field(self, "horizon", horizon)
        set_field(self, "x0", state)
        set_field(self, "record_stride", record_stride)

    @property
    def n_steps(self) -> int:
        """Steps that cover the horizon: ceil(horizon / dt), with quotients
        a rounding error away from an integer taken as that integer."""
        return _step_count(self.dt, self.horizon)


class Trajectory(Record):
    """Time-indexed record of one closed-loop run; every array shares the
    leading length of t. Unlike the other records it is mutable."""

    __slots__ = (
        "t", "states", "inputs", "pos", "vel", "force", "force_safe", "w", "margins", "safe",
        "meta",
    )
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(
        self,
        t: np.ndarray,
        states: np.ndarray,
        inputs: np.ndarray,
        pos: np.ndarray,
        vel: np.ndarray,
        force: np.ndarray,
        force_safe: np.ndarray,
        w: np.ndarray,
        margins: np.ndarray,
        safe: np.ndarray,
        meta: Optional[dict] = None,
    ):
        self.t = t
        self.states = states
        self.inputs = inputs
        self.pos = pos
        self.vel = vel
        self.force = force
        self.force_safe = force_safe
        self.w = w
        self.margins = margins
        self.safe = safe
        self.meta = {} if meta is None else meta

    def __len__(self) -> int:
        return self.t.shape[0]

    @property
    def failed(self) -> bool:
        return "failure" in self.meta


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
    import numpy as np

    stage = ArmStage(controller, plant_params)
    dt, stride = config.dt, config.record_stride
    n_steps = config.n_steps
    n_records = _record_count(n_steps, stride)
    x = config.x0

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
    return traj

