"""Fixed-step closed-loop simulation of the arm.

The controller is treated as continuous feedback: it is evaluated at every
integrator stage, so the classical Runge-Kutta order applies to the closed
loop. Runs are deterministic for identical configurations.

The loop advances a tuple of four floats with manipulator.ArmStage.step, the
RK4 step over the closed-loop vector field of the safe task controller on the
arm. Each step starts from the derivative at its own state, which at a
recorded step comes with the diagnostics row, the blocks of ArmStage.layout;
the other stages compute the derivative alone. A record (t, q1, q2, qd1, qd2,
*row) is one row of an array allocated once per run, and the Trajectory's
fields are views of that array.
A record is safe when every margin at it is positive (Trajectory.safe); the
CSV's safe_flag and cli.safety_monitor's summary of the run read that flag.

numpy is imported by simulate_closed_loop, where the arrays are made, not
by this module: SimConfig and the timing checks are plain floats, so
configuring a run does not load numpy.
"""

from __future__ import annotations

import math

from .errors import NearSingular, NonFiniteState
from .manipulator import ArmStage, ManipulatorParams, SafeTaskController
from .records import Record

# A step count horizon / dt within this relative distance of an integer is
# taken as that integer: the quotient of two decimal floats can land a
# rounding error above it (16.1 / 1e-3 = 16100.000000000002).
_STEP_SNAP = 1e-9

# Most records one run may hold: at 152 bytes each, its array stays near 1.5 GB.
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
    is an integer >= 1 and the run holds at most MAX_RECORDS records, which
    a horizon / dt that overflows to inf does not. NaN fails every check.
    The message gives the record count to 16 significant digits, exact up
    to 2**53, so it stays one short line at any horizon."""
    if not 0.0 < dt <= 1e-2:
        raise ValueError(f"dt must lie in (0, 1e-2], got {dt}")
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    if not (record_stride >= 1 and float(record_stride).is_integer()):
        raise ValueError(f"record_stride must be an integer >= 1, got {record_stride}")
    finite = horizon / dt < math.inf
    records = _record_count(_step_count(dt, horizon), int(record_stride)) if finite else math.inf
    if records > MAX_RECORDS:
        raise ValueError(
            f"a run of {records:.16g} records exceeds the limit of {MAX_RECORDS}; "
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
        super().__init__(dt, horizon, state, record_stride)

    @property
    def n_steps(self) -> int:
        """Steps that cover the horizon: ceil(horizon / dt), with quotients
        a rounding error away from an integer taken as that integer."""
        return _step_count(self.dt, self.horizon)


class Trajectory(Record):
    """Time-indexed record of one closed-loop run: numpy arrays t (n,),
    states (n, 4), the (n, 2) blocks of ArmStage.layout (pos, vel, inputs,
    force, force_safe, w, margins) and the bools safe (n,), and meta, a dict
    of the run's settings and outcome. Like every record it is immutable;
    only meta grows, filled by the simulator, with k_safe added by run_case."""

    __slots__ = ("t", "states", *(name for name, _ in ArmStage.layout), "safe", "meta")

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
    x = config.x0
    records = np.empty((_record_count(n_steps, stride), 5 + 2 * len(ArmStage.layout)))
    meta = {"dt": config.dt, "horizon": config.horizon}
    count = 0
    for step in range(n_steps + 1):
        t = step * dt
        try:
            if step % stride == 0 or step == n_steps:
                k1, row = stage.record(t, x)
                records[count] = (t, *x, *row)
                count += 1
            else:
                k1 = stage(t, x)
            if step == n_steps:
                break
            x = stage.step(t, x, dt, k1)
        except (NearSingular, NonFiniteState) as err:
            meta["failure"] = {"error": type(err).__name__, "message": str(err), "time": t}
            break

    # the loop leaves step at n_steps, or at the step that aborted
    meta["steps"] = step
    records = records[:count]
    columns = ArmStage.columns(records[:, 5:])
    return Trajectory(
        t=records[:, 0],
        states=records[:, 1:5],
        safe=np.all(columns["margins"] > 0.0, axis=1),
        meta=meta,
        **columns,
    )

