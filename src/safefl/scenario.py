"""Run configuration and assembly of the reach-avoid manipulator scenario.

A configuration names the arm, the Cartesian goal, per-axis position
constraints, loop gains and certificate parameters. Assembly normalizes each
constraint onto a canonical left half plane (recording the axis sign flip),
solves the per-axis Lyapunov equations, selects or validates the certificate
parameters, and exposes the controller factory for simulation. Each
certificate carries its one design record, the ParameterBounds (v1, v2,
gamma) its parameters were chosen against; parameter_report reads the bounds
and sigmoid endpoints from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import clbf
from .clbf import (
    HalfPlaneUnsafe,
    MarginPolicy,
    QuadraticCLF,
    RegionBox,
    WeakCLBF,
    assemble_weak_clbf,
    select_parameters,
    v1_min_on_unsafe,
)
from .errors import ConfigError
from .manipulator import (
    ManipulatorParams,
    SafeTaskController,
    forward_kinematics,
    inverse_kinematics,
    jacobian,
)
from .numerics import solve_lyapunov_2x2
from .sim import SimConfig, Trajectory, check_timing, simulate_closed_loop

SCHEMA_VERSION = 1

_DEFAULT_Q = [[1.0, -0.9], [-0.9, 1.0]]


@dataclass(frozen=True)
class ConstraintSpec:
    """Keep-out bound on one task axis: side 'max' keeps p_axis below bound,
    side 'min' keeps it above."""

    axis: int
    side: str
    bound: float


@dataclass(frozen=True, eq=False)
class RunConfig:
    name: str
    manipulator: ManipulatorParams
    goal: np.ndarray
    initial_position: np.ndarray
    initial_velocity: np.ndarray
    elbow: str
    region_p1: tuple[float, float]
    region_p2: tuple[float, float]
    speed_limit: float
    constraints: tuple[ConstraintSpec, ...]
    kp: np.ndarray
    kd: np.ndarray
    lyapunov_q: np.ndarray
    clbf_mode: str
    v2: tuple[Optional[float], Optional[float]]
    l_override: tuple[Optional[float], Optional[float]]
    delta_margin: float
    theta_margin: float
    explicit_params: Optional[tuple[dict, ...]]
    dt: float
    horizon: float
    record_stride: int
    k_safe_sweep: tuple[float, ...]
    reference_initial_w: Optional[tuple[float, float]]

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        try:
            return _parse_config(cls, raw)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as err:
            raise ConfigError(f"invalid configuration: {err}") from err


_TOP_LEVEL_KEYS = {
    "schema_version",
    "name",
    "manipulator",
    "goal",
    "initial",
    "region",
    "constraints",
    "gains",
    "lyapunov_q",
    "clbf",
    "simulation",
    "k_safe",
    "reference_initial_w",
}


def _number(value, what: str) -> float:
    """A JSON number (int or float, not a boolean or a string) as a finite
    float; anything else is a configuration error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what}: {value!r} is not a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{what}: {number} is not a finite number")
    return number


def _entries(value, what: str) -> list:
    """A JSON array of exactly two entries."""
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{what} must be an array of exactly two entries")
    return value


def _pair(value, what: str) -> tuple[float, float]:
    first, second = _entries(value, what)
    return _number(first, what), _number(second, what)


def _optional_pair(value, what: str) -> tuple[Optional[float], Optional[float]]:
    if value is None:
        return (None, None)
    values = _entries(value, what)
    return tuple(None if v is None else _number(v, what) for v in values)  # type: ignore[return-value]


def run_label(k_safe: float) -> str:
    """Name of the outputs of the run at safety gain k_safe."""
    return "baseline" if k_safe == 0.0 else f"ksafe_{k_safe:g}"


def checked_sweep(values) -> tuple[float, ...]:
    """Safety gains of a sweep, each finite and positive, with distinct run labels.

    The baseline run (k_safe = 0) is added by the caller; raises ConfigError
    otherwise, since two runs with one label would overwrite each other's
    outputs.
    """
    sweep = tuple(float(v) for v in values)
    bad = [v for v in sweep if not (math.isfinite(v) and v > 0.0)]
    if bad:
        raise ConfigError(f"k_safe sweep values must be finite and positive, got {bad}")
    labels = [run_label(v) for v in sweep]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"k_safe sweep values {list(sweep)} repeat a run label")
    return sweep


def _parse_config(cls, raw: dict) -> "RunConfig":
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}"
        )

    arm = raw["manipulator"]
    params = ManipulatorParams(
        m1=_number(arm["m1"], "m1"),
        m2=_number(arm["m2"], "m2"),
        L1=_number(arm["L1"], "L1"),
        L2=_number(arm["L2"], "L2"),
        gravity=_number(arm.get("gravity", 9.81), "gravity"),
    )
    goal = np.array(_pair(raw["goal"], "goal"))
    initial = raw["initial"]
    p0 = np.array(_pair(initial["position"], "initial position"))
    v0 = np.array(_pair(initial["velocity"], "initial velocity"))
    elbow = str(initial.get("elbow", "up"))
    if elbow not in ("up", "down"):
        raise ConfigError(f"elbow must be 'up' or 'down', got {elbow!r}")

    region = raw["region"]
    p1_lo, p1_hi = _pair(region["p1"], "region p1")
    p2_lo, p2_hi = _pair(region["p2"], "region p2")
    speed = _number(region["speed_limit"], "speed_limit")
    if speed <= 0.0:
        raise ConfigError("speed_limit must be positive")

    constraints = []
    seen_axes = set()
    for entry in raw["constraints"]:
        axis = _number(entry["axis"], "constraint axis")
        side = str(entry["side"])
        if axis not in (0, 1):
            raise ConfigError(f"constraint axis must be 0 or 1, got {axis}")
        axis = int(axis)
        if side not in ("min", "max"):
            raise ConfigError(f"constraint side must be 'min' or 'max', got {side!r}")
        if axis in seen_axes:
            raise ConfigError(f"duplicate constraint on axis {axis}")
        seen_axes.add(axis)
        bound = _number(entry["bound"], "constraint bound")
        constraints.append(ConstraintSpec(axis=axis, side=side, bound=bound))
    if not constraints:
        raise ConfigError("at least one constraint required")
    constraints.sort(key=lambda c: c.axis)

    gains = raw["gains"]
    kp = np.array(_pair(gains["kp"], "kp"))
    kd = np.array(_pair(gains["kd"], "kd"))
    if np.any(kp <= 0.0) or np.any(kd <= 0.0):
        raise ConfigError("gains must be positive")

    q_rows = _entries(raw.get("lyapunov_q", _DEFAULT_Q), "lyapunov_q")
    q_mat = np.array([_pair(row, "lyapunov_q row") for row in q_rows])

    section = raw["clbf"]
    mode = str(section.get("mode", "auto"))
    if mode not in ("auto", "explicit"):
        raise ConfigError(f"clbf mode must be 'auto' or 'explicit', got {mode!r}")
    v2 = _optional_pair(section.get("v2"), "clbf v2")
    l_override = _optional_pair(section.get("l"), "clbf l")
    delta_margin = _number(section.get("delta_margin", 1.05), "delta_margin")
    theta_margin = _number(section.get("theta_margin", 1.05), "theta_margin")
    explicit_params = None
    if mode == "explicit":
        entries = section.get("params")
        if not isinstance(entries, list) or len(entries) != len(constraints):
            raise ConfigError("explicit mode needs one params entry per constraint")
        cooked = []
        for entry in entries:
            cooked.append(
                {
                    "l": _number(entry["l"], "explicit l"),
                    "delta": _number(entry["delta"], "explicit delta"),
                    "theta": _number(entry["theta"], "explicit theta"),
                    "k": None if entry.get("k") is None else _number(entry["k"], "explicit k"),
                }
            )
        explicit_params = tuple(cooked)
        if any(v is None for v in v2):
            raise ConfigError("explicit mode requires v2 for every constraint")

    sim = raw["simulation"]
    dt = _number(sim["dt"], "dt")
    horizon = _number(sim["horizon"], "horizon")
    stride = _number(sim.get("record_stride", 1), "record_stride")
    check_timing(dt, horizon, stride)

    k_safe = raw.get("k_safe", [])
    if not isinstance(k_safe, list):
        raise ConfigError("k_safe must be an array of numbers")
    sweep = checked_sweep(_number(v, "k_safe") for v in k_safe)

    reference = raw.get("reference_initial_w")
    reference_w = None if reference is None else _pair(reference, "reference_initial_w")

    return cls(
        name=str(raw.get("name", "scenario")),
        manipulator=params,
        goal=goal,
        initial_position=p0,
        initial_velocity=v0,
        elbow=elbow,
        region_p1=(p1_lo, p1_hi),
        region_p2=(p2_lo, p2_hi),
        speed_limit=speed,
        constraints=tuple(constraints),
        kp=kp,
        kd=kd,
        lyapunov_q=q_mat,
        clbf_mode=mode,
        v2=v2,
        l_override=l_override,
        delta_margin=delta_margin,
        theta_margin=theta_margin,
        explicit_params=explicit_params,
        dt=dt,
        horizon=horizon,
        record_stride=int(stride),
        k_safe_sweep=sweep,
        reference_initial_w=reference_w,
    )


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read configuration: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"configuration is not valid JSON: {err}") from err
    return RunConfig.from_dict(raw)


def default_config_path() -> Path:
    return Path(__file__).parent / "configs" / "paper_scenario.json"


# ---------------------------------------------------------------------------
# assembly


@dataclass(frozen=True)
class SubsystemSetup:
    """One task axis of the decoupled loop, with its certificate if constrained."""

    axis: int
    sign: float
    kp: float
    kd: float
    clf: QuadraticCLF
    region: RegionBox
    unsafe: Optional[HalfPlaneUnsafe]
    certificate: Optional[WeakCLBF]
    xbar0: tuple[float, float]

    @property
    def constrained(self) -> bool:
        return self.certificate is not None


@dataclass(frozen=True, eq=False)
class ScenarioBundle:
    config: RunConfig
    subsystems: tuple[SubsystemSetup, ...]
    q0: np.ndarray
    qdot0: np.ndarray

    @property
    def params(self) -> ManipulatorParams:
        return self.config.manipulator

    @property
    def signs(self) -> np.ndarray:
        return np.array([sub.sign for sub in self.subsystems])

    @property
    def certificates(self) -> list[Optional[WeakCLBF]]:
        return [sub.certificate for sub in self.subsystems]

    def controller(self, k_safe_value: float) -> SafeTaskController:
        """The controller with safety gain k_safe_value on each constrained axis."""
        return SafeTaskController(
            params=self.params,
            goal=self.config.goal,
            signs=self.signs,
            kp=self.config.kp,
            kd=self.config.kd,
            k_safe=[k_safe_value if sub.constrained else 0.0 for sub in self.subsystems],
            certificates=self.certificates,
        )

    @property
    def x0(self) -> np.ndarray:
        return np.concatenate([self.q0, self.qdot0])


def _axis_interval(sign: float, lo: float, hi: float, goal: float) -> tuple[float, float]:
    a, b = sign * (lo - goal), sign * (hi - goal)
    return (a, b) if a < b else (b, a)


def build_bundle(config: RunConfig, enforce_bounds: bool = True) -> ScenarioBundle:
    """Assemble per-axis certificates and the initial joint state.

    enforce_bounds=False builds certificates exactly as configured even when
    their parameters violate the feasibility bounds, leaving judgment to the
    verifier; feasibility errors (LevelTooSmall, MarginInfeasible) still
    propagate in enforcing mode. Values the constructors reject (ValueError)
    and an initial pose at the arm's singularity threshold raise ConfigError.
    """
    try:
        return _assemble(config, enforce_bounds)
    except ValueError as err:
        raise ConfigError(f"invalid configuration: {err}") from err


def _assemble(config: RunConfig, enforce_bounds: bool) -> ScenarioBundle:
    goal = config.goal
    p_bounds = (config.region_p1, config.region_p2)
    if not all(
        p_bounds[axis][0] < goal[axis] < p_bounds[axis][1] for axis in (0, 1)
    ):
        raise ConfigError("region must contain the goal in its interior")
    if not all(
        p_bounds[axis][0] <= config.initial_position[axis] <= p_bounds[axis][1]
        for axis in (0, 1)
    ):
        raise ConfigError("region must contain the initial position")

    by_axis = {c.axis: c for c in config.constraints}
    subsystems = []
    constrained_index = 0
    for axis in (0, 1):
        spec = by_axis.get(axis)
        if spec is not None:
            # a max bound is flipped onto the canonical x1 <= d by x -> -x
            sign = -1.0 if spec.side == "max" else 1.0
            unsafe = HalfPlaneUnsafe(sign * (spec.bound - goal[axis]))
        else:
            unsafe, sign = None, 1.0

        lo, hi = _axis_interval(sign, *p_bounds[axis], goal[axis])
        region = RegionBox(lo, hi, -config.speed_limit, config.speed_limit)

        A = np.array([[0.0, 1.0], [-config.kp[axis], -config.kd[axis]]])
        clf = QuadraticCLF.from_matrix(solve_lyapunov_2x2(A, config.lyapunov_q))

        e0 = sign * (config.initial_position[axis] - goal[axis])
        edot0 = sign * config.initial_velocity[axis]

        certificate = None
        if unsafe is not None:
            v2 = config.v2[constrained_index]
            if v2 is None:
                # default level: cover the initial error state, with headroom
                # over the unsafe-set minimum so the level set reaches it
                v0 = clf.value_and_grad(e0, edot0)[0]
                v2 = max(v0, 1.5 * v1_min_on_unsafe(clf, unsafe.d))
            if config.clbf_mode == "auto":
                policy = MarginPolicy(
                    l=config.l_override[constrained_index],
                    delta_margin=config.delta_margin,
                    theta_margin=config.theta_margin,
                )
                certificate = select_parameters(clf, region, unsafe, v2, policy)
            else:
                entry = config.explicit_params[constrained_index]
                certificate = assemble_weak_clbf(
                    clf,
                    region,
                    unsafe,
                    v2,
                    l=entry["l"],
                    delta=entry["delta"],
                    theta=entry["theta"],
                    k=entry["k"],
                    enforce_bounds=enforce_bounds,
                )
            constrained_index += 1

        subsystems.append(
            SubsystemSetup(
                axis=axis,
                sign=sign,
                kp=float(config.kp[axis]),
                kd=float(config.kd[axis]),
                clf=clf,
                region=region,
                unsafe=unsafe,
                certificate=certificate,
                xbar0=(e0, edot0),
            )
        )

    q0 = inverse_kinematics(config.manipulator, config.initial_position, config.elbow)
    J0 = jacobian(config.manipulator, q0)
    # det J as the controller computes it, so every accepted start passes the
    # controller's own singularity check
    det = J0[0, 0] * J0[1, 1] - J0[0, 1] * J0[1, 0]
    if abs(det) <= config.manipulator.singularity_threshold:
        raise ConfigError(f"initial pose is singular: |det J| = {abs(det):.3e}")
    qdot0 = np.linalg.solve(J0, config.initial_velocity)
    fk_err = np.max(np.abs(forward_kinematics(config.manipulator, q0) - config.initial_position))
    if fk_err > 1e-9:
        raise ConfigError(f"inverse kinematics failed to reach the initial position ({fk_err:.2e})")

    return ScenarioBundle(
        config=config, subsystems=tuple(subsystems), q0=q0, qdot0=qdot0
    )


def run_case(
    bundle: ScenarioBundle,
    k_safe_value: float,
    dt: Optional[float] = None,
    horizon: Optional[float] = None,
) -> Trajectory:
    """Simulate the bundle's scenario at one safety gain.

    dt and horizon override the configured values and are checked as those
    are: an out-of-range one raises ConfigError before the run starts.
    """
    try:
        config = SimConfig(
            dt=dt if dt is not None else bundle.config.dt,
            horizon=horizon if horizon is not None else bundle.config.horizon,
            x0=bundle.x0,
            record_stride=bundle.config.record_stride,
        )
    except ValueError as err:
        raise ConfigError(f"invalid configuration: {err}") from err
    traj = simulate_closed_loop(bundle.controller(k_safe_value), bundle.params, config)
    traj.meta["k_safe"] = k_safe_value
    return traj


def verify_bundle(
    bundle: ScenarioBundle,
    grid_resolution: int = 400,
    c_omega_resolution: int = 200,
):
    """The five verdicts of clbf.verify_weak_clbf for every constrained axis:
    [(axis, report)]. An out-of-range sample count raises ConfigError."""
    results = []
    for sub in bundle.subsystems:
        if not sub.constrained:
            continue
        try:
            # looked up on the module at call time, so a patched one is seen
            report = clbf.verify_weak_clbf(
                sub.certificate, sub.region, sub.unsafe, grid_resolution, c_omega_resolution
            )
        except ValueError as err:
            raise ConfigError(f"invalid verification setting: {err}") from err
        results.append((sub.axis, report))
    return results


def parameter_report(bundle: ScenarioBundle) -> dict:
    """Chosen certificate parameters with their bounds and slack factors."""
    subsystems, initial_w = [], []
    for sub in bundle.subsystems:
        entry: dict = {
            "axis": sub.axis,
            "sign": sub.sign,
            "kp": sub.kp,
            "kd": sub.kd,
            "p_matrix": sub.clf.matrix.tolist(),
            "constrained": sub.constrained,
        }
        if sub.constrained:
            cert = sub.certificate
            bounds = cert.bounds
            l = cert.shape.l
            delta = cert.shape.delta
            delta_min = bounds.delta_min(l)
            theta_min = bounds.theta_min(l, delta)
            sigma1, sigma2 = bounds.sigma_endpoints(l, delta)
            w0 = cert.value_and_grad(*sub.xbar0)[0]
            initial_w.append(w0)
            entry.update(
                {
                    "d": sub.unsafe.d,
                    "gamma": bounds.gamma,
                    "l_max": bounds.l_max,
                    "v1": bounds.v1,
                    "v2": bounds.v2,
                    "l": l,
                    "delta_min": delta_min,
                    "delta": delta,
                    "theta_min": theta_min,
                    "theta": cert.theta,
                    "k": cert.k,
                    "sigma1": sigma1,
                    "sigma2": sigma2,
                    "w0": w0,
                    "slack": {
                        "delta_over_min": delta / delta_min if delta_min > 0 else math.inf,
                        "theta_over_min": cert.theta / theta_min if math.isfinite(theta_min) else 0.0,
                    },
                }
            )
        else:
            initial_w.append(None)
        subsystems.append(entry)
    out = {
        "name": bundle.config.name,
        "subsystems": subsystems,
        "initial_w": initial_w,
        "initial_member": all(w <= 0.0 for w in initial_w if w is not None),
    }
    if bundle.config.reference_initial_w is not None:
        out["reference_initial_w"] = list(bundle.config.reference_initial_w)
    return out
