"""Run configuration and assembly of the reach-avoid manipulator scenario.

A configuration names the arm, the Cartesian goal, per-axis position
constraints, loop gains and certificate parameters. Assembly normalizes each
constraint onto a canonical left half plane (recording the axis sign flip),
solves the per-axis Lyapunov equations, builds each certificate and exposes
the controller factory for simulation. clbf.mode "auto" builds it by
clbf.select_parameters, the one automatic choice, and takes no clbf.params;
"explicit" builds it from the configured l, delta and theta, with the
offset k that the design fixes. clbf.v2 and clbf.params hold one entry per
constraint, in axis order, and assembly pairs each constraint with its own
level and parameters. Each certificate is its own design record: its shape
holds d, and its ParameterBounds the v1, v2 and gamma its parameters were
chosen against; verify_bundle and parameter_report read them from it.

Every object in a configuration takes only its documented keys: any other
key, a misspelled one included, is a ConfigError that names it. So is a
required key that is missing, with the object it is missing from.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional

from . import clbf
from .clbf import (
    HalfPlaneUnsafe,
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
from .numerics import solve_linear, solve_lyapunov_2x2
from .records import Record, Value
from .sim import SimConfig, Trajectory, check_timing, simulate_closed_loop

SCHEMA_VERSION = 1

_DEFAULT_Q = [[1.0, -0.9], [-0.9, 1.0]]


class ConstraintSpec(Value):
    """Keep-out bound on one task axis (an int): side 'max' keeps p_axis
    below the float bound, side 'min' keeps it above."""

    __slots__ = ("axis", "side", "bound")


class RunConfig(Record):
    """A parsed configuration; every number in it but the int record_stride
    is a float, every vector and matrix a tuple of them. manipulator is a
    ManipulatorParams, constraints a tuple of ConstraintSpec, and name,
    elbow and clbf_mode strings. v2 (levels or None) and explicit_params
    (None in auto mode, else dicts of l, delta and theta) have one entry per
    constraint, in the axis order of constraints; reference_initial_w is a
    pair or None."""

    __slots__ = (
        "name", "manipulator", "goal", "initial_position", "initial_velocity", "elbow",
        "region_p1", "region_p2", "speed_limit", "constraints", "kp", "kd", "lyapunov_q",
        "clbf_mode", "v2", "explicit_params", "dt", "horizon", "record_stride", "k_safe_sweep",
        "reference_initial_w",
    )

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        try:
            return _parse_config(cls, raw)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as err:
            raise ConfigError(f"invalid configuration: {err}") from err


# The keys each object of a configuration may hold, by the object's name in
# error messages.
_KEYS = {
    "configuration": {
        "schema_version", "name", "manipulator", "goal", "initial", "region", "constraints",
        "gains", "lyapunov_q", "clbf", "simulation", "k_safe", "reference_initial_w",
    },
    "manipulator": {"m1", "m2", "L1", "L2", "gravity"},
    "initial": {"position", "velocity", "elbow"},
    "region": {"p1", "p2", "speed_limit"},
    "constraint": {"axis", "side", "bound"},
    "gains": {"kp", "kd"},
    "clbf": {"mode", "v2", "params"},
    "clbf params": {"l", "delta", "theta"},
    "simulation": {"dt", "horizon", "record_stride"},
}


class _Section(dict):
    """A configuration object; reading a key it lacks is a ConfigError that
    names the key and the object."""

    def __init__(self, value: dict, what: str):
        super().__init__(value)
        self.what = what

    def __missing__(self, key):
        raise ConfigError(f"{self.what}: missing key {key!r}")


def _object(value, what: str) -> _Section:
    """A JSON object holding only the keys _KEYS[what] names."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object")
    unknown = set(value) - _KEYS[what]
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return _Section(value, what)


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


def _choice(value, allowed: tuple[str, ...], what: str) -> str:
    """One of the allowed strings; anything else is a configuration error
    that quotes the JSON value as given."""
    if value not in allowed:
        raise ConfigError(f"{what} must be {' or '.join(map(repr, allowed))}, got {value!r}")
    return value


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
    raw = _object(raw, "configuration")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}"
        )
    name = raw.get("name", "scenario")
    if not isinstance(name, str):
        raise ConfigError(f"name must be a string, got {name!r}")

    arm = _object(raw["manipulator"], "manipulator")
    params = ManipulatorParams(
        m1=_number(arm["m1"], "m1"),
        m2=_number(arm["m2"], "m2"),
        L1=_number(arm["L1"], "L1"),
        L2=_number(arm["L2"], "L2"),
        gravity=_number(arm.get("gravity", 9.81), "gravity"),
    )
    goal = _pair(raw["goal"], "goal")
    initial = _object(raw["initial"], "initial")
    p0 = _pair(initial["position"], "initial position")
    v0 = _pair(initial["velocity"], "initial velocity")
    elbow = _choice(initial.get("elbow", "up"), ("up", "down"), "elbow")

    region = _object(raw["region"], "region")
    p1_lo, p1_hi = _pair(region["p1"], "region p1")
    p2_lo, p2_hi = _pair(region["p2"], "region p2")
    speed = _number(region["speed_limit"], "speed_limit")
    if speed <= 0.0:
        raise ConfigError("speed_limit must be positive")

    if not isinstance(raw["constraints"], list):
        raise ConfigError("constraints must be an array of objects")
    constraints = []
    seen_axes = set()
    for entry in raw["constraints"]:
        entry = _object(entry, "constraint")
        axis = _number(entry["axis"], "constraint axis")
        if axis not in (0, 1):
            raise ConfigError(f"constraint axis must be 0 or 1, got {axis}")
        axis = int(axis)
        side = _choice(entry["side"], ("min", "max"), "constraint side")
        if axis in seen_axes:
            raise ConfigError(f"duplicate constraint on axis {axis}")
        seen_axes.add(axis)
        bound = _number(entry["bound"], "constraint bound")
        constraints.append(ConstraintSpec(axis=axis, side=side, bound=bound))
    if not constraints:
        raise ConfigError("at least one constraint required")
    constraints.sort(key=lambda c: c.axis)

    gains = _object(raw["gains"], "gains")
    kp = _pair(gains["kp"], "kp")
    kd = _pair(gains["kd"], "kd")
    if min(kp + kd) <= 0.0:
        raise ConfigError("gains must be positive")

    q_rows = _entries(raw.get("lyapunov_q", _DEFAULT_Q), "lyapunov_q")
    q_mat = tuple(_pair(row, "lyapunov_q row") for row in q_rows)

    section = _object(raw["clbf"], "clbf")
    mode = _choice(section.get("mode", "auto"), ("auto", "explicit"), "clbf mode")
    v2 = section.get("v2")
    if v2 is None:
        v2 = [None] * len(constraints)
    elif not isinstance(v2, list) or len(v2) != len(constraints):
        raise ConfigError("clbf v2 must be null or an array of one entry per constraint")
    v2 = tuple(None if v is None else _number(v, "clbf v2") for v in v2)
    explicit_params = None
    if mode == "auto" and "params" in section:
        raise ConfigError("clbf params: auto mode chooses l, delta and theta; params needs mode 'explicit'")
    if mode == "explicit":
        entries = section.get("params")
        if not isinstance(entries, list) or len(entries) != len(constraints):
            raise ConfigError("explicit mode needs one params entry per constraint")
        entries = [_object(entry, "clbf params") for entry in entries]
        explicit_params = tuple(
            {key: _number(entry[key], f"explicit {key}") for key in ("l", "delta", "theta")}
            for entry in entries
        )
        if any(v is None for v in v2):
            raise ConfigError("explicit mode requires v2 for every constraint")

    sim = _object(raw["simulation"], "simulation")
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
        name=name,
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
    except (ValueError, RecursionError) as err:
        # not JSON, not UTF-8, an integer past the digit limit, or too deep
        raise ConfigError(f"configuration is not valid JSON: {err}") from err
    return RunConfig.from_dict(raw)


def default_config_path() -> Path:
    return Path(__file__).parent / "configs" / "paper_scenario.json"


# ---------------------------------------------------------------------------
# assembly


class SubsystemSetup(Value):
    """One task axis of the decoupled loop: its int axis, float sign, kp and
    kd, QuadraticCLF clf, RegionBox region, WeakCLBF certificate (None if
    the axis is unconstrained) and initial error state xbar0, a float pair."""

    __slots__ = ("axis", "sign", "kp", "kd", "clf", "region", "certificate", "xbar0")

    @property
    def constrained(self) -> bool:
        return self.certificate is not None


class ScenarioBundle(Record):
    """The assembled scenario: its RunConfig, a tuple of one SubsystemSetup
    per axis, and the initial joint angles q0 and velocities qdot0, as float
    pairs."""

    __slots__ = ("config", "subsystems", "q0", "qdot0")

    @property
    def params(self) -> ManipulatorParams:
        return self.config.manipulator

    @property
    def signs(self) -> tuple[float, ...]:
        return tuple(sub.sign for sub in self.subsystems)

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
    def x0(self) -> tuple[float, float, float, float]:
        return self.q0 + self.qdot0

    def sim_config(self, dt: Optional[float] = None, horizon: Optional[float] = None) -> SimConfig:
        """The run's settings, with dt and horizon, where given, in place of
        the configured ones; an out-of-range value raises ConfigError."""
        try:
            return SimConfig(
                dt=self.config.dt if dt is None else dt,
                horizon=self.config.horizon if horizon is None else horizon,
                x0=self.x0,
                record_stride=self.config.record_stride,
            )
        except ValueError as err:
            raise ConfigError(f"invalid configuration: {err}") from err


def _axis_interval(sign: float, lo: float, hi: float, goal: float) -> tuple[float, float]:
    a, b = sign * (lo - goal), sign * (hi - goal)
    return (a, b) if a < b else (b, a)


def build_bundle(config: RunConfig, enforce_bounds: bool = True) -> ScenarioBundle:
    """Assemble per-axis certificates and the initial joint state.

    enforce_bounds=False builds explicit certificates exactly as configured
    even when their parameters violate the feasibility bounds or leave the
    margin set empty, leaving judgment to the verifier; auto mode always
    enforces them. Feasibility errors (LevelTooSmall, MarginInfeasible)
    propagate. Values the constructors reject (ValueError),
    an overflow in the Lyapunov solve (FloatingPointError) and an initial pose
    at the arm's singularity threshold raise ConfigError.
    """
    try:
        return _assemble(config, enforce_bounds)
    except (ValueError, FloatingPointError) as err:
        raise ConfigError(f"invalid configuration: {err}") from err


def _assemble(config: RunConfig, enforce_bounds: bool) -> ScenarioBundle:
    goal = config.goal
    p_bounds = (config.region_p1, config.region_p2)
    if not all(lo < g < hi for (lo, hi), g in zip(p_bounds, goal)):
        raise ConfigError("region must contain the goal in its interior")
    if not all(lo <= p <= hi for (lo, hi), p in zip(p_bounds, config.initial_position)):
        raise ConfigError("region must contain the initial position")

    # each constraint with its own level and, in explicit mode, parameters
    entries = config.explicit_params or (None,) * len(config.constraints)
    designs = {c.axis: (c, v2, entry) for c, v2, entry in zip(config.constraints, config.v2, entries)}
    subsystems = []
    for axis in (0, 1):
        spec, v2, entry = designs.get(axis, (None, None, None))
        # a max bound is flipped onto the canonical x1 <= d by x -> -x
        sign = -1.0 if spec is not None and spec.side == "max" else 1.0
        unsafe = None if spec is None else HalfPlaneUnsafe(sign * (spec.bound - goal[axis]))

        lo, hi = _axis_interval(sign, *p_bounds[axis], goal[axis])
        region = RegionBox(lo, hi, -config.speed_limit, config.speed_limit)

        A = ((0.0, 1.0), (-config.kp[axis], -config.kd[axis]))
        clf = QuadraticCLF.from_matrix(solve_lyapunov_2x2(A, config.lyapunov_q))

        e0 = sign * (config.initial_position[axis] - goal[axis])
        edot0 = sign * config.initial_velocity[axis]

        certificate = None
        if unsafe is not None:
            if v2 is None:
                # default level: cover the initial error state, with headroom
                # over the unsafe-set minimum so the level set reaches it
                v0 = clf.value_and_grad(e0, edot0)[0]
                v2 = max(v0, 1.5 * v1_min_on_unsafe(clf, unsafe))
            if config.clbf_mode == "auto":
                certificate = select_parameters(clf, region, unsafe, v2)
            else:  # entry holds l, delta and theta
                certificate = assemble_weak_clbf(
                    clf, region, unsafe, v2, **entry, enforce_bounds=enforce_bounds
                )

        subsystems.append(
            SubsystemSetup(
                axis=axis,
                sign=sign,
                kp=config.kp[axis],
                kd=config.kd[axis],
                clf=clf,
                region=region,
                certificate=certificate,
                xbar0=(e0, edot0),
            )
        )

    q0 = inverse_kinematics(config.manipulator, config.initial_position, config.elbow)
    J0 = jacobian(config.manipulator, q0)
    (j11, j12), (j21, j22) = J0
    # det J as the controller computes it, so every accepted start passes the
    # controller's own singularity check
    det = j11 * j22 - j12 * j21
    if abs(det) <= config.manipulator.singularity_threshold:
        raise ConfigError(f"initial pose is singular: |det J| = {abs(det):.3e}")
    qdot0 = tuple(solve_linear(J0, config.initial_velocity))
    reached = forward_kinematics(config.manipulator, q0)
    fk_err = max(abs(p - p0) for p, p0 in zip(reached, config.initial_position))
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
    are (ScenarioBundle.sim_config): an out-of-range one raises ConfigError
    before the run starts.
    """
    config = bundle.sim_config(dt, horizon)
    traj = simulate_closed_loop(bundle.controller(k_safe_value), bundle.params, config)
    traj.meta["k_safe"] = k_safe_value
    return traj


def verify_bundle(
    bundle: ScenarioBundle,
    grid_resolution: int = clbf.DEFAULT_GRID_RESOLUTION,
    c_omega_resolution: int = 200,
):
    """The five verdicts of clbf.verify_weak_clbf for every constrained axis:
    [(axis, report)]. An out-of-range sample count raises ConfigError.

    The margin set is decided by its bound alone, with no samples:
    c_omega_resolution is accepted and ignored, only because the benchmark's
    certify workload still passes it."""
    results = []
    for sub in bundle.subsystems:
        if not sub.constrained:
            continue
        try:
            # looked up on the module at call time, so a patched one is seen
            report = clbf.verify_weak_clbf(sub.certificate, sub.region, grid_resolution)
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
            "p_matrix": [[sub.clf.p11, sub.clf.p12], [sub.clf.p12, sub.clf.p22]],
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
                    "d": cert.shape.d,
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
