"""Sigmoid-scaled weak control Lyapunov-barrier functions on R^2.

A quadratic Lyapunov function V(x) = 0.5 x'Px is rescaled by 1 + theta*sigma(x1),
where sigma is a decreasing sigmoid centered just outside the unsafe half plane
{x1 <= d}, and shifted by an offset k. With the slope, margin, scaling and offset
chosen against explicit bounds, the result W is positive on the unsafe set,
decreases along the drift wherever the input cannot act on it, and has a
non-empty admissible sublevel set -- all of which this module checks on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    EmptyCOmega,
    GridTooCoarse,
    InvalidUnsafeSet,
    LevelTooSmall,
    MarginInfeasible,
)
from .numerics import as_mat2, is_spd

_EXP_CLAMP = 700.0  # IEEE double overflow guard; clamping error < 1e-300
C_OMEGA_TOL = 1e-9
MIN_GRID_RESOLUTION = 50


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class RegionBox:
    """Axis-aligned compact region of interest; must contain the origin."""

    x1_min: float
    x1_max: float
    x2_min: float
    x2_max: float

    def __post_init__(self):
        if not (self.x1_min < self.x1_max and self.x2_min < self.x2_max):
            raise ValueError("region bounds must satisfy lower < upper")
        if not (self.x1_min <= 0.0 <= self.x1_max and self.x2_min <= 0.0 <= self.x2_max):
            raise ValueError("region must contain the origin")

    @property
    def x1_extent(self) -> float:
        return self.x1_max - self.x1_min

    @property
    def x2_extent(self) -> float:
        return self.x2_max - self.x2_min

    @property
    def diameter(self) -> float:
        return math.hypot(self.x1_extent, self.x2_extent)

    def contains(self, x1: float, x2: float) -> bool:
        return (
            self.x1_min <= x1 <= self.x1_max and self.x2_min <= x2 <= self.x2_max
        )

    def axes(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.x1_min, self.x1_max, n),
            np.linspace(self.x2_min, self.x2_max, n),
        )

    def grid(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        a1, a2 = self.axes(n)
        return np.meshgrid(a1, a2, indexing="ij")


@dataclass(frozen=True)
class HalfPlaneUnsafe:
    """Unsafe half plane {x in X : x1 <= d} with d < 0."""

    d: float

    def __post_init__(self):
        if not (math.isfinite(self.d) and self.d < 0.0):
            raise InvalidUnsafeSet(f"unsafe threshold must be negative, got {self.d}")


def normalize_constraint(direction: str, d_raw: float) -> tuple[HalfPlaneUnsafe, bool]:
    """Canonicalize an unsafe half plane given as x1 <= d_raw or x1 >= d_raw.

    The 'ge' form is mapped onto the canonical 'le' form by the coordinate
    flip x -> -x; the returned flag tells the caller to compose downstream
    dynamics with that sign change. Raises InvalidUnsafeSet when the
    canonical threshold is not negative.
    """
    key = direction.strip().lower()
    if key in ("le", "<="):
        return HalfPlaneUnsafe(d_raw), False
    if key in ("ge", ">="):
        return HalfPlaneUnsafe(-d_raw), True
    raise ValueError(f"direction must be 'le' or 'ge', got {direction!r}")


@dataclass(frozen=True)
class SigmoidShape:
    """Decreasing sigmoid 1 / (1 + exp(l*(x1 - d - delta/2)))."""

    l: float
    d: float
    delta: float

    def __post_init__(self):
        if not (self.l > 0.0 and math.isfinite(self.l)):
            raise ValueError("sigmoid slope l must be positive")
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError("safety margin delta must be positive")

    @property
    def center(self) -> float:
        return self.d + 0.5 * self.delta


_ONE_BELOW = float(np.nextafter(1.0, 0.0))


def sigmoid_eval(shape: SigmoidShape, x1):
    """Sigmoid value in the open interval (0, 1); exponent clamped to +-700.

    A float (or int) argument gives a float through math, an array gives an
    array through numpy. Deep saturation rounds to the closest representable
    doubles inside the interval, so the strict bounds hold even at extreme
    arguments.
    """
    if isinstance(x1, (float, int)):
        z = shape.l * (x1 - shape.center)
        if z > _EXP_CLAMP:
            z = _EXP_CLAMP
        elif z < -_EXP_CLAMP:
            z = -_EXP_CLAMP
        s = 1.0 / (1.0 + math.exp(z))
        return s if s < 1.0 else _ONE_BELOW
    z = shape.l * (np.asarray(x1, dtype=float) - shape.center)
    z = np.clip(z, -_EXP_CLAMP, _EXP_CLAMP)
    out = np.minimum(1.0 / (1.0 + np.exp(z)), _ONE_BELOW)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class QuadraticCLF:
    """Quadratic Lyapunov function V(x) = 0.5 x'Px for a 2x2 SPD P."""

    p11: float
    p12: float
    p22: float

    def __post_init__(self):
        if not is_spd(self.matrix):
            raise ValueError("P must be symmetric positive definite")

    @classmethod
    def from_matrix(cls, P) -> "QuadraticCLF":
        P = as_mat2(P)
        if not is_spd(P):
            raise ValueError("P must be symmetric positive definite")
        return cls(float(P[0, 0]), float(P[0, 1]), float(P[1, 1]))

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.p11, self.p12], [self.p12, self.p22]])

    @property
    def det(self) -> float:
        return self.p11 * self.p22 - self.p12 * self.p12

    def eigenvalue_range(self) -> tuple[float, float]:
        trace = self.p11 + self.p22
        gap = math.hypot(self.p11 - self.p22, 2.0 * self.p12)
        return 0.5 * (trace - gap), 0.5 * (trace + gap)

    def value_and_grad(self, x1, x2):
        """(V, dV/dx1, dV/dx2) at floats or at arrays of one shape."""
        g1 = self.p11 * x1 + self.p12 * x2
        g2 = self.p12 * x1 + self.p22 * x2
        return 0.5 * (g1 * x1 + g2 * x2), g1, g2


def v1_minimizer_on_unsafe(P, d: float) -> tuple[float, float]:
    """Point of D where V is minimal: (d, -(p12/p22) d)."""
    clf = P if isinstance(P, QuadraticCLF) else QuadraticCLF.from_matrix(P)
    if d >= 0.0:
        raise InvalidUnsafeSet(f"unsafe threshold must be negative, got {d}")
    return d, -(clf.p12 / clf.p22) * d


def v1_min_on_unsafe(P, d: float) -> float:
    """Minimum of V over the unsafe half plane: det(P) d^2 / (2 p22)."""
    clf = P if isinstance(P, QuadraticCLF) else QuadraticCLF.from_matrix(P)
    if d >= 0.0:
        raise InvalidUnsafeSet(f"unsafe threshold must be negative, got {d}")
    return clf.det * d * d / (2.0 * clf.p22)


@dataclass(frozen=True)
class LevelParams:
    """Level values and sigmoid endpoints entering the parameter bounds."""

    v1: float
    v2: float
    sigma1: float
    sigma2: float
    gamma: float

    def __post_init__(self):
        if not (0.0 < self.v1 < self.v2):
            raise ValueError("levels must satisfy 0 < v1 < v2")
        if not (0.0 < self.sigma2 < 0.5 < self.sigma1 < 1.0):
            raise ValueError("sigmoid endpoints must satisfy 0 < sigma2 < 1/2 < sigma1 < 1")


@dataclass(frozen=True)
class WeakCLBF:
    """Scaled-and-shifted certificate W(x) = (1 + theta*sigma(x1)) V(x) - k.

    Instances produced by select_parameters / assemble_weak_clbf satisfy the
    slope, margin, scaling and offset bounds; direct construction performs no
    cross-parameter validation so that deliberately broken certificates can be
    fed to the verifier.
    """

    clf: QuadraticCLF
    shape: SigmoidShape
    theta: float
    k: float
    levels: LevelParams

    def value_and_grad(self, x1, x2):
        """(W, dW/dx1, dW/dx2) at floats or at arrays of one shape, sharing
        one evaluation of V and of the sigmoid."""
        v, g1, g2 = self.clf.value_and_grad(x1, x2)
        s = sigmoid_eval(self.shape, x1)
        scale = 1.0 + self.theta * s
        slope = -self.shape.l * s * (1.0 - s)
        return (
            scale * v - self.k,
            self.theta * v * slope + scale * g1,
            scale * g2,
        )

    @property
    def line_slope(self) -> float:
        """Slope c of the line {x2 = -c x1} on which the input cannot move W."""
        return self.clf.p12 / self.clf.p22


# ---------------------------------------------------------------------------
# parameter selection


@dataclass(frozen=True)
class ParameterBounds:
    """Feasible-parameter bounds for a given (P, X, d, v2) problem."""

    gamma: float
    l_max: Optional[float]  # None when gamma <= 0 (slope bound vacuous)
    v1: float
    v2: float

    def delta_min(self, l: float) -> float:
        return (2.0 / l) * math.log(self.v2 / self.v1)

    def sigma_endpoints(self, l: float, delta: float) -> tuple[float, float]:
        sigma1 = 1.0 / (1.0 + math.exp(-0.5 * l * delta))
        sigma2 = 1.0 / (1.0 + math.exp(min(0.5 * l * delta, _EXP_CLAMP)))
        return sigma1, sigma2

    def theta_min(self, l: float, delta: float) -> float:
        sigma1, sigma2 = self.sigma_endpoints(l, delta)
        denom = sigma1 * self.v1 - sigma2 * self.v2
        if denom <= 0.0:
            return math.inf
        return (self.v2 - self.v1) / denom


def parameter_bounds(P, region: RegionBox, unsafe: HalfPlaneUnsafe, v2: float) -> ParameterBounds:
    clf = P if isinstance(P, QuadraticCLF) else QuadraticCLF.from_matrix(P)
    if unsafe.d < region.x1_min:
        raise InvalidUnsafeSet(
            f"unsafe threshold {unsafe.d} lies outside the region's x1 range"
        )
    v1 = v1_min_on_unsafe(clf, unsafe.d)
    if v2 <= v1:
        raise LevelTooSmall(f"v2 = {v2} must exceed v1 = {v1}")
    gamma = region.x1_max
    l_max = 2.0 / gamma if gamma > 0.0 else None
    return ParameterBounds(gamma=gamma, l_max=l_max, v1=v1, v2=v2)


# Fraction of the region's x1 extent that stands in for gamma in the slope
# 2 / gamma when gamma <= 0 leaves the slope bound vacuous.
GAMMA_FALLBACK = 0.1


@dataclass(frozen=True)
class MarginPolicy:
    """How strictly-feasible parameters are picked from their bounds.

    l defaults to the slope bound 2/gamma (or, when the region lies entirely
    in x1 <= 0 and the bound is vacuous, to 2 / (GAMMA_FALLBACK * x1-extent)).
    delta and theta take their lower bounds inflated by the given factors;
    the strict inequalities need explicit slack.
    """

    l: Optional[float] = None
    delta_margin: float = 1.05
    theta_margin: float = 1.05

    def __post_init__(self):
        if self.delta_margin <= 1.0 or self.theta_margin <= 1.0:
            raise ValueError("margin factors must exceed 1")
        if self.l is not None and self.l <= 0.0:
            raise ValueError("slope override must be positive")


def assemble_weak_clbf(
    P,
    region: RegionBox,
    unsafe: HalfPlaneUnsafe,
    v2: float,
    l: float,
    delta: float,
    theta: float,
    k: Optional[float] = None,
    enforce_bounds: bool = True,
) -> WeakCLBF:
    """Build a WeakCLBF from explicit parameters, checking them against bounds.

    With enforce_bounds=False the certificate is built as given (out-of-bound
    parameters included) so that the verifier, not the constructor, judges it.
    """
    clf = P if isinstance(P, QuadraticCLF) else QuadraticCLF.from_matrix(P)
    bounds = parameter_bounds(clf, region, unsafe, v2)
    sigma1, sigma2 = bounds.sigma_endpoints(l, delta)
    if enforce_bounds:
        if bounds.l_max is not None and not (0.0 < l <= bounds.l_max * (1.0 + 1e-12)):
            raise MarginInfeasible(
                f"slope l = {l} violates 0 < l <= {bounds.l_max}"
            )
        if delta <= bounds.delta_min(l):
            raise MarginInfeasible(
                f"delta = {delta} does not exceed its bound {bounds.delta_min(l)}"
            )
        if unsafe.d + delta >= region.x1_max:
            raise MarginInfeasible(
                f"d + delta = {unsafe.d + delta} leaves no margin set inside the region"
            )
        theta_min = bounds.theta_min(l, delta)
        if theta <= theta_min:
            raise MarginInfeasible(
                f"theta = {theta} does not exceed its bound {theta_min}"
            )
        ratio = sigma1 / sigma2
        if abs(ratio - math.exp(0.5 * l * delta)) > 1e-9 * ratio:
            raise MarginInfeasible("sigmoid endpoint identity violated (delta too large)")
    if k is None:
        k = (1.0 + theta * sigma2) * v2
    # plain floats keep the scalar evaluations inside the controller off
    # numpy's slower scalar arithmetic
    shape = SigmoidShape(l=float(l), d=float(unsafe.d), delta=float(delta))
    levels = LevelParams(
        v1=bounds.v1, v2=v2, sigma1=sigma1, sigma2=sigma2, gamma=bounds.gamma
    )
    return WeakCLBF(clf=clf, shape=shape, theta=float(theta), k=float(k), levels=levels)


def select_parameters(
    P,
    region: RegionBox,
    unsafe: HalfPlaneUnsafe,
    v2: float,
    policy: MarginPolicy = MarginPolicy(),
) -> WeakCLBF:
    """Pick (l, delta, theta, k) strictly inside their feasible bounds."""
    clf = P if isinstance(P, QuadraticCLF) else QuadraticCLF.from_matrix(P)
    bounds = parameter_bounds(clf, region, unsafe, v2)
    if policy.l is not None:
        l = policy.l
        if bounds.l_max is not None and l > bounds.l_max * (1.0 + 1e-12):
            raise MarginInfeasible(f"slope override {l} exceeds bound {bounds.l_max}")
    elif bounds.l_max is not None:
        l = bounds.l_max
    else:
        l = 2.0 / (GAMMA_FALLBACK * region.x1_extent)
    delta = policy.delta_margin * bounds.delta_min(l)
    theta = policy.theta_margin * bounds.theta_min(l, delta)
    if not math.isfinite(theta):
        raise MarginInfeasible("scaling bound is unbounded for the chosen margin")
    return assemble_weak_clbf(
        clf, region, unsafe, v2, l=l, delta=delta, theta=theta, enforce_bounds=True
    )


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    margin: float
    witness: Optional[tuple[float, float]]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "margin": float(self.margin),
            "witness": None if self.witness is None else [float(c) for c in self.witness],
        }


@dataclass(frozen=True)
class COmegaResult(ConditionResult):
    """Margin-set containment: margin is the largest W sampled in the set."""

    samples: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "worst_value": float(self.margin),
            "witness": [float(c) for c in self.witness],
            "samples": int(self.samples),
        }


@dataclass(frozen=True)
class VerificationReport:
    positive_on_unsafe: ConditionResult
    line_decrease: ConditionResult
    admissible_nonempty: ConditionResult
    stationary_unique: ConditionResult
    grid_resolution: int
    eps_origin: float
    c_omega: Optional[COmegaResult] = None

    @property
    def passed(self) -> bool:
        core = (
            self.positive_on_unsafe.passed
            and self.line_decrease.passed
            and self.admissible_nonempty.passed
            and self.stationary_unique.passed
        )
        if self.c_omega is not None:
            core = core and self.c_omega.passed
        return core

    def conditions(self) -> list[ConditionResult]:
        return [
            self.positive_on_unsafe,
            self.line_decrease,
            self.admissible_nonempty,
            self.stationary_unique,
        ]

    def to_dict(self) -> dict:
        out = {
            "passed": bool(self.passed),
            "grid_resolution": int(self.grid_resolution),
            "eps_origin": float(self.eps_origin),
            "conditions": [c.to_dict() for c in self.conditions()],
        }
        if self.c_omega is not None:
            out["conditions"].append(self.c_omega.to_dict())
        return out


def _masked_extreme(values, X1, X2, mask, take_min: bool):
    idx_flat = np.flatnonzero(mask)
    sub = values.ravel()[idx_flat]
    pos = np.argmin(sub) if take_min else np.argmax(sub)
    flat = idx_flat[pos]
    return float(sub[pos]), (float(X1.ravel()[flat]), float(X2.ravel()[flat]))


def verify_weak_clbf(
    W: WeakCLBF,
    drift: Callable[[np.ndarray], np.ndarray],
    region: RegionBox,
    unsafe: HalfPlaneUnsafe,
    grid_resolution: int = 400,
    eps_origin: Optional[float] = None,
) -> VerificationReport:
    """Grid-check the defining conditions of a weak CLBF.

    drift is the uncontrolled closed-loop vector field F(x); it only enters
    the decrease check, which is restricted to the line where the input
    channel cannot move W (the velocity component of the gradient vanishes
    exactly on {p12 x1 + p22 x2 = 0}). Failures are reported as data with
    worst margins and witness points, not raised.
    """
    if grid_resolution < MIN_GRID_RESOLUTION:
        raise GridTooCoarse(
            f"grid resolution {grid_resolution} below minimum {MIN_GRID_RESOLUTION}"
        )
    if eps_origin is None:
        eps_origin = 1e-3 * region.diameter
    if eps_origin <= 0.0:
        raise ValueError("eps_origin must be positive")

    X1, X2 = region.grid(grid_resolution)
    Wgrid, G1, G2 = W.value_and_grad(X1, X2)
    grad_norm = np.hypot(G1, G2)
    del G1, G2

    # positivity on the unsafe slice of the region
    unsafe_mask = X1 <= unsafe.d
    if np.any(unsafe_mask):
        worst, witness = _masked_extreme(Wgrid, X1, X2, unsafe_mask, take_min=True)
        cond_a = ConditionResult(
            "positive_on_unsafe", worst > 0.0, worst, witness
        )
    else:
        cond_a = ConditionResult("positive_on_unsafe", True, math.inf, None)

    # decrease along the drift on the zero line of dW/dx2
    cond_b = _check_line_decrease(W, drift, region, unsafe, grid_resolution, eps_origin)

    # admissible set non-empty (the offset makes the origin interior to it)
    worst_c, witness_c = _masked_extreme(
        Wgrid, X1, X2, np.ones_like(Wgrid, dtype=bool), take_min=True
    )
    cond_c = ConditionResult("admissible_set_nonempty", worst_c <= 0.0, worst_c, witness_c)

    # no stationary point in the admissible set away from the origin
    level_mask = (Wgrid <= 0.0) & (np.hypot(X1, X2) >= eps_origin)
    if np.any(level_mask):
        worst_d, witness_d = _masked_extreme(grad_norm, X1, X2, level_mask, take_min=True)
        cond_d = ConditionResult("stationary_point_unique", worst_d > 0.0, worst_d, witness_d)
    else:
        cond_d = ConditionResult("stationary_point_unique", True, math.inf, None)

    return VerificationReport(
        positive_on_unsafe=cond_a,
        line_decrease=cond_b,
        admissible_nonempty=cond_c,
        stationary_unique=cond_d,
        grid_resolution=grid_resolution,
        eps_origin=float(eps_origin),
    )


def _check_line_decrease(
    W: WeakCLBF,
    drift: Callable[[np.ndarray], np.ndarray],
    region: RegionBox,
    unsafe: HalfPlaneUnsafe,
    n_samples: int,
    eps_origin: float,
) -> ConditionResult:
    c = W.line_slope  # x2 = -c * x1 on the uncontrolled line
    lo, hi = region.x1_min, region.x1_max
    if c != 0.0:
        end_a, end_b = -region.x2_max / c, -region.x2_min / c
        lo = max(lo, min(end_a, end_b))
        hi = min(hi, max(end_a, end_b))
    x1 = np.linspace(lo, hi, n_samples)
    keep = x1 > unsafe.d  # the unsafe set is excluded from the condition
    keep &= np.abs(x1) * math.hypot(1.0, c) >= eps_origin
    x1 = x1[keep]
    if x1.size == 0:
        return ConditionResult("line_decrease", True, -math.inf, None)
    worst = -math.inf
    witness = None
    for xi in x1.tolist():
        x2 = -c * xi
        _, g1, g2 = W.value_and_grad(xi, x2)
        f1, f2 = drift(np.array((xi, x2)))
        lie = float(g1 * f1 + g2 * f2)
        if lie > worst:
            worst = lie
            witness = (xi, x2)
    return ConditionResult("line_decrease", worst < 0.0, worst, witness)


def check_c_omega_subset(
    W: WeakCLBF, region: RegionBox, grid_resolution: int = 200
) -> COmegaResult:
    """Sample {V <= v2, x1 >= d + delta} in X and require W <= C_OMEGA_TOL there.

    Raises EmptyCOmega when no grid point satisfies both defining inequalities.
    """
    if grid_resolution < MIN_GRID_RESOLUTION:
        raise GridTooCoarse(
            f"grid resolution {grid_resolution} below minimum {MIN_GRID_RESOLUTION}"
        )
    X1, X2 = region.grid(grid_resolution)
    V = W.clf.value_and_grad(X1, X2)[0]
    mask = (V <= W.levels.v2) & (X1 >= W.shape.d + W.shape.delta)
    if not np.any(mask):
        raise EmptyCOmega(
            "no grid sample satisfies V <= v2 and x1 >= d + delta inside the region"
        )
    Wgrid = W.value_and_grad(X1, X2)[0]
    worst, witness = _masked_extreme(Wgrid, X1, X2, mask, take_min=False)
    return COmegaResult(
        "margin_set_contained", worst <= C_OMEGA_TOL, worst, witness, int(np.count_nonzero(mask))
    )


def full_verification(
    W: WeakCLBF,
    drift: Callable[[np.ndarray], np.ndarray],
    region: RegionBox,
    unsafe: HalfPlaneUnsafe,
    grid_resolution: int = 400,
    eps_origin: Optional[float] = None,
    c_omega_resolution: int = 200,
) -> VerificationReport:
    """Run the condition checks and the margin-set containment check together."""
    report = verify_weak_clbf(W, drift, region, unsafe, grid_resolution, eps_origin)
    c_omega = check_c_omega_subset(W, region, c_omega_resolution)
    return replace(report, c_omega=c_omega)
