"""Sigmoid-scaled weak control Lyapunov-barrier functions on R^2.

A quadratic Lyapunov function V(x) = 0.5 x'Px is rescaled by 1 + theta*sigma(x1),
where sigma is a decreasing sigmoid centered just outside the unsafe half plane
{x1 <= d}, and shifted by an offset k. With the slope, margin, scaling and offset
chosen against explicit bounds, the result W is positive on the unsafe set,
decreases along the drift wherever the input cannot act on it, and has a
non-empty admissible sublevel set -- all of which this module decides from
closed forms in x1, with one certified 1-D interval bisection where the slope
exceeds its bound.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .errors import InvalidUnsafeSet, LevelTooSmall, MarginInfeasible
from .numerics import as_mat2, is_spd

_EXP_CLAMP = 700.0  # IEEE double overflow guard; clamping error < 1e-300
C_OMEGA_TOL = 1e-9


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
    def diameter(self) -> float:
        return math.hypot(self.x1_max - self.x1_min, self.x2_max - self.x2_min)


@dataclass(frozen=True)
class HalfPlaneUnsafe:
    """Unsafe half plane {x in X : x1 <= d} with d < 0."""

    d: float

    def __post_init__(self):
        if not (math.isfinite(self.d) and self.d < 0.0):
            raise InvalidUnsafeSet(f"unsafe threshold must be negative, got {self.d}")


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

    def value_and_grad(self, x1, x2):
        """(V, dV/dx1, dV/dx2) at floats or at arrays of one shape."""
        g1 = self.p11 * x1 + self.p12 * x2
        g2 = self.p12 * x1 + self.p22 * x2
        return 0.5 * (g1 * x1 + g2 * x2), g1, g2


def v1_min_on_unsafe(P, d: float) -> float:
    """Minimum of V over the unsafe half plane: det(P) d^2 / (2 p22)."""
    clf = P if isinstance(P, QuadraticCLF) else QuadraticCLF.from_matrix(P)
    if d >= 0.0:
        raise InvalidUnsafeSet(f"unsafe threshold must be negative, got {d}")
    return clf.det * d * d / (2.0 * clf.p22)


@dataclass(frozen=True)
class WeakCLBF:
    """Scaled-and-shifted certificate W(x) = (1 + theta*sigma(x1)) V(x) - k.

    bounds is the certificate's one design record: the levels v1 and v2 and
    gamma its parameters were chosen against. The sigmoid endpoints sigma1
    and sigma2 follow from it and the shape, as
    bounds.sigma_endpoints(shape.l, shape.delta).

    Instances produced by select_parameters / assemble_weak_clbf satisfy the
    slope, margin, scaling and offset bounds; direct construction performs no
    cross-parameter validation so that deliberately broken certificates can be
    fed to the verifier.
    """

    clf: QuadraticCLF
    shape: SigmoidShape
    theta: float
    k: float
    bounds: ParameterBounds

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
        # rounded below 1 as sigmoid_eval rounds, so large l * delta stays valid
        sigma1 = min(1.0 / (1.0 + math.exp(-0.5 * l * delta)), _ONE_BELOW)
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
    if not 0.0 < sigma2 < 0.5 < sigma1 < 1.0:
        raise ValueError("sigmoid endpoints must satisfy 0 < sigma2 < 1/2 < sigma1 < 1")
    if k is None:
        k = (1.0 + theta * sigma2) * v2
    # plain floats keep the scalar evaluations inside the controller off
    # numpy's slower scalar arithmetic
    shape = SigmoidShape(l=float(l), d=float(unsafe.d), delta=float(delta))
    return WeakCLBF(clf=clf, shape=shape, theta=float(theta), k=float(k), bounds=bounds)


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
        l = 2.0 / (GAMMA_FALLBACK * (region.x1_max - region.x1_min))
    delta = policy.delta_margin * bounds.delta_min(l)
    theta = policy.theta_margin * bounds.theta_min(l, delta)
    if not math.isfinite(theta):
        raise MarginInfeasible("scaling bound is unbounded for the chosen margin")
    return assemble_weak_clbf(
        clf, region, unsafe, v2, l=l, delta=delta, theta=theta, enforce_bounds=True
    )


# ---------------------------------------------------------------------------
# verification
#
# Every condition is decided from a closed form in x1 (theta >= 0; theta < 0
# lies outside the construction and is never passed). With c = p12/p22,
# g(x1) = V(x1, clip(-c x1)) is the minimum of V over the region's x2 range:
# convex with g(0) = 0, so non-increasing on x1 <= 0. On the line x2 = -c x1,
# dW/dx2 = 0 and dW/dx1 = (det P/p22) x1 h(x1), h = 1 + theta sigma (1 - l x1
# (1 - sigma) / 2): every stationary point off the origin lies there with
# h = 0, and the Lie derivative along a drift with first entry x2 is
# L = -c (det P/p22) x1^2 h. The fifth condition, that the margin set C_omega
# lies in {W <= 0}, is bounded by sigma(d + delta) and V <= v2 on that set.
# verify_weak_clbf decides all five; a certificate passes only when each does.

PASS, FAIL, UNDECIDED = "pass", "fail", "undecided"
_NAMES = (
    "positive_on_unsafe", "line_decrease", "admissible_set_nonempty", "stationary_point_unique",
    "margin_set_contained",
)

# Sample counts of the 1-D counterexample search, the only thing
# grid_resolution and c_omega_resolution size; it never decides a pass.
MIN_GRID_RESOLUTION = 50
MAX_GRID_RESOLUTION = 10_000
# Radius of the origin ball that the decrease and uniqueness conditions
# exclude, relative to the region's diameter; reported as eps_origin.
EPS_ORIGIN_FRACTION = 1e-3
# The bisection of h stops, undecided, after this many boxes.
_BISECTION_BOXES = 4096
# Rounding allowance of a float enclosure of h, relative to the size of its terms.
_ENCLOSURE_SLACK = 1e-12
_OUTSIDE = "theta < 0 lies outside the construction, which needs 1 + theta*sigma >= 1"


@dataclass(frozen=True)
class ConditionResult:
    """One condition: its verdict ("pass", "fail", or "undecided", which is
    never a pass), the certified bound it rests on (margin), the point where
    that bound is attained or violated (witness) and the inequality used."""

    name: str
    verdict: str
    margin: float
    witness: Optional[tuple[float, float]]
    inequality: str

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_dict(self) -> dict:
        """JSON fields; a margin that is not finite (no finite bound) is null."""
        margin = self.margin if math.isfinite(self.margin) else None
        return {"passed": self.passed, **asdict(self), "margin": margin}


@dataclass(frozen=True)
class VerificationReport:
    """The five verdicts on one certificate, with the sample counts of their
    counterexample searches and the excluded origin ball's radius."""

    positive_on_unsafe: ConditionResult
    line_decrease: ConditionResult
    admissible_nonempty: ConditionResult
    stationary_unique: ConditionResult
    c_omega: ConditionResult
    grid_resolution: int
    eps_origin: float
    c_omega_resolution: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions())

    def conditions(self) -> list[ConditionResult]:
        """The five conditions, in field order."""
        return [getattr(self, f.name) for f in fields(self)[:5]]

    def to_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "grid_resolution": int(self.grid_resolution),
            "eps_origin": float(self.eps_origin),
            "conditions": [c.to_dict() for c in self.conditions()],
            "c_omega_resolution": int(self.c_omega_resolution),
        }


def _check_resolution(n: int) -> None:
    if not MIN_GRID_RESOLUTION <= n <= MAX_GRID_RESOLUTION:
        raise ValueError(f"sample count {n} outside [{MIN_GRID_RESOLUTION}, {MAX_GRID_RESOLUTION}]")


def _refute(result: ConditionResult, x1, x2, values, violated) -> ConditionResult:
    """result, unless it passed and a sample violates the condition: then a
    fail at the first such sample."""
    hits = np.flatnonzero(violated)
    if not result.passed or hits.size == 0:
        return result
    i = hits[0]
    witness = (float(x1[i]), float(x2[i]))
    return ConditionResult(result.name, FAIL, float(values[i]), witness, "sampled counterexample")


def _h(W: WeakCLBF, x1: float) -> float:
    s = sigmoid_eval(W.shape, x1)
    return 1.0 + W.theta * s * (1.0 - 0.5 * W.shape.l * x1 * (1.0 - s))


def _certify_h(W: WeakCLBF, lo: float, hi: float) -> tuple[str, float, Optional[float]]:
    """(verdict, bound, x1) for h > 0 on [lo, hi]: PASS with a lower bound of
    h, FAIL with h(x1) <= 0, UNDECIDED with the point where the boxes ran out.

    On a box [a, b], sigma lies in [sigma(b), sigma(a)] as it decreases, and
    x (1 - sigma) is largest at b. The enclosure of h they give is exact at a
    point, so it tightens under bisection (Moore, Kearfott & Cloud, 2009).
    """
    l, theta = W.shape.l, W.theta
    bound, stack, boxes = math.inf, [(lo, hi)], 0
    while stack:
        a, b = stack.pop()
        boxes += 1
        sa, sb = sigmoid_eval(W.shape, a), sigmoid_eval(W.shape, b)
        t = 1.0 - 0.5 * l * b * (1.0 - (sb if b >= 0.0 else sa))
        low = 1.0 + theta * (sb if t >= 0.0 else sa) * t
        if low > _ENCLOSURE_SLACK * (1.0 + theta * (1.0 + l * max(abs(a), abs(b)))):
            bound = min(bound, low)
            continue
        mid = 0.5 * (a + b)
        if _h(W, mid) <= 0.0:
            return FAIL, _h(W, mid), mid
        if boxes >= _BISECTION_BOXES:
            return UNDECIDED, low, mid
        stack += [(mid, b), (a, mid)]
    return PASS, bound, None


def _positive_on_unsafe(W: WeakCLBF, region: RegionBox, d: float, n: int) -> ConditionResult:
    if d < region.x1_min:
        return ConditionResult(_NAMES[0], PASS, math.inf, None, "the unsafe set misses the region")
    # the searched curve x2 = clip(-c x1) ends at the minimizer (d, clip(-c d))
    x1 = np.linspace(region.x1_min, d, n)
    x2 = np.clip(-W.line_slope * x1, region.x2_min, region.x2_max)
    w = W.value_and_grad(x1, x2)[0]
    result = ConditionResult(
        _NAMES[0], PASS if w[-1] > 0.0 else FAIL, float(w[-1]), (d, float(x2[-1])),
        "min of W on x1 <= d is (1 + theta*sigma(d))*g(d) - k: sigma and g fall toward d",
    )
    return _refute(result, x1, x2, w, w <= 0.0)


def _line_conditions(W: WeakCLBF, region: RegionBox, d: float, n: int, eps_origin: float):
    """(line_decrease, stationary_point_unique) from the sign of h on the line
    x2 = -c x1 inside the region."""
    c, q = W.line_slope, W.clf.det / W.clf.p22
    lo, hi = region.x1_min, region.x1_max
    if c != 0.0:
        ends = sorted((-region.x2_max / c, -region.x2_min / c))
        lo, hi = max(lo, ends[0]), min(hi, ends[1])
    verdict, h_min, x_h = _certify_h(W, lo, hi)
    if verdict != PASS:
        proof = f"h <= 0 at x1 = {x_h!r}" if verdict == FAIL else "the bisection of h ran out"
    elif W.shape.l * hi <= 2.0:
        proof = "h >= 1 + theta*sigma^2 since l*x1 <= 2"
    else:
        proof = "h > 0 by interval bisection"

    # L < 0 is required where x1 > d and |x1| >= r, off the origin ball; the
    # bound is set at |x1| = r
    r = eps_origin / math.hypot(1.0, c)
    if c > 0.0 and verdict == PASS:
        decrease = ConditionResult(
            _NAMES[1], PASS, -c * q * r * r * h_min, (r, -c * r),
            f"L = -c*(det P/p22)*x1^2*h <= -c*(det P/p22)*r^2*min h; {proof}",
        )
    else:
        x = x_h if c > 0.0 else (r if r <= hi else -r)
        lie_x = -c * q * x * x * _h(W, x)
        counter = lie_x >= 0.0 and lo <= x <= hi and x > d and abs(x) >= r
        decrease = ConditionResult(
            _NAMES[1], FAIL if counter else UNDECIDED, lie_x, (x, -c * x),
            f"L = -c*(det P/p22)*x1^2*h < 0 needs c > 0 and h > 0; {proof}",
        )
    stationary = ConditionResult(
        _NAMES[3], PASS if verdict == PASS else UNDECIDED, h_min,
        None if x_h is None else (x_h, -c * x_h),
        f"grad W = 0 off the origin needs h = 0 on x2 = -c*x1; {proof}",
    )

    x1 = np.linspace(lo, hi, n)
    x2 = -c * x1
    w, g1, _ = W.value_and_grad(x1, x2)
    away = np.hypot(x1, x2) >= eps_origin
    lie, radial = g1 * x2, g1 * x1  # dW/dx2 = 0 here; radial = (det P/p22) x1^2 h
    return (
        _refute(decrease, x1, x2, lie, away & (x1 > d) & (lie >= 0.0)),
        _refute(stationary, x1, x2, radial, away & (w <= 0.0) & (radial <= 0.0)),
    )


def verify_weak_clbf(
    W: WeakCLBF,
    region: RegionBox,
    unsafe: HalfPlaneUnsafe,
    grid_resolution: int = 400,
    c_omega_resolution: int = 200,
) -> VerificationReport:
    """Decide the five conditions of a weak CLBF from closed forms: the four
    defining ones and check_c_omega_subset's margin-set containment. Failures
    are data, not raised; the report passes only when all five pass.
    grid_resolution and c_omega_resolution size only the sampled
    counterexample searches. The decrease and uniqueness conditions exclude
    the origin ball of radius EPS_ORIGIN_FRACTION times the region's diameter."""
    _check_resolution(grid_resolution)
    eps_origin = EPS_ORIGIN_FRACTION * region.diameter
    if W.theta < 0.0:
        conditions = [ConditionResult(name, UNDECIDED, math.nan, None, _OUTSIDE) for name in _NAMES[:4]]
    else:
        decrease, stationary = _line_conditions(W, region, unsafe.d, grid_resolution, eps_origin)
        admissible = ConditionResult(
            _NAMES[2], PASS if W.k >= 0.0 else FAIL, -W.k, (0.0, 0.0),
            "min W = W(0) = -k, since W >= -k",
        )
        positive = _positive_on_unsafe(W, region, unsafe.d, grid_resolution)
        conditions = [positive, decrease, admissible, stationary]
    c_omega = check_c_omega_subset(W, region, c_omega_resolution)
    return VerificationReport(
        *conditions, c_omega, grid_resolution, float(eps_origin), c_omega_resolution
    )


def check_c_omega_subset(
    W: WeakCLBF, region: RegionBox, grid_resolution: int = 200
) -> ConditionResult:
    """The fifth verdict of verify_weak_clbf: W <= C_OMEGA_TOL on C_omega =
    {V <= v2, x1 >= d + delta} in X, where sigma <= sigma(d + delta) and
    V <= v2 bound W. A set with no point in the region fails, with no margin
    and no witness."""
    _check_resolution(grid_resolution)
    clf, edge, v2 = W.clf, W.shape.d + W.shape.delta, W.bounds.v2

    def g(x1: float) -> float:  # the minimum of V over the region's x2 range
        x2 = min(max(-x1 * W.line_slope, region.x2_min), region.x2_max)
        return clf.value_and_grad(x1, x2)[0]

    if edge > region.x1_max or g(max(edge, 0.0)) > v2:
        return ConditionResult(
            _NAMES[4], FAIL, math.nan, None,
            "C_omega is empty in X: d + delta > x1_max, or V > v2 at every x1 >= d + delta",
        )
    if W.theta < 0.0:
        return ConditionResult(_NAMES[4], UNDECIDED, math.nan, None, _OUTSIDE)
    bound = (1.0 + W.theta * sigmoid_eval(W.shape, edge)) * v2 - W.k
    # Per sampled x1, V is largest on the slice {V <= v2} at an end of its x2
    # interval. The first sample is the witness: the set's left edge, or the
    # origin where V exceeds v2 all along that edge.
    x1 = np.append(
        edge if g(edge) <= v2 else 0.0,
        np.linspace(max(edge, region.x1_min), region.x1_max, grid_resolution),
    )
    disc = 2.0 * clf.p22 * v2 - clf.det * x1 * x1
    root = np.sqrt(np.maximum(disc, 0.0))
    lo = np.maximum(region.x2_min, (-clf.p12 * x1 - root) / clf.p22)
    hi = np.minimum(region.x2_max, (-clf.p12 * x1 + root) / clf.p22)
    x2 = np.where(clf.value_and_grad(x1, lo)[0] >= clf.value_and_grad(x1, hi)[0], lo, hi)
    w = W.value_and_grad(x1, x2)[0]
    result = ConditionResult(
        _NAMES[4], PASS if bound <= C_OMEGA_TOL else FAIL, bound,
        (float(x1[0]), float(x2[0])),
        "W <= (1 + theta*sigma(d + delta))*v2 - k on C_omega: sigma decreases, V <= v2",
    )
    return _refute(result, x1, x2, w, (disc >= 0.0) & (lo <= hi) & (w > C_OMEGA_TOL))

