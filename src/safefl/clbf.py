"""Sigmoid-scaled weak control Lyapunov-barrier functions on R^2.

A quadratic Lyapunov function V(x) = 0.5 x'Px is rescaled by 1 + theta*sigma(x1),
where sigma is a decreasing sigmoid centered just outside the unsafe half plane
{x1 <= d}, and shifted by the offset k = (1 + theta*sigma2)*v2. With the slope,
margin and scaling chosen against explicit bounds, the result W is positive on
the unsafe set, decreases along the drift wherever the input cannot act on it,
and has a non-empty admissible sublevel set -- all of which this module decides
from closed forms in x1, with one certified 1-D interval bisection where the
slope exceeds its bound.

The controller's per-axis law, axis_law, is here too, beside the kernels
it equals bit for bit: W, its gradient and Sontag's universal-formula safety
input, from the plain floats that axis_terms unpacks from a certificate.

select_parameters makes the one automatic choice: the slope at its bound
2/gamma, and the margin and scaling at BOUND_SLACK = 1.05 times their lower
bounds. assemble_weak_clbf builds a certificate from any other choice. Both
take a QuadraticCLF (from_matrix converts a matrix), a RegionBox and a
HalfPlaneUnsafe, and refuse an empty margin set by the verifier's own rule.
"""

from __future__ import annotations

import math
import sys
from typing import Optional

from .errors import InvalidUnsafeSet, LevelTooSmall, MarginInfeasible
from .numerics import as_mat2, is_pd_2x2, is_symmetric
from .records import Value, set_field

_EXP_CLAMP = 700.0  # IEEE double overflow guard; clamping error < 1e-300
_ONE_BELOW = math.nextafter(1.0, 0.0)
_B_DEADZONE = 1e-12  # relative to 1 + |a|; below this the channel is treated as closed


# ---------------------------------------------------------------------------
# domain types
#
# RegionBox, HalfPlaneUnsafe, SigmoidShape and QuadraticCLF store every field
# as a plain float, so the closed forms run in Python floats: an overflow is
# inf, not a warning.


class RegionBox(Value):
    """Axis-aligned compact region of interest with the origin in its interior."""

    __slots__ = ("x1_min", "x1_max", "x2_min", "x2_max")

    def __init__(self, x1_min: float, x1_max: float, x2_min: float, x2_max: float):
        x1_min, x1_max, x2_min, x2_max = float(x1_min), float(x1_max), float(x2_min), float(x2_max)
        if not (x1_min < 0.0 < x1_max and x2_min < 0.0 < x2_max):
            raise ValueError("region must contain the origin in its interior")
        set_field(self, "x1_min", x1_min)
        set_field(self, "x1_max", x1_max)
        set_field(self, "x2_min", x2_min)
        set_field(self, "x2_max", x2_max)

    @property
    def diameter(self) -> float:
        return math.hypot(self.x1_max - self.x1_min, self.x2_max - self.x2_min)


class HalfPlaneUnsafe(Value):
    """Unsafe half plane {x in X : x1 <= d} with d < 0."""

    __slots__ = ("d",)

    def __init__(self, d: float):
        d = float(d)
        if not (math.isfinite(d) and d < 0.0):
            raise InvalidUnsafeSet(f"unsafe threshold must be negative, got {d}")
        set_field(self, "d", d)


class SigmoidShape(Value):
    """Decreasing sigmoid 1 / (1 + exp(l*(x1 - d - delta/2)))."""

    __slots__ = ("l", "d", "delta")

    def __init__(self, l: float, d: float, delta: float):
        l, d, delta = float(l), float(d), float(delta)
        if not (l > 0.0 and math.isfinite(l)):
            raise ValueError("sigmoid slope l must be positive")
        if not (delta > 0.0 and math.isfinite(delta)):
            raise ValueError("safety margin delta must be positive")
        set_field(self, "l", l)
        set_field(self, "d", d)
        set_field(self, "delta", delta)

    @property
    def center(self) -> float:
        return self.d + 0.5 * self.delta


def sigmoid_eval(shape: SigmoidShape, x1):
    """Sigmoid value in the open interval (0, 1); exponent clamped to +-700.

    A float (or int) argument gives a float through math, an array gives an
    array through numpy, imported only then. Deep saturation rounds to the
    closest representable doubles inside the interval, so the strict bounds
    hold even at extreme arguments.
    """
    if isinstance(x1, (float, int)):
        z = min(max(shape.l * (x1 - shape.center), -_EXP_CLAMP), _EXP_CLAMP)
        s = 1.0 / (1.0 + math.exp(z))
        return s if s < 1.0 else _ONE_BELOW
    import numpy as np

    z = shape.l * (np.asarray(x1, dtype=float) - shape.center)
    z = np.clip(z, -_EXP_CLAMP, _EXP_CLAMP)
    out = np.minimum(1.0 / (1.0 + np.exp(z)), _ONE_BELOW)
    return float(out) if out.ndim == 0 else out


class QuadraticCLF(Value):
    """V(x) = 0.5 x'Px for the symmetric positive definite P = [[p11, p12], [p12, p22]]."""

    __slots__ = ("p11", "p12", "p22")

    def __init__(self, p11: float, p12: float, p22: float):
        p11, p12, p22 = float(p11), float(p12), float(p22)
        if not all(map(math.isfinite, (p11, p12, p22))):
            raise ValueError("matrix entries must be finite")
        if not is_pd_2x2(p11, p12, p22):
            raise ValueError("P must be symmetric positive definite")
        set_field(self, "p11", p11)
        set_field(self, "p12", p12)
        set_field(self, "p22", p22)

    @classmethod
    def from_matrix(cls, P) -> "QuadraticCLF":
        """The CLF of a finite 2x2 P, symmetric within numerics.SYMMETRY_RTOL
        of its largest entry."""
        P = as_mat2(P)
        if not is_symmetric(P):
            raise ValueError("P must be symmetric positive definite")
        (p11, p12), (_, p22) = P
        return cls(p11, p12, p22)

    @property
    def det(self) -> float:
        return self.p11 * self.p22 - self.p12 * self.p12

    def value_and_grad(self, x1, x2):
        """(V, dV/dx1, dV/dx2) at floats or at arrays of one shape."""
        g1 = self.p11 * x1 + self.p12 * x2
        g2 = self.p12 * x1 + self.p22 * x2
        return 0.5 * (g1 * x1 + g2 * x2), g1, g2


def v1_min_on_unsafe(clf: QuadraticCLF, unsafe: HalfPlaneUnsafe) -> float:
    """Minimum of V over the unsafe half plane: det(P) d^2 / (2 p22)."""
    return clf.det * unsafe.d * unsafe.d / (2.0 * clf.p22)


class WeakCLBF(Value):
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

    __slots__ = ("clf", "shape", "theta", "k", "bounds")

    def __init__(
        self, clf: QuadraticCLF, shape: SigmoidShape, theta: float, k: float, bounds: ParameterBounds
    ):
        set_field(self, "clf", clf)
        set_field(self, "shape", shape)
        set_field(self, "theta", theta)
        set_field(self, "k", k)
        set_field(self, "bounds", bounds)

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


def axis_terms(sign, goal, kp, kd, k_safe, cert: Optional[WeakCLBF]) -> tuple:
    """axis_law's tuple (sign, goal, kp, kd, k_safe, d, p11, p12, p22, l,
    center, theta, k) of plain floats: a task axis's map and gains, then its
    certificate's threshold, P, sigmoid slope and center d + delta/2,
    scaling and offset, all None on an unconstrained axis."""
    head = (float(sign), float(goal), float(kp), float(kd), float(k_safe))
    if cert is None:
        return head + (None,) * 8
    clf, shape = cert.clf, cert.shape
    values = (shape.d, clf.p11, clf.p12, clf.p22, shape.l, shape.center, cert.theta, cert.k)
    return head + tuple(map(float, values))


def axis_law(axis: tuple, p: float, v: float, diagnostics: bool):
    """(a, a_safe, W, margin) of one task axis at end-effector position p
    and velocity v along it, from the plain floats of axis_terms.

    a is the commanded task-space acceleration and a_safe its safety part
    k_safe * kappa, both mapped back from the error coordinates
    x1 = sign * (p - goal), x2 = sign * v. kappa is Sontag's universal
    formula -(A + sqrt(A^2 + B^4)) / B on A = dW along the drift and
    B = dW/dx2, zero where B vanishes (Syst. Control Lett. 13, 1989), so
    A + B*kappa = -sqrt(A^2 + B^4). W is NaN unless the safety input needs
    it or it is recorded; the margin is infinite on an unconstrained axis.
    The arithmetic is that of sigmoid_eval and WeakCLBF.value_and_grad, so
    the outputs equal theirs bit for bit.
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


# ---------------------------------------------------------------------------
# parameter selection


class ParameterBounds(Value):
    """Feasible-parameter bounds for a given (P, X, d, v2) problem."""

    __slots__ = ("gamma", "v1", "v2")

    def __init__(self, gamma: float, v1: float, v2: float):
        set_field(self, "gamma", gamma)
        set_field(self, "v1", v1)
        set_field(self, "v2", v2)

    @property
    def l_max(self) -> float:
        """The slope bound 2/gamma; gamma = x1_max > 0 as X has 0 inside."""
        return 2.0 / self.gamma

    def delta_min(self, l: float) -> float:
        return (2.0 / l) * math.log(self.v2 / self.v1)

    def sigma_endpoints(self, l: float, delta: float) -> tuple[float, float]:
        # rounded below 1 as sigmoid_eval rounds, so large l * delta stays
        # valid; both exponents clamped, so a negative l or delta is judged
        z = 0.5 * l * delta
        sigma1 = min(1.0 / (1.0 + math.exp(min(-z, _EXP_CLAMP))), _ONE_BELOW)
        sigma2 = 1.0 / (1.0 + math.exp(min(z, _EXP_CLAMP)))
        return sigma1, sigma2

    def theta_min(self, l: float, delta: float) -> float:
        sigma1, sigma2 = self.sigma_endpoints(l, delta)
        denom = sigma1 * self.v1 - sigma2 * self.v2
        if denom <= 0.0:
            return math.inf
        return (self.v2 - self.v1) / denom


def parameter_bounds(
    clf: QuadraticCLF, region: RegionBox, unsafe: HalfPlaneUnsafe, v2: float
) -> ParameterBounds:
    if unsafe.d < region.x1_min:
        raise InvalidUnsafeSet(
            f"unsafe threshold {unsafe.d} lies outside the region's x1 range"
        )
    v1 = v1_min_on_unsafe(clf, unsafe)
    if v1 <= 0.0:
        raise LevelTooSmall(
            f"v1 = det(P) d^2 / (2 p22) = {v1} is not positive: det P underflows at this scale of P"
        )
    if v2 <= v1:
        raise LevelTooSmall(f"v2 = {v2} must exceed v1 = {v1}")
    return ParameterBounds(gamma=region.x1_max, v1=v1, v2=float(v2))


# Factor by which select_parameters inflates the margin and scaling lower
# bounds, which are strict inequalities.
BOUND_SLACK = 1.05


def assemble_weak_clbf(
    clf: QuadraticCLF,
    region: RegionBox,
    unsafe: HalfPlaneUnsafe,
    v2: float,
    l: float,
    delta: float,
    theta: float,
    enforce_bounds: bool = True,
) -> WeakCLBF:
    """Build a WeakCLBF from explicit (l, delta, theta), checking them against
    bounds; the offset is always the design's k = (1 + theta*sigma2)*v2.
    Enforcing, it also refuses a margin set with no point in the region, by
    the rule that check_c_omega_subset fails it with.

    With enforce_bounds=False the certificate is built as given (out-of-bound
    parameters included) so that the verifier, not the constructor, judges it.
    A theta or k that is not finite is never a certificate: ValueError.
    """
    bounds = parameter_bounds(clf, region, unsafe, v2)
    sigma1, sigma2 = bounds.sigma_endpoints(l, delta)
    if enforce_bounds:
        if not 0.0 < l <= bounds.l_max * (1.0 + 1e-12):
            raise MarginInfeasible(
                f"slope l = {l} violates 0 < l <= {bounds.l_max}"
            )
        if delta <= bounds.delta_min(l):
            raise MarginInfeasible(
                f"delta = {delta} does not exceed its bound {bounds.delta_min(l)}"
            )
        theta_min = bounds.theta_min(l, delta)
        if theta <= theta_min:
            raise MarginInfeasible(
                f"theta = {theta} does not exceed its bound {theta_min}"
            )
        # sigma1 / sigma2 = exp(l*delta/2) fails only where sigma2's exponent is clamped
        if 0.5 * l * delta > _EXP_CLAMP:
            raise MarginInfeasible(
                f"l*delta/2 = {0.5 * l * delta} exceeds {_EXP_CLAMP}: "
                "sigmoid endpoint identity violated (delta too large)"
            )
    if not 0.0 < sigma2 < 0.5 < sigma1 < 1.0:
        raise ValueError("sigmoid endpoints must satisfy 0 < sigma2 < 1/2 < sigma1 < 1")
    k = (1.0 + theta * sigma2) * v2
    if not (math.isfinite(theta) and math.isfinite(k)):
        raise ValueError(f"theta = {theta} and k = {k} must be finite")
    shape = SigmoidShape(l=l, d=unsafe.d, delta=delta)
    cert = WeakCLBF(clf=clf, shape=shape, theta=float(theta), k=float(k), bounds=bounds)
    if enforce_bounds and _margin_set_empty(cert, region):
        raise MarginInfeasible(
            "the margin set {V <= v2, x1 >= d + delta} has no point in the region: "
            f"d + delta = {unsafe.d + delta}, x1_max = {region.x1_max}, v2 = {bounds.v2}"
        )
    return cert


def select_parameters(
    clf: QuadraticCLF, region: RegionBox, unsafe: HalfPlaneUnsafe, v2: float
) -> WeakCLBF:
    """The one automatic choice of (l, delta, theta, k): the slope bound
    l = 2/gamma, delta and theta at BOUND_SLACK times their lower bounds, and
    k from the offset identity. Any other choice goes through
    assemble_weak_clbf."""
    bounds = parameter_bounds(clf, region, unsafe, v2)
    l = bounds.l_max
    delta = BOUND_SLACK * bounds.delta_min(l)
    theta = BOUND_SLACK * bounds.theta_min(l, delta)
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
# lies in {W <= 0}, is decided by its bound alone: sigma decreases, so W <=
# (1 + theta*sigma2)*v2 - k on that set, with sigma2 = sigma(d + delta) and V <=
# v2 there. verify_weak_clbf decides all five from the certificate alone, its
# own design record of d, sigma2 and v2, in scalar floats, so no verdict or
# margin depends on numpy's array kernels; it passes only when each does.
# After the proofs, one block samples the unsafe curve and the line into one
# table of 1-D samples, sized by grid_resolution, and evaluates W on it once.
# Those two searches only refute passes. They, with sigmoid_eval's array
# branch and _refute, are the only numpy in this module, imported where they
# run, so building a certificate never imports it.

PASS, FAIL, UNDECIDED = "pass", "fail", "undecided"
_NAMES = (
    "positive_on_unsafe", "line_decrease", "admissible_set_nonempty", "stationary_point_unique",
    "margin_set_contained",
)

MIN_GRID_RESOLUTION = 50
MAX_GRID_RESOLUTION = 10_000
DEFAULT_GRID_RESOLUTION = 400
# Radius of the origin ball that the decrease and uniqueness conditions
# exclude, relative to the region's diameter; reported as eps_origin.
EPS_ORIGIN_FRACTION = 1e-3
# The bisection of h stops, undecided, after this many boxes.
_BISECTION_BOXES = 4096
# Rounding allowance of a float enclosure of h, relative to the size of its terms.
_ENCLOSURE_SLACK = 1e-12
# Rounding allowance of the margin-set bound (1 + theta*sigma2)*v2 - k,
# relative to |k| + theta*sigma2*v2 + v2, the size of its terms, so the verdict
# is the same at any scale of P. The bound, with sigma2 and an offset k built
# elsewhere, takes about a dozen roundings of at most eps/2 each (Higham 2002,
# ch. 3). 16 eps = 32 of them covers that with room.
_C_OMEGA_ROUNDING = 16.0 * sys.float_info.epsilon
_OUTSIDE = "theta < 0 lies outside the construction, which needs 1 + theta*sigma >= 1"
_EMPTY = "C_omega is empty in X: d + delta > x1_max, or V > v2 at every x1 >= d + delta"
_MISSES = "the unsafe set misses the region"
_AT_ORIGIN = "min W = W(0) = -k, since W >= -k"


class ConditionResult(Value):
    """One condition: its verdict ("pass", "fail", or "undecided", which is
    never a pass), the certified bound it rests on (margin), the point where
    that bound is attained or violated (witness) and the inequality used."""

    __slots__ = ("name", "verdict", "margin", "witness", "inequality")

    def __init__(
        self,
        name: str,
        verdict: str,
        margin: float,
        witness: Optional[tuple[float, float]],
        inequality: str,
    ):
        set_field(self, "name", name)
        set_field(self, "verdict", verdict)
        set_field(self, "margin", margin)
        set_field(self, "witness", witness)
        set_field(self, "inequality", inequality)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_dict(self) -> dict:
        """JSON fields; a margin that is not finite (no finite bound) is null."""
        margin = self.margin if math.isfinite(self.margin) else None
        return {
            "passed": self.passed,
            "name": self.name,
            "verdict": self.verdict,
            "margin": margin,
            "witness": self.witness,
            "inequality": self.inequality,
        }


class VerificationReport(Value):
    """The five verdicts on one certificate, each decided by its proof, with
    the sample count of the two counterexample searches that ran after the
    proofs and could only refute, and the excluded origin ball's radius."""

    __slots__ = (
        "positive_on_unsafe", "line_decrease", "admissible_nonempty", "stationary_unique",
        "c_omega", "grid_resolution", "eps_origin",
    )

    def __init__(
        self,
        positive_on_unsafe: ConditionResult,
        line_decrease: ConditionResult,
        admissible_nonempty: ConditionResult,
        stationary_unique: ConditionResult,
        c_omega: ConditionResult,
        grid_resolution: int,
        eps_origin: float,
    ):
        set_field(self, "positive_on_unsafe", positive_on_unsafe)
        set_field(self, "line_decrease", line_decrease)
        set_field(self, "admissible_nonempty", admissible_nonempty)
        set_field(self, "stationary_unique", stationary_unique)
        set_field(self, "c_omega", c_omega)
        set_field(self, "grid_resolution", grid_resolution)
        set_field(self, "eps_origin", eps_origin)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions())

    def conditions(self) -> list[ConditionResult]:
        """The five conditions, in field order."""
        return [
            self.positive_on_unsafe, self.line_decrease, self.admissible_nonempty,
            self.stationary_unique, self.c_omega,
        ]

    def to_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "grid_resolution": int(self.grid_resolution),
            "eps_origin": float(self.eps_origin),
            "conditions": [c.to_dict() for c in self.conditions()],
        }


def _refute(result: ConditionResult, x1, x2, values, violated, radius=0.0) -> ConditionResult:
    """result, unless it passed and a sample off the origin ball of that radius
    violates the condition (the mask violated): then a fail at the first such
    sample. The distance is taken only where the mask holds."""
    hits = violated.nonzero()[0] if result.passed else ()
    if radius and len(hits):
        import numpy as np

        hits = hits[np.hypot(x1[hits], x2[hits]) >= radius]
    if len(hits) == 0:
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


def _positive_on_unsafe(W: WeakCLBF, region: RegionBox, d: float) -> ConditionResult:
    if d < region.x1_min:
        return ConditionResult(_NAMES[0], PASS, math.inf, None, _MISSES)
    # the minimizer of W on x1 <= d, at the end of the curve x2 = clip(-c x1)
    x2 = min(max(-W.line_slope * d, region.x2_min), region.x2_max)
    w = W.value_and_grad(d, x2)[0]
    return ConditionResult(
        _NAMES[0], PASS if w > 0.0 else FAIL, w, (d, x2),
        "min of W on x1 <= d is (1 + theta*sigma(d))*g(d) - k: sigma and g fall toward d",
    )


def _line_conditions(W: WeakCLBF, region: RegionBox, d: float, eps_origin: float):
    """((lo, hi), line_decrease, stationary_point_unique): the verdicts from
    the sign of h on the line x2 = -c x1 inside the region, x1 in [lo, hi]."""
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
    # bound is set at |x1| = r, on a side where the line is inside the region
    r = eps_origin / math.hypot(1.0, c)
    x_r = r if r <= hi else -r
    if c > 0.0 and verdict == PASS and x_r > max(lo, d):
        decrease = ConditionResult(
            _NAMES[1], PASS, -c * q * r * r * h_min, (x_r, -c * x_r),
            f"L = -c*(det P/p22)*x1^2*h <= -c*(det P/p22)*r^2*min h; {proof}",
        )
    elif c > 0.0 and verdict == PASS:
        decrease = ConditionResult(
            _NAMES[1], UNDECIDED, math.nan, None,
            "no point of the line in the region has x1 > d off the origin ball",
        )
    else:
        x = x_h if c > 0.0 else x_r
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
    return (lo, hi), decrease, stationary


def verify_weak_clbf(
    W: WeakCLBF, region: RegionBox, grid_resolution: int = DEFAULT_GRID_RESOLUTION
) -> VerificationReport:
    """Decide the five conditions of a weak CLBF, on its own unsafe set
    {x1 <= W.shape.d}, from closed forms: the four defining ones and
    check_c_omega_subset's margin-set containment. Failures are data, not
    raised; the report passes only when all five pass. The decrease and
    uniqueness conditions exclude the origin ball of radius
    EPS_ORIGIN_FRACTION times the region's diameter. A table of
    grid_resolution samples on each of the unsafe curve and the line can
    then only refute a pass."""
    eps, d, n = EPS_ORIGIN_FRACTION * region.diameter, W.shape.d, grid_resolution
    if not MIN_GRID_RESOLUTION <= n <= MAX_GRID_RESOLUTION:
        raise ValueError(f"sample count {n} outside [{MIN_GRID_RESOLUTION}, {MAX_GRID_RESOLUTION}]")
    # looked up on the module at call time, so a patched one is seen
    c_omega = check_c_omega_subset(W, region)
    if W.theta < 0.0:
        outside = (ConditionResult(name, UNDECIDED, math.nan, None, _OUTSIDE) for name in _NAMES[:4])
        return VerificationReport(*outside, c_omega, n, eps)
    admissible = ConditionResult(_NAMES[2], PASS if W.k >= 0.0 else FAIL, -W.k, (0.0, 0.0), _AT_ORIGIN)
    positive = _positive_on_unsafe(W, region, d)
    (lo, hi), decrease, stationary = _line_conditions(W, region, d, eps)

    import numpy as np

    # One table, the unsafe curve x2 = clip(-c x1) on [x1_min, d] and then the
    # line x2 = -c x1 on [lo, hi], and one evaluation of W on it. A sample
    # where W overflows keeps its sign; a NaN one refutes nothing.
    m, c = (n if d >= region.x1_min else 0), W.line_slope
    x1 = np.concatenate((np.linspace(region.x1_min, d, m), np.linspace(lo, hi, n)))
    x2 = np.concatenate((np.clip(-c * x1[:m], region.x2_min, region.x2_max), -c * x1[m:]))
    with np.errstate(over="ignore", invalid="ignore"):
        w, g1, _ = W.value_and_grad(x1, x2)
        positive = _refute(positive, x1, x2, w, w[:m] <= 0.0)
        x1, x2, w, g1 = x1[m:], x2[m:], w[m:], g1[m:]
        lie, radial = g1 * x2, g1 * x1  # dW/dx2 = 0 here; radial = (det P/p22) x1^2 h
        decrease = _refute(decrease, x1, x2, lie, (x1 > d) & (lie >= 0.0), eps)
        stationary = _refute(stationary, x1, x2, radial, (w <= 0.0) & (radial <= 0.0), eps)
    return VerificationReport(positive, decrease, admissible, stationary, c_omega, n, eps)


def _g(W: WeakCLBF, region: RegionBox, x1: float) -> float:
    """The minimum of V over the region's x2 range at x1."""
    x2 = min(max(-x1 * W.line_slope, region.x2_min), region.x2_max)
    return W.clf.value_and_grad(x1, x2)[0]


def _margin_set_empty(W: WeakCLBF, region: RegionBox) -> bool:
    """Whether C_omega = {V <= v2, x1 >= d + delta} misses the region: g,
    convex with its minimum at 0, is least on it at max(d + delta, 0)."""
    edge = W.shape.d + W.shape.delta
    return edge > region.x1_max or _g(W, region, max(edge, 0.0)) > W.bounds.v2


def check_c_omega_subset(W: WeakCLBF, region: RegionBox) -> ConditionResult:
    """The fifth verdict of verify_weak_clbf, decided with no samples: W <= 0
    (to _C_OMEGA_ROUNDING) on C_omega = {V <= v2, x1 >= d + delta} in X, where
    W <= (1 + theta*sigma2)*v2 - k, with the design's sigma2 and v2 that k was
    built from: exactly 0 for every certificate assemble_weak_clbf builds. The
    witness is the first slice end: V is largest on the slice {V <= v2} at an
    end of its x2 interval, taken at the set's left edge, or at the origin
    where V > v2 all along that edge. A set with no point in the region fails,
    with no margin and no witness."""
    clf, edge, v2 = W.clf, W.shape.d + W.shape.delta, W.bounds.v2
    empty = _margin_set_empty(W, region)
    if empty or W.theta < 0.0:
        return ConditionResult(
            _NAMES[4], FAIL if empty else UNDECIDED, math.nan, None, _EMPTY if empty else _OUTSIDE
        )
    sigma2 = W.bounds.sigma_endpoints(W.shape.l, W.shape.delta)[1]
    bound = (1.0 + W.theta * sigma2) * v2 - W.k
    allowance = _C_OMEGA_ROUNDING * (abs(W.k) + W.theta * sigma2 * v2 + v2)
    x1 = edge if _g(W, region, edge) <= v2 else 0.0
    root = math.sqrt(max(2.0 * clf.p22 * v2 - clf.det * x1 * x1, 0.0))
    lo = max(region.x2_min, (-clf.p12 * x1 - root) / clf.p22)
    hi = min(region.x2_max, (-clf.p12 * x1 + root) / clf.p22)
    x2 = lo if clf.value_and_grad(x1, lo)[0] >= clf.value_and_grad(x1, hi)[0] else hi
    return ConditionResult(
        _NAMES[4], PASS if bound <= allowance else FAIL, bound, (x1, x2),
        "W <= (1 + theta*sigma(d + delta))*v2 - k on C_omega: sigma decreases, V <= v2",
    )
