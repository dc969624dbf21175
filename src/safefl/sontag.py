"""Universal-formula feedback and the per-subsystem safety input.

For a scalar input channel the formula reads

    kappa(a, b) = -(a + sqrt(a^2 + b^4)) / b     (b != 0;  0 otherwise)

and satisfies a + b*kappa(a, b) = -sqrt(a^2 + b^4) exactly, so the certificate
decreases along the closed loop wherever the input can act on it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .clbf import WeakCLBF

_B_DEADZONE = 1e-12  # relative to 1 + |a|; below this the channel is treated as closed


class LieValues(NamedTuple):
    """Certificate derivatives along the drift (a) and the input direction (b)."""

    a: float
    b: float


def sontag_universal(a: float, b: float) -> float:
    """Stabilizing feedback from the Lie derivatives (a, b) of a certificate."""
    if abs(b) < _B_DEADZONE * (1.0 + abs(a)):
        return 0.0
    return -(a + math.hypot(a, b * b)) / b


def lie_derivatives(W: WeakCLBF, x1: float, x2: float, kp: float, kd: float) -> LieValues:
    """(a, b) = (dW along the subsystem drift, dW along the input direction)."""
    _, g1, g2 = W.value_and_grad(x1, x2)
    return LieValues(a=g1 * x2 + g2 * (-kp * x1 - kd * x2), b=g2)


def safe_aux_input(
    W: WeakCLBF, xbar: tuple[float, float], kp: float, kd: float, k_safe: float
) -> float:
    """Auxiliary input k_safe * kappa(a, b) for one constrained subsystem.

    With k_safe = 1 the subsystem's certificate derivative along the closed
    loop is exactly -sqrt(a^2 + b^4) <= 0 wherever b != 0; where b = 0 the
    decrease is the certificate's own line condition, not the controller's.
    """
    if k_safe < 0.0:
        raise ValueError("k_safe must be non-negative")
    a, b = lie_derivatives(W, xbar[0], xbar[1], kp, kd)
    return k_safe * sontag_universal(a, b)
