"""Scaled-certificate safe control for second-order systems.

Builds weak control Lyapunov-barrier functions by sigmoid-scaling a quadratic
Lyapunov function near a half-plane unsafe set, verifies them exactly from
closed forms, and composes them with feedback linearization into a safe
task-space controller for a planar two-link manipulator.
"""

from . import clbf, manipulator, numerics, scenario, sim
from .clbf import (
    HalfPlaneUnsafe,
    QuadraticCLF,
    RegionBox,
    SigmoidShape,
    WeakCLBF,
    check_c_omega_subset,
    select_parameters,
    verify_weak_clbf,
)
from .errors import SafeFlError
from .numerics import is_spd, solve_lyapunov_2x2
from .sim import SimConfig, Trajectory, safety_monitor, simulate_closed_loop

__version__ = "0.1.0"

__all__ = [
    "HalfPlaneUnsafe",
    "QuadraticCLF",
    "RegionBox",
    "SafeFlError",
    "SigmoidShape",
    "SimConfig",
    "Trajectory",
    "WeakCLBF",
    "check_c_omega_subset",
    "is_spd",
    "safety_monitor",
    "select_parameters",
    "simulate_closed_loop",
    "solve_lyapunov_2x2",
    "verify_weak_clbf",
    "__version__",
]
