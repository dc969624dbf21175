"""Small dense-matrix utilities for 2x2 systems.

Everything here is closed-form at 2x2 scale: the continuous Lyapunov
equation A'P + PA = -Q reduces to a 3x3 linear system in the independent
entries (p11, p12, p22) of the symmetric unknown.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotHurwitz, SingularSystem

SYMMETRY_TOL = 1e-12
# all inputs in this package are O(1)-O(1e2), so an absolute tolerance is safe

_COND_LIMIT = 1e14


def as_mat2(M) -> np.ndarray:
    """Coerce to a finite 2x2 float array."""
    A = np.asarray(M, dtype=float)
    if A.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def is_symmetric(M, tol: float = SYMMETRY_TOL) -> bool:
    A = as_mat2(M)
    return abs(A[0, 1] - A[1, 0]) <= tol


def is_spd(M) -> bool:
    """True iff M is symmetric (within SYMMETRY_TOL) and positive definite:
    a11 > 0 and its Schur complement a22 - a12*a21/a11 > 0. Unlike the
    determinant a11*a22 - a12*a21, the complement keeps the scale of M, so it
    does not underflow to 0 for a tiny positive definite M such as 1e-300*I."""
    A = as_mat2(M)
    if not is_symmetric(A):
        return False
    (a11, a12), (a21, a22) = A.tolist()  # floats: an overflow is inf, not a warning
    return a11 > 0.0 and a22 - a12 * (a21 / a11) > 0.0


def is_hurwitz_2x2(A) -> bool:
    """Routh-Hurwitz test: both eigenvalues in the open left half plane."""
    A = as_mat2(A)
    trace = A[0, 0] + A[1, 1]
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    return trace < 0.0 and det > 0.0


# overflow raises where it would warn; every finite result is unchanged
@np.errstate(over="raise")
def solve_lyapunov_2x2(A, Q) -> np.ndarray:
    """Solve A'P + PA = -Q for the symmetric positive-definite P.

    Raises NotHurwitz if A has an eigenvalue with non-negative real part,
    SingularSystem if the reduced 3x3 system is numerically rank-deficient
    and FloatingPointError if a product in the solve, or det P, overflows the
    float range. The returned P satisfies the equation entrywise to ~1e-10
    for the input scales used in this package.
    """
    A = as_mat2(A)
    Q = as_mat2(Q)
    if not is_hurwitz_2x2(A):
        raise NotHurwitz(f"matrix {A.tolist()} is not Hurwitz")
    if not is_spd(Q):
        raise ValueError("Q must be symmetric positive definite")

    a11, a12 = A[0]
    a21, a22 = A[1]
    # rows: the (1,1), (1,2) and (2,2) entries of A'P + PA, unknowns (p11, p12, p22)
    system = np.array(
        [
            [2.0 * a11, 2.0 * a21, 0.0],
            [a12, a11 + a22, a21],
            [0.0, 2.0 * a12, 2.0 * a22],
        ]
    )
    rhs = -np.array([Q[0, 0], Q[0, 1], Q[1, 1]])
    if np.linalg.cond(system) > _COND_LIMIT:
        raise SingularSystem("reduced Lyapunov system is rank-deficient")
    p11, p12, p22 = np.linalg.solve(system, rhs)
    P = np.array([[p11, p12], [p12, p22]])
    # np.linalg does not raise on overflow: it leaves an infinity in P
    if not np.all(np.isfinite(P)):
        raise FloatingPointError("overflow encountered in the solve")
    # every certificate on P forms det P (QuadraticCLF.det), so it must be finite too
    p11, p12, p22 = float(p11), float(p12), float(p22)
    if not math.isfinite(p11 * p22 - p12 * p12):
        raise FloatingPointError("overflow encountered in det P")
    if not is_spd(P):
        raise SingularSystem(f"solved P is not positive definite: {P.tolist()}")
    return P

