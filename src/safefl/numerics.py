"""Small dense-matrix utilities for 2x2 systems, on Python floats.

Everything here is closed-form at 2x2 scale: the continuous Lyapunov
equation A'P + PA = -Q reduces to a 3x3 linear system in the independent
entries (p11, p12, p22) of the symmetric unknown, which solve_linear solves
by Gaussian elimination. A matrix is read from any 2x2 array-like (nested
sequences or an array) into rows of plain floats, so this module imports no
numpy: in floats an overflow is inf, not a warning, and each result that can
overflow is checked for it.
"""

from __future__ import annotations

import math

from .errors import NotHurwitz, SingularSystem

# |a12 - a21| allowed relative to the largest entry, so the check is the
# same at every scale of the matrix
SYMMETRY_RTOL = 1e-12

_COND_LIMIT = 1e14

Mat2 = tuple[tuple[float, float], tuple[float, float]]


def as_mat2(M) -> Mat2:
    """The rows of a 2x2 array-like as finite floats."""
    try:
        (a11, a12), (a21, a22) = M
        entries = (float(a11), float(a12), float(a21), float(a22))
    except (TypeError, ValueError) as err:
        raise ValueError(f"expected a 2x2 matrix, got {M!r}") from err
    if not all(map(math.isfinite, entries)):
        raise ValueError("matrix entries must be finite")
    return entries[:2], entries[2:]


def is_symmetric(M) -> bool:
    (a11, a12), (a21, a22) = as_mat2(M)
    return abs(a12 - a21) <= SYMMETRY_RTOL * max(abs(a11), abs(a12), abs(a21), abs(a22))


def is_pd_2x2(a11: float, a12: float, a22: float) -> bool:
    """The Schur test of the symmetric [[a11, a12], [a12, a22]]: a11 > 0 and
    a22 - a12*a12/a11 > 0, which keeps the matrix's scale where the
    determinant underflows (1e-300*I). It does not check finiteness."""
    return a11 > 0.0 and a22 - a12 * (a12 / a11) > 0.0


def is_spd(M) -> bool:
    """True iff M is symmetric (within SYMMETRY_RTOL of its largest entry)
    and its upper triangle, the one solve_lyapunov_2x2 reads, passes
    is_pd_2x2."""
    rows = as_mat2(M)
    (a11, a12), (_, a22) = rows
    return is_symmetric(rows) and is_pd_2x2(a11, a12, a22)


def is_hurwitz_2x2(A) -> bool:
    """Routh-Hurwitz test: both eigenvalues in the open left half plane."""
    (a11, a12), (a21, a22) = as_mat2(A)
    return a11 + a22 < 0.0 and a11 * a22 - a12 * a21 > 0.0


def solve_linear(rows, rhs) -> list[float]:
    """x with rows @ x = rhs, for a small square system of floats.

    Gaussian elimination with partial pivoting in LAPACK's order (dgetf2,
    then dgetrs): each column's multipliers are scaled by the reciprocal of
    its pivot, then forward and row back-substitution follow. On the bundled
    systems this gives np.linalg.solve's result bit for bit; elsewhere the
    two can differ by a few ulps. A zero pivot raises SingularSystem.
    """
    a = [[float(v) for v in row] for row in rows]
    b = [float(v) for v in rhs]
    n = len(b)
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        if a[p][k] == 0.0:
            raise SingularSystem("linear system is singular")
        a[k], a[p] = a[p], a[k]
        b[k], b[p] = b[p], b[k]
        r = 1.0 / a[k][k]
        for i in range(k + 1, n):
            a[i][k] *= r
            for j in range(k + 1, n):
                a[i][j] -= a[i][k] * a[k][j]
    for i in range(n):
        for j in range(i):
            b[i] -= a[i][j] * b[j]
    x = [0.0] * n
    for i in reversed(range(n)):
        s = b[i]
        for j in range(i + 1, n):
            s -= a[i][j] * x[j]
        x[i] = s / a[i][i]
    return x


def _cond_3x3(rows) -> float:
    """The 1-norm condition number ||S||_1 ||S^-1||_1 of a 3x3 S, with
    S^-1 = adj(S) / det(S) from its cofactors; inf for a singular S. It lies
    within a factor of 3 of the 2-norm one (Golub & Van Loan, Matrix
    Computations, 2013, sec. 2.3.2). S is first divided by its largest entry,
    which leaves the number unchanged and keeps the cofactors in range."""
    m = max(abs(v) for row in rows for v in row)
    (a, b, c), (d, e, f), (g, h, i) = ([v / m for v in row] for row in rows)
    cofactors = (
        (e * i - f * h, f * g - d * i, d * h - e * g),
        (c * h - b * i, a * i - c * g, b * g - a * h),
        (b * f - c * e, c * d - a * f, a * e - b * d),
    )
    det = a * cofactors[0][0] + b * cofactors[0][1] + c * cofactors[0][2]
    if det == 0.0:
        return math.inf
    # ||S||_1 is S's largest column sum; adj(S) is the cofactors' transpose,
    # so ||adj(S)||_1 is their largest row sum
    norm = max(abs(a) + abs(d) + abs(g), abs(b) + abs(e) + abs(h), abs(c) + abs(f) + abs(i))
    norm_adj = max(sum(map(abs, row)) for row in cofactors)
    return norm * norm_adj / abs(det)


def solve_lyapunov_2x2(A, Q) -> Mat2:
    """Solve A'P + PA = -Q for the symmetric positive-definite P, returned
    as its rows ((p11, p12), (p12, p22)) of floats.

    Raises NotHurwitz if A has an eigenvalue with non-negative real part,
    SingularSystem if the reduced 3x3 system is numerically rank-deficient
    (1-norm condition number above 1e14) and FloatingPointError if the
    reduced system, the solve or det P overflows the float range. The
    returned P satisfies the equation to a residual of a few ulps of
    |A||P| + |Q|.
    """
    A = as_mat2(A)
    (a11, a12), (a21, a22) = A
    if not is_hurwitz_2x2(A):
        raise NotHurwitz(f"matrix {[list(row) for row in A]} is not Hurwitz")
    if not is_spd(Q):
        raise ValueError("Q must be symmetric positive definite")
    (q11, q12), (_, q22) = as_mat2(Q)

    # rows: the (1,1), (1,2) and (2,2) entries of A'P + PA, unknowns (p11, p12, p22)
    system = (
        (2.0 * a11, 2.0 * a21, 0.0),
        (a12, a11 + a22, a21),
        (0.0, 2.0 * a12, 2.0 * a22),
    )
    if not all(math.isfinite(v) for row in system for v in row):
        raise FloatingPointError("overflow encountered in the reduced system")
    if not _cond_3x3(system) <= _COND_LIMIT:
        raise SingularSystem("reduced Lyapunov system is rank-deficient")
    p11, p12, p22 = solve_linear(system, (-q11, -q12, -q22))
    if not all(map(math.isfinite, (p11, p12, p22))):
        raise FloatingPointError("overflow encountered in the solve")
    # every certificate on P forms det P (QuadraticCLF.det), so it must be finite too
    if not math.isfinite(p11 * p22 - p12 * p12):
        raise FloatingPointError("overflow encountered in det P")
    P = ((p11, p12), (p12, p22))
    if not is_pd_2x2(p11, p12, p22):
        raise SingularSystem(f"solved P is not positive definite: {[list(row) for row in P]}")
    return P
