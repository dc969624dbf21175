"""Decoupling transform and gain assembly for constrained MIMO double integrators.

Stacking the (independent) constraint rows C over an orthonormal completion D
gives a nonsingular P whose block form Phi = blkdiag(P, P) maps the chain
x1dot = x2, x2dot = u onto n scalar subsystems, one per transformed
coordinate, with the first m aligned to the constraints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clbf import WeakCLBF
from .errors import InvalidUnsafeSet, RankDeficient, SingularInputMatrix
from .numerics import is_hurwitz_2x2

_RANK_TOL = 1e-10
_COND_LIMIT = 1e8


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Safe set {x : rows_i . x > offsets_i} with canonical offsets < 0."""

    rows: np.ndarray  # (m, n)
    offsets: np.ndarray  # (m,)

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        offsets = np.atleast_1d(np.asarray(self.offsets, dtype=float))
        if rows.shape[0] != offsets.shape[0]:
            raise ValueError("one offset per constraint row required")
        if rows.shape[0] > rows.shape[1]:
            raise ValueError("more constraints than state dimensions")
        if np.any(offsets >= 0.0):
            raise InvalidUnsafeSet("canonical constraint offsets must be negative")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "offsets", offsets)

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]


def _orthonormalize(rows: np.ndarray) -> np.ndarray:
    basis: list[np.ndarray] = []
    for row in rows:
        v = row.astype(float).copy()
        for b in basis:
            v -= (v @ b) * b
        norm = np.linalg.norm(v)
        if norm <= _RANK_TOL:
            raise RankDeficient("constraint rows are linearly dependent")
        basis.append(v / norm)
    return np.array(basis)


@dataclass(frozen=True, eq=False)
class DecouplingTransform:
    """Nonsingular P = [C; D] and its block form Phi = blkdiag(P, P)."""

    p_mat: np.ndarray  # (n, n)
    m: int

    def __post_init__(self):
        p = np.asarray(self.p_mat, dtype=float)
        object.__setattr__(self, "p_mat", p)
        object.__setattr__(self, "_p_inv", np.linalg.inv(p))

    @property
    def n(self) -> int:
        return self.p_mat.shape[0]

    @property
    def p_inv(self) -> np.ndarray:
        return self._p_inv

    @property
    def cond(self) -> float:
        return float(np.linalg.cond(self.p_mat))

    @property
    def phi(self) -> np.ndarray:
        n = self.n
        out = np.zeros((2 * n, 2 * n))
        out[:n, :n] = self.p_mat
        out[n:, n:] = self.p_mat
        return out

    def to_transformed(self, x: np.ndarray) -> np.ndarray:
        """Apply Phi to a stacked (x1, x2) state of length 2n."""
        x = np.asarray(x, dtype=float)
        n = self.n
        return np.concatenate([self.p_mat @ x[:n], self.p_mat @ x[n:]])

    def from_transformed(self, xbar: np.ndarray) -> np.ndarray:
        xbar = np.asarray(xbar, dtype=float)
        n = self.n
        return np.concatenate([self.p_inv @ xbar[:n], self.p_inv @ xbar[n:]])


def build_transform(constraints: ConstraintSet, n: int) -> DecouplingTransform:
    """Complete the constraint rows to a nonsingular P, deterministically.

    The completion rows form an orthonormal basis of the orthogonal
    complement of the constraint span, generated by Gram-Schmidt over the
    standard basis in index order with the sign of each row fixed so its
    first non-negligible component is positive.
    """
    rows = constraints.rows
    if rows.shape[1] != n:
        raise ValueError(f"constraint rows have dimension {rows.shape[1]}, expected {n}")
    ortho_c = _orthonormalize(rows)
    completion: list[np.ndarray] = []
    for i in range(n):
        if len(completion) == n - constraints.m:
            break
        v = np.zeros(n)
        v[i] = 1.0
        for b in ortho_c:
            v -= (v @ b) * b
        for b in completion:
            v -= (v @ b) * b
        norm = np.linalg.norm(v)
        if norm <= _RANK_TOL:
            continue
        v /= norm
        lead = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
        if lead < 0.0:
            v = -v
        completion.append(v)
    d_rows = np.array(completion).reshape(n - constraints.m, n)
    p_mat = np.vstack([rows, d_rows]) if d_rows.size else rows.copy()
    return DecouplingTransform(p_mat=p_mat, m=constraints.m)


@dataclass(frozen=True, eq=False)
class GainSchedule:
    """Per-subsystem position/velocity gains and safety gains."""

    kp: np.ndarray
    kd: np.ndarray
    k_safe: np.ndarray

    def __post_init__(self):
        kp = np.atleast_1d(np.asarray(self.kp, dtype=float))
        kd = np.atleast_1d(np.asarray(self.kd, dtype=float))
        k_safe = np.atleast_1d(np.asarray(self.k_safe, dtype=float))
        if not (kp.shape == kd.shape == k_safe.shape):
            raise ValueError("gain arrays must share one length")
        if np.any(kp <= 0.0) or np.any(kd <= 0.0):
            raise ValueError("kp and kd must be positive")
        if np.any(k_safe < 0.0):
            raise ValueError("k_safe must be non-negative")
        for kp_i, kd_i in zip(kp, kd):
            if not is_hurwitz_2x2([[0.0, 1.0], [-kp_i, -kd_i]]):
                raise ValueError(f"subsystem gains ({kp_i}, {kd_i}) are not stabilizing")
        object.__setattr__(self, "kp", kp)
        object.__setattr__(self, "kd", kd)
        object.__setattr__(self, "k_safe", k_safe)

    @property
    def n(self) -> int:
        return self.kp.shape[0]


def build_gain_matrix(transform: DecouplingTransform, gains: GainSchedule) -> np.ndarray:
    """Gain K (n x 2n) such that u = -Kx decouples the transformed loop.

    In transformed coordinates the closed loop becomes xbar2dot_i =
    -kp_i xbar1_i - kd_i xbar2_i per subsystem, i.e. P K Phi^-1 =
    [diag(kp) diag(kd)].
    """
    if gains.n != transform.n:
        raise ValueError("one gain pair per subsystem required")
    kbar = np.hstack([np.diag(gains.kp), np.diag(gains.kd)])
    return transform.p_inv @ kbar @ transform.phi


def assemble_u_safe(
    transform: DecouplingTransform, g_at_x: np.ndarray, a_safe: np.ndarray
) -> np.ndarray:
    """Physical safety input G^-1 P^-1 a_safe delivering a_safe per subsystem."""
    g_at_x = np.asarray(g_at_x, dtype=float)
    if np.linalg.cond(g_at_x) >= _COND_LIMIT:
        raise SingularInputMatrix("input matrix numerically singular")
    if transform.cond >= _COND_LIMIT:
        raise SingularInputMatrix("decoupling transform numerically singular")
    return np.linalg.solve(g_at_x, transform.p_inv @ np.asarray(a_safe, dtype=float))


def initial_set_membership(
    transform: DecouplingTransform, w_list: list[WeakCLBF], x0: np.ndarray
) -> tuple[bool, np.ndarray]:
    """Evaluate each constrained subsystem's certificate at the initial state.

    Membership (all values <= 0) is the initiation condition under which the
    safe loop keeps every transformed constraint satisfied for all time.
    """
    if len(w_list) != transform.m:
        raise ValueError("one certificate per constrained subsystem required")
    xbar = transform.to_transformed(x0)
    n = transform.n
    values = np.array(
        [w.value_and_grad(xbar[i], xbar[n + i])[0] for i, w in enumerate(w_list)]
    )
    return bool(np.all(values <= 0.0)), values
