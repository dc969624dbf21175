import math
from fractions import Fraction

import numpy as np
import pytest

from safefl.errors import NotHurwitz, SingularSystem
from reference import finite_diff_grad, lyapunov_reference
from safefl.numerics import (
    _cond_3x3,
    is_hurwitz_2x2,
    is_spd,
    solve_linear,
    solve_lyapunov_2x2,
)

Q_OFFDIAG = np.array([[1.0, -0.9], [-0.9, 1.0]])


def lyapunov_lstsq_oracle(A, Q):
    """Brute-force least squares on all four entries of A'P + PA = -Q."""
    # unknowns (p11, p12, p22); rows are the four matrix-equation entries
    a11, a12 = A[0]
    a21, a22 = A[1]
    rows = np.array(
        [
            [2 * a11, 2 * a21, 0.0],
            [a12, a11 + a22, a21],
            [a12, a11 + a22, a21],
            [0.0, 2 * a12, 2 * a22],
        ]
    )
    rhs = -np.array([Q[0, 0], Q[0, 1], Q[1, 0], Q[1, 1]])
    sol, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    return np.array([[sol[0], sol[1]], [sol[1], sol[2]]])


class TestSolveLyapunov:
    def test_hand_solved_example(self):
        A = np.array([[0.0, 1.0], [-1.0, -1.0]])
        P = solve_lyapunov_2x2(A, np.eye(2))
        np.testing.assert_allclose(P, [[1.5, 0.5], [0.5, 1.0]], atol=1e-12)
        np.testing.assert_allclose(P, lyapunov_lstsq_oracle(A, np.eye(2)), atol=1e-10)

    def test_diagonal_case(self):
        P = solve_lyapunov_2x2(-np.eye(2), np.eye(2))
        np.testing.assert_allclose(P, 0.5 * np.eye(2), atol=1e-14)

    def test_returns_rows_of_floats(self):
        P = solve_lyapunov_2x2([[0.0, 1.0], [-1.5, -1.0]], Q_OFFDIAG.tolist())
        assert [[type(v) for v in row] for row in P] == [[float, float], [float, float]]
        assert P[0][1] == P[1][0]

    def test_scenario_gain_case(self):
        A = np.array([[0.0, 1.0], [-1.5, -1.0]])
        P = np.array(solve_lyapunov_2x2(A, Q_OFFDIAG))
        np.testing.assert_allclose(
            P, [[2.483333, 0.333333], [0.333333, 0.833333]], atol=1e-6
        )
        # exact fractions: p12 = 1/3, p22 = 1/3 + 1/2, p11 = 0.9 + 1/3 + 1.25
        np.testing.assert_allclose(P[0, 1], 1.0 / 3.0, atol=1e-14)
        np.testing.assert_allclose(P[1, 1], 5.0 / 6.0, atol=1e-14)
        np.testing.assert_allclose(P[0, 0], 0.9 + 1.0 / 3.0 + 1.25, atol=1e-14)

    def test_residual_small(self):
        A = np.array([[0.0, 1.0], [-1.5, -1.0]])
        P = np.array(solve_lyapunov_2x2(A, Q_OFFDIAG))
        residual = A.T @ P + P @ A + Q_OFFDIAG
        assert np.abs(residual).max() < 1e-10

    def test_rejects_non_hurwitz(self):
        with pytest.raises(NotHurwitz):
            solve_lyapunov_2x2(np.array([[0.0, 1.0], [1.0, -1.0]]), np.eye(2))
        with pytest.raises(NotHurwitz):
            solve_lyapunov_2x2(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))

    def test_rejects_non_spd_q(self):
        A = np.array([[0.0, 1.0], [-1.0, -1.0]])
        with pytest.raises(ValueError):
            solve_lyapunov_2x2(A, np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_random_gain_sweep_spd_and_positive_coupling(self):
        # 1000 random damped-oscillator loops; solved P must be SPD with a
        # tight residual, and its off-diagonal entry positive
        rng = np.random.default_rng(20240811)
        for _ in range(1000):
            kp, kd = rng.uniform(0.1, 10.0, size=2)
            A = np.array([[0.0, 1.0], [-kp, -kd]])
            P = np.array(solve_lyapunov_2x2(A, Q_OFFDIAG))
            assert is_spd(P)
            assert P[0, 1] > 0.0
            assert np.abs(A.T @ P + P @ A + Q_OFFDIAG).max() < 1e-9


@pytest.mark.filterwarnings("error")
class TestOverflow:
    """An overflow is one FloatingPointError naming it, never a warning."""

    @pytest.mark.parametrize(
        "A, Q",
        [
            # 2*a21 in the reduced system
            ([[0.0, 1.0], [-1e308, -1.0]], np.eye(2)),
            # det P: P is positive definite, near 1e300, so det P near 1e600
            ([[0.0, 1.0], [-1.5, -1.0]], 1e300 * np.eye(2)),
            # the solve itself: P near 1e310
            ([[0.0, 1e-160], [-1.5e-160, -1e-160]], 1e150 * np.eye(2)),
        ],
        ids=["system", "det_q", "solve"],
    )
    def test_overflow_is_named(self, A, Q):
        with pytest.raises(FloatingPointError, match="overflow"):
            solve_lyapunov_2x2(np.array(A), Q)

    def test_finite_solutions_are_unchanged(self):
        # the overflow checks leave every finite result as np.linalg.solve
        # gives it, each entry to 1e-14 of itself, over 24 decades of gains
        # and 200 of Q
        rng = np.random.default_rng(20261019)
        for _ in range(500):
            kp, kd = 10.0 ** rng.uniform(-6.0, 6.0, size=2)
            A = np.array([[0.0, 1.0], [-kp, -kd]])
            Q = 10.0 ** rng.uniform(-100.0, 100.0) * Q_OFFDIAG
            try:
                P = np.array(solve_lyapunov_2x2(A, Q))
            except SingularSystem:
                continue
            np.testing.assert_allclose(P, lyapunov_reference(A, Q), rtol=1e-14, atol=0.0)


def _random_system(rng):
    """A seeded random Hurwitz A with entries in [-3, 3] and an SPD Q = L L'."""
    while True:
        A = rng.uniform(-3.0, 3.0, size=(2, 2))
        if is_hurwitz_2x2(A):
            break
    L = np.array([[rng.uniform(0.1, 2.0), 0.0], [rng.uniform(-2.0, 2.0), rng.uniform(0.1, 2.0)]])
    return A, L @ L.T


def _exact_residual(A, P, Q) -> float:
    """max |A'P + PA + Q| over the entries, in exact rational arithmetic."""
    a = [[Fraction(v) for v in row] for row in np.asarray(A).tolist()]
    p = [[Fraction(v) for v in row] for row in np.asarray(P).tolist()]
    q = [[Fraction(v) for v in row] for row in np.asarray(Q).tolist()]
    return float(max(
        abs(sum(a[k][i] * p[k][j] + p[i][k] * a[k][j] for k in range(2)) + q[i][j])
        for i in range(2) for j in range(2)
    ))


class TestFloatSolve:
    """The reduced system solved in Python floats, against np.linalg.solve."""

    @pytest.mark.parametrize("kp", [1.5, 1.0], ids=["axis0", "axis1"])
    def test_bundled_gains_match_numpy_bit_for_bit(self, kp):
        A = np.array([[0.0, 1.0], [-kp, -1.0]])
        reference = lyapunov_reference(A, Q_OFFDIAG)
        assert solve_lyapunov_2x2(A, Q_OFFDIAG) == tuple(map(tuple, reference.tolist()))

    def test_random_systems_have_a_tiny_residual(self):
        # Gaussian elimination with partial pivoting is backward stable, so
        # the residual is a few ulps of |A||P| + |Q| at any conditioning
        rng = np.random.default_rng(20261020)
        for _ in range(300):
            A, Q = _random_system(rng)
            P = np.array(solve_lyapunov_2x2(A, Q))
            scale = 2.0 * np.abs(A).sum(axis=1).max() * np.abs(P).sum(axis=1).max() + np.abs(Q).max()
            assert _exact_residual(A, P, Q) <= 1e-14 * scale

    def test_random_systems_agree_with_numpy(self):
        rng = np.random.default_rng(20261021)
        for _ in range(1000):
            A, Q = _random_system(rng)
            P = np.array(solve_lyapunov_2x2(A, Q))
            reference = lyapunov_reference(A, Q)
            # each entry to 1e-14 of itself; an off-diagonal entry that
            # cancels to near zero carries the absolute error of its terms,
            # in numpy's solve as in this one, and is held to 1e-15 of P
            atol = 1e-15 * np.abs(reference).max()
            np.testing.assert_allclose(P, reference, rtol=1e-14, atol=atol)

    def test_condition_number_within_three_of_the_2_norm_one(self):
        rng = np.random.default_rng(20261022)
        for _ in range(300):
            S = rng.uniform(-3.0, 3.0, size=(3, 3)) * 10.0 ** rng.uniform(-50.0, 50.0)
            ratio = _cond_3x3(S.tolist()) / np.linalg.cond(S)
            assert 1.0 / 3.0 * (1.0 - 1e-9) <= ratio <= 3.0 * (1.0 + 1e-9)
        assert _cond_3x3([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]) == math.inf

    def test_zero_pivot_is_singular(self):
        with pytest.raises(SingularSystem):
            solve_linear([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])


class TestIsSpd:
    def test_identity(self):
        assert is_spd(np.eye(2))

    def test_indefinite(self):
        assert not is_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_scenario_matrix(self):
        assert is_spd(np.array([[2.483333, 0.333333], [0.333333, 0.833333]]))

    def test_asymmetric(self):
        assert not is_spd(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_negative_definite(self):
        assert not is_spd(-np.eye(2))

    def test_tiny_scale(self):
        # the determinant 1e-600 underflows to 0; the Schur complement does not
        assert is_spd(1e-300 * np.eye(2))
        assert not is_spd(-1e-300 * np.eye(2))

    def test_singular(self):
        assert not is_spd(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_tiny_asymmetric(self):
        # 5e-13 apart is within 1e-12 absolutely, but five times the
        # diagonal; the upper triangle alone is indefinite
        assert not is_spd([[1e-13, 5e-13], [0.0, 1e-13]])
        # symmetric within 1e-12 of its entries, and positive definite if the
        # two off-diagonal entries are mixed in the Schur test; the upper
        # triangle, which the Lyapunov solve reads, is indefinite
        assert not is_spd([[1.0 + 1e-13, 1.0 + 4e-13], [1.0 - 4e-13, 1.0 + 1e-13]])
        assert is_spd(Q_OFFDIAG)  # the bundled Q

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_symmetry_is_relative_to_the_entries(self, scale):
        assert is_spd([[scale, 0.5 * scale], [(0.5 + 1e-13) * scale, scale]])
        assert not is_spd([[scale, 0.5 * scale], [(0.5 + 1e-11) * scale, scale]])


def test_is_hurwitz():
    assert is_hurwitz_2x2([[0.0, 1.0], [-1.0, -1.0]])
    assert not is_hurwitz_2x2([[0.0, 1.0], [-1.0, 0.0]])  # marginal
    assert not is_hurwitz_2x2([[1.0, 0.0], [0.0, -5.0]])


class TestFiniteDiffGrad:
    def test_separable_square(self):
        grad = finite_diff_grad(lambda x: x[0] ** 2, np.array([1.0, 0.0]), h=1e-5)
        np.testing.assert_allclose(grad, [2.0, 0.0], atol=1e-8)

    def test_quadratic_form_matches_analytic(self):
        P = np.array([[1.5, 0.5], [0.5, 1.0]])
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=2)
            grad = finite_diff_grad(lambda z: 0.5 * z @ P @ z, x)
            np.testing.assert_allclose(grad, P @ x, atol=1e-6)

    def test_constant_field(self):
        grad = finite_diff_grad(lambda x: 3.25, np.array([0.3, -0.7]))
        np.testing.assert_allclose(grad, [0.0, 0.0], atol=1e-12)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda x: 0.0, np.zeros(2), h=0.0)
