import numpy as np
import pytest

from safefl.errors import NotHurwitz, SingularSystem
from reference import finite_diff_grad
from safefl.numerics import (
    is_hurwitz_2x2,
    is_spd,
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

    def test_scenario_gain_case(self):
        A = np.array([[0.0, 1.0], [-1.5, -1.0]])
        P = solve_lyapunov_2x2(A, Q_OFFDIAG)
        np.testing.assert_allclose(
            P, [[2.483333, 0.333333], [0.333333, 0.833333]], atol=1e-6
        )
        # exact fractions: p12 = 1/3, p22 = 1/3 + 1/2, p11 = 0.9 + 1/3 + 1.25
        np.testing.assert_allclose(P[0, 1], 1.0 / 3.0, atol=1e-14)
        np.testing.assert_allclose(P[1, 1], 5.0 / 6.0, atol=1e-14)
        np.testing.assert_allclose(P[0, 0], 0.9 + 1.0 / 3.0 + 1.25, atol=1e-14)

    def test_residual_small(self):
        A = np.array([[0.0, 1.0], [-1.5, -1.0]])
        P = solve_lyapunov_2x2(A, Q_OFFDIAG)
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
            P = solve_lyapunov_2x2(A, Q_OFFDIAG)
            assert is_spd(P)
            assert P[0, 1] > 0.0
            assert np.abs(A.T @ P + P @ A + Q_OFFDIAG).max() < 1e-9


def _reduced_solve(A, Q):
    """P from the reduced 3x3 system, solved with no error state set."""
    (a11, a12), (a21, a22) = A
    system = np.array(
        [[2.0 * a11, 2.0 * a21, 0.0], [a12, a11 + a22, a21], [0.0, 2.0 * a12, 2.0 * a22]]
    )
    p11, p12, p22 = np.linalg.solve(system, -np.array([Q[0, 0], Q[0, 1], Q[1, 1]]))
    return np.array([[p11, p12], [p12, p22]])


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
        # raising on overflow leaves every finite result bit for bit
        rng = np.random.default_rng(20261019)
        for _ in range(500):
            kp, kd = 10.0 ** rng.uniform(-6.0, 6.0, size=2)
            A = np.array([[0.0, 1.0], [-kp, -kd]])
            Q = 10.0 ** rng.uniform(-100.0, 100.0) * Q_OFFDIAG
            try:
                P = solve_lyapunov_2x2(A, Q)
            except SingularSystem:
                continue
            assert P.tobytes() == _reduced_solve(A, Q).tobytes()


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
