import numpy as np
import pytest

from safefl.errors import InvalidUnsafeSet, RankDeficient, SingularInputMatrix
from safefl.transform import (
    ConstraintSet,
    GainSchedule,
    assemble_u_safe,
    build_gain_matrix,
    build_transform,
    initial_set_membership,
)


def _constraints(rows, offsets=None):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if offsets is None:
        offsets = -np.ones(rows.shape[0])
    return ConstraintSet(rows=rows, offsets=np.asarray(offsets, dtype=float))


class TestBuildTransform:
    def test_axis_aligned_single_constraint(self):
        T = build_transform(_constraints([[1.0, 0.0]]), n=2)
        np.testing.assert_allclose(T.p_mat, np.eye(2), atol=1e-14)
        assert T.m == 1

    def test_full_constraint_set(self):
        T = build_transform(_constraints(np.eye(2)), n=2)
        np.testing.assert_allclose(T.p_mat, np.eye(2), atol=1e-14)
        assert T.m == 2

    def test_diagonal_constraint_completion(self):
        T = build_transform(_constraints([[1.0, 1.0]]), n=2)
        np.testing.assert_allclose(
            T.p_mat[1], [0.707107, -0.707107], atol=1e-6
        )

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            build_transform(_constraints([[1.0, 1.0], [2.0, 2.0]], [-1.0, -1.0]), n=2)

    def test_completion_orthonormal_and_deterministic(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = rng.integers(2, 5)
            m = rng.integers(1, n + 1)
            rows = rng.normal(size=(m, n))
            if np.linalg.matrix_rank(rows) < m:
                continue
            cs = _constraints(rows, -np.abs(rng.uniform(0.5, 2.0, size=m)))
            T1 = build_transform(cs, n=n)
            T2 = build_transform(cs, n=n)
            np.testing.assert_array_equal(T1.p_mat, T2.p_mat)
            completion = T1.p_mat[m:]
            np.testing.assert_allclose(
                completion @ completion.T, np.eye(n - m), atol=1e-10
            )
            np.testing.assert_allclose(completion @ rows.T, 0.0, atol=1e-10)
            assert abs(np.linalg.det(T1.p_mat)) > 1e-12

    def test_round_trip(self):
        T = build_transform(_constraints([[1.0, 1.0, 0.0]], [-2.0]), n=3)
        rng = np.random.default_rng(19)
        for _ in range(20):
            x = rng.normal(size=6)
            np.testing.assert_allclose(
                T.from_transformed(T.to_transformed(x)), x, atol=1e-12
            )

    def test_constraint_boundaries_map_to_coordinate_thresholds(self):
        # points on {C_i x1 = d_i} land exactly on {xbar_1i = d_i}
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, n + 1))
            rows = rng.normal(size=(m, n))
            if np.linalg.matrix_rank(rows) < m:
                continue
            offsets = -np.abs(rng.uniform(0.5, 2.0, size=m))
            T = build_transform(_constraints(rows, offsets), n=n)
            for i in range(m):
                base = rows[i] * offsets[i] / (rows[i] @ rows[i])
                drift = rng.normal(size=n)
                drift -= (drift @ rows[i]) / (rows[i] @ rows[i]) * rows[i]
                x1 = base + drift  # stays on the i-th boundary
                xbar = T.to_transformed(np.concatenate([x1, rng.normal(size=n)]))
                assert xbar[i] == pytest.approx(offsets[i], abs=1e-10)

    def test_constraint_set_validation(self):
        with pytest.raises(InvalidUnsafeSet):
            _constraints([[1.0, 0.0]], [0.5])
        with pytest.raises(ValueError):
            ConstraintSet(rows=np.ones((3, 2)), offsets=-np.ones(3))


class TestGainMatrix:
    def test_identity_transform_unit_gains(self):
        T = build_transform(_constraints(np.eye(2)), n=2)
        gains = GainSchedule(kp=[1.0, 1.0], kd=[1.0, 1.0], k_safe=[0.0, 0.0])
        K = build_gain_matrix(T, gains)
        np.testing.assert_allclose(K, np.hstack([np.eye(2), np.eye(2)]), atol=1e-14)

    def test_published_gains_identity_transform(self):
        T = build_transform(_constraints(np.eye(2)), n=2)
        gains = GainSchedule(kp=[1.5, 1.0], kd=[1.0, 1.0], k_safe=[0.0, 0.0])
        K = build_gain_matrix(T, gains)
        np.testing.assert_allclose(
            K, [[1.5, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]], atol=1e-14
        )

    def test_decoupling_for_random_transform(self):
        # transformed closed-loop matrix must be block diagonal per subsystem
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            while True:
                p_mat = rng.normal(size=(n, n))
                if abs(np.linalg.det(p_mat)) > 0.3:
                    break
            m = int(rng.integers(1, n + 1))
            cs = _constraints(p_mat[:m], -np.abs(rng.uniform(0.5, 2, size=m)))
            from safefl.transform import DecouplingTransform

            T = DecouplingTransform(p_mat=p_mat, m=m)
            kp = rng.uniform(0.5, 3.0, size=n)
            kd = rng.uniform(0.5, 3.0, size=n)
            gains = GainSchedule(kp=kp, kd=kd, k_safe=np.zeros(n))
            K = build_gain_matrix(T, gains)
            a_cl = np.zeros((2 * n, 2 * n))
            a_cl[:n, n:] = np.eye(n)
            a_cl[n:, :] = -K
            transformed = T.phi @ a_cl @ np.linalg.inv(T.phi)
            expected = np.zeros_like(transformed)
            expected[:n, n:] = np.eye(n)
            expected[n:, :n] = -np.diag(kp)
            expected[n:, n:] = -np.diag(kd)
            np.testing.assert_allclose(transformed, expected, atol=1e-10)

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            GainSchedule(kp=[1.0, -1.0], kd=[1.0, 1.0], k_safe=[0.0, 0.0])
        with pytest.raises(ValueError):
            GainSchedule(kp=[1.0], kd=[1.0, 1.0], k_safe=[0.0, 0.0])
        with pytest.raises(ValueError):
            GainSchedule(kp=[1.0, 1.0], kd=[1.0, 1.0], k_safe=[-0.5, 0.0])


class TestAssembleUSafe:
    def test_zero_passthrough(self):
        T = build_transform(_constraints(np.eye(2)), n=2)
        np.testing.assert_allclose(
            assemble_u_safe(T, np.eye(2), np.zeros(2)), np.zeros(2)
        )

    def test_identity_case(self):
        T = build_transform(_constraints(np.eye(2)), n=2)
        np.testing.assert_allclose(
            assemble_u_safe(T, np.eye(2), np.array([1.0, 0.0])), [1.0, 0.0]
        )

    def test_round_trip_random(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            while True:
                p_mat = rng.normal(size=(n, n))
                if abs(np.linalg.det(p_mat)) > 0.3:
                    break
            from safefl.transform import DecouplingTransform

            T = DecouplingTransform(p_mat=p_mat, m=n)
            while True:
                g = rng.normal(size=(n, n))
                if abs(np.linalg.det(g)) > 0.3:
                    break
            a_safe = rng.normal(size=n)
            u = assemble_u_safe(T, g, a_safe)
            np.testing.assert_allclose(p_mat @ g @ u, a_safe, atol=1e-9)

    def test_singular_input_matrix(self):
        T = build_transform(_constraints(np.eye(2)), n=2)
        with pytest.raises(SingularInputMatrix):
            assemble_u_safe(T, np.array([[1.0, 0.0], [0.0, 1e-9]]), np.ones(2))


class TestInitialSetMembership:
    def test_origin_is_member(self, table_cert_sub1, table_cert_sub2):
        T = build_transform(_constraints(np.eye(2), [-1.0, -1.3]), n=2)
        member, values = initial_set_membership(
            T, [table_cert_sub1, table_cert_sub2], np.zeros(4)
        )
        assert member
        np.testing.assert_allclose(
            values, [-table_cert_sub1.k, -table_cert_sub2.k], rtol=1e-12
        )

    def test_unsafe_interior_is_not_member(self, table_cert_sub1, table_cert_sub2):
        T = build_transform(_constraints(np.eye(2), [-1.0, -1.3]), n=2)
        # position component of the first subsystem deep inside its unsafe set
        x0 = np.array([-1.1, 0.0, 0.4, 0.0])
        member, values = initial_set_membership(
            T, [table_cert_sub1, table_cert_sub2], x0
        )
        assert not member
        assert values[0] > 0.0

    def test_scenario_initial_state_reported(self, default_bundle):
        # the bundled scenario's transform is the identity; the initial
        # membership values match the per-axis certificate evaluations
        T = build_transform(_constraints(np.eye(2), [-1.0, -1.3]), n=2)
        xbar0 = np.array(
            [
                default_bundle.subsystems[0].xbar0[0],
                default_bundle.subsystems[1].xbar0[0],
                default_bundle.subsystems[0].xbar0[1],
                default_bundle.subsystems[1].xbar0[1],
            ]
        )
        member, values = initial_set_membership(
            T, list(default_bundle.certificates), xbar0
        )
        assert member
        np.testing.assert_allclose(values, default_bundle.initial_w(), rtol=1e-12)

    def test_wrong_certificate_count(self, table_cert_sub1):
        T = build_transform(_constraints(np.eye(2), [-1.0, -1.3]), n=2)
        with pytest.raises(ValueError):
            initial_set_membership(T, [table_cert_sub1], np.zeros(4))
