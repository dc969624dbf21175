import math
from dataclasses import astuple

import numpy as np
import pytest

from reference import finite_diff_grad
from safefl.clbf import (
    HalfPlaneUnsafe,
    QuadraticCLF,
    RegionBox,
    SigmoidShape,
    WeakCLBF,
    assemble_weak_clbf,
    parameter_bounds,
    select_parameters,
    sigmoid_eval,
    v1_min_on_unsafe,
)
from safefl.errors import InvalidUnsafeSet, LevelTooSmall, MarginInfeasible

P1 = np.array([[0.9 + 1 / 3 + 1.25, 1 / 3], [1 / 3, 5 / 6]])
SHAPE1 = SigmoidShape(l=4.0, d=-1.0, delta=0.28)


def _fd_slope(shape, x1, h=1e-6):
    return (sigmoid_eval(shape, x1 + h) - sigmoid_eval(shape, x1 - h)) / (2.0 * h)


class TestSigmoid:
    def test_center_value(self):
        assert sigmoid_eval(SHAPE1, SHAPE1.d + SHAPE1.delta / 2) == pytest.approx(0.5)

    def test_value_at_unsafe_boundary(self):
        # sigma(d) for the first-axis published shape
        assert sigmoid_eval(SHAPE1, -1.0) == pytest.approx(0.636452, abs=1e-6)

    def test_saturation(self):
        assert sigmoid_eval(SHAPE1, 50.0) < 1e-10
        assert sigmoid_eval(SHAPE1, -50.0) > 1.0 - 1e-10

    def test_open_interval_under_extreme_arguments(self):
        lo = sigmoid_eval(SHAPE1, 1e6)
        hi = sigmoid_eval(SHAPE1, -1e6)
        assert 0.0 < lo < hi < 1.0

    def test_strictly_decreasing(self):
        xs = np.linspace(-3.0, 2.0, 200)
        vals = sigmoid_eval(SHAPE1, xs)
        assert np.all(np.diff(vals) < 0.0)

    def test_scalar_and_array_paths_agree(self):
        xs = np.concatenate([np.linspace(-3.0, 2.0, 101), [-1e6, 1e6, SHAPE1.center]])
        vals = sigmoid_eval(SHAPE1, xs)
        for x1, val in zip(xs.tolist(), vals):
            assert sigmoid_eval(SHAPE1, x1) == pytest.approx(val, rel=1e-15, abs=1e-300)

    def test_slope_at_center(self):
        slope = _fd_slope(SHAPE1, SHAPE1.center)
        assert slope == pytest.approx(-SHAPE1.l / 4.0, abs=1e-8)

    def test_slope_matches_finite_difference(self, cert):
        # the sigmoid slope inside the certificate gradient, isolated from
        # dW/dx1 = theta V sigma' + (1 + theta sigma) dV/dx1
        assert cert.shape == SHAPE1
        rng = np.random.default_rng(3)
        for x1, x2 in rng.uniform((-2.5, 0.5), (1.5, 2.0), size=(50, 2)):
            _, g1, _ = cert.value_and_grad(x1, x2)
            v, v1, _ = cert.clf.value_and_grad(x1, x2)
            scale = 1.0 + cert.theta * sigmoid_eval(SHAPE1, x1)
            slope = (g1 - scale * v1) / (cert.theta * v)
            assert slope == pytest.approx(_fd_slope(SHAPE1, x1), abs=1e-6)

    def test_slope_negative_and_bounded(self):
        xs = np.linspace(-5, 5, 101)
        slopes = _fd_slope(SHAPE1, xs)
        assert np.all(slopes < 0.0)
        assert np.all(np.abs(slopes) <= SHAPE1.l / 4.0 + 1e-9)
        assert abs(_fd_slope(SHAPE1, 40.0)) < 1e-12

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SigmoidShape(l=0.0, d=-1.0, delta=0.1)
        with pytest.raises(ValueError):
            SigmoidShape(l=1.0, d=-1.0, delta=-0.1)


class TestQuadraticCLF:
    def test_zero_at_origin(self):
        value, *grad = QuadraticCLF.from_matrix(np.eye(2)).value_and_grad(0.0, 0.0)
        assert value == 0.0
        np.testing.assert_allclose(grad, [0.0, 0.0])

    def test_identity_case(self):
        value, *grad = QuadraticCLF.from_matrix(np.eye(2)).value_and_grad(1.0, 1.0)
        assert value == pytest.approx(1.0)
        np.testing.assert_allclose(grad, [1.0, 1.0])

    def test_scenario_initial_value(self):
        value, _, _ = QuadraticCLF.from_matrix(P1).value_and_grad(-0.7, -1.5)
        assert value == pytest.approx(1.895917, abs=1e-6)

    def test_grad_matches_finite_difference(self):
        clf = QuadraticCLF.from_matrix(P1)
        rng = np.random.default_rng(11)
        for _ in range(30):
            x = rng.uniform(-2, 2, size=2)
            fd = finite_diff_grad(lambda z: clf.value_and_grad(z[0], z[1])[0], x)
            np.testing.assert_allclose(clf.value_and_grad(x[0], x[1])[1:], fd, atol=1e-6)

    def test_rejects_non_spd(self):
        with pytest.raises(ValueError):
            QuadraticCLF.from_matrix([[1.0, 2.0], [2.0, 1.0]])

    def test_eigenvalue_range(self):
        # Rayleigh bounds: V lies between the eigenvalues of P times |x|^2 / 2
        clf = QuadraticCLF.from_matrix(P1)
        lo, hi = np.linalg.eigvalsh(P1)
        pts = np.random.default_rng(13).uniform(-3, 3, size=(1000, 2))
        v = clf.value_and_grad(pts[:, 0], pts[:, 1])[0]
        norm2 = np.sum(pts * pts, axis=1)
        assert np.all(v >= 0.5 * lo * norm2 * (1 - 1e-12))
        assert np.all(v <= 0.5 * hi * norm2 * (1 + 1e-12))


class TestUnsafeMinimum:
    def test_identity_case(self):
        assert v1_min_on_unsafe(np.eye(2), -1.0) == pytest.approx(0.5)
        # attained at the minimizer (d, -(p12/p22) d) = (-1, 0)
        assert QuadraticCLF.from_matrix(np.eye(2)).value_and_grad(-1.0, 0.0)[0] == 0.5

    def test_scenario_case(self):
        assert v1_min_on_unsafe(P1, -1.0) == pytest.approx(1.175, abs=1e-6)
        x2 = -(P1[0, 1] / P1[1, 1]) * -1.0
        assert x2 == pytest.approx(0.4, abs=1e-9)
        value = QuadraticCLF.from_matrix(P1).value_and_grad(-1.0, x2)[0]
        assert value == pytest.approx(v1_min_on_unsafe(P1, -1.0), rel=1e-14)

    def test_grid_minimization_oracle(self):
        # brute-force minimum of V over the unsafe slice at ~1e-3 spacing
        clf = QuadraticCLF.from_matrix(P1)
        x1 = np.linspace(-1.2, -1.0, 201)
        x2 = np.linspace(-0.5, 1.0, 1501)
        X1, X2 = np.meshgrid(x1, x2, indexing="ij")
        brute = clf.value_and_grad(X1, X2)[0].min()
        assert v1_min_on_unsafe(P1, -1.0) == pytest.approx(brute, abs=1e-5)

    def test_rejects_nonnegative_threshold(self):
        with pytest.raises(InvalidUnsafeSet):
            v1_min_on_unsafe(P1, 0.0)


BOX1 = RegionBox(-1.2, 0.5, -2.5, 2.5)
UNSAFE1 = HalfPlaneUnsafe(-1.0)


class TestParameterSelection:
    def test_published_row_bounds(self):
        bounds = parameter_bounds(P1, BOX1, UNSAFE1, v2=2.0)
        assert bounds.gamma == pytest.approx(0.5)
        assert bounds.l_max == pytest.approx(4.0)
        assert bounds.v1 == pytest.approx(1.175, abs=1e-9)
        assert bounds.delta_min(4.0) == pytest.approx(0.266, abs=1e-3)
        sigma1, sigma2 = bounds.sigma_endpoints(4.0, 0.28)
        assert sigma1 == pytest.approx(0.636452, abs=1e-6)
        assert sigma2 == pytest.approx(0.363548, abs=1e-6)
        assert bounds.theta_min(4.0, 0.28) == pytest.approx(39.79, abs=1e-2)

    def test_published_row_is_feasible(self):
        cert = assemble_weak_clbf(
            P1, BOX1, UNSAFE1, v2=2.0, l=4.0, delta=0.28, theta=50.0
        )
        assert cert.k == pytest.approx(38.355, abs=1e-3)
        assert cert.theta == 50.0

    def test_identity_example(self):
        box = RegionBox(-2.0, 1.0, -2.0, 2.0)
        unsafe = HalfPlaneUnsafe(-1.0)
        bounds = parameter_bounds(np.eye(2), box, unsafe, v2=1.0)
        assert bounds.v1 == pytest.approx(0.5)
        assert bounds.l_max == pytest.approx(2.0)
        assert bounds.delta_min(2.0) == pytest.approx(math.log(2.0))
        assert bounds.theta_min(2.0, 0.75) == pytest.approx(26.6, abs=0.1)
        cert = assemble_weak_clbf(
            np.eye(2), box, unsafe, v2=1.0, l=2.0, delta=0.75, theta=27.0
        )
        # positivity on the unsafe slice, grid oracle
        x1 = np.linspace(-2.0, -1.0, 200)
        x2 = np.linspace(-2.0, 2.0, 200)
        X1, X2 = np.meshgrid(x1, x2, indexing="ij")
        assert cert.value_and_grad(X1, X2)[0].min() > 0.0

    def test_level_too_small(self):
        with pytest.raises(LevelTooSmall):
            select_parameters(P1, BOX1, UNSAFE1, v2=1.175)
        with pytest.raises(LevelTooSmall):
            select_parameters(P1, BOX1, UNSAFE1, v2=0.3)

    def test_margin_infeasible_when_margin_leaves_region(self):
        box = RegionBox(-1.1, 0.05, -2.0, 2.0)
        unsafe = HalfPlaneUnsafe(-1.0)
        v1 = v1_min_on_unsafe(np.eye(2), -1.0)
        with pytest.raises(MarginInfeasible):
            select_parameters(np.eye(2), box, unsafe, v2=v1 * math.exp(30.0))

    def test_default_policy_respects_bounds(self, default_bundle):
        # auto mode is one policy: the slope at its bound 2/gamma, and delta
        # and theta at 1.05 times their lower bounds
        for sub in default_bundle.subsystems:
            cert = sub.certificate
            bounds = cert.bounds
            delta = 1.05 * bounds.delta_min(bounds.l_max)
            expected = assemble_weak_clbf(
                sub.clf, sub.region, HalfPlaneUnsafe(cert.shape.d), bounds.v2,
                l=bounds.l_max, delta=delta, theta=1.05 * bounds.theta_min(bounds.l_max, delta),
            )
            for field in ("clf", "shape", "theta", "k", "bounds"):
                assert getattr(cert, field) == getattr(expected, field), field
            assert cert.shape.l == 2.0 / sub.region.x1_max

    @pytest.mark.parametrize(
        "theta, v2, delta",
        [(math.inf, 2.0, 0.28), (math.nan, 2.0, 0.28), (1.79e308, 20.0, 1.42)],
        ids=["theta_inf", "theta_nan", "k_inf"],
    )
    @pytest.mark.parametrize("enforce", [True, False])
    def test_non_finite_theta_or_k_rejected(self, theta, v2, delta, enforce):
        # an unbounded scaling (theta_min of a delta at or below its bound),
        # or a finite one whose offset (1 + theta*sigma2)*v2 overflows, is no
        # certificate; it is refused, not verified
        with pytest.raises(ValueError, match="must be finite"):
            assemble_weak_clbf(
                P1, BOX1, UNSAFE1, v2=v2, l=4.0, delta=delta, theta=theta,
                enforce_bounds=enforce,
            )


@pytest.fixture(scope="module")
def cert():
    return assemble_weak_clbf(P1, BOX1, UNSAFE1, v2=2.0, l=4.0, delta=0.28, theta=50.0)


class TestWeakCLBFEvaluation:

    def test_origin_value(self, cert, table_cert_sub2):
        for c in (cert, table_cert_sub2):
            assert c.value_and_grad(0.0, 0.0)[0] == pytest.approx(-c.k, rel=1e-12)

    def test_lower_bound(self, cert):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-3, 3, size=(500, 2))
        vals = cert.value_and_grad(pts[:, 0], pts[:, 1])[0]
        assert np.all(vals >= -cert.k - 1e-12)

    def test_positive_on_unsafe_grid(self, cert):
        x1 = np.linspace(BOX1.x1_min, -1.0, 150)
        x2 = np.linspace(BOX1.x2_min, BOX1.x2_max, 150)
        X1, X2 = np.meshgrid(x1, x2, indexing="ij")
        assert cert.value_and_grad(X1, X2)[0].min() > 0.0

    def test_corner_evaluates_to_zero(self, cert):
        # x1 = d + delta and V = v2 determine x2 by the quadratic formula
        clf = cert.clf
        x1 = cert.shape.d + cert.shape.delta
        disc = 2.0 * clf.p22 * cert.bounds.v2 - clf.det * x1 * x1
        assert disc > 0.0
        x2 = (-clf.p12 * x1 + math.sqrt(disc)) / clf.p22
        assert clf.value_and_grad(x1, x2)[0] == pytest.approx(cert.bounds.v2, abs=1e-12)
        assert cert.value_and_grad(x1, x2)[0] == pytest.approx(0.0, abs=1e-9)

    def test_grad_zero_at_origin(self, cert):
        np.testing.assert_allclose(cert.value_and_grad(0.0, 0.0)[1:], [0.0, 0.0])

    def test_grad_matches_finite_difference(self, cert):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            x = rng.uniform((-1.2, -2.5), (0.5, 2.5))
            fd = finite_diff_grad(lambda z: cert.value_and_grad(z[0], z[1])[0], x, h=1e-6)
            grad = cert.value_and_grad(x[0], x[1])[1:]
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-5)

    def test_grad_on_uncontrolled_line_closed_form(self, cert):
        # on p12 x1 + p22 x2 = 0 the first gradient component collapses to the
        # product form det(P)/p22 * [theta*sigma*(1 - l/2 (1-sigma) x1) + 1] * x1
        clf = cert.clf
        c = clf.p12 / clf.p22
        for x1 in np.linspace(-1.15, 0.45, 37):
            x2 = -c * x1
            _, g1, _ = cert.value_and_grad(x1, x2)
            sigma = sigmoid_eval(cert.shape, x1)
            expected = (
                clf.det
                / clf.p22
                * (cert.theta * sigma * (1.0 - 0.5 * cert.shape.l * (1.0 - sigma) * x1) + 1.0)
                * x1
            )
            assert g1 == pytest.approx(expected, abs=1e-9)

    def test_value_and_grad_consistency(self, cert):
        # against the matrix form (1 + theta sigma) 0.5 x'Px - k and its
        # product-rule gradient
        P = cert.clf.matrix
        rng = np.random.default_rng(23)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=2)
            w, g1, g2 = cert.value_and_grad(x[0], x[1])
            sigma = sigmoid_eval(cert.shape, x[0])
            scale = 1.0 + cert.theta * sigma
            v = 0.5 * x @ P @ x
            grad = scale * (P @ x)
            grad[0] -= cert.theta * v * cert.shape.l * sigma * (1.0 - sigma)
            assert w == pytest.approx(scale * v - cert.k, rel=1e-13, abs=1e-13)
            assert (g1, g2) == pytest.approx(tuple(grad), rel=1e-13, abs=1e-13)

    def test_vectorized_matches_scalar(self, cert):
        rng = np.random.default_rng(29)
        pts = rng.uniform(-2, 2, size=(100, 2))
        vec, g1v, g2v = cert.value_and_grad(pts[:, 0], pts[:, 1])
        for i, (x1, x2) in enumerate(pts.tolist()):
            w, g1, g2 = cert.value_and_grad(x1, x2)
            assert vec[i] == pytest.approx(w, rel=1e-13, abs=1e-13)
            assert g1v[i] == pytest.approx(g1, rel=1e-13, abs=1e-13)
            assert g2v[i] == pytest.approx(g2, rel=1e-13, abs=1e-13)


class TestCertificateInvariants:
    def test_sigmoid_endpoint_ratio_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            l = rng.uniform(0.2, 20.0)
            delta = rng.uniform(0.01, 3.0)
            shape = SigmoidShape(l=l, d=-1.0, delta=delta)
            s1 = sigmoid_eval(shape, shape.d)
            s2 = sigmoid_eval(shape, shape.d + shape.delta)
            assert s1 / s2 == pytest.approx(math.exp(0.5 * l * delta), rel=1e-9)

    def test_denominator_positive_for_selected(self):
        for v2 in (1.3, 2.0, 5.0, 20.0):
            cert = select_parameters(P1, BOX1, UNSAFE1, v2=v2)
            b = cert.bounds
            sigma1, sigma2 = b.sigma_endpoints(cert.shape.l, cert.shape.delta)
            assert sigma1 * b.v1 - sigma2 * b.v2 > 0.0

    def test_two_sided_growth_bounds(self):
        cert = select_parameters(P1, BOX1, UNSAFE1, v2=2.0)
        lam_min, lam_max = np.linalg.eigvalsh(cert.clf.matrix)
        rng = np.random.default_rng(37)
        pts = rng.uniform(-5, 5, size=(10_000, 2))
        w = cert.value_and_grad(pts[:, 0], pts[:, 1])[0]
        norm2 = np.sum(pts * pts, axis=1)
        lower = 0.5 * lam_min * norm2 - cert.k
        upper = 0.5 * (1.0 + cert.theta) * lam_max * norm2 - cert.k
        assert np.all(w >= lower - 1e-9)
        assert np.all(w <= upper + 1e-9)

    def test_slope_condition_on_grid(self):
        cert = select_parameters(P1, BOX1, UNSAFE1, v2=2.0)
        X1 = np.linspace(BOX1.x1_min, BOX1.x1_max, 200)
        sigma = sigmoid_eval(cert.shape, X1)
        condition = 1.0 - 0.5 * cert.shape.l * (1.0 - sigma) * X1
        assert np.all(condition > 0.0)

    def test_mutant_construction_is_permitted(self):
        # the verifier, not the constructor, judges broken certificates
        base = select_parameters(P1, BOX1, UNSAFE1, v2=2.0)
        mutant = WeakCLBF(
            clf=base.clf, shape=base.shape, theta=0.0, k=2.0, bounds=base.bounds
        )
        assert mutant.value_and_grad(0.0, 0.0)[0] == -2.0

    def test_large_slope_builds_without_bounds(self):
        # sigma1 = 1 / (1 + exp(-l delta / 2)) rounds to 1 once l delta / 2
        # exceeds about 37; it is held below 1 as sigmoid_eval holds sigma
        cert = assemble_weak_clbf(
            P1, BOX1, UNSAFE1, v2=2.0, l=5000.0, delta=0.28, theta=50.0, enforce_bounds=False
        )
        sigma1, sigma2 = cert.bounds.sigma_endpoints(cert.shape.l, cert.shape.delta)
        assert 0.0 < sigma2 < 0.5 < sigma1 < 1.0
        assert sigma1 == sigmoid_eval(cert.shape, cert.shape.d)

    def test_level_and_endpoint_validation(self):
        # v2 at or below v1, and a sigmoid so flat that sigma1 rounds to 1/2,
        # are rejected even when the feasibility bounds are not enforced
        with pytest.raises(LevelTooSmall):
            assemble_weak_clbf(
                P1, BOX1, UNSAFE1, v2=1.0, l=4.0, delta=0.28, theta=50.0, enforce_bounds=False
            )
        with pytest.raises(ValueError, match="0 < sigma2 < 1/2 < sigma1 < 1"):
            assemble_weak_clbf(
                P1, BOX1, UNSAFE1, v2=2.0, l=1e-10, delta=1e-8, theta=50.0, enforce_bounds=False
            )


class TestRegionBox:
    def test_validation(self):
        with pytest.raises(ValueError):
            RegionBox(1.0, -1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            RegionBox(0.1, 1.0, -1.0, 1.0)  # origin outside
        with pytest.raises(ValueError, match="interior"):
            RegionBox(-3.0, 0.0, -2.0, 2.0)  # origin on the boundary
        with pytest.raises(ValueError, match="interior"):
            RegionBox(-1.0, 1.0, 0.0, 2.0)

    def test_diameter(self):
        box = RegionBox(-3.0, 1.0, -1.0, 2.0)
        assert box.diameter == pytest.approx(5.0)

    def test_stores_plain_floats(self, default_bundle):
        # numpy scalars (a bundle's bounds come from the goal array) become
        # floats, so the closed forms never run in numpy scalar arithmetic
        box = RegionBox(np.float64(-1.0), np.int64(1), -1.0, 2)
        assert [type(v) for v in astuple(box)] == [float] * 4
        for sub in default_bundle.subsystems:
            assert [type(v) for v in astuple(sub.region)] == [float] * 4
