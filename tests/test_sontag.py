"""The reference universal formula and per-subsystem safety input, against
which clbf.axis_law is pinned bit for bit."""

import math

import numpy as np
import pytest

from reference import lie_derivatives, safe_aux_input, sontag_universal


class TestUniversalFormula:
    def test_zero_channel_branch(self):
        assert sontag_universal(1.0, 0.0) == 0.0
        assert sontag_universal(-3.7, 0.0) == 0.0
        assert sontag_universal(0.0, 0.0) == 0.0

    def test_unit_case(self):
        kappa = sontag_universal(-1.0, 1.0)
        assert kappa == pytest.approx(1.0 - math.sqrt(2.0))
        assert -1.0 + 1.0 * kappa == pytest.approx(-math.sqrt(2.0))

    def test_pure_channel_case(self):
        assert sontag_universal(0.0, 1.0) == pytest.approx(-1.0)

    def test_decrease_identity_random(self):
        rng = np.random.default_rng(20240802)
        for _ in range(10_000):
            a = rng.uniform(-10.0, 10.0)
            b = rng.uniform(1e-6, 10.0) * rng.choice((-1.0, 1.0))
            kappa = sontag_universal(a, b)
            target = -math.hypot(a, b * b)
            assert a + b * kappa == pytest.approx(target, rel=1e-9, abs=1e-12)

    def test_small_channel_limit_for_stabilizing_drift(self):
        # for a < 0 the formula vanishes with the channel (small-control property)
        previous = math.inf
        for b in (1e-2, 1e-4, 1e-6):
            kappa = abs(sontag_universal(-1.0, b))
            assert kappa <= b ** 3
            assert kappa <= previous
            previous = kappa

    def test_scaling_consistency(self):
        # kappa(lam^2 a, lam b) = lam * kappa(a, b) for lam > 0
        rng = np.random.default_rng(41)
        for _ in range(200):
            a = rng.uniform(-5, 5)
            b = rng.uniform(0.05, 5.0) * rng.choice((-1.0, 1.0))
            lam = rng.uniform(0.1, 10.0)
            scaled = sontag_universal(lam * lam * a, lam * b)
            assert scaled == pytest.approx(lam * sontag_universal(a, b), rel=1e-9)


class TestSubsystemDrift:
    def test_closed_loop_signs(self, table_cert_sub1):
        # a is dW along the subsystem drift (x2, -kp x1 - kd x2), which is
        # (3, -6) at (2, 3) under kp = 1.5, kd = 1
        _, g1, g2 = table_cert_sub1.value_and_grad(2.0, 3.0)
        lie = lie_derivatives(table_cert_sub1, 2.0, 3.0, 1.5, 1.0)
        assert lie.a == pytest.approx(3.0 * g1 - 6.0 * g2, rel=1e-15)
        assert lie.b == g2



class TestSafeAuxInput:
    def test_zero_at_origin(self, table_cert_sub1):
        assert safe_aux_input(table_cert_sub1, (0.0, 0.0), 1.5, 1.0, 1.0) == 0.0

    def test_zero_on_uncontrolled_line(self, table_cert_sub1):
        cert = table_cert_sub1
        c = cert.line_slope
        for x1 in (-0.8, -0.3, 0.2, 0.4):
            x = (x1, -c * x1)
            a, b = lie_derivatives(cert, x[0], x[1], 1.5, 1.0)
            assert abs(b) < 1e-12 * (1.0 + abs(a))
            assert a < 0.0  # drift decrease holds where the input cannot act
            assert safe_aux_input(cert, x, 1.5, 1.0, 1.0) == 0.0

    def test_initial_state_decrease_identity(self, table_cert_sub1):
        cert = table_cert_sub1
        x = (-0.7, -1.5)
        a, b = lie_derivatives(cert, x[0], x[1], 1.5, 1.0)
        out = safe_aux_input(cert, x, 1.5, 1.0, 1.0)
        assert math.isfinite(out)
        assert a + b * out == pytest.approx(-math.hypot(a, b * b), rel=1e-9)
        assert a + b * out < 0.0

    def test_gain_scales_output(self, table_cert_sub1):
        x = (-0.7, -1.5)
        base = safe_aux_input(table_cert_sub1, x, 1.5, 1.0, 1.0)
        assert safe_aux_input(table_cert_sub1, x, 1.5, 1.0, 1.5) == pytest.approx(
            1.5 * base
        )

    def test_rejects_negative_gain(self, table_cert_sub1):
        with pytest.raises(ValueError):
            safe_aux_input(table_cert_sub1, (0.1, 0.1), 1.5, 1.0, -1.0)

    def test_lie_values_match_gradient_chain(self, table_cert_sub1):
        cert = table_cert_sub1
        x = (-0.4, 1.2)
        values = lie_derivatives(cert, x[0], x[1], 1.5, 1.0)
        _, g1, g2 = cert.value_and_grad(*x)
        assert values.a == pytest.approx(g1 * x[1] + g2 * (-1.5 * x[0] - 1.0 * x[1]))
        assert values.b == pytest.approx(g2)
