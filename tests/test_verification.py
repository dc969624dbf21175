import json
import math
from dataclasses import replace

import numpy as np
import pytest

from safefl.clbf import (
    HalfPlaneUnsafe,
    WeakCLBF,
    check_c_omega_subset,
    full_verification,
    select_parameters,
    verify_weak_clbf,
)
from safefl.errors import EmptyCOmega, GridTooCoarse
from safefl.sontag import subsystem_drift
from tests.conftest import BOX_SUB1, BOX_SUB2

UNSAFE1 = HalfPlaneUnsafe(-1.0)
UNSAFE2 = HalfPlaneUnsafe(-1.3)
DRIFT1 = subsystem_drift(1.5, 1.0)
DRIFT2 = subsystem_drift(1.0, 1.0)


class TestVerifyWeakCLBF:
    def test_published_first_axis_passes(self, table_cert_sub1):
        report = verify_weak_clbf(
            table_cert_sub1, DRIFT1, BOX_SUB1, UNSAFE1, grid_resolution=200
        )
        assert report.passed
        assert report.positive_on_unsafe.margin > 0.0
        assert report.line_decrease.margin < 0.0
        assert report.admissible_nonempty.margin <= 0.0
        assert report.stationary_unique.margin > 0.0

    def test_published_second_axis_passes(self, table_cert_sub2):
        report = verify_weak_clbf(
            table_cert_sub2, DRIFT2, BOX_SUB2, UNSAFE2, grid_resolution=200
        )
        assert report.passed

    def test_unscaled_certificate_fails_on_unsafe_set(self, table_cert_sub1):
        # dropping the scaling (theta = 0, offset k = v2) leaves the plain
        # level-shifted Lyapunov function, which dips negative inside the
        # unsafe set near its restricted minimizer
        mutant = WeakCLBF(
            clf=table_cert_sub1.clf,
            shape=table_cert_sub1.shape,
            theta=0.0,
            k=table_cert_sub1.levels.v2,
            levels=table_cert_sub1.levels,
        )
        report = verify_weak_clbf(mutant, DRIFT1, BOX_SUB1, UNSAFE1, grid_resolution=200)
        assert not report.passed
        cond = report.positive_on_unsafe
        assert not cond.passed
        # worst value approaches v1 - v2 at the witness (d, -(p12/p22) d)
        assert cond.margin == pytest.approx(1.175 - 2.0, abs=2e-2)
        assert cond.witness == pytest.approx((-1.0, 0.4), abs=2e-2)

    def test_negative_offset_fails_admissibility(self, table_cert_sub1):
        mutant = replace(table_cert_sub1, k=-1.0)
        report = verify_weak_clbf(mutant, DRIFT1, BOX_SUB1, UNSAFE1, grid_resolution=200)
        assert not report.admissible_nonempty.passed
        assert report.admissible_nonempty.margin > 0.0

    def test_line_decrease_ignores_vertical_drift_component(self, table_cert_sub1):
        # on the sampled line the velocity component of the gradient vanishes,
        # so an arbitrary second drift entry cannot change the outcome
        wild = lambda x: np.array([x[1], 1e6])
        report = verify_weak_clbf(table_cert_sub1, wild, BOX_SUB1, UNSAFE1, 200)
        assert report.line_decrease.passed

    def test_grid_too_coarse(self, table_cert_sub1):
        with pytest.raises(GridTooCoarse):
            verify_weak_clbf(table_cert_sub1, DRIFT1, BOX_SUB1, UNSAFE1, 49)

    def test_default_eps_origin(self, table_cert_sub1):
        report = verify_weak_clbf(table_cert_sub1, DRIFT1, BOX_SUB1, UNSAFE1, 100)
        assert report.eps_origin == pytest.approx(1e-3 * BOX_SUB1.diameter)

    def test_report_serializes(self, table_cert_sub1):
        report = full_verification(
            table_cert_sub1, DRIFT1, BOX_SUB1, UNSAFE1, 100, c_omega_resolution=100
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["passed"] is True
        assert len(payload["conditions"]) == 5

    def test_gradient_minimum_sits_at_origin(self, table_cert_sub1):
        # grid argmin of the gradient norm over the admissible set lies next
        # to the unique stationary point at the origin
        X1, X2 = BOX_SUB1.grid(400)
        w, g1, g2 = table_cert_sub1.value_and_grad(X1, X2)
        norm = np.hypot(g1, g2)
        mask = w <= 0.0
        flat = np.flatnonzero(mask)
        best = flat[np.argmin(norm.ravel()[flat])]
        point = np.array([X1.ravel()[best], X2.ravel()[best]])
        spacing = math.hypot(BOX_SUB1.x1_extent / 399, BOX_SUB1.x2_extent / 399)
        assert np.linalg.norm(point) <= 3 * spacing


class TestCOmegaSubset:
    def test_published_first_axis(self, table_cert_sub1):
        result = check_c_omega_subset(table_cert_sub1, BOX_SUB1, 200)
        assert result.passed
        assert result.margin <= 1e-9
        assert result.samples > 0

    def test_published_second_axis(self, table_cert_sub2):
        result = check_c_omega_subset(table_cert_sub2, BOX_SUB2, 200)
        assert result.passed

    def test_corner_touches_zero(self, table_cert_sub1):
        cert = table_cert_sub1
        x1 = cert.shape.d + cert.shape.delta
        disc = 2.0 * cert.clf.p22 * cert.levels.v2 - cert.clf.det * x1 * x1
        x2 = (-cert.clf.p12 * x1 + math.sqrt(disc)) / cert.clf.p22
        assert cert.value_and_grad(x1, x2)[0] == pytest.approx(0.0, abs=1e-9)

    def test_empty_margin_set(self, table_cert_sub1):
        # margin pushed past the region's right edge leaves no samples
        inflated = replace(
            table_cert_sub1, shape=replace(table_cert_sub1.shape, delta=2.6)
        )
        with pytest.raises(EmptyCOmega):
            check_c_omega_subset(inflated, BOX_SUB1, 200)

    def test_selected_parameters_also_contained(self, p_sub1):
        cert = select_parameters(p_sub1, BOX_SUB1, UNSAFE1, v2=2.0)
        result = check_c_omega_subset(cert, BOX_SUB1, 150)
        assert result.passed
