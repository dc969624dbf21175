import json
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefl import clbf
from safefl.clbf import (
    MAX_GRID_RESOLUTION,
    MIN_GRID_RESOLUTION,
    HalfPlaneUnsafe,
    QuadraticCLF,
    RegionBox,
    WeakCLBF,
    assemble_weak_clbf,
    check_c_omega_subset,
    select_parameters,
    verify_weak_clbf,
)
from safefl.cli import main
from safefl.scenario import RunConfig, build_bundle, default_config_path, verify_bundle
from tests.conftest import BOX_SUB1, BOX_SUB2

UNSAFE1 = HalfPlaneUnsafe(-1.0)
CONDITION_NAMES = [
    "positive_on_unsafe", "line_decrease", "admissible_set_nonempty",
    "stationary_point_unique", "margin_set_contained",
]


class TestVerifyWeakCLBF:
    def test_published_first_axis_passes(self, table_cert_sub1):
        report = verify_weak_clbf(table_cert_sub1, BOX_SUB1, grid_resolution=200)
        assert report.passed
        assert report.positive_on_unsafe.margin > 0.0
        assert report.line_decrease.margin < 0.0
        assert report.admissible_nonempty.margin <= 0.0
        assert report.stationary_unique.margin > 0.0

    def test_published_second_axis_passes(self, table_cert_sub2):
        report = verify_weak_clbf(table_cert_sub2, BOX_SUB2, grid_resolution=200)
        assert report.passed

    def test_unscaled_certificate_fails_on_unsafe_set(self, table_cert_sub1):
        # dropping the scaling (theta = 0, offset k = v2) leaves the plain
        # level-shifted Lyapunov function, which dips negative inside the
        # unsafe set at its restricted minimizer
        mutant = WeakCLBF(
            clf=table_cert_sub1.clf,
            shape=table_cert_sub1.shape,
            theta=0.0,
            k=table_cert_sub1.bounds.v2,
            bounds=table_cert_sub1.bounds,
        )
        report = verify_weak_clbf(mutant, BOX_SUB1, grid_resolution=200)
        assert not report.passed
        cond = report.positive_on_unsafe
        assert cond.verdict == "fail"
        # the minimum is v1 - v2 at the witness (d, -(p12/p22) d)
        assert cond.margin == pytest.approx(1.175 - 2.0, rel=1e-12)
        assert cond.witness == pytest.approx((-1.0, 0.4), rel=1e-12)

    def test_negative_offset_fails_admissibility(self, table_cert_sub1):
        mutant = replace(table_cert_sub1, k=-1.0)
        report = verify_weak_clbf(mutant, BOX_SUB1, grid_resolution=200)
        assert not report.admissible_nonempty.passed
        assert report.admissible_nonempty.margin > 0.0

    def test_line_decrease_ignores_vertical_drift_component(self, table_cert_sub1):
        # on the line x2 = -c x1 the velocity component of the gradient
        # vanishes, so the Lie derivative along a drift with any second entry
        # is g1 * x2, and the certified margin bounds it off the origin ball
        cert = table_cert_sub1
        report = verify_weak_clbf(cert, BOX_SUB1, 200)
        assert report.line_decrease.passed
        c = cert.clf.p12 / cert.clf.p22
        x1 = np.linspace(UNSAFE1.d, BOX_SUB1.x1_max, 4001)[1:]
        x1 = x1[np.hypot(x1, c * x1) >= report.eps_origin]
        x2 = -c * x1
        _, g1, g2 = cert.value_and_grad(x1, x2)
        lie = g1 * x2 + g2 * 1e6
        assert np.all(lie <= report.line_decrease.margin + 1e-9)

    def test_grid_too_coarse(self, table_cert_sub1):
        for n in (0, MIN_GRID_RESOLUTION - 1, MAX_GRID_RESOLUTION + 1):
            with pytest.raises(ValueError):
                verify_weak_clbf(table_cert_sub1, BOX_SUB1, n)
            with pytest.raises(ValueError):
                check_c_omega_subset(table_cert_sub1, BOX_SUB1, n)

    def test_default_eps_origin(self, table_cert_sub1):
        report = verify_weak_clbf(table_cert_sub1, BOX_SUB1, 100)
        assert report.eps_origin == pytest.approx(1e-3 * BOX_SUB1.diameter)

    def test_report_serializes(self, table_cert_sub1):
        report = verify_weak_clbf(table_cert_sub1, BOX_SUB1, 100, c_omega_resolution=100)
        payload = json.loads(json.dumps(report.to_dict()))
        assert list(payload) == [
            "passed", "grid_resolution", "eps_origin", "conditions", "c_omega_resolution"
        ]
        assert payload["passed"] is True
        assert payload["grid_resolution"] == 100 and payload["c_omega_resolution"] == 100
        assert [cond["name"] for cond in payload["conditions"]] == CONDITION_NAMES
        for cond in payload["conditions"]:
            assert cond["verdict"] == "pass" and cond["inequality"]

    def test_lowered_offset_fails_only_the_margin_set(self, p_sub1):
        # the README certificate with k lowered by 0.1 %: W rises above zero
        # on the margin set, and the one-call verifier must say so
        cert = select_parameters(p_sub1, BOX_SUB1, UNSAFE1, v2=2.0)
        assert verify_weak_clbf(cert, BOX_SUB1).passed
        lowered = replace(cert, k=cert.k * (1.0 - 1e-3))
        report = verify_weak_clbf(lowered, BOX_SUB1)
        assert not report.passed
        failing = [cond.name for cond in report.conditions() if not cond.passed]
        assert failing == ["margin_set_contained"]
        assert report.c_omega.verdict == "fail" and report.c_omega.margin > 0.0

    def test_gradient_minimum_sits_at_origin(self, table_cert_sub1):
        # dense-sample argmin of the gradient norm over the admissible set lies
        # next to the unique stationary point at the origin
        a1 = np.linspace(BOX_SUB1.x1_min, BOX_SUB1.x1_max, 400)
        a2 = np.linspace(BOX_SUB1.x2_min, BOX_SUB1.x2_max, 400)
        X1, X2 = np.meshgrid(a1, a2, indexing="ij")
        w, g1, g2 = table_cert_sub1.value_and_grad(X1, X2)
        norm = np.where(w <= 0.0, np.hypot(g1, g2), np.inf)
        best = np.unravel_index(np.argmin(norm), norm.shape)
        point = np.array([X1[best], X2[best]])
        spacing = math.hypot(a1[1] - a1[0], a2[1] - a2[0])
        assert np.linalg.norm(point) <= 3 * spacing


class TestCOmegaSubset:
    def test_published_first_axis(self, table_cert_sub1):
        cert = table_cert_sub1
        result = check_c_omega_subset(cert, BOX_SUB1, 200)
        assert result.passed
        assert result.margin <= 1e-9
        # the bound is attained on the set's left edge, where V = v2
        x1, x2 = result.witness
        assert x1 == cert.shape.d + cert.shape.delta
        assert cert.clf.value_and_grad(x1, x2)[0] == pytest.approx(cert.bounds.v2, rel=1e-12)

    def test_published_second_axis(self, table_cert_sub2):
        result = check_c_omega_subset(table_cert_sub2, BOX_SUB2, 200)
        assert result.passed

    def test_corner_touches_zero(self, table_cert_sub1):
        cert = table_cert_sub1
        x1 = cert.shape.d + cert.shape.delta
        disc = 2.0 * cert.clf.p22 * cert.bounds.v2 - cert.clf.det * x1 * x1
        x2 = (-cert.clf.p12 * x1 + math.sqrt(disc)) / cert.clf.p22
        assert cert.value_and_grad(x1, x2)[0] == pytest.approx(0.0, abs=1e-9)

    def test_empty_margin_set(self, table_cert_sub1):
        # margin pushed past the region's right edge leaves no point: a
        # verdict, with no margin (null in JSON) and no witness
        inflated = replace(
            table_cert_sub1, shape=replace(table_cert_sub1.shape, delta=2.6)
        )
        result = check_c_omega_subset(inflated, BOX_SUB1, 200)
        assert result.name == "margin_set_contained"
        assert result.verdict == "fail"
        assert math.isnan(result.margin)
        assert result.witness is None
        assert "empty" in result.inequality
        assert result.to_dict()["margin"] is None

    def test_selected_parameters_also_contained(self, p_sub1):
        cert = select_parameters(p_sub1, BOX_SUB1, UNSAFE1, v2=2.0)
        result = check_c_omega_subset(cert, BOX_SUB1, 150)
        assert result.passed


# ---------------------------------------------------------------------------
# exact verdicts against test-local formulas


def _w(P, l, d, delta, theta, k, x1, x2):
    """W written from its definition, independent of the package kernels."""
    sigma = 1.0 / (1.0 + np.exp(l * (x1 - d - 0.5 * delta)))
    v = 0.5 * (P[0, 0] * x1 * x1 + 2.0 * P[0, 1] * x1 * x2 + P[1, 1] * x2 * x2)
    return (1.0 + theta * sigma) * v - k


def _w_cert(cert, x1, x2):
    s = cert.shape
    return _w(cert.clf.matrix, s.l, s.d, s.delta, cert.theta, cert.k, x1, x2)


def _explicit_config(default_config, theta_factor):
    """The bundled scenario with each axis's theta scaled from its bound."""
    bundle = build_bundle(default_config)
    params = []
    for sub in bundle.subsystems:
        cert = sub.certificate
        theta = theta_factor * sub.certificate.bounds.theta_min(cert.shape.l, cert.shape.delta)
        params.append({"l": cert.shape.l, "delta": cert.shape.delta, "theta": theta})
    return replace(
        default_config,
        clbf_mode="explicit",
        v2=tuple(sub.certificate.bounds.v2 for sub in bundle.subsystems),
        explicit_params=tuple(params),
    )


class TestExactVerdicts:
    def test_shipped_margins(self, default_bundle):
        reports = dict(verify_bundle(default_bundle))
        expected = {0: 0.0360458, 1: 0.1245125}
        for sub in default_bundle.subsystems:
            cert = sub.certificate
            d = cert.shape.d
            x2 = -cert.clf.p12 / cert.clf.p22 * d
            cond = reports[sub.axis].positive_on_unsafe
            assert cond.passed
            assert cond.margin == pytest.approx(_w_cert(cert, d, x2), abs=1e-12)
            assert cond.margin == pytest.approx(expected[sub.axis], abs=1e-7)

    def test_theta_below_bound_fails_on_unsafe_set(self, default_config):
        # theta = 0.945 theta_min: both certificates dip below zero on x1 = d
        bundle = build_bundle(_explicit_config(default_config, 0.945), enforce_bounds=False)
        reports = dict(verify_bundle(bundle, grid_resolution=1000))
        truth = {0: -0.0396504, 1: -0.1369637}
        for sub in bundle.subsystems:
            cond = reports[sub.axis].positive_on_unsafe
            assert cond.verdict == "fail"
            assert cond.margin == pytest.approx(truth[sub.axis], abs=1e-7)
            assert _w_cert(sub.certificate, *cond.witness) == pytest.approx(cond.margin, abs=1e-12)

    def test_verdicts_independent_of_resolution(self, default_config):
        bundles = [
            build_bundle(default_config),
            build_bundle(_explicit_config(default_config, 0.945), enforce_bounds=False),
        ]

        def outcome(n):
            out = []
            for bundle in bundles:
                for axis, report in verify_bundle(bundle, grid_resolution=n, c_omega_resolution=n):
                    payload = report.to_dict()
                    del payload["grid_resolution"], payload["c_omega_resolution"]
                    out.append((axis, payload))
            return out

        reference = outcome(50)
        for n in (400, 1000, 3000):
            assert outcome(n) == reference

    def test_steep_slope_fails_or_undecided_where_h_nonpositive(self, p_sub1):
        # l * x1_max = 10 breaks the slope bound; h = 1 + theta sigma (1 -
        # l x1 (1 - sigma) / 2) then dips below zero for large theta
        unsafe = HalfPlaneUnsafe(-0.3)
        c = p_sub1[0, 1] / p_sub1[1, 1]
        x1 = np.linspace(BOX_SUB1.x1_min, BOX_SUB1.x1_max, 20001)
        for theta in (100.0, 2200.0, 2300.0, 5000.0, 1e5):
            cert = assemble_weak_clbf(
                p_sub1, BOX_SUB1, unsafe, v2=0.5, l=20.0, delta=0.2, theta=theta,
                enforce_bounds=False,
            )
            report = verify_weak_clbf(cert, BOX_SUB1)
            sigma = 1.0 / (1.0 + np.exp(20.0 * (x1 + 0.2)))
            h = 1.0 + theta * sigma * (1.0 - 10.0 * x1 * (1.0 - sigma))
            decrease, stationary = report.line_decrease, report.stationary_unique
            if h.min() > 0.0:
                assert decrease.passed and stationary.passed
                assert 0.0 < stationary.margin <= h.min()
                assert "bisection" in stationary.inequality
                continue
            assert not decrease.passed and not stationary.passed
            assert decrease.verdict in ("fail", "undecided")
            if decrease.verdict == "fail":
                w1, w2 = decrease.witness
                assert w2 == pytest.approx(-c * w1, rel=1e-12)
                s = 1.0 / (1.0 + math.exp(20.0 * (w1 + 0.2)))
                assert 1.0 + theta * s * (1.0 - 10.0 * w1 * (1.0 - s)) <= 0.0
                assert decrease.margin >= 0.0

    def test_sampled_search_refutes_a_wrong_closed_form(self, p_sub1, monkeypatch):
        # h dips below zero on the line; a closed form that wrongly proved
        # h > 0 is caught by the sampled search along the line
        unsafe = HalfPlaneUnsafe(-0.3)
        cert = assemble_weak_clbf(
            p_sub1, BOX_SUB1, unsafe, v2=0.5, l=20.0, delta=0.2, theta=5000.0,
            enforce_bounds=False,
        )
        monkeypatch.setattr(clbf, "_certify_h", lambda W, lo, hi: (clbf.PASS, 1.0, None))
        report = verify_weak_clbf(cert, BOX_SUB1)
        for cond in (report.line_decrease, report.stationary_unique):
            assert cond.verdict == "fail"
            assert cond.inequality == "sampled counterexample"

    @pytest.mark.parametrize("theta", [-0.5, -50.0])
    def test_negative_theta_never_passes(self, table_cert_sub1, theta):
        cert = replace(table_cert_sub1, theta=theta)
        report = verify_weak_clbf(cert, BOX_SUB1)
        assert not report.passed
        for cond in report.conditions():
            assert cond.verdict == "undecided"

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(
        axis=st.sampled_from((0, 1)),
        l_factor=st.floats(0.3, 1.0),
        delta_factor=st.floats(0.7, 2.0),
        theta_factor=st.floats(0.2, 3.0),
        k_factor=st.floats(0.99, 1.01),
    )
    def test_no_verdict_depends_on_the_sample_count(
        self, default_bundle, axis, l_factor, delta_factor, theta_factor, k_factor
    ):
        # certificates on both sides of the delta, theta and offset bounds,
        # around each bundled axis's design; the sampled searches only
        # refute, so 50 and 3000 samples must give the same five verdicts
        sub = default_bundle.subsystems[axis]
        bounds = sub.certificate.bounds
        l = l_factor * sub.certificate.shape.l
        delta_min = bounds.delta_min(l)
        delta = delta_factor * delta_min
        # theta_min is infinite for delta <= delta_min, so there theta is
        # scaled from its bound at the default margin, 1.05 * delta_min
        theta = theta_factor * bounds.theta_min(l, max(delta, 1.05 * delta_min))
        cert = assemble_weak_clbf(
            sub.clf, sub.region, HalfPlaneUnsafe(sub.certificate.shape.d), bounds.v2, l, delta,
            theta, enforce_bounds=False,
        )
        # the default offset puts the margin set's bound at zero; k_factor
        # moves it to either side
        cert = replace(cert, k=k_factor * cert.k)

        def verdicts(n):
            report = verify_weak_clbf(cert, sub.region, n, c_omega_resolution=n)
            return [cond.verdict for cond in report.conditions()]

        assert verdicts(50) == verdicts(3000)

    def test_no_pass_against_dense_counterexample(self):
        # ~200 seeded explicit certificates, slopes and scalings on both sides
        # of their bounds, some with theta < 0 or an explicit offset; wherever
        # a dense sample of W finds a counterexample the verdict must not pass
        rng = random.Random(20261018)
        checked = 0
        counterexamples = 0
        while checked < 200:
            p11, p22 = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
            p12 = rng.uniform(-0.9, 0.9) * math.sqrt(p11 * p22)
            P = np.array([[p11, p12], [p12, p22]])
            box = RegionBox(
                rng.uniform(-3.0, -0.5), rng.uniform(0.1, 1.5),
                -rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0),
            )
            d = rng.uniform(box.x1_min, -0.05)
            v1 = (p11 * p22 - p12 * p12) * d * d / (2.0 * p22)
            v2 = v1 * rng.uniform(1.1, 4.0)
            l = rng.uniform(0.5, 4.0) * 2.0 / box.x1_max
            delta = rng.uniform(0.3, 2.0) * (2.0 / l) * math.log(v2 / v1)
            theta = rng.uniform(-0.2, 3.0) * rng.choice((1.0, 10.0, 100.0))
            k = rng.choice((None, None, rng.uniform(-0.5, 2.0) * v2))
            try:
                cert = assemble_weak_clbf(
                    P, box, HalfPlaneUnsafe(d), v2=v2, l=l, delta=delta, theta=theta,
                    enforce_bounds=False,
                )
            except ValueError:
                continue  # sigmoid endpoints saturate; not a certificate
            if k is not None:
                cert = replace(cert, k=k)  # an offset off the design
            checked += 1
            counterexamples += _dense_counterexamples(cert, P, box, d)
        # the sample must exercise the check, not pass it vacuously
        assert counterexamples > 50


def _dense_counterexamples(cert, P, box, d) -> int:
    """Assert no verdict passes against a counterexample found by dense
    sampling; return how many conditions had one."""
    l, delta, theta, k, v2 = cert.shape.l, cert.shape.delta, cert.theta, cert.k, cert.bounds.v2
    found = 0

    def w(x1, x2):
        return _w(P, l, d, delta, theta, k, x1, x2)

    def grad(x1, x2):
        sigma = 1.0 / (1.0 + np.exp(l * (x1 - d - 0.5 * delta)))
        v = 0.5 * (P[0, 0] * x1 * x1 + 2.0 * P[0, 1] * x1 * x2 + P[1, 1] * x2 * x2)
        scale = 1.0 + theta * sigma
        g1 = -theta * v * l * sigma * (1.0 - sigma) + scale * (P[0, 0] * x1 + P[0, 1] * x2)
        return g1, scale * (P[0, 1] * x1 + P[1, 1] * x2)

    report = verify_weak_clbf(cert, box, grid_resolution=100)
    eps = report.eps_origin
    X1, X2 = np.meshgrid(
        np.linspace(box.x1_min, box.x1_max, 161), np.linspace(box.x2_min, box.x2_max, 161),
        indexing="ij",
    )
    WX = w(X1, X2)

    if np.any(WX[X1 <= d] <= 0.0):
        found += 1
        assert not report.positive_on_unsafe.passed
    if report.admissible_nonempty.passed:
        assert w(0.0, 0.0) <= 0.0  # the origin is a member

    # the line where the input channel vanishes, sampled densely, with the
    # closed-loop drift (x2, -x1 - x2)
    c = P[0, 1] / P[1, 1]
    x1 = np.linspace(box.x1_min, box.x1_max, 4001)
    x2 = -c * x1
    on = (x2 >= box.x2_min) & (x2 <= box.x2_max) & (np.hypot(x1, x2) >= eps)
    g1, g2 = grad(x1, x2)
    lie = g1 * x2 + g2 * (-x1 - x2)
    if np.any(on & (x1 > d) & (lie >= 0.0)):
        found += 1
        assert not report.line_decrease.passed
    # a sign change of g1 * x1 between neighbours in the admissible set
    # brackets a stationary point
    radial = np.where(on & (w(x1, x2) <= 0.0), np.sign(g1 * x1), 0.0)
    if np.any(radial[:-1] * radial[1:] < 0.0):
        found += 1
        assert not report.stationary_unique.passed

    omega = (0.5 * (P[0, 0] * X1 * X1 + 2.0 * P[0, 1] * X1 * X2 + P[1, 1] * X2 * X2) <= v2)
    omega &= X1 >= d + delta
    c_omega = check_c_omega_subset(cert, box, 100)
    if c_omega.verdict == "fail" and c_omega.witness is None:  # the set is empty
        assert math.isnan(c_omega.margin)
        assert not omega.any()
        return found
    if np.any(WX[omega] > 1e-9):
        found += 1
        assert not c_omega.passed
    return found


# ---------------------------------------------------------------------------
# scale


SCALES = (1e-9, 1.0, 1e3, 1e6, 1e12)


class TestScaleFreeVerdicts:
    # Q times s multiplies P, V, v1, v2, k and W by s, so no verdict's truth
    # depends on s: W's minimum on the unsafe set, the Lie derivative on the
    # line and -k scale as s, h not at all

    @pytest.mark.parametrize("s", SCALES)
    def test_verdicts_and_relative_margins(self, default_config, default_bundle, s):
        reference = dict(verify_bundle(default_bundle))
        scaled = build_bundle(replace(default_config, lyapunov_q=s * default_config.lyapunov_q))
        for axis, report in verify_bundle(scaled):
            assert [cond.verdict for cond in report.conditions()] == ["pass"] * 5
            # the design's own sigma2 and v2 put the bound at exactly zero
            assert report.c_omega.margin == 0.0
            pairs = zip(report.conditions()[:4], reference[axis].conditions()[:4], (1, 1, 1, 0))
            for cond, ref, power in pairs:
                assert cond.margin / s**power == pytest.approx(ref.margin, rel=1e-11), cond.name

    @pytest.mark.parametrize("s", SCALES)
    def test_lowered_offset_fails_at_every_scale(self, default_config, s):
        scaled = build_bundle(replace(default_config, lyapunov_q=s * default_config.lyapunov_q))
        for sub in scaled.subsystems:
            cert = sub.certificate
            lowered = replace(cert, k=(1.0 - 1e-6) * cert.k)
            report = verify_weak_clbf(lowered, sub.region)
            failing = [cond.name for cond in report.conditions() if not cond.passed]
            assert failing == ["margin_set_contained"]
            assert report.c_omega.margin == pytest.approx(1e-6 * cert.k, rel=1e-6)

    def test_extreme_damping_gain_verifies(self, tmp_path):
        # kd = 1e-12 makes theta*v2 about 6e13; one ulp of a recomputed
        # sigma2 used to fail the margin set there
        with open(default_config_path(), encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["gains"]["kd"] = [1e-12, 1.0]
        path = tmp_path / "kd.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


# ---------------------------------------------------------------------------
# one sample table


def _bundled(cert):
    return cert


def _empty_margin_set(cert):
    return replace(cert, shape=replace(cert.shape, delta=50.0))


def _negative_theta(cert):
    return replace(cert, theta=-1.0)


def _lowered(cert):
    return replace(cert, k=(1.0 - 1e-6) * cert.k)


_MUTANTS = (_bundled, _empty_margin_set, _negative_theta, _lowered)


class TestOneSampleTable:
    def test_one_evaluation_of_w(self, default_bundle, monkeypatch):
        # the three sampled searches share one table: one array call of W.
        # V is called on arrays twice before it, to rank the two ends of the
        # margin set's slices, and once inside it
        calls = []
        for cls in (WeakCLBF, QuadraticCLF):
            original = cls.value_and_grad

            def counted(self, x1, x2, original=original, name=cls.__name__):
                if isinstance(x1, np.ndarray):
                    calls.append(name)
                return original(self, x1, x2)

            monkeypatch.setattr(cls, "value_and_grad", counted)
        sub = default_bundle.subsystems[0]
        assert verify_weak_clbf(sub.certificate, sub.region).passed
        assert calls == ["QuadraticCLF", "QuadraticCLF", "WeakCLBF", "QuadraticCLF"]

    @pytest.mark.parametrize("mutate", _MUTANTS, ids=[m.__name__ for m in _MUTANTS])
    def test_margin_set_verdict_has_one_text(self, default_config, mutate):
        for sub in build_bundle(default_config).subsystems:
            cert = mutate(sub.certificate)
            for m in (MIN_GRID_RESOLUTION, 200):
                alone = check_c_omega_subset(cert, sub.region, m)
                report = verify_weak_clbf(cert, sub.region, 400, m)
                assert alone.to_dict() == report.c_omega.to_dict()

    @pytest.mark.parametrize("s", SCALES)
    def test_margin_set_verdict_has_one_text_at_every_scale(self, default_config, s):
        scaled = build_bundle(replace(default_config, lyapunov_q=s * default_config.lyapunov_q))
        for sub in scaled.subsystems:
            for cert in (sub.certificate, _lowered(sub.certificate)):
                alone = check_c_omega_subset(cert, sub.region)
                assert alone.to_dict() == verify_weak_clbf(cert, sub.region).c_omega.to_dict()


# ---------------------------------------------------------------------------
# golden reports

# verify_bundle's reports at (400, 200) on the configurations of
# _golden_configs, recorded while each sampled search made its own
# evaluation of W. json writes a float as its shortest exact repr, so equal
# text means equal bits.
GOLDEN = Path(__file__).parent / "data" / "verify_golden.json"


def _golden_configs() -> dict:
    """The bundled configuration and two explicit variants of it, by name:
    a steep first-axis sigmoid (l300) and an empty first-axis margin set
    (d50)."""
    with open(default_config_path(), encoding="utf-8") as fh:
        bundled = json.load(fh)
    configs = {"bundled": bundled}
    second = {"l": 4.0, "delta": 0.58, "theta": 6.1}
    for name, first in (
        ("l300", {"l": 300.0, "delta": 0.28, "theta": 50.0}),
        ("d50", {"l": 4.0, "delta": 50.0, "theta": 50.0}),
    ):
        raw = json.loads(json.dumps(bundled))
        raw["clbf"] = {"mode": "explicit", "v2": [2.0, 2.0], "params": [first, second]}
        configs[name] = raw
    return configs


def _golden_report(raw: dict) -> list:
    """Each axis's report as `safefl verify` builds and judges its
    certificates."""
    bundle = build_bundle(RunConfig.from_dict(raw), enforce_bounds=False)
    return [{"axis": axis, **report.to_dict()} for axis, report in verify_bundle(bundle, 400, 200)]


@pytest.mark.parametrize("name", ["bundled", "l300", "d50"])
def test_reports_match_the_golden_record(name):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert json.dumps(_golden_report(_golden_configs()[name])) == json.dumps(recorded)
