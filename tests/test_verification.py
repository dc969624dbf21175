import json
import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from safefl.errors import MarginInfeasible
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

    def test_default_eps_origin(self, table_cert_sub1):
        report = verify_weak_clbf(table_cert_sub1, BOX_SUB1, 100)
        assert report.eps_origin == pytest.approx(1e-3 * BOX_SUB1.diameter)

    def test_report_serializes(self, table_cert_sub1):
        report = verify_weak_clbf(table_cert_sub1, BOX_SUB1, 100)
        payload = json.loads(json.dumps(report.to_dict()))
        assert list(payload) == ["passed", "grid_resolution", "eps_origin", "conditions"]
        assert payload["passed"] is True
        assert payload["grid_resolution"] == 100
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
        result = check_c_omega_subset(cert, BOX_SUB1)
        assert result.passed
        assert result.margin <= 1e-9
        # the bound is attained on the set's left edge, where V = v2
        x1, x2 = result.witness
        assert x1 == cert.shape.d + cert.shape.delta
        assert cert.clf.value_and_grad(x1, x2)[0] == pytest.approx(cert.bounds.v2, rel=1e-12)

    def test_published_second_axis(self, table_cert_sub2):
        result = check_c_omega_subset(table_cert_sub2, BOX_SUB2)
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
        result = check_c_omega_subset(inflated, BOX_SUB1)
        assert result.name == "margin_set_contained"
        assert result.verdict == "fail"
        assert math.isnan(result.margin)
        assert result.witness is None
        assert "empty" in result.inequality
        assert result.to_dict()["margin"] is None

    def test_selected_parameters_also_contained(self, p_sub1):
        cert = select_parameters(p_sub1, BOX_SUB1, UNSAFE1, v2=2.0)
        result = check_c_omega_subset(cert, BOX_SUB1)
        assert result.passed

    def test_steep_selected_certificate_passes(self):
        # l = 171: a sampled search once failed this certificate at W = 1.3e-14,
        # on a sample that rounding put just left of d + delta, outside the set
        P = np.array([
            [0.3525173771339688, -0.19118941790360425],
            [-0.19118941790360425, 0.17174078172844412],
        ])
        box = RegionBox(-2.87168182238896, 0.011727339059201827, -2.5, 2.5)
        cert = select_parameters(P, box, HalfPlaneUnsafe(-0.7669626709058677), 0.09815134318491539)
        result = verify_weak_clbf(cert, box).c_omega
        assert result.passed and result.margin == 0.0


# ---------------------------------------------------------------------------
# the three sets, sampled exactly


def _exact_v(clf, x1, x2) -> Fraction:
    a, b = Fraction(x1), Fraction(x2)
    return (Fraction(clf.p11) * a * a + 2 * Fraction(clf.p12) * a * b + Fraction(clf.p22) * b * b) / 2


def _sigma_enclosure(shape, x1) -> tuple[float, float]:
    """Lower and upper bounds of the exact sigmoid
    1 / (1 + exp(l*(x1 - d - delta/2))) at x1: each float step is widened
    outward with math.nextafter, and exp (within one ulp) by two steps. sigma
    falls as the exponent z grows."""
    z = float(Fraction(shape.l) * (Fraction(x1) - Fraction(shape.d) - Fraction(shape.delta) / 2))
    z_low = min(math.nextafter(z, -math.inf), 700.0)
    e = math.nextafter(math.nextafter(math.exp(z_low), 0.0), 0.0)
    upper = math.nextafter(1.0 / math.nextafter(1.0 + e, 0.0), math.inf)
    z_high = math.nextafter(z, math.inf)
    if z_high > 700.0:  # exp(z) may overflow; sigma < 1e-304 there
        return 0.0, upper
    e = math.nextafter(math.nextafter(math.exp(z_high), math.inf), math.inf)
    return math.nextafter(1.0 / math.nextafter(1.0 + e, math.inf), 0.0), upper


def _h_upper(cert, x1) -> Fraction:
    """An upper bound of the exact h = 1 + theta*s*(1 - l*x1*(1 - s)/2) at x1,
    over the enclosure of s = sigma(x1): h is quadratic in s, so its largest
    value there is at an end or, where it is concave (x1 < 0), at its vertex."""
    theta, a = Fraction(cert.theta), Fraction(cert.shape.l) * Fraction(x1) / 2
    lower, upper = (Fraction(s) for s in _sigma_enclosure(cert.shape, x1))
    candidates = [lower, upper]
    if a < 0:
        candidates.append(min(max((a - 1) / (2 * a), lower), upper))
    return max(1 + theta * s * (1 - a * (1 - s)) for s in candidates)


def _margin_set_samples(cert, box, n=32):
    """Dense samples of C_omega = {V <= v2, x1 >= d + delta} in the box, kept
    only where they lie in it exactly. Each slice {V <= v2} at a sampled x1
    gives its two ends, their three float neighbours inward, and 7 inner
    points; x1 runs from the float neighbours of the set's left edge."""
    clf, v2 = cert.clf, Fraction(cert.bounds.v2)
    edge = Fraction(cert.shape.d) + Fraction(cert.shape.delta)
    left = float(edge)
    x1s = [math.nextafter(left, -math.inf), left, math.nextafter(left, math.inf)]
    x1s += np.linspace(left, box.x1_max, n)[1:].tolist()
    kept = []
    for x1 in x1s:
        disc = 2.0 * clf.p22 * cert.bounds.v2 - clf.det * x1 * x1
        if Fraction(x1) < edge or x1 > box.x1_max or disc < 0.0:
            continue
        root = math.sqrt(disc)
        lo = max(box.x2_min, (-clf.p12 * x1 - root) / clf.p22)
        hi = min(box.x2_max, (-clf.p12 * x1 + root) / clf.p22)
        x2s = np.linspace(lo, hi, 9).tolist()
        for end, inward in ((lo, hi), (hi, lo)):
            for _ in range(3):
                end = math.nextafter(end, inward)
                x2s.append(end)
        kept += [
            (x1, x2) for x2 in x2s
            if box.x2_min <= x2 <= box.x2_max and _exact_v(clf, x1, x2) <= v2
        ]
    return kept


def _unsafe_samples(cert, box, n=48):
    """Dense samples of the unsafe set {x1 <= d} in the box, as (x1, [x2]):
    at each sampled x1, the minimizer clip(-c x1) of V over the box's x2
    range, its three float neighbours each way, and 5 points across the
    range; x1 runs from x1_min to d and the float neighbour below d."""
    d, c = cert.shape.d, cert.line_slope
    x1s = np.linspace(box.x1_min, d, n).tolist() + [math.nextafter(d, -math.inf)]
    kept = []
    for x1 in x1s:
        x2s = np.linspace(box.x2_min, box.x2_max, 5).tolist()
        for toward in (-math.inf, math.inf):
            x2 = min(max(-c * x1, box.x2_min), box.x2_max)
            x2s.append(x2)
            for _ in range(3):
                x2 = math.nextafter(x2, toward)
                x2s.append(x2)
        kept.append((x1, [x2 for x2 in x2s if box.x2_min <= x2 <= box.x2_max]))
    return kept


def _line_samples(cert, box, eps, n=257):
    """Dense samples x1 of the line x2 = -c x1, kept only where the point
    lies in the box and off the origin ball of radius eps exactly."""
    c = Fraction(cert.clf.p12) / Fraction(cert.clf.p22)
    x1s = np.linspace(box.x1_min, box.x1_max, n).tolist()
    x1s += [math.nextafter(cert.shape.d, math.inf), eps, -eps]
    return [
        x1 for x1 in x1s
        if box.x1_min <= x1 <= box.x1_max and Fraction(box.x2_min) <= -c * Fraction(x1) <= Fraction(box.x2_max)
        and Fraction(x1) ** 2 * (1 + c * c) >= Fraction(eps) ** 2
    ]


# Random certificates: P scaled by 1e-6 to 1e6 (as Q scales it), steep
# slopes, theta on both sides of its bound and below zero, and offsets just
# off the design.
_RANDOM_CERTIFICATE = dict(
    p=st.tuples(st.floats(0.5, 3.0), st.floats(-0.9, 0.9), st.floats(0.5, 3.0)),
    scale=st.floats(-6.0, 6.0),
    box=st.tuples(st.floats(-3.0, -0.5), st.floats(0.01, 1.5), st.floats(0.5, 3.0)),
    d_frac=st.floats(0.02, 0.98),
    level=st.floats(1.1, 4.0),
    auto=st.booleans(),
    l_exp=st.floats(-0.5, 1.5),
    delta_factor=st.floats(0.7, 3.0),
    theta_factor=st.floats(-0.5, 3.0),
    k_factor=st.sampled_from((1.0, 1.0 - 4.0 * float(np.finfo(float).eps), 1.0 - 1e-9, 1.0 + 1e-9)),
)


def _random_certificate(
    p, scale, box, d_frac, level, auto, l_exp, delta_factor, theta_factor, k_factor
):
    """(certificate, region) of one draw of _RANDOM_CERTIFICATE."""
    p11, r, p22 = p
    P = 10.0**scale * np.array([[p11, r * math.sqrt(p11 * p22)], [r * math.sqrt(p11 * p22), p22]])
    region = RegionBox(box[0], box[1], -box[2], box[2])
    unsafe = HalfPlaneUnsafe(d_frac * box[0])
    v2 = level * clbf.v1_min_on_unsafe(P, unsafe.d)
    try:
        if auto:
            cert = select_parameters(P, region, unsafe, v2)
        else:
            bounds = clbf.parameter_bounds(P, region, unsafe, v2)
            l = 10.0**l_exp * bounds.l_max
            delta = delta_factor * bounds.delta_min(l)
            theta = theta_factor * bounds.theta_min(l, max(delta, 1.05 * bounds.delta_min(l)))
            cert = assemble_weak_clbf(P, region, unsafe, v2, l, delta, theta, enforce_bounds=False)
    except (ValueError, MarginInfeasible):
        assume(False)  # sigmoid endpoints saturate, or no margin fits the region
    return replace(cert, k=k_factor * cert.k), region


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(**_RANDOM_CERTIFICATE)
def test_no_exact_margin_set_sample_breaks_a_pass(**draw):
    # Where the margin set passes, W bounded above with exact V and an
    # enclosed sigma stays within the verdict's rounding allowance at every
    # sample that lies exactly in the set.
    cert, region = _random_certificate(**draw)
    result = verify_weak_clbf(cert, region).c_omega
    if not result.passed:
        return
    samples = _margin_set_samples(cert, region)
    assert samples  # a pass on a non-empty set, so the first slice has points
    theta, k, v2 = Fraction(cert.theta), Fraction(cert.k), cert.bounds.v2
    sigma2 = cert.bounds.sigma_endpoints(cert.shape.l, cert.shape.delta)[1]
    allowance = clbf._C_OMEGA_ROUNDING * (abs(cert.k) + cert.theta * sigma2 * v2 + v2)
    for x1, x2 in samples:
        w_upper = (1 + theta * Fraction(_sigma_enclosure(cert.shape, x1)[1])) * _exact_v(cert.clf, x1, x2) - k
        assert w_upper <= allowance, (x1, x2, float(w_upper), allowance)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(**_RANDOM_CERTIFICATE)
def test_no_exact_unsafe_sample_breaks_a_pass(**draw):
    # Where positive_on_unsafe passes, no sample of the unsafe set has an
    # upper bound of W, with exact V and an enclosed sigma, at or below zero.
    cert, region = _random_certificate(**draw)
    if not verify_weak_clbf(cert, region).positive_on_unsafe.passed:
        return
    theta, k = Fraction(cert.theta), Fraction(cert.k)
    for x1, x2s in _unsafe_samples(cert, region):
        scale = 1 + theta * Fraction(_sigma_enclosure(cert.shape, x1)[1])
        for x2 in x2s:
            w_upper = scale * _exact_v(cert.clf, x1, x2) - k
            assert w_upper > 0, (x1, x2, float(w_upper))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(theta_scale=st.sampled_from((1.0, 1e2, 1e4)), **_RANDOM_CERTIFICATE)
def test_no_exact_line_sample_breaks_a_pass(theta_scale, **draw):
    # On the line x2 = -c x1, off the origin ball, L = -c*(det P/p22)*x1^2*h
    # and grad W = 0 only where h = 0. Where line_decrease passes, no sample
    # with x1 > d has an upper bound of h at or below zero, and its witness
    # lies in the region; where stationary_point_unique passes, no sample at
    # all. theta scaled up by 1e2 or 1e4 is what makes h dip below zero.
    cert, region = _random_certificate(**draw)
    cert = replace(cert, theta=theta_scale * cert.theta)
    report = verify_weak_clbf(cert, region)
    decrease, stationary = report.line_decrease, report.stationary_unique
    if decrease.passed:
        w1, w2 = decrease.witness
        assert cert.clf.p12 > 0.0 and w1 > cert.shape.d
        assert region.x1_min <= w1 <= region.x1_max and region.x2_min <= w2 <= region.x2_max
    for x1 in _line_samples(cert, region, report.eps_origin):
        if (decrease.passed and x1 > cert.shape.d) or stationary.passed:
            assert _h_upper(cert, x1) > 0, x1


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

    def test_unsafe_margin_is_the_scalar_closed_form(self, default_config):
        # a seeded certify certificate whose margin numpy's array exp reads
        # differently by SIMD target (0.5653591187360547 with AVX-512): the
        # verdict's margin is the scalar W at the minimizer, bit for bit
        config = replace(
            default_config,
            clbf_mode="explicit",
            v2=(1.8959166666666665, 4.307),
            explicit_params=(
                {"l": 4.0, "delta": 0.36017300376135075, "theta": 7.573571994686829},
                {"l": 10.000000000000002, "delta": 0.2453079279166121, "theta": 3.12905402229932},
            ),
        )
        bundle = build_bundle(config, enforce_bounds=False)
        sub = bundle.subsystems[0]
        cert, d = sub.certificate, sub.certificate.shape.d
        x2 = min(max(-cert.line_slope * d, sub.region.x2_min), sub.region.x2_max)
        for grid in (MIN_GRID_RESOLUTION, 1000):
            cond = dict(verify_bundle(bundle, grid))[0].positive_on_unsafe
            assert cond.margin == cert.value_and_grad(d, x2)[0] == 0.5653591187360538
            assert cond.witness == (d, x2)

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
                for axis, report in verify_bundle(bundle, grid_resolution=n):
                    payload = report.to_dict()
                    del payload["grid_resolution"]
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
            report = verify_weak_clbf(cert, sub.region, n)
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
    c_omega = check_c_omega_subset(cert, box)
    if c_omega.verdict == "fail" and c_omega.witness is None:  # the set is empty
        assert math.isnan(c_omega.margin)
        assert not omega.any()
        return found
    if np.any(WX[omega] > 1e-9):
        found += 1
        assert not c_omega.passed
    return found


# ---------------------------------------------------------------------------
# the origin ball


class TestOriginBall:
    # eps_origin is 1e-3 of the region's diameter, which the speed range
    # dominates. At speed limit 600 axis 0's ball (radius 1.2) covers every
    # point of its line with x1 > d; at 2500 both axes' balls do.

    @pytest.mark.parametrize(
        "speed, verdicts", [(600.0, ("undecided", "pass")), (2500.0, ("undecided", "undecided"))]
    )
    def test_no_vacuous_line_decrease(self, default_config, speed, verdicts):
        bundle = build_bundle(replace(default_config, speed_limit=speed))
        reports = verify_bundle(bundle)
        assert [report.line_decrease.verdict for _, report in reports] == list(verdicts)
        for sub, (_, report) in zip(bundle.subsystems, reports):
            cond = report.line_decrease
            if not cond.passed:
                assert math.isnan(cond.margin) and cond.witness is None
                continue
            # the bound is set on the far side of the ball, inside the region
            x1, x2 = cond.witness
            assert (x1, x2) == pytest.approx((-1.0733144329598854, 0.5366572164799427), rel=1e-12)
            assert x1 > sub.certificate.shape.d and sub.region.x1_min <= x1
            assert sub.region.x2_min <= x2 <= sub.region.x2_max
            assert math.hypot(x1, x2) == pytest.approx(report.eps_origin, rel=1e-12)

    def test_bundled_ball_is_small(self, default_bundle):
        # the bundled regions' balls reach x1 = r of about 0.005 on the line
        for _, report in verify_bundle(default_bundle):
            assert report.line_decrease.passed
            assert 0.0 < report.line_decrease.witness[0] < 0.01


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
        # the two sampled searches share one table: one array call of W, and
        # V on arrays only inside it; the margin set takes no samples
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
        assert calls == ["WeakCLBF", "QuadraticCLF"]

    def test_proofs_make_no_array_call(self, default_bundle, monkeypatch):
        # the closed forms decide every verdict in Python floats: they run
        # with numpy out of reach of the module, and the unsafe-set and line
        # proofs return plain floats
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} called by a proof")

        reports = dict(verify_bundle(default_bundle))
        monkeypatch.setattr(clbf, "np", NoNumpy())
        for sub in default_bundle.subsystems:
            cert, region = sub.certificate, sub.region
            eps = reports[sub.axis].eps_origin
            (lo, hi), *line = clbf._line_conditions(cert, region, cert.shape.d, eps)
            proofs = [clbf._positive_on_unsafe(cert, region, cert.shape.d), *line]
            for result in proofs:
                assert type(result.margin) is float
                assert all(type(x) is float for x in result.witness or ())
            assert type(lo) is float and type(hi) is float
            proofs.insert(2, reports[sub.axis].admissible_nonempty)
            proofs.append(check_c_omega_subset(cert, region))
            assert proofs == reports[sub.axis].conditions()

    @pytest.mark.parametrize("mutate", _MUTANTS, ids=[m.__name__ for m in _MUTANTS])
    def test_margin_set_verdict_has_one_text(self, default_config, mutate):
        for sub in build_bundle(default_config).subsystems:
            cert = mutate(sub.certificate)
            for n in (MIN_GRID_RESOLUTION, 400):
                alone = check_c_omega_subset(cert, sub.region)
                report = verify_weak_clbf(cert, sub.region, n)
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

# verify_bundle's reports at grid 400 on the configurations of
# _golden_configs, recorded while each sampled search made its own
# evaluation of W and the margin set was still sampled too. json writes a
# float as its shortest exact repr, so equal text means equal bits.
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
    return [{"axis": axis, **report.to_dict()} for axis, report in verify_bundle(bundle, 400)]


@pytest.mark.parametrize("name", ["bundled", "l300", "d50"])
def test_reports_match_the_golden_record(name):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert json.dumps(_golden_report(_golden_configs()[name])) == json.dumps(recorded)
