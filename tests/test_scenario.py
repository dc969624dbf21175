import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefl.clbf import HalfPlaneUnsafe, check_c_omega_subset, parameter_bounds
from safefl.errors import ConfigError, InvalidUnsafeSet, LevelTooSmall, MarginInfeasible
from safefl.manipulator import forward_kinematics, jacobian
from safefl.scenario import (
    RunConfig,
    build_bundle,
    default_config_path,
    load_config,
    parameter_report,
    run_case,
    verify_bundle,
)
from tests.conftest import astuple, p_matrix


@pytest.fixture()
def raw_config():
    with open(default_config_path(), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _explicit_published_row(raw) -> list:
    """Switch raw to explicit mode with the published rows; their entries."""
    raw["clbf"] = {
        "mode": "explicit",
        "v2": [2.0, 2.0],
        "params": [
            {"l": 4.0, "delta": 0.28, "theta": 50.0},
            {"l": 4.0, "delta": 0.58, "theta": 6.1},
        ],
    }
    return raw["clbf"]["params"]


def _axis1_only(raw, v2):
    """Constrain axis 1 only, with clbf.v2 set to v2."""
    del raw["constraints"][0]
    raw["clbf"]["v2"] = v2


class TestConfigParsing:
    def test_default_config_loads(self, default_config):
        assert default_config.name == "two_link_reach_avoid"
        assert default_config.dt == 1e-3
        assert default_config.k_safe_sweep == (0.2, 0.5, 1.5)
        np.testing.assert_allclose(default_config.goal, [0.3, 1.0])

    def test_unknown_key_rejected(self, raw_config):
        raw_config["extra"] = 1
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw_config)

    @pytest.mark.parametrize(
        "section, key",
        [
            (lambda raw: raw["manipulator"], "m3"),
            (lambda raw: raw["initial"], "elbw"),
            (lambda raw: raw["region"], "speed"),
            (lambda raw: raw["constraints"][1], "sid"),
            (lambda raw: raw["gains"], "kpp"),
            (lambda raw: raw["clbf"], "delta_margin"),
            (lambda raw: _explicit_published_row(raw)[1], "kk"),
            (lambda raw: raw["simulation"], "horizn"),
        ],
        ids=["manipulator", "initial", "region", "constraint", "gains", "clbf", "clbf_params", "simulation"],
    )
    def test_unknown_key_in_a_section_rejected(self, raw_config, section, key):
        # a misspelled or removed key is an error that names it, never ignored
        section(raw_config)[key] = 1.0
        with pytest.raises(ConfigError, match=rf"unknown .* keys: \['{key}'\]$"):
            RunConfig.from_dict(raw_config)

    def test_wrong_schema_version(self, raw_config):
        raw_config["schema_version"] = 2
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw_config)

    def test_zero_step_rejected(self, raw_config):
        raw_config["simulation"]["dt"] = 0.0
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw_config)

    def test_missing_section_rejected(self, raw_config):
        del raw_config["gains"]
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw_config)

    def test_duplicate_axis_rejected(self, raw_config):
        raw_config["constraints"].append({"axis": 0, "side": "min", "bound": -5.0})
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw_config)

    def test_unknown_side_rejected(self, raw_config):
        raw_config["constraints"][0]["side"] = "above"
        with pytest.raises(ConfigError, match="'min' or 'max'"):
            RunConfig.from_dict(raw_config)

    def test_malformed_json_file(self, tmp_path):
        # not JSON, bytes that are not UTF-8, and nesting past the recursion limit
        path = tmp_path / "broken.json"
        for content in (b"{not json", b'{"name": "\xff"}', b"[" * 200_000 + b"]" * 200_000):
            path.write_bytes(content)
            with pytest.raises(ConfigError, match="^configuration is not valid JSON: "):
                load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    @pytest.mark.parametrize("sweep", [[0.5, -1.0], [0.0], [0.5, 0.5], [1.0, 1.0000001]])
    def test_invalid_sweep_rejected(self, raw_config, sweep):
        # non-positive gains, and gains whose runs would share one output label
        raw_config["k_safe"] = sweep
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw_config)

    def test_explicit_mode_requires_params(self, raw_config):
        raw_config["clbf"] = {"mode": "explicit", "v2": [2.0, 2.0]}
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw_config)

    @pytest.mark.parametrize(
        "constrain, v2",
        [
            (_axis1_only, [5.0, None]),
            (lambda raw, v2: raw["clbf"].update(v2=v2), [2.0]),
            (lambda raw, v2: raw["clbf"].update(v2=v2), 2.0),
        ],
        ids=["one_constraint_trailing_null", "two_constraints_one_level", "scalar"],
    )
    def test_v2_holds_one_entry_per_constraint(self, raw_config, constrain, v2):
        constrain(raw_config, v2)
        with pytest.raises(ConfigError, match="one entry per constraint"):
            RunConfig.from_dict(raw_config)


class TestBundleAssembly:
    def test_certificates_hold_plain_floats(self, default_bundle):
        # stored as floats, the closed forms on the thresholds and the
        # default v2 never run in numpy scalars
        for sub in default_bundle.subsystems:
            cert = sub.certificate
            numbers = (*astuple(cert.clf), *astuple(cert.shape), cert.theta, cert.k, *astuple(cert.bounds))
            assert [type(x) for x in numbers] == [float] * 11
        for _, report in verify_bundle(default_bundle):
            assert [type(c.margin) for c in report.conditions()] == [float] * 5

    def test_axis_normalization(self, default_bundle):
        subs = default_bundle.subsystems
        assert subs[0].sign == -1.0 and subs[0].certificate.shape.d == pytest.approx(-1.0)
        assert subs[1].sign == 1.0 and subs[1].certificate.shape.d == pytest.approx(-1.3)

    @pytest.mark.parametrize(
        "axis, bound", [(0, 0.2), (0, 0.3), (1, 1.1)],
        ids=["max_below_goal", "max_at_goal", "min_above_goal"],
    )
    def test_bound_not_beyond_the_goal_is_an_invalid_unsafe_set(self, raw_config, axis, bound):
        # axis 0 keeps p1 below its max bound and axis 1 keeps p2 above its
        # min bound; a bound on the goal's wrong side (or on the goal) puts
        # the canonical threshold d at or above zero, flipped or not
        raw_config["constraints"][axis]["bound"] = bound
        with pytest.raises(InvalidUnsafeSet, match="must be negative"):
            build_bundle(RunConfig.from_dict(raw_config))

    def test_error_boxes(self, default_bundle):
        subs = default_bundle.subsystems
        assert (subs[0].region.x1_min, subs[0].region.x1_max) == pytest.approx((-1.2, 0.5))
        assert (subs[1].region.x1_min, subs[1].region.x1_max) == pytest.approx((-2.0, 0.2))
        assert subs[0].certificate.bounds.gamma == pytest.approx(0.5)
        assert subs[1].certificate.bounds.gamma == pytest.approx(0.2)

    def test_lyapunov_solutions(self, default_bundle):
        np.testing.assert_allclose(
            p_matrix(default_bundle.subsystems[0].clf),
            [[2.483333, 0.333333], [0.333333, 0.833333]],
            atol=1e-6,
        )
        np.testing.assert_allclose(
            p_matrix(default_bundle.subsystems[1].clf),
            [[2.4, 0.5], [0.5, 1.0]],
            atol=1e-12,
        )

    def test_default_levels(self, default_bundle):
        subs = default_bundle.subsystems
        assert subs[0].certificate.bounds.v2 == pytest.approx(1.895917, abs=1e-6)
        assert subs[1].certificate.bounds.v2 == pytest.approx(4.307, abs=1e-6)

    def test_certificates_carry_their_bounds(self, default_bundle):
        for sub in default_bundle.subsystems:
            cert = sub.certificate
            unsafe = HalfPlaneUnsafe(cert.shape.d)
            fresh = parameter_bounds(sub.clf, sub.region, unsafe, cert.bounds.v2)
            assert cert.clf == sub.clf
            assert cert.bounds == fresh

    def test_initial_joint_state(self, default_bundle):
        params = default_bundle.params
        np.testing.assert_allclose(
            forward_kinematics(params, default_bundle.q0), [1.0, 0.4], atol=1e-9
        )
        np.testing.assert_allclose(
            np.array(jacobian(params, default_bundle.q0)) @ default_bundle.qdot0,
            [1.5, -2.5],
            atol=1e-9,
        )

    def test_bundle_holds_float_tuples(self, default_bundle):
        config = default_bundle.config
        vectors = (
            config.goal, config.initial_position, config.initial_velocity, config.kp, config.kd,
            *config.lyapunov_q, default_bundle.q0, default_bundle.qdot0,
        )
        for vector in vectors:
            assert type(vector) is tuple and [type(v) for v in vector] == [float, float]
        assert default_bundle.x0 == default_bundle.q0 + default_bundle.qdot0

    @pytest.mark.parametrize(
        "position, velocity",
        [([1.0, 0.4], [1.5, -2.5]), ([0.01, 0.0], [-1.0, 0.0])],
        ids=["bundled", "near_singular"],
    )
    def test_initial_joint_velocity_matches_numpy_bit_for_bit(self, raw_config, position, velocity):
        # the bundled start and the golden near_singular sweep's start
        raw_config["initial"].update(position=position, velocity=velocity)
        bundle = build_bundle(RunConfig.from_dict(raw_config))
        reference = np.linalg.solve(np.array(jacobian(bundle.params, bundle.q0)), velocity)
        assert bundle.qdot0 == tuple(reference.tolist())

    @pytest.mark.parametrize("seed", range(3))
    def test_initial_joint_velocity_on_seeded_starts(self, raw_config, seed):
        # starts drawn as the benchmark's ensemble draws them; the float
        # elimination may differ from np.linalg.solve by an ulp
        rng = random.Random(seed)
        for _ in range(16):
            velocity = [rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)]
            raw_config["initial"].update(
                position=[rng.uniform(0.6, 1.25), rng.uniform(-0.2, 0.9)], velocity=velocity
            )
            bundle = build_bundle(RunConfig.from_dict(raw_config))
            J = np.array(jacobian(bundle.params, bundle.q0))
            reference = np.linalg.solve(J, velocity)
            assert np.abs(np.array(bundle.qdot0) - reference).max() <= 1e-14 * np.abs(reference).max()
            assert np.abs(J @ bundle.qdot0 - velocity).max() <= 1e-14 * np.abs(velocity).max()

    def test_initial_membership(self, default_bundle):
        report = parameter_report(default_bundle)
        assert report["initial_member"] is True
        assert np.all(np.array(report["initial_w"]) < 0.0)

    def test_explicit_published_row_feasible(self, raw_config):
        _explicit_published_row(raw_config)
        bundle = build_bundle(RunConfig.from_dict(raw_config))
        assert bundle.subsystems[0].certificate.k == pytest.approx(38.355, abs=1e-3)
        assert bundle.subsystems[1].certificate.theta == 6.1

    def test_explicit_out_of_bounds_rejected_when_enforcing(self, raw_config):
        raw_config["clbf"] = {
            "mode": "explicit",
            "v2": [2.0, 2.0],
            "params": [
                {"l": 4.0, "delta": 0.28, "theta": 0.0},
                {"l": 4.0, "delta": 0.58, "theta": 6.1},
            ],
        }
        config = RunConfig.from_dict(raw_config)
        with pytest.raises(MarginInfeasible):
            build_bundle(config, enforce_bounds=True)
        bundle = build_bundle(config, enforce_bounds=False)
        assert bundle.subsystems[0].certificate.theta == 0.0

    def test_explicit_single_constraint_design_builds(self, raw_config):
        # one constraint, so one level and one params entry
        del raw_config["constraints"][0]
        raw_config["clbf"] = {
            "mode": "explicit", "v2": [2.0], "params": [{"l": 4.0, "delta": 0.58, "theta": 6.1}],
        }
        bundle = build_bundle(RunConfig.from_dict(raw_config))
        cert = bundle.subsystems[1].certificate
        assert (cert.bounds.v2, cert.shape.l, cert.shape.delta, cert.theta) == (2.0, 4.0, 0.58, 6.1)

    def test_level_below_unsafe_minimum(self, raw_config):
        raw_config["clbf"]["v2"] = [1.0, 2.0]  # v1 of the first axis is 1.175
        with pytest.raises(LevelTooSmall):
            build_bundle(RunConfig.from_dict(raw_config))

    def test_goal_outside_region(self, raw_config):
        raw_config["region"]["p2"] = [-1.0, 0.5]
        with pytest.raises(ConfigError):
            build_bundle(RunConfig.from_dict(raw_config))

    def test_initial_position_outside_region(self, raw_config):
        raw_config["initial"]["position"] = [1.6, 0.4]
        with pytest.raises(ConfigError):
            build_bundle(RunConfig.from_dict(raw_config))


def _bundled_raw() -> dict:
    with open(default_config_path(), "r", encoding="utf-8") as fh:
        return json.load(fh)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    p1=st.tuples(st.floats(-30.0, -0.2), st.floats(1.31, 3.0)),
    p2=st.tuples(st.floats(-30.0, -0.31), st.floats(1.01, 3.0)),
    kp=st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0)),
    kd=st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0)),
)
def test_every_built_bundle_has_a_margin_set(p1, p2, kp, kd):
    # wide regions make auto's slope 2/gamma shallow and its margin wide: the
    # constructor refuses a design whose margin set has no point in the
    # region (MarginInfeasible), by the rule the verifier fails it with, so
    # every bundle it builds passes margin_set_contained
    raw = _bundled_raw()
    raw["region"].update(p1=list(p1), p2=list(p2))
    raw["gains"] = {"kp": list(kp), "kd": list(kd)}
    try:
        bundle = build_bundle(RunConfig.from_dict(raw))
    except MarginInfeasible as err:
        assert "margin set" in str(err)
        return
    for sub in bundle.subsystems:
        assert check_c_omega_subset(sub.certificate, sub.region).passed


class TestScenarioProperties:
    def test_elbow_branch_preserves_task_trajectory(self, raw_config, default_bundle):
        # feedback linearization cancels the configuration, so both kinematic
        # branches must trace the same Cartesian path
        from safefl.scenario import run_case

        raw_config["initial"]["elbow"] = "down"
        other = build_bundle(RunConfig.from_dict(raw_config))
        assert other.q0[1] < 0.0 < default_bundle.q0[1]
        a = run_case(default_bundle, 1.5, horizon=0.5)
        b = run_case(other, 1.5, horizon=0.5)
        np.testing.assert_allclose(a.pos, b.pos, atol=1e-9)

    def test_unit_gain_certificates_never_increase(self, default_bundle):
        # with unit safety gain the formula enforces an exact decrease along
        # each decoupled loop; no recorded step raises a certificate by more
        # than rounding noise
        from safefl.scenario import run_case

        traj = run_case(default_bundle, 1.0)
        assert np.diff(traj.w, axis=0).max() <= 1e-9 * traj.meta["dt"]


class TestRecordedMargins:
    @pytest.mark.parametrize("k_safe", [0.0, 1.5])
    def test_margins_match_configured_bounds(self, default_bundle, k_safe):
        # p1 stays below its max bound 1.3 and p2 above its min bound -0.3
        bounds = {(c.axis, c.side): c.bound for c in default_bundle.config.constraints}
        assert bounds == {(0, "max"): 1.3, (1, "min"): -0.3}
        traj = run_case(default_bundle, k_safe, horizon=2.0)
        np.testing.assert_allclose(traj.margins[:, 0], 1.3 - traj.pos[:, 0], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(traj.margins[:, 1], traj.pos[:, 1] + 0.3, rtol=0.0, atol=1e-12)


class TestParameterReport:
    def test_report_structure(self, default_bundle):
        report = parameter_report(default_bundle)
        assert report["initial_member"] is True
        assert len(report["subsystems"]) == 2
        first = report["subsystems"][0]
        for key in ("gamma", "l_max", "v1", "v2", "l", "delta", "theta", "k", "w0"):
            assert key in first
        assert first["slack"]["delta_over_min"] > 1.0
        assert first["slack"]["theta_over_min"] > 1.0
        assert report["reference_initial_w"] == [-0.43, -2.33]
        json.dumps(report)  # serializable
