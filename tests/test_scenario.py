import json

import numpy as np
import pytest

from safefl.clbf import parameter_bounds
from safefl.errors import ConfigError, InvalidUnsafeSet, LevelTooSmall, MarginInfeasible
from safefl.manipulator import forward_kinematics, jacobian
from safefl.scenario import (
    RunConfig,
    build_bundle,
    default_config_path,
    load_config,
    parameter_report,
    run_case,
)


@pytest.fixture()
def raw_config():
    with open(default_config_path(), "r", encoding="utf-8") as fh:
        return json.load(fh)


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
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
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


class TestBundleAssembly:
    def test_axis_normalization(self, default_bundle):
        subs = default_bundle.subsystems
        assert subs[0].sign == -1.0 and subs[0].unsafe.d == pytest.approx(-1.0)
        assert subs[1].sign == 1.0 and subs[1].unsafe.d == pytest.approx(-1.3)

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
            default_bundle.subsystems[0].clf.matrix,
            [[2.483333, 0.333333], [0.333333, 0.833333]],
            atol=1e-6,
        )
        np.testing.assert_allclose(
            default_bundle.subsystems[1].clf.matrix,
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
            fresh = parameter_bounds(sub.clf, sub.region, sub.unsafe, cert.bounds.v2)
            assert cert.clf == sub.clf
            assert cert.bounds == fresh

    def test_initial_joint_state(self, default_bundle):
        params = default_bundle.params
        np.testing.assert_allclose(
            forward_kinematics(params, default_bundle.q0), [1.0, 0.4], atol=1e-9
        )
        np.testing.assert_allclose(
            jacobian(params, default_bundle.q0) @ default_bundle.qdot0,
            [1.5, -2.5],
            atol=1e-9,
        )

    def test_initial_membership(self, default_bundle):
        report = parameter_report(default_bundle)
        assert report["initial_member"] is True
        assert np.all(np.array(report["initial_w"]) < 0.0)

    def test_explicit_published_row_feasible(self, raw_config):
        raw_config["clbf"] = {
            "mode": "explicit",
            "v2": [2.0, 2.0],
            "params": [
                {"l": 4.0, "delta": 0.28, "theta": 50.0},
                {"l": 4.0, "delta": 0.58, "theta": 6.1},
            ],
        }
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
        # each decoupled loop; the recorded rates stay non-positive up to
        # finite-difference noise
        from safefl.scenario import run_case
        from safefl.sim import safety_monitor

        traj = run_case(default_bundle, 1.0)
        report = safety_monitor(traj)
        assert report.w_dot.max() <= 1e-9


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
