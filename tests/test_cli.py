import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from safefl.cli import CSV_COLUMNS, main
from tests.conftest import replace


@pytest.fixture()
def raw_config():
    from safefl.scenario import default_config_path

    with open(default_config_path(), "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def fast(raw):
    """Trim the run so CLI tests stay quick."""
    raw["simulation"]["horizon"] = 0.05
    raw["k_safe"] = [0.5]
    return raw


class TestSelectParams:
    def test_default_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["select-params", "--out", str(out)]) == 0
        report = json.loads((out / "parameters.json").read_text())
        assert report["initial_member"] is True
        text = capsys.readouterr().out
        assert "axis 0" in text and "theta" in text
        # the sigmoid endpoints are read from each certificate's design record
        from safefl.scenario import build_bundle, default_config_path, load_config

        bundle = build_bundle(load_config(default_config_path()))
        for entry, sub in zip(report["subsystems"], bundle.subsystems):
            cert = sub.certificate
            sigmas = cert.bounds.sigma_endpoints(cert.shape.l, cert.shape.delta)
            assert (entry["sigma1"], entry["sigma2"]) == sigmas

    def test_single_constraint_takes_its_own_level(self, tmp_path, raw_config):
        # with axis 1 constrained alone, clbf.v2's one entry is its level
        del raw_config["constraints"][0]
        raw_config["clbf"]["v2"] = [5.0]
        path = write_config(tmp_path, raw_config)
        assert main(["select-params", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "parameters.json").read_text())
        axis0, axis1 = report["subsystems"]
        assert not axis0["constrained"] and axis1["v2"] == 5.0

    def test_level_too_small_exits_2(self, tmp_path, raw_config):
        raw_config["clbf"]["v2"] = [1.0, 2.0]
        path = write_config(tmp_path, raw_config)
        assert main(["select-params", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_malformed_json_exits_3(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        assert main(["select-params", "--config", str(path), "--out", str(tmp_path)]) == 3

    def test_zero_step_exits_3(self, tmp_path, raw_config):
        raw_config["simulation"]["dt"] = 0.0
        path = write_config(tmp_path, raw_config)
        assert main(["select-params", "--config", str(path), "--out", str(tmp_path)]) == 3


class TestVerify:
    def test_default_config_passes(self, tmp_path, raw_config):
        path = write_config(tmp_path, raw_config)
        out = tmp_path / "out"
        code = main(["verify", "--config", str(path), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "verification_report.json").read_text())
        assert all(sub["passed"] for sub in report["subsystems"])

    def test_zero_scaling_fails_with_witness(self, tmp_path, raw_config, capsys):
        raw_config["clbf"] = {
            "mode": "explicit",
            "v2": [2.0, 2.0],
            "params": [
                {"l": 4.0, "delta": 0.28, "theta": 0.0},
                {"l": 4.0, "delta": 0.58, "theta": 6.1},
            ],
        }
        path = write_config(tmp_path, raw_config)
        code = main(["verify", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        text = capsys.readouterr().out
        assert "positive_on_unsafe: FAIL" in text
        assert "witness" in text

    @pytest.mark.parametrize("l", [300.0, 5000.0])
    def test_large_slope_gets_a_verdict(self, tmp_path, raw_config, capsys, l):
        # l delta / 2 beyond about 37 rounds sigma1 to 1 unless it is held
        # below; the certificate is judged, not rejected as a config error
        _explicit(l=l)(raw_config)
        path = write_config(tmp_path, raw_config)
        code = main(["verify", "--config", str(path), "--out", str(tmp_path)])
        assert code in (0, 2), capsys.readouterr().err
        report = json.loads((tmp_path / "verification_report.json").read_text())
        verdicts = [c["verdict"] for sub in report["subsystems"] for c in sub["conditions"]]
        assert len(verdicts) == 10
        assert set(verdicts) <= {"pass", "fail", "undecided"}

    def test_empty_margin_set_gets_all_verdicts(self, tmp_path, raw_config, capsys):
        # d + delta = 49 leaves axis 0's margin set empty: that condition
        # fails with no margin and no witness, and every other condition of
        # both axes is still decided and reported
        _explicit(delta=50.0)(raw_config)
        path = write_config(tmp_path, raw_config)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ""
        report = json.loads((out / "verification_report.json").read_text())
        verdicts = [c["verdict"] for sub in report["subsystems"] for c in sub["conditions"]]
        assert len(verdicts) == 10
        assert set(verdicts) <= {"pass", "fail", "undecided"}
        first = {c["name"]: c for c in report["subsystems"][0]["conditions"]}
        empty = first["margin_set_contained"]
        assert (empty["verdict"], empty["margin"], empty["witness"]) == ("fail", None, None)


class TestSimulate:
    def test_outputs_and_schema(self, tmp_path, raw_config):
        path = write_config(tmp_path, fast(raw_config))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        for name in ("baseline.csv", "ksafe_0.5.csv", "trajectories.svg", "input_norms.svg", "summary.json"):
            assert (out / name).exists()
        lines = (out / "ksafe_0.5.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 52  # header + 51 records
        first = lines[1].split(",")
        assert len(first) == 14
        assert first[-1] in ("0", "1")
        summary = json.loads((out / "summary.json").read_text())
        assert [run["label"] for run in summary["runs"]] == ["baseline", "ksafe_0.5"]

    def test_reruns_are_byte_identical(self, tmp_path, raw_config):
        path = write_config(tmp_path, fast(raw_config))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(path), "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", str(path), "--out", str(out_b)]) == 0
        for name in ("baseline.csv", "ksafe_0.5.csv", "trajectories.svg", "input_norms.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_empty_sweep_gives_baseline_only(self, tmp_path, raw_config):
        raw = fast(raw_config)
        raw["k_safe"] = []
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "baseline.csv").exists()
        assert not list(out.glob("ksafe_*.csv"))

    def test_k_safe_flag_overrides_sweep(self, tmp_path, raw_config):
        path = write_config(tmp_path, fast(raw_config))
        out = tmp_path / "out"
        code = main(
            ["simulate", "--config", str(path), "--out", str(out), "--k-safe", "0.3"]
        )
        assert code == 0
        assert (out / "ksafe_0.3.csv").exists()
        assert not (out / "ksafe_0.5.csv").exists()

    def test_dt_flag_changes_step(self, tmp_path, raw_config):
        path = write_config(tmp_path, fast(raw_config))
        out = tmp_path / "out"
        code = main(
            ["simulate", "--config", str(path), "--out", str(out), "--dt", "0.005"]
        )
        assert code == 0
        lines = (out / "baseline.csv").read_text().splitlines()
        assert lines[2].split(",")[0] == "0.005"

    def test_svg_outputs_are_valid_xml(self, tmp_path, raw_config):
        import xml.etree.ElementTree as ET

        path = write_config(tmp_path, fast(raw_config))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        for name in ("trajectories.svg", "input_norms.svg"):
            root = ET.fromstring((out / name).read_text())
            assert root.tag.endswith("svg")
            assert len(list(root)) > 3

    def test_float_format_nine_significant_digits(self, tmp_path, raw_config):
        path = write_config(tmp_path, fast(raw_config))
        out = tmp_path / "out"
        main(["simulate", "--config", str(path), "--out", str(out)])
        row = (out / "baseline.csv").read_text().splitlines()[2].split(",")
        for cell in row[:-1]:
            mantissa = cell.split("e")[0].lstrip("-").replace(".", "")
            assert len(mantissa.lstrip("0")) <= 9

    def test_csv_cells_match_per_value_format(self, tmp_path):
        # reference: each float formatted on its own with format(x, ".9g")
        from safefl.cli import write_trajectory_csv
        from safefl.sim import Trajectory

        values = np.array([-0.0, 0.0, math.nan, math.inf, -math.inf, 1e-300, -123456.789012345, 2.5])
        block = np.stack([np.roll(values, i) for i in range(12)], axis=1)
        traj = Trajectory(
            t=np.arange(values.size) * 0.1,
            states=np.zeros((values.size, 4)),
            inputs=block[:, 0:2],
            pos=block[:, 2:4],
            vel=block[:, 4:6],
            force=block[:, 6:8],
            force_safe=block[:, 8:10],
            w=block[:, 10:12],
            margins=np.ones((values.size, 2)),
            safe=np.arange(values.size) % 2 == 0,
        )
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        expected = [",".join(CSV_COLUMNS)]
        for i in range(len(traj)):
            cells = [traj.t[i], *traj.pos[i], *traj.vel[i], *traj.inputs[i], *traj.force[i]]
            cells += [*traj.force_safe[i], *traj.w[i]]
            expected.append(",".join([format(float(c), ".9g") for c in cells] + [str(int(traj.safe[i]))]))
        assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"

    def test_singularity_abort_exits_4(self, tmp_path, raw_config):
        # outward initial velocity near full stretch drives the arm through
        # the stretched singularity within a few steps
        raw = fast(raw_config)
        raw["region"]["p1"] = [-0.2, 2.1]
        raw["constraints"][0]["bound"] = 2.05
        raw["initial"]["position"] = [1.995, 0.05]
        raw["initial"]["velocity"] = [0.8, 0.0]
        raw["simulation"]["horizon"] = 1.0
        raw["k_safe"] = []
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"][0]["failure"]["error"] in ("NearSingular", "NonFiniteState")
        # steps completed before the aborted one, which starts at the failure time
        assert summary["runs"][0]["steps"] == round(summary["runs"][0]["failure"]["time"] / 1e-3)
        assert (out / "baseline.csv").exists()  # partial trajectory still emitted
        assert multiprocessing.active_children() == []

    def test_abort_before_first_record_exits_4(self, tmp_path, raw_config, monkeypatch):
        # the configuration layer rejects a start at the stretched
        # singularity, so the runs get one on their bundle instead
        import safefl.cli as cli

        run_case = cli.run_case
        monkeypatch.setattr(
            cli,
            "run_case",
            lambda bundle, k, **kw: run_case(replace(bundle, q0=(0.3, 0.0)), k, **kw),
        )
        path = write_config(tmp_path, fast(raw_config))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 4
        assert (out / "baseline.csv").read_text().splitlines() == [",".join(CSV_COLUMNS)]
        summary = json.loads((out / "summary.json").read_text())
        for run in summary["runs"]:
            assert run["failure"]["error"] == "NearSingular"
            assert run["steps"] == 0 and run["safe"] is False
        assert multiprocessing.active_children() == []


class TestStepCount:
    def test_summary_counts_integration_steps(self, tmp_path, raw_config):
        # 0.2 s at dt 1e-3 is 200 steps however sparsely they are recorded
        raw = fast(raw_config)
        raw["simulation"]["horizon"] = 0.2
        raw["simulation"]["record_stride"] = 10
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [run["steps"] for run in summary["runs"]] == [200, 200]
        assert len((out / "baseline.csv").read_text().splitlines()) == 1 + 21


class TestSweepValidation:
    @pytest.mark.parametrize(
        "flags",
        [["--k-safe", "-1"], ["--k-safe", "0"], ["--k-safe", "0.5", "--k-safe", "0.5"]],
    )
    def test_invalid_k_safe_flags_exit_3(self, tmp_path, raw_config, capsys, flags):
        path = write_config(tmp_path, fast(raw_config))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out), *flags]) == 3
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_configured_value_exits_3(self, tmp_path, raw_config):
        raw = fast(raw_config)
        raw["k_safe"] = [0.5, 0.5]
        path = write_config(tmp_path, raw)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 3


def _set(*path_and_value):
    *path, key, value = path_and_value

    def mutate(raw):
        node = raw
        for name in path:
            node = node[name]
        node[key] = value

    return mutate


def _explicit(l=4.0, delta=0.28, theta=50.0):
    def mutate(raw):
        raw["clbf"] = {
            "mode": "explicit",
            "v2": [2.0, 2.0],
            "params": [
                {"l": l, "delta": delta, "theta": theta},
                {"l": 4.0, "delta": 0.58, "theta": 6.1},
            ],
        }

    return mutate


def _drop(*path_and_key):
    *path, key = path_and_key

    def mutate(raw):
        node = raw
        for name in path:
            node = node[name]
        del node[key]

    return mutate


def _explicit_without_l(raw):
    _explicit()(raw)
    del raw["clbf"]["params"][0]["l"]


def _singular_start(raw):
    raw["region"]["p1"] = [-0.2, 2.5]
    raw["initial"]["position"] = [2.0, 0.0]


def _keep(raw):
    pass


def _arm(**sizes):
    def mutate(raw):
        raw["manipulator"].update(sizes)

    return mutate


def _clamped_sigmoid_exponent(raw):
    # axis 1 bounded 1001 below its goal (v1 = det(P) d^2 / (2 p22) =
    # 1077151.075), designed with l*delta/2 = 5000, where sigma2's exponent
    # is clamped at 700
    raw["region"]["p2"] = [-1100.0, 1.2]
    raw["constraints"][1]["bound"] = -1000.0
    raw["clbf"] = {
        "mode": "explicit",
        "v2": [2.0, 1.01 * 1077151.075],
        "params": [
            {"l": 4.0, "delta": 0.28, "theta": 50.0},
            {"l": 10.0, "delta": 1000.0, "theta": 1.0},
        ],
    }


def _wide_p1(raw):
    # region p1 down to -20 gives axis 0 gamma = 20.3, so auto's slope
    # 2/gamma is shallow and its margin wide: d + delta = 9.2 lies inside
    # the region, but V > v2 at every x1 beyond it, so the margin set is empty
    raw["region"]["p1"] = [-20.0, 1.5]


def _axis1_only_levels(v2):
    def mutate(raw):
        del raw["constraints"][0]
        raw["clbf"]["v2"] = v2

    return mutate


NAN, INF = float("nan"), float("inf")


class TestErrorExitCodes:
    @pytest.mark.parametrize(
        "command, mutate, flags, code",
        [
            ("simulate", _set("clbf", "delta_margin", 0.5), [], 3),
            ("simulate", _set("clbf", "l", [-1.0, None]), [], 3),
            ("simulate", _set("lyapunov_q", [[1.0, 2.0], [2.0, 1.0]]), [], 3),
            ("verify", _explicit(l=-4.0), [], 3),
            ("verify", _explicit(l=1e-10, delta=1e-8), [], 3),
            ("simulate", _set("gains", "kp", [1e-300, 1.0]), [], 2),
            ("simulate", _singular_start, [], 3),
            ("simulate", _set("initial", "position", [0.0, 0.0]), [], 3),
            ("simulate", _keep, ["--dt", "0.5"], 3),
            ("simulate", _keep, ["--dt", "0"], 3),
            ("simulate", _keep, ["--horizon", "-1"], 3),
            ("simulate", _keep, ["--horizon", "nan"], 3),
            ("simulate", _keep, ["--horizon", "inf"], 3),
            ("simulate", _set("gains", "kp", [NAN, 1.0]), [], 3),
            ("simulate", _set("gains", "kd", [1.0, INF]), [], 3),
            ("simulate", _set("lyapunov_q", [[1.0, NAN], [NAN, 1.0]]), [], 3),
            ("simulate", _set("simulation", "horizon", INF), [], 3),
            ("simulate", _set("manipulator", "m1", NAN), [], 3),
            ("simulate", _set("simulation", "record_stride", INF), [], 3),
            ("simulate", lambda raw: raw["constraints"][0].update(axis=INF), [], 3),
            ("verify", lambda raw: raw["constraints"][0].update(bound=0.2), [], 2),
            ("simulate", _set("simulation", "record_stride", 2.5), [], 3),
            ("simulate", _set("simulation", "record_stride", 0.5), [], 3),
            ("simulate", _keep, ["--horizon", "1e9", "--k-safe", "0.5"], 3),
            ("simulate", _set("goal", "01"), [], 3),
            ("simulate", _set("manipulator", "m1", "0.8"), [], 3),
            ("simulate", _set("manipulator", "m1", 10**400), [], 3),
            ("simulate", _set("simulation", "dt", "1e-3"), [], 3),
            ("simulate", _set("simulation", "record_stride", True), [], 3),
            ("simulate", lambda raw: raw["constraints"][1].update(axis=True), [], 3),
            ("simulate", _set("k_safe", ["0.5"]), [], 3),
            ("verify", _explicit_without_l, [], 3),
            ("simulate", _drop("simulation", "dt"), [], 3),
            ("simulate", _drop("manipulator", "m1"), [], 3),
            ("select-params", _arm(L1=1e200), [], 3),
            ("verify", _arm(L1=1e200), [], 3),
            ("simulate", _arm(L1=1e-170, L2=1e-170), [], 3),
            ("select-params", _arm(L1=1e-170, L2=1e-170), [], 3),
            ("simulate", _arm(m1=1e-100, m2=1e-100, L1=1e155), [], 3),
            ("select-params", _clamped_sigmoid_exponent, [], 2),
            ("simulate", _clamped_sigmoid_exponent, [], 2),
            ("verify", _explicit(l=-10.0, delta=200.0), [], 3),
            ("select-params", _explicit(l=-10.0, delta=200.0), [], 2),
            ("verify", _explicit(delta=-1000.0), [], 3),
            ("select-params", _wide_p1, [], 2),
            ("simulate", _wide_p1, [], 2),
            ("verify", _wide_p1, [], 2),
            ("select-params", _axis1_only_levels([None, 5.0]), [], 3),
            ("select-params", _set("name", {"a": 1}), [], 3),
            ("simulate", _set("name", 5), [], 3),
        ],
        ids=[
            "delta_margin",
            "negative_l_override",
            "indefinite_q",
            "explicit_negative_l",
            "explicit_sigmoid_endpoints_at_one_half",
            "singular_lyapunov_system",
            "singular_initial_jacobian",
            "initial_position_at_origin",
            "dt_too_large",
            "dt_zero",
            "horizon_negative",
            "horizon_nan",
            "horizon_inf",
            "kp_nan",
            "kd_inf",
            "q_nan",
            "configured_horizon_inf",
            "m1_nan",
            "record_stride_inf",
            "constraint_axis_inf",
            "constraint_bound_below_goal",
            "record_stride_fractional",
            "record_stride_below_one",
            "records_over_limit",
            "goal_string",
            "m1_string",
            "m1_integer_beyond_float",
            "dt_string",
            "record_stride_boolean",
            "constraint_axis_boolean",
            "k_safe_string",
            "missing_l",
            "missing_dt",
            "missing_m1",
            "select_link_model_overflow",
            "verify_link_model_overflow",
            "simulate_link_threshold_underflow",
            "select_link_threshold_underflow",
            "simulate_link_square_overflow",
            "select_clamped_sigmoid_exponent",
            "simulate_clamped_sigmoid_exponent",
            "verify_negative_l_sigma1_overflow",
            "select_negative_l_sigma1_overflow",
            "verify_negative_delta_sigma1_overflow",
            "select_empty_margin_set",
            "simulate_empty_margin_set",
            "verify_auto_empty_margin_set",
            "one_constraint_two_levels",
            "name_object",
            "name_number",
        ],
    )
    def test_exit_code_and_one_line_message(
        self, tmp_path, raw_config, capsys, command, mutate, flags, code
    ):
        raw = fast(raw_config)
        mutate(raw)
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out), *flags]) == code
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("configuration error:" if code == 3 else "infeasible:")
        assert not out.exists()  # rejected before any run or output

    @pytest.mark.parametrize(
        "key, value",
        [("l", [None, None]), ("delta_margin", 1.05), ("theta_margin", 1.05)],
        ids=["l", "delta_margin", "theta_margin"],
    )
    def test_removed_auto_mode_knob_is_named(self, tmp_path, raw_config, capsys, key, value):
        # auto mode has one parameter policy; explicit mode chooses any other
        raw_config["clbf"][key] = value
        path = write_config(tmp_path, raw_config)
        out = tmp_path / "out"
        assert main(["select-params", "--config", str(path), "--out", str(out)]) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == [f"configuration error: unknown clbf keys: ['{key}']"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (_explicit_without_l, "clbf params: missing key 'l'"),
            (_drop("simulation", "dt"), "simulation: missing key 'dt'"),
            (_drop("manipulator", "m1"), "manipulator: missing key 'm1'"),
            (_drop("goal"), "configuration: missing key 'goal'"),
        ],
        ids=["l", "dt", "m1", "goal"],
    )
    def test_missing_key_is_named_with_its_object(
        self, tmp_path, raw_config, capsys, mutate, message
    ):
        mutate(raw_config)
        path = write_config(tmp_path, raw_config)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == [f"configuration error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("value", [5, {"a": 1}, None], ids=["number", "object", "null"])
    def test_name_must_be_a_string(self, tmp_path, raw_config, capsys, value):
        # the name lands in parameters.json and summary.json as given, never
        # as the str() of another JSON value
        raw_config["name"] = value
        path = write_config(tmp_path, raw_config)
        out = tmp_path / "out"
        assert main(["select-params", "--config", str(path), "--out", str(out)]) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == [f"configuration error: name must be a string, got {value!r}"]
        assert not out.exists()

    @pytest.mark.parametrize("value", [5, {"axis": 0}], ids=["number", "object"])
    def test_constraints_must_be_an_array(self, tmp_path, raw_config, capsys, value):
        raw_config["constraints"] = value
        path = write_config(tmp_path, raw_config)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == ["configuration error: constraints must be an array of objects"]
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "mutate",
        [_set("gains", "kp", [1e308, 1.0]), _set("lyapunov_q", [[1e300, 0.0], [0.0, 1e300]])],
        ids=["kp", "lyapunov_q"],
    )
    def test_overflow_is_one_line(self, tmp_path, raw_config, capsys, mutate):
        mutate(raw_config)
        path = write_config(tmp_path, raw_config)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 3
        [line] = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("configuration error:") and "overflow" in line
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_tiny_lyapunov_q_is_one_line(self, tmp_path, raw_config, capsys):
        # 1e-300*I is positive definite, but det(P) underflows, so v1 = 0:
        # a level error naming the underflow, with no numpy warning on the way
        _set("lyapunov_q", [[1e-300, 0.0], [0.0, 1e-300]])(raw_config)
        path = write_config(tmp_path, raw_config)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 2
        [line] = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("infeasible: LevelTooSmall:") and "underflows" in line
        assert not out.exists()

    @pytest.mark.parametrize(
        "q",
        [
            # 5e-13 apart is five times the diagonal: not symmetric at this scale
            [[1e-13, 5e-13], [0.0, 1e-13]],
            # symmetric within 1e-12, but its upper triangle is indefinite
            [[1.0 + 1e-13, 1.0 + 4e-13], [1.0 - 4e-13, 1.0 + 1e-13]],
        ],
        ids=["tiny", "nearly_singular"],
    )
    def test_asymmetric_q_is_an_invalid_q(self, tmp_path, raw_config, capsys, q):
        # refused as Q, not solved into an indefinite P
        _set("lyapunov_q", q)(raw_config)
        path = write_config(tmp_path, raw_config)
        assert main(["select-params", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        [line] = capsys.readouterr().err.strip().splitlines()
        assert line == "configuration error: invalid configuration: Q must be symmetric positive definite"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("params", [{"l": 1e308}, {"theta": 1e308}], ids=["l", "theta"])
    def test_extreme_finite_certificate_is_judged_quietly(self, tmp_path, raw_config, capsys, params):
        # a finite slope or scaling at the edge of the float range: the
        # closed forms run in Python floats and the sample table's overflows
        # are ignored, so axis 0 gets its verdicts with no numpy warning
        _explicit(**params)(raw_config)
        path = write_config(tmp_path, raw_config)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ""
        report = json.loads((out / "verification_report.json").read_text())
        first = [c["verdict"] for c in report["subsystems"][0]["conditions"]]
        assert first == ["pass", "undecided", "pass", "undecided", "pass"]
        assert report["subsystems"][1]["passed"]

    def test_explicit_offset_is_named(self, tmp_path, raw_config, capsys):
        # the design fixes the offset k = (1 + theta*sigma2)*v2; an explicit
        # entry takes l, delta and theta only
        _explicit()(raw_config)
        raw_config["clbf"]["params"][0]["k"] = -1.0
        path = write_config(tmp_path, raw_config)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == ["configuration error: unknown clbf params keys: ['k']"]
        assert not out.exists()


class TestReproduce:
    def test_short_horizon_smoke(self, tmp_path):
        out = tmp_path / "out"
        code = main(["reproduce-paper", "--out", str(out), "--horizon", "0.02"])
        assert code == 0
        for k in ("0.2", "0.5", "1.5"):
            assert (out / f"ksafe_{k}.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert [run["steps"] for run in summary["runs"]] == [20] * 4

    def test_config_flag_is_a_usage_error(self, tmp_path, capsys):
        # reproduce-paper runs the bundled configuration only
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main(["reproduce-paper", "--config", str(tmp_path / "missing.json"), "--out", str(out)])
        assert exit_info.value.code == 2
        assert "--config" in capsys.readouterr().err
        assert not out.exists()


class TestParallelSweep:
    """Each run of the sweep is a forked child that writes its own CSV."""

    NAMES = ("baseline.csv", "ksafe_0.2.csv", "ksafe_0.5.csv", "ksafe_1.5.csv")

    def test_csvs_match_in_process_runs(self, tmp_path):
        # and so do summary.json's runs and both figures, made in-process
        # from the same trajectories by the same builders and renderers
        from safefl.cli import safety_monitor, write_trajectory_csv
        from safefl.scenario import build_bundle, default_config_path, load_config, run_case
        from safefl.svg import render_input_norms, render_trajectories

        out = tmp_path / "out"
        assert main(["reproduce-paper", "--horizon", "0.05", "--out", str(out)]) == 0
        bundle = build_bundle(load_config(default_config_path()), enforce_bounds=True)
        pairs = []
        for name, k in zip(self.NAMES, (0.0, 0.2, 0.5, 1.5)):
            serial = tmp_path / f"serial_{name}"
            traj = run_case(bundle, k, horizon=0.05)
            write_trajectory_csv(traj, serial)
            assert (out / name).read_bytes() == serial.read_bytes()
            pairs.append(safety_monitor(bundle, traj))
        runs = json.loads((out / "summary.json").read_text(encoding="utf-8"))["runs"]
        assert json.dumps(runs) == json.dumps([entry for entry, _ in pairs])
        figures = [series for _, series in pairs]
        render_trajectories(figures, bundle, tmp_path / "serial_trajectories.svg")
        render_input_norms(figures, tmp_path / "serial_input_norms.svg")
        for name in ("trajectories.svg", "input_norms.svg"):
            assert (out / name).read_bytes() == (tmp_path / f"serial_{name}").read_bytes()

    @pytest.mark.parametrize("horizon", [2.0, 10.0])
    def test_child_sends_a_bounded_summary(self, tmp_path, horizon):
        # what a child sends is its summary entry and figure series, never
        # the trajectory; the series are thinned to at most 801 points, so
        # the message does not grow with the run
        from multiprocessing.reduction import ForkingPickler

        from safefl.cli import _simulate_sweep
        from safefl.scenario import build_bundle, default_config_path, load_config
        from safefl.svg import RunSeries

        bundle = build_bundle(load_config(default_config_path()), enforce_bounds=True)
        [(entry, series)] = _simulate_sweep(bundle, (1.5,), None, horizon, tmp_path)
        assert entry["steps"] == round(horizon / 1e-3) and entry["safe"] is True
        assert isinstance(series, RunSeries)
        assert len(ForkingPickler.dumps((entry, series))) < 64 * 1024

    def test_one_cpu_gives_the_same_outputs(self, tmp_path, monkeypatch, capsys):
        out_all, out_one = tmp_path / "all", tmp_path / "one"
        assert main(["reproduce-paper", "--horizon", "0.05", "--out", str(out_all)]) == 0
        stdout_all = capsys.readouterr().out
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main(["reproduce-paper", "--horizon", "0.05", "--out", str(out_one)]) == 0
        stdout_one = capsys.readouterr().out
        assert stdout_one == stdout_all.replace(str(out_all), str(out_one))
        names = (*self.NAMES, "summary.json", "trajectories.svg", "input_norms.svg")
        assert sorted(p.name for p in out_one.iterdir()) == sorted(names)
        for name in names:
            assert (out_one / name).read_bytes() == (out_all / name).read_bytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_runs_at_once_bounded_by_cpus(self, tmp_path, monkeypatch, cpus):
        # each run stamps its interval on the system-wide monotonic clock
        import safefl.cli as cli

        run_case = cli.run_case

        def stamped(bundle, k, **kw):
            start = time.monotonic()
            traj = run_case(bundle, k, **kw)
            (tmp_path / f"span_{k}").write_text(f"{start} {time.monotonic()}")
            return traj

        monkeypatch.setattr(cli, "run_case", stamped)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        out = tmp_path / "out"
        assert main(["reproduce-paper", "--horizon", "0.05", "--out", str(out)]) == 0
        spans = [tuple(map(float, p.read_text().split())) for p in tmp_path.glob("span_*")]
        assert len(spans) == 4
        for start, _ in spans:
            assert sum(s <= start < e for s, e in spans) <= cpus


class TestNoChildLeft:
    """No forked child outlives the command, on any exit path."""

    def test_after_a_sweep(self, tmp_path):
        assert main(["reproduce-paper", "--horizon", "0.02", "--out", str(tmp_path / "out")]) == 0
        assert multiprocessing.active_children() == []

    def test_after_a_configuration_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        flags = ["--dt", "0.5", "--k-safe", "0.2", "--k-safe", "0.5", "--k-safe", "1.5"]
        assert main(["simulate", "--out", str(out), *flags]) == 3
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_after_a_run_raises(self, tmp_path, monkeypatch):
        import safefl.cli as cli

        run_case = cli.run_case

        def failing(bundle, k, **kw):
            if k == 0.0:
                raise RuntimeError("baseline run failed")
            return run_case(bundle, k, **kw)

        # the other runs are still simulating when the baseline's error arrives
        monkeypatch.setattr(cli, "run_case", failing)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="baseline run failed"):
            main(["reproduce-paper", "--horizon", "2", "--out", str(out)])
        assert multiprocessing.active_children() == []
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_after_a_child_dies_without_a_result(self, tmp_path, monkeypatch, cpus):
        import safefl.cli as cli

        run_case = cli.run_case

        def dying(bundle, k, **kw):
            if k == 0.2:
                os._exit(7)  # runs in the forked child only
            return run_case(bundle, k, **kw)

        monkeypatch.setattr(cli, "run_case", dying)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        with pytest.raises(RuntimeError, match=r"k_safe 0.2 ended without a result \(exit code 7\)"):
            main(["reproduce-paper", "--horizon", "0.02", "--out", str(tmp_path / "out")])
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# numpy imports, each in a fresh interpreter

# a certificate is built on Python floats: importing safefl, building the
# bundled certificates, reporting them and the select-params command load no
# numpy module; the records are written out, so neither dataclasses nor
# inspect is loaded to generate them
_CERTIFICATE_PATH = """
import sys
from safefl import cli, scenario
bundle = scenario.build_bundle(scenario.load_config(scenario.default_config_path()))
scenario.parameter_report(bundle)
assert cli.main(["select-params", "--out", sys.argv[1]]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""

# a sweep's forked children find numpy loaded: a finder first on
# sys.meta_path logs, with its process id, each numpy module that a process
# has to import itself
_FORKED_SWEEP = """
import os, sys
log, out = sys.argv[1:]

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            os.write(fd, f"{os.getpid()} {name}\\n".encode())
            os.close(fd)
        return None

sys.meta_path.insert(0, Watch())
from safefl import cli
assert cli.main(["reproduce-paper", "--horizon", "0.05", "--out", out]) == 0
print(os.getpid())
"""


def _fresh_python(code: str, *args: str) -> str:
    """The stdout of code run in a new interpreter, with this safefl first
    on its path."""
    import safefl

    src = str(Path(safefl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestNumpyImports:
    def test_certificate_path_imports_no_numpy(self, tmp_path):
        stdout = _fresh_python(_CERTIFICATE_PATH, str(tmp_path / "out"))
        assert stdout.splitlines()[-2:] == ["[]", "[]"]
        assert (tmp_path / "out" / "parameters.json").exists()

    def test_forked_children_import_no_numpy(self, tmp_path):
        log = tmp_path / "imports.log"
        parent = int(_fresh_python(_FORKED_SWEEP, str(log), str(tmp_path / "out")).split()[-1])
        importers = {int(line.split()[0]) for line in log.read_text().splitlines()}
        assert importers == {parent}
        assert len(list((tmp_path / "out").glob("*.csv"))) == 4


# ---------------------------------------------------------------------------
# golden summaries

# the exit code and summary.json runs of three sweeps at a 0.5 s horizon: the
# bundled one, one with only axis 1 constrained, and one whose runs abort with
# NearSingular; recorded before cli.safety_monitor became the one per-run
# reduction
SUMMARY_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "summary_golden.json")


def _axis1_only(raw):
    del raw["constraints"][0]


def _near_singular_start(raw):
    # a start next to p = 0, where q2 = pi, moving onto it
    raw["initial"]["position"] = [0.01, 0.0]
    raw["initial"]["velocity"] = [-1.0, 0.0]
    raw["k_safe"] = [0.5]


def _golden_sweep(tmp_path, name):
    """The exit code and summary.json runs of the sweep named name."""
    from safefl.scenario import default_config_path

    out = tmp_path / name
    argv = ["--horizon", "0.5", "--out", str(out)]
    if name == "reproduce_paper":
        code = main(["reproduce-paper", *argv])
    else:
        with open(default_config_path(), encoding="utf-8") as fh:
            raw = json.load(fh)
        {"axis1_only": _axis1_only, "near_singular": _near_singular_start}[name](raw)
        path = write_config(tmp_path, raw, name=f"{name}.json")
        code = main(["simulate", "--config", str(path), *argv])
    runs = json.loads((out / "summary.json").read_text(encoding="utf-8"))["runs"]
    return {"exit_code": code, "runs": runs}


def _assert_matches(got, recorded, where="runs"):
    """Keys, strings, booleans, None and integers exactly; floats to 1e-12
    relative."""
    assert type(got) is type(recorded), where
    if isinstance(recorded, dict):
        assert list(got) == list(recorded), where
        for key in recorded:
            _assert_matches(got[key], recorded[key], f"{where}.{key}")
    elif isinstance(recorded, list):
        assert len(got) == len(recorded), where
        for i, (a, b) in enumerate(zip(got, recorded)):
            _assert_matches(a, b, f"{where}[{i}]")
    elif isinstance(recorded, float):
        assert got == pytest.approx(recorded, rel=1e-12, abs=0.0), where
    else:
        assert got == recorded, where


@pytest.mark.parametrize("name", ["reproduce_paper", "axis1_only", "near_singular"])
def test_summary_matches_the_golden_record(tmp_path, capsys, name):
    with open(SUMMARY_GOLDEN, encoding="utf-8") as fh:
        recorded = json.load(fh)[name]
    _assert_matches(_golden_sweep(tmp_path, name), recorded, name)
