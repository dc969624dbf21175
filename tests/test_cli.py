import json
import math
import multiprocessing
import os
import time

import numpy as np
import pytest

from safefl.cli import CSV_COLUMNS, main


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
        code = main(["verify", "--config", str(path), "--out", str(out), "--grid", "120"])
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
        code = main(["verify", "--config", str(path), "--out", str(tmp_path), "--grid", "120"])
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
        code = main(["verify", "--config", str(path), "--out", str(tmp_path), "--grid", "120"])
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
        from dataclasses import replace

        import safefl.cli as cli

        run_case = cli.run_case
        monkeypatch.setattr(
            cli,
            "run_case",
            lambda bundle, k, **kw: run_case(replace(bundle, q0=np.array([0.3, 0.0])), k, **kw),
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
            ("verify", _keep, ["--grid", "10"], 3),
            ("verify", _keep, ["--grid", "0"], 3),
            ("verify", _keep, ["--grid", "100000"], 3),
            ("verify", _explicit_without_l, [], 3),
            ("simulate", _drop("simulation", "dt"), [], 3),
            ("simulate", _drop("manipulator", "m1"), [], 3),
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
            "verify_grid_below_minimum",
            "verify_grid_zero",
            "verify_grid_over_cap",
            "missing_l",
            "missing_dt",
            "missing_m1",
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
