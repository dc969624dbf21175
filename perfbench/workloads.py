"""The three workloads: seeded inputs, one operation each, and its checks.

Every call into the program goes through a module attribute
(``cli.main``, ``scenario.build_bundle`` ...) so that the traced run sees it.
Each workload exposes:

- ``op_span``: the span name of one operation in the traced run;
- ``work_key``: the exact count whose rate is the workload's ``work_per_s``;
- ``make_inputs(seed)``: the generated inputs the program sees;
- ``references(inputs)``: the expected outputs, as JSON-able data. worker.py
  computes them in a process of their own, so that the measuring process
  allocates only what the program and the checks allocate;
- ``items``: the operation inputs, run in order in every pass;
- ``inputs``: ``make_inputs(seed)``, for the digest;
- ``sizes``: the stated input sizes;
- ``units(item)``: how many operations one call of ``run`` attempts;
- ``run(item)``: the timed operation;
- ``check(item, output)``: ``(units, failures, counts)`` where units is the
  number of operations the call attempted and failures lists
  ``(reason, detail)`` per failed operation.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import shutil
from pathlib import Path

import numpy as np

import oracle
from reasons import MISMATCH, VS_TRUTH, VS_TRUTH_KNOWN
from safefl import cli, scenario

REFERENCE = Path(__file__).resolve().parent / "reference" / "paper_sweep.json"


def load_bundled_config() -> dict:
    with open(scenario.default_config_path(), "r", encoding="utf-8") as fh:
        return json.load(fh)


class PaperSweep:
    """`safefl reproduce-paper` in process, as a user runs it."""

    name = "paper_sweep"
    op_span = "cli.main"
    work_key = "steps"

    @staticmethod
    def make_inputs(seed: int) -> dict:
        # The sweep is fixed by the bundled configuration; the seed selects nothing.
        return load_bundled_config()

    @staticmethod
    def references(inputs) -> dict:
        return json.loads(REFERENCE.read_text(encoding="utf-8"))

    def __init__(self, seed: int, work_dir: Path, refs: dict):
        self.out = work_dir / "sweep"
        shutil.rmtree(self.out, ignore_errors=True)
        self.items = [None]
        self.inputs = self.make_inputs(seed)
        self.reference = refs
        runs = 1 + len(self.inputs["k_safe"])
        sim = self.inputs["simulation"]
        self.sizes = {
            "runs": runs,
            "steps_per_run": round(sim["horizon"] / sim["dt"]),
            "record_stride": sim["record_stride"],
        }

    def units(self, item) -> int:
        return 1

    def run(self, item):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(["reproduce-paper", "--out", str(self.out)])

    def check(self, item, rc):
        # Outputs are removed once checked, so a file the program failed to
        # write cannot be read from an earlier pass.
        try:
            return self._check(rc)
        finally:
            shutil.rmtree(self.out, ignore_errors=True)

    def _check(self, rc):
        counts = {"steps": 0, "records": 0, "csv_bytes": 0, "svg_bytes": 0, "active_records": 0, "aborted_runs": 0}
        if rc != 0:
            return 1, [(MISMATCH, f"exit code {rc}")], counts
        problems = []
        summary = json.loads((self.out / "summary.json").read_text(encoding="utf-8"))
        runs = {entry["label"]: entry for entry in summary["runs"]}
        if sorted(runs) != sorted(self.reference["runs"]):
            return 1, [(MISMATCH, f"runs {sorted(runs)}")], counts
        for label, ref in self.reference["runs"].items():
            entry = runs[label]
            counts["steps"] += entry["steps"]
            counts["aborted_runs"] += "failure" in entry
            if (entry["safe"], entry["steps"]) != (ref["safe"], ref["steps"]):
                problems.append(f"{label}: safe={entry['safe']} steps={entry['steps']}, reference {ref['safe']} {ref['steps']}")
            path = self.out / f"{label}.csv"
            counts["csv_bytes"] += path.stat().st_size
            header, data = oracle.read_csv(path)
            counts["records"] += data.shape[0]
            fsafe = data[:, [header.index("Fsafe1"), header.index("Fsafe2")]]
            counts["active_records"] += int(np.count_nonzero(np.any(fsafe != 0.0, axis=1)))
            problems += [f"{label}: {p}" for p in oracle.csv_mismatches(ref["csv"], header, data)]
        for svg in ("trajectories.svg", "input_norms.svg"):
            counts["svg_bytes"] += (self.out / svg).stat().st_size
        return 1, ([(MISMATCH, "; ".join(problems))] if problems else []), counts


# Certify: the grid every certificate is verified at. The verdict of the
# sampled unsafe-set check depends on where grid nodes fall near x1 = d; at
# 1000 both theta = 0.945*theta_min certificates pass although they are
# invalid (grid margins 0.054 and 0.336 against true minima -0.040 and
# -0.137). At 1200 the axis-0 one happens to have a node 8e-5 from d and fails.
GRID = 1000
C_OMEGA_GRID = 200
SEEDED_ROWS = 6
# (configuration index, axis) of the two theta = 0.945*theta_min
# certificates, which the grid verifier passes although they are invalid.
# Their disagreement with the truth is the defect this workload measures and
# does not make a run incorrect. Any other disagreement does, and so does one
# of these two failing another check. A sound verifier stops failing them.
KNOWN_FALSE_PASSES = {(1, 0), (1, 1)}


def _explicit(base: dict, certs, params) -> dict:
    cfg = copy.deepcopy(base)
    cfg["clbf"] = {
        "mode": "explicit",
        "v2": [c.v2 for c in certs],
        "params": [{"l": l, "delta": delta, "theta": theta} for l, delta, theta in params],
    }
    return cfg


def certify_configs(seed: int) -> list[dict]:
    """The shipped pair, the two theta = 0.945*theta_min certificates, and
    seeded explicit rows around the bounds.

    A seeded axis is one of: valid (delta and theta above their bounds),
    theta below its bound (0.4-0.7 of it), or delta below its bound (0.85-0.97
    of it, which makes every theta invalid). Below-bound draws stay clear of
    the band just under theta_min where the grid verifier passes invalid
    certificates; that band is what the fixed 0.945 pair measures, so the
    count of false passes is the same on every seed. Every margin set
    {V <= v2, x1 >= d + delta} holds grid samples (at least 50 on seeds
    0-999), so the verifier never raises EmptyCOmega on these inputs.
    """
    base = load_bundled_config()
    shipped = oracle.axis_certs(base)
    configs = [base]
    configs.append(
        _explicit(
            base,
            shipped,
            [(c.l, c.delta, 0.945 * oracle.theta_min(c.l, c.delta, c.v1, c.v2)) for c in shipped],
        )
    )
    rng = random.Random(seed)
    for _ in range(SEEDED_ROWS):
        params = []
        for c in shipped:
            d_min = oracle.delta_min(c.l, c.v1, c.v2)
            kind = rng.choice(("valid", "theta_below", "delta_below"))
            if kind == "delta_below":
                delta = rng.uniform(0.85, 0.97) * d_min
                theta = rng.uniform(1.05, 2.5) * oracle.theta_min(c.l, 1.05 * d_min, c.v1, c.v2)
            else:
                delta = rng.uniform(1.1, 1.6) * d_min
                span = (1.05, 2.5) if kind == "valid" else (0.4, 0.7)
                theta = rng.uniform(*span) * oracle.theta_min(c.l, delta, c.v1, c.v2)
            params.append((c.l, delta, theta))
        configs.append(_explicit(base, shipped, params))
    return configs


class Certify:
    """Full verification of a seeded set of certificates at one fine grid."""

    name = "certify"
    op_span = "scenario.verify_bundle"
    work_key = "grid_points"

    make_inputs = staticmethod(certify_configs)

    @staticmethod
    def references(inputs) -> list[dict]:
        """Per configuration and axis: the true minimum of W on the unsafe
        set and the other four verdicts by the verifier's grid rules."""
        return [
            {
                str(c.axis): {"unsafe_minimum": c.unsafe_minimum(), **oracle.grid_verdicts(c, GRID, C_OMEGA_GRID)}
                for c in oracle.axis_certs(cfg)
            }
            for cfg in inputs
        ]

    def __init__(self, seed: int, work_dir: Path, refs: list[dict]):
        self.inputs = self.make_inputs(seed)
        # The program judges certificates as configured, as `safefl verify` does.
        self.items = [
            (index, scenario.build_bundle(scenario.RunConfig.from_dict(cfg), enforce_bounds=False), ref)
            for index, (cfg, ref) in enumerate(zip(self.inputs, refs))
        ]
        self.sizes = {"grid": GRID, "c_omega_grid": C_OMEGA_GRID, "certificates": 2 * len(self.items)}

    def units(self, item) -> int:
        return len(item[2])

    def run(self, item):
        return scenario.verify_bundle(item[1], grid_resolution=GRID, c_omega_resolution=C_OMEGA_GRID)

    def check(self, item, results):
        index, _, refs = item
        failures = []
        grid_points = 0
        for axis, report in results:
            ref = refs[str(axis)]
            grid_points += report.grid_resolution ** 2 + C_OMEGA_GRID ** 2
            got = {c.name: c.passed for c in report.conditions()[1:]}
            got["margin_set_contained"] = report.c_omega.passed
            wrong = [name for name, passed in got.items() if passed != ref[name]]
            problems = [f"verdicts differ from the reference: {wrong}"] if wrong else []
            vs_truth = report.positive_on_unsafe.passed != (ref["unsafe_minimum"] > 0.0)
            if vs_truth:
                problems.append(
                    f"positive_on_unsafe passed={report.positive_on_unsafe.passed}, grid margin "
                    f"{report.positive_on_unsafe.margin:.4g}, true minimum {ref['unsafe_minimum']:.4g}"
                )
            if wrong:
                reason = MISMATCH
            elif vs_truth:
                reason = VS_TRUTH_KNOWN if (index, axis) in KNOWN_FALSE_PASSES else VS_TRUTH
            else:
                continue
            failures.append((reason, f"config {index} axis {axis}: " + "; ".join(problems)))
        units = len(refs)
        if len(results) != units:
            failures.append((MISMATCH, f"{len(results)} reports for {units} certificates"))
        return units, failures, {"grid_points": grid_points}


# Ensemble: seeded starts of the bundled arm, each with its own certificates.
N_STARTS = 24
HORIZON = 2.0
RECORD_STRIDE = 50


def ensemble_configs(seed: int) -> list[dict]:
    base = load_bundled_config()
    rng = random.Random(seed)
    out = []
    for _ in range(N_STARTS):
        cfg = copy.deepcopy(base)
        cfg["initial"]["position"] = [rng.uniform(0.6, 1.25), rng.uniform(-0.2, 0.9)]
        cfg["initial"]["velocity"] = [rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)]
        cfg["simulation"].update(horizon=HORIZON, record_stride=RECORD_STRIDE)
        cfg["k_safe"] = [rng.choice((0.2, 0.5, 1.5))]
        out.append(cfg)
    return out


class Ensemble:
    """Many short closed-loop runs from seeded starts, nothing written."""

    name = "ensemble"
    op_span = "bench.start"
    work_key = "steps"

    make_inputs = staticmethod(ensemble_configs)

    @staticmethod
    def references(inputs) -> list[dict]:
        return oracle.closed_loop_outcomes(inputs, [c["k_safe"][0] for c in inputs])

    def __init__(self, seed: int, work_dir: Path, refs: list[dict]):
        self.inputs = self.make_inputs(seed)
        self.items = [
            (scenario.RunConfig.from_dict(cfg), cfg["k_safe"][0], ref)
            for cfg, ref in zip(self.inputs, refs)
        ]
        self.sizes = {"starts": N_STARTS, "horizon_s": HORIZON, "record_stride": RECORD_STRIDE,
                      "steps_per_start": round(HORIZON / self.inputs[0]["simulation"]["dt"])}

    def units(self, item) -> int:
        return 1

    def run(self, item):
        bundle = scenario.build_bundle(item[0])
        return scenario.run_case(bundle, item[1])

    def check(self, item, traj):
        ref = item[2]
        dt = traj.meta["dt"]
        if traj.failed:
            outcome, steps = "aborted", round(traj.meta["failure"]["time"] / dt)
        else:
            outcome, steps = ("safe" if np.all(traj.margins > 0.0) else "violation"), round(traj.t[-1] / dt)
        counts = {
            "steps": steps,
            "records": len(traj),
            "active_records": int(np.count_nonzero(np.any(traj.force_safe != 0.0, axis=1))) if len(traj) else 0,
            "aborted_runs": int(traj.failed),
        }
        problems = []
        min_margin = float(traj.margins.min()) if len(traj) else float("inf")
        near_zero = abs(ref["min_margin"]) <= oracle.ATOL
        if outcome != ref["outcome"] and not (near_zero and "aborted" not in (outcome, ref["outcome"])):
            problems.append(f"outcome {outcome}, reference {ref['outcome']}")
        if len(traj) and not oracle.close(min_margin, ref["min_margin"]):
            problems.append(f"min margin {min_margin!r}, reference {ref['min_margin']!r}")
        if len(traj) and not oracle.close(traj.states[-1], ref["final_state"]):
            problems.append("final state differs from the reference")
        return 1, ([(MISMATCH, "; ".join(problems))] if problems else []), counts


WORKLOADS = {cls.name: cls for cls in (PaperSweep, Certify, Ensemble)}
