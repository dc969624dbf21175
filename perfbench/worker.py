"""One workload in one process: set up, measure, check, report as JSON.

    python3 perfbench/worker.py --probe
        time set-up only (import safefl, load the bundled config, build_bundle)
        and print it as JSON.
    python3 perfbench/worker.py --prepare --workload NAME --seed N --out FILE
        write the workload's references (the expected outputs) and the digest
        of its inputs to FILE.
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --refs FILE --out FILE

run.py starts this with src/ on PYTHONPATH and BLAS/OpenMP threads pinned to 1.
Only the standard library is imported before set-up is timed; everything
that imports numpy or safefl is imported inside functions, after it.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from reasons import EXCEPTION, MISMATCH


def timed_setup() -> float:
    """Seconds to import safefl (and numpy with it), load the bundled config
    and build its bundle, in a process that has imported neither."""
    start = time.perf_counter()
    from safefl import scenario

    scenario.build_bundle(scenario.load_config(scenario.default_config_path()))
    return time.perf_counter() - start


def timing(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    out = {"n": n, "p50": statistics.median(samples)}
    if n >= 20:
        q = math.floor(100 * (1 - 10 / n))
        out[f"p{q}"] = sorted(samples)[math.ceil(q * n / 100) - 1]
    else:
        out["max"] = max(samples)
    return out


def digest(inputs) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


def environment(seed: int) -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
    }


class Tally:
    """Operations, failures and exact counts over one set of passes."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()
        self.details = Counter()
        self.counts = Counter()
        self.op_s: list[float] = []
        self.busy_s = 0.0

    def add(self, units: int, failures, counts, elapsed):
        self.attempted += units
        for reason, detail in failures:
            self.failures[reason] += 1
            self.details[f"{reason}: {detail}"] += 1
        self.counts.update(counts)
        if elapsed is not None:
            self.op_s.append(elapsed / units)
            self.busy_s += elapsed


def run_pass(workload, items, tally: Tally, tracer=None) -> tuple[float, float]:
    """Run every item once, in order; returns the time spent inside
    operations and the time spent checking their outputs."""
    clock = time.perf_counter
    op = workload.run if tracer is None else tracer.wrap(workload.op_span, workload.run)
    spent = checking = 0.0
    for item in items:
        if tracer is not None:
            tracer.op += 1
        start = clock()
        try:
            output = op(item)
        except Exception as err:  # any failure of the program is a failed operation
            elapsed = clock() - start
            tally.add(workload.units(item), [(EXCEPTION, f"{type(err).__name__}: {err}")], {}, None)
        else:
            elapsed = clock() - start
            try:
                units, failures, counts = workload.check(item, output)
            except (OSError, ValueError, KeyError) as err:  # outputs missing or unreadable
                units, failures, counts = workload.units(item), [(MISMATCH, f"{type(err).__name__}: {err}")], {}
            tally.add(units, failures, counts, elapsed)
        spent += elapsed
        checking += clock() - start - elapsed
    return spent, checking


def layer_metrics(table: dict, counts: Counter, passes: int, op_span: str) -> dict:
    """Per-layer metrics from the spans and exact counts of the traced passes."""

    def get(name, key):
        return table.get(name, {}).get(key, 0)

    def mean(name, scale):
        n = get(name, "count")
        return get(name, "total_s") / n * scale if n else 0.0

    steps = counts["steps"] / passes
    out = {
        "manipulator.controller_us": mean("manipulator.controller", 1e6),
        "manipulator.controller_calls": get("manipulator.controller", "count") // passes,
        "manipulator.plant_us": mean("manipulator.plant", 1e6),
        "manipulator.plant_calls": get("manipulator.plant", "count") // passes,
        "manipulator.task_state_us": mean("manipulator.task_state", 1e6),
        "manipulator.task_state_s": get("manipulator.task_state", "total_s") / passes,
        "manipulator.task_state_calls": get("manipulator.task_state", "count") // passes,
        "sim.steps": counts["steps"] // passes,
        "sim.records": counts["records"] // passes,
        "sim.aborted_runs": counts["aborted_runs"] // passes,
        "sim.calls_per_step": get("manipulator.controller", "count") / passes / steps if steps else 0.0,
        "sim.self_us_per_step": get("sim.simulate_closed_loop", "self_s") / passes / steps * 1e6 if steps else 0.0,
        "sim.monitor_ms": get("sim.safety_monitor", "total_s") / passes * 1e3,
        "cli.csv_ms": get("cli.write_trajectory_csv", "total_s") / passes * 1e3,
        "cli.csv_bytes": counts["csv_bytes"] // passes,
        "cli.self_ms": get("cli.main", "self_s") / passes * 1e3,
        "svg.render_ms": (get("svg.render_trajectories", "total_s") + get("svg.render_input_norms", "total_s"))
        / passes * 1e3,
        "svg.bytes": counts["svg_bytes"] // passes,
        "clbf.grid_conditions_ms": mean("clbf.verify_weak_clbf", 1e3),
        "clbf.c_omega_ms": mean("clbf.check_c_omega_subset", 1e3),
        "clbf.grid_points": counts["grid_points"] // passes,
        "scenario.build_bundle_ms": mean("scenario.build_bundle", 1e3),
        "clbf.select_ms": mean("clbf.select_parameters", 1e3),
        "numerics.lyapunov_us": mean("numerics.solve_lyapunov_2x2", 1e6),
        "sontag.active_records": counts["active_records"] // passes,
    }
    op_total = get(op_span, "total_s")
    out["trace.sim_share_pct"] = 100.0 * get("scenario.run_case", "total_s") / op_total if op_total else 0.0
    return out


def measure(workload, seconds: float, tracer, work_dir: Path) -> dict:
    tally = Tally()
    result = {}
    start = time.perf_counter()
    if tracer is None:
        # whole passes over the items, so every run weighs each input alike
        passes = 0
        while not passes or time.perf_counter() - start < seconds:
            run_pass(workload, workload.items, tally)
            passes += 1
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tally.op_s:
            result["op_ms"] = timing([s * 1e3 for s in tally.op_s])
            result["op_samples_ms"] = [s * 1e3 for s in tally.op_s]
            result["work_per_s"] = tally.counts[workload.work_key] / tally.busy_s
    else:
        # Whole passes over the items, untraced and traced in turn, until the
        # time is up and each kind ran at least once.
        traced = Tally()
        plain_s, traced_s, traced_wall, traced_check = [], [], 0.0, 0.0
        while not (plain_s and traced_s) or time.perf_counter() - start < seconds:
            if len(plain_s) <= len(traced_s):
                plain_s.append(run_pass(workload, workload.items, tally)[0])
                continue
            tracer.install()
            try:
                t = time.perf_counter()
                ops_s, check_s = run_pass(workload, workload.items, traced, tracer=tracer)
                traced_wall += time.perf_counter() - t
            finally:
                tracer.restore()
            traced_s.append(ops_s)
            traced_check += check_s
        table = tracer.table()
        layers = layer_metrics(table, traced.counts, len(traced_s), workload.op_span)
        layers["trace.overhead_pct"] = 100.0 * (statistics.median(traced_s) / statistics.median(plain_s) - 1.0)
        # wall time of the traced passes, less output checks, not inside an operation span
        measured = traced_wall - traced_check
        layers["trace.gap_pct"] = 100.0 * (measured - table[workload.op_span]["total_s"]) / measured
        result.update(layers=layers, spans_table=table, traced_passes=len(traced_s), plain_passes=len(plain_s))
        tracer.write(work_dir / f"spans_{workload.name}.csv")
        tally.attempted += traced.attempted
        tally.failures.update(traced.failures)
        tally.details.update(traced.details)
        tally.counts = traced.counts
    result.update(
        attempted=tally.attempted,
        failures=dict(tally.failures),
        failure_details=[f"{detail} (x{n})" for detail, n in tally.details.most_common(10)],
        counts=dict(tally.counts),
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--workload", choices=("paper_sweep", "certify", "ensemble"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refs", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.prepare:
        from workloads import WORKLOADS

        cls = WORKLOADS[args.workload]
        inputs = cls.make_inputs(args.seed)
        prepared = {"digest": digest(inputs), "references": cls.references(inputs)}
        args.out.write_text(json.dumps(prepared) + "\n", encoding="utf-8")
        return 0
    setup_s = timed_setup()
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    from tracing import Tracer
    from workloads import WORKLOADS

    work_dir = args.out.parent
    env = environment(args.seed)
    prepared = json.loads(args.refs.read_text(encoding="utf-8"))
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()  # spans of input preparation (bundles built up front) count too
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir, prepared["references"])
    finally:
        if tracer is not None:
            tracer.restore()
    if digest(workload.inputs) != prepared["digest"]:
        raise RuntimeError(f"{args.refs} was prepared for other inputs")
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "inputs": {"digest": prepared["digest"], "sizes": workload.sizes},
        "work_key": workload.work_key,
        "setup_s": setup_s,
    }
    result.update(measure(workload, args.seconds, tracer, work_dir))
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
