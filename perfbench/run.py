"""Run one benchmark workload (or all three) and print its metrics.

    python3 perfbench/run.py --workload paper_sweep|certify|ensemble|all \
        --seed N --seconds S --trace 0|1

Run from the repository root. Each workload runs in its own process with
BLAS/OpenMP threads pinned to 1. A process before it computes the expected
outputs, and fresh processes before and after it time set-up alone. The
last line of standard output is the JSON result; with --trace 0 it carries
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones. The full result goes to .bench_work/result_<workload>_trace<k>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reasons import NOT_CORRECT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("paper_sweep", "certify", "ensemble")
SETUP_PROBES = 10  # before the workload process, and as many after it
TIMEOUT_S = 170.0

# How each workload's operation and work rate read in the issue's terms.
DISPLAY = {
    "paper_sweep": (("sweep_s", "s", 1e-3), "sim_steps_per_s"),
    "certify": (("verify_ms", "ms", 1.0), "grid_points_per_s"),
    "ensemble": (("start_ms", "ms", 1.0), "sim_steps_per_s"),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
        check=True,
    )


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict, deadline: float) -> dict:
    WORK.mkdir(exist_ok=True)
    out = WORK / f"result_{name}_trace{trace}.json"
    refs = WORK / f"refs_{name}.json"
    # also compiles the bytecode, so that no probe pays for it
    run_child(["--prepare", "--workload", name, "--seed", str(seed), "--out", str(refs)], deadline)

    def probes() -> list[float]:
        return [json.loads(run_child(["--probe"], deadline).stdout)["setup_s"] for _ in range(SETUP_PROBES)]

    setup = probes()
    run_child(
        ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--refs", str(refs), "--out", str(out)],
        deadline,
    )
    setup += probes()
    res = json.loads(out.read_text(encoding="utf-8"))
    if not trace and "op_ms" not in res:
        raise RuntimeError(f"{name}: no operation succeeded: {res['failure_details']}")
    setup.append(res["setup_s"])
    res["setup_samples_s"] = setup
    failed = sum(res["failures"].values())
    res["summary"] = {
        "correct": not any(res["failures"].get(r) for r in NOT_CORRECT),
        "attempted": res["attempted"],
        "failed": failed,
    }
    if trace:
        metrics = {m["name"]: {"value": res["layers"][m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "op_p50_ms": res["op_ms"]["p50"],
            "work_per_s": res["work_per_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    res["summary"]["metrics"] = metrics
    out.write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
    return res


def report(name: str, res: dict) -> None:
    env, inputs, summary = res["environment"], res["inputs"], res["summary"]
    print(f"== {name}  seed={env['seed']}  seconds={res['seconds']}  trace={res['trace']}")
    print(f"   inputs digest={inputs['digest'][:16]}  sizes={json.dumps(inputs['sizes'])}")
    print(
        f"   python {env['python']}  numpy {env['numpy']}  cpu {env['cpu']!r}  nproc {env['nproc']}"
        f"  load {' '.join(f'{x:.2f}' for x in env['loadavg_at_start'])}"
    )
    (op_name, op_unit, scale), work_name = DISPLAY[name]
    if res["trace"]:
        for metric, value in summary["metrics"].items():
            note = "  (ROADMAP estimate ~94% on paper_sweep)" if metric == "trace.sim_share_pct" else ""
            print(f"   {metric:30s} {value['value']:>14.6g} {value['unit']}{note}")
        print(f"   passes: {res['traced_passes']} traced, {res['plain_passes']} untraced")
    else:
        m = summary["metrics"]
        op = res["op_ms"]
        tail = ", ".join(f"{k} {v * scale:.6g}" for k, v in op.items() if k not in ("n", "p50"))
        print(f"   {'setup_s':20s} {m['setup_s']['value']:>12.6g} s    median of {len(res['setup_samples_s'])} fresh processes")
        print(f"   {op_name:20s} {op['p50'] * scale:>12.6g} {op_unit:4s} p50; {tail}; n={op['n']}  [op_p50_ms]")
        print(f"   {work_name:20s} {m['work_per_s']['value']:>12.6g} 1/s  [work_per_s]")
        print(f"   {'peak_rss_mb':20s} {m['peak_rss_mb']['value']:>12.6g} MB")
    share = summary["failed"] / summary["attempted"] if summary["attempted"] else 0.0
    reasons = ", ".join(f"{k} {v}" for k, v in sorted(res["failures"].items())) or "none"
    print(f"   ops_attempted {summary['attempted']}  ops_failed {summary['failed']}  failed_share {share:.4g}  ({reasons})")
    for detail in res["failure_details"]:
        print(f"     {detail}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "safefl" / "__init__.py").is_file():
        print(f"perfbench: no safefl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + TIMEOUT_S
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, spec, deadline)
            report(name, results[name])
    except subprocess.CalledProcessError as err:
        print(f"perfbench: worker failed with exit code {err.returncode}\n{err.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload did not finish within {TIMEOUT_S:.0f} s", file=sys.stderr)
        return 1
    except RuntimeError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({name: res["summary"] for name, res in results.items()}))
    else:
        print(json.dumps(results[args.workload]["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
