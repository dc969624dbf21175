"""Command-line front end: parameter selection, verification, simulation.

`simulate` and `reproduce-paper` run each gain of the sweep in a forked child
process, at most one per usable CPU (os.sched_getaffinity). Each child makes
its run, writes its CSV and reduces the run to its summary.json entry and the
thinned series the figures plot (svg.RunSeries), and sends only that pair
back over a pipe, never the trajectory. The parent takes the pairs in sweep
order and writes summary.json and the SVGs, so its memory does not grow with
the horizon. The outputs do not depend on the CPU count. Forking makes this
POSIX only.

Exit codes: 0 success, 2 verification or feasibility failure, 3 configuration
error, 4 numerical abort (singularity or divergence during simulation).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .clbf import MAX_GRID_RESOLUTION, MIN_GRID_RESOLUTION
from .errors import ConfigError, SafeFlError
from .scenario import (
    RunConfig,
    build_bundle,
    checked_sweep,
    default_config_path,
    load_config,
    parameter_report,
    run_case,
    run_label,
    verify_bundle,
)
from .sim import Trajectory, safety_monitor
from .svg import RunSeries, render_input_norms, render_trajectories, run_series

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4

CSV_COLUMNS = (
    "t",
    "p1",
    "p2",
    "v1",
    "v2",
    "tau1",
    "tau2",
    "F1",
    "F2",
    "Fsafe1",
    "Fsafe2",
    "W1",
    "W2",
    "safe_flag",
)


# one row of the schema: 13 floats with 9 significant digits, then the flag;
# "%.9g" formats exactly like format(x, ".9g"), signed zero included
_CSV_ROW = ",".join(["%.9g"] * (len(CSV_COLUMNS) - 1) + ["%d"]) + "\n"
_CSV_BLOCK = 1024


def write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    """Emit the fixed 14-column schema with 9-significant-digit floats; a
    trajectory without records gives the header alone."""
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        if len(traj) == 0:
            return
        columns = [
            traj.t,
            traj.pos[:, 0],
            traj.pos[:, 1],
            traj.vel[:, 0],
            traj.vel[:, 1],
            traj.inputs[:, 0],
            traj.inputs[:, 1],
            traj.force[:, 0],
            traj.force[:, 1],
            traj.force_safe[:, 0],
            traj.force_safe[:, 1],
            traj.w[:, 0],
            traj.w[:, 1],
            traj.safe,
        ]
        # a block of rows at a time keeps the Python copies of the columns small
        for start in range(0, len(traj), _CSV_BLOCK):
            block = [col[start : start + _CSV_BLOCK].tolist() for col in columns]
            fh.write("".join([_CSV_ROW % rec for rec in zip(*block)]))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safefl",
        description=(
            "Construct, verify and simulate scaled-certificate safe "
            "feedback-linearization controllers for a planar two-link arm."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, sim_flags: bool = False) -> None:
        p.add_argument("--config", type=Path, default=None, help="JSON run configuration")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        if sim_flags:
            p.add_argument("--dt", type=float, default=None, help="integration step override")
            p.add_argument("--horizon", type=float, default=None, help="horizon override (s)")
            p.add_argument(
                "--k-safe",
                type=float,
                action="append",
                default=None,
                help="safety gain (repeatable); replaces the configured sweep",
            )

    common(sub.add_parser("select-params", help="choose certificate parameters and report bounds"))
    verify = sub.add_parser("verify", help="decide the certificate conditions from closed forms")
    common(verify)
    grid_help = f"counterexample search samples ({MIN_GRID_RESOLUTION} to {MAX_GRID_RESOLUTION})"
    verify.add_argument("--grid", type=int, default=400, help=grid_help)
    simulate = sub.add_parser("simulate", help="run the closed-loop scenario and emit CSV/SVG")
    common(simulate, sim_flags=True)
    reproduce = sub.add_parser(
        "reproduce-paper",
        help="simulate the bundled reference scenario with its published gain sweep",
    )
    common(reproduce, sim_flags=True)
    return parser


def _load(args, force_default: bool = False) -> RunConfig:
    path = default_config_path() if force_default or args.config is None else args.config
    return load_config(path)


def cmd_select_params(args) -> int:
    config = _load(args)
    bundle = build_bundle(config, enforce_bounds=True)
    report = parameter_report(bundle)
    args.out.mkdir(parents=True, exist_ok=True)
    out_path = args.out / "parameters.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for sub in report["subsystems"]:
        if not sub["constrained"]:
            print(f"axis {sub['axis']}: unconstrained (kp={sub['kp']}, kd={sub['kd']})")
            continue
        print(
            f"axis {sub['axis']}: d={sub['d']:.6g} gamma={sub['gamma']:.6g} "
            f"l={sub['l']:.6g} (max {sub['l_max']:.6g}) "
            f"delta={sub['delta']:.6g} (min {sub['delta_min']:.6g}) "
            f"theta={sub['theta']:.6g} (min {sub['theta_min']:.6g}) "
            f"k={sub['k']:.6g} v1={sub['v1']:.6g} v2={sub['v2']:.6g}"
        )
    print(f"parameters written to {out_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    config = _load(args)
    bundle = build_bundle(config, enforce_bounds=False)
    results = verify_bundle(bundle, grid_resolution=args.grid)
    args.out.mkdir(parents=True, exist_ok=True)
    payload = {"grid_resolution": args.grid, "subsystems": []}
    all_pass = True
    for axis, report in results:
        payload["subsystems"].append({"axis": axis, **report.to_dict()})
        all_pass &= report.passed
        for cond in report.conditions():
            status = "pass" if cond.passed else cond.verdict.upper()
            line = f"axis {axis} {cond.name}: {status} (margin {cond.margin:.6g}"
            witness = cond.witness
            if witness is not None and not cond.passed:
                line += f", witness ({witness[0]:.6g}, {witness[1]:.6g})"
            print(line + ")")
    out_path = args.out / "verification_report.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(("all conditions pass" if all_pass else "verification FAILED") + f"; report at {out_path}")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def _summarize(bundle, traj: Trajectory) -> tuple[dict, Optional[RunSeries]]:
    """The run's summary.json entry and what the figures plot of it (None
    for a run without records)."""
    k_safe = traj.meta["k_safe"]
    entry = {"label": run_label(k_safe), "k_safe": k_safe, "steps": traj.meta["steps"]}
    if traj.failed:
        entry["failure"] = traj.meta["failure"]
    if len(traj) == 0:
        entry["safe"] = False
        return entry, None
    monitor = safety_monitor(traj)
    entry.update(
        {
            "safe": monitor.first_violation_time is None and not traj.failed,
            "min_margin": monitor.min_margin,
            "first_violation_time": monitor.first_violation_time,
            "final_goal_distance": float(np.linalg.norm(traj.pos[-1] - bundle.config.goal)),
        }
    )
    series = run_series(k_safe, traj.t, traj.pos, monitor.phi_norm, monitor.force_safe_norm)
    return entry, series


def _simulate_in_child(conn, bundle, k_safe: float, dt, horizon, out: Path) -> None:
    """Body of one forked child: the run at k_safe and its CSV in out. Sends
    the pair _summarize makes of the run, a few tens of kB at any horizon, or
    in its place the exception that stopped the child, which the parent
    raises. The trajectory itself never leaves the child.

    run_case, write_trajectory_csv and safety_monitor are looked up as module
    globals, so a name replaced in the parent before the fork is the one
    called here.
    """
    try:
        traj = run_case(bundle, k_safe, dt=dt, horizon=horizon)
        out.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(traj, out / f"{run_label(traj.meta['k_safe'])}.csv")
        conn.send(_summarize(bundle, traj))
    except BaseException as err:
        conn.send(err)
    finally:
        conn.close()


def _receive(k_safe: float, proc, receiver):
    """What the child running k_safe sent, once the child has exited; a
    child that exits without sending anything gives a RuntimeError."""
    try:
        result = receiver.recv()
    except EOFError:
        proc.join()
        result = RuntimeError(
            f"the run at k_safe {k_safe} ended without a result (exit code {proc.exitcode})"
        )
    finally:
        receiver.close()
    proc.join()
    proc.close()
    return result


def _simulate_sweep(bundle, gains, dt, horizon, out: Path) -> list[tuple[dict, Optional[RunSeries]]]:
    """The summary entry and figure series of the run at each gain, in their
    order (see _summarize). Each run is made in a forked child that also
    writes its CSV; at most one child per usable CPU runs at a time.

    Once a child reports an error no further child starts. Every started
    child is joined before this returns or raises, and the first error in
    sweep order is raised only after all of them are.
    """
    # imported here: the modules that import cli but never simulate skip it
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    slots = len(os.sched_getaffinity(0))
    running = []  # (gain, process, receiving end), oldest first
    results = []
    try:
        for k in gains:
            if len(running) == slots:
                results.append(_receive(*running[0]))
                del running[0]
                if isinstance(results[-1], BaseException):
                    break
            receiver, sender = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_simulate_in_child, args=(sender, bundle, k, dt, horizon, out))
            running.append((k, proc, receiver))
            try:
                proc.start()
            finally:
                sender.close()
        while running:
            results.append(_receive(*running[0]))
            del running[0]
    finally:
        # children are left here only when the parent itself failed
        for _, proc, receiver in running:
            receiver.close()
            if proc.pid is not None:
                proc.terminate()
                proc.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


def cmd_simulate(args, force_default: bool = False) -> int:
    config = _load(args, force_default=force_default)
    sweep = checked_sweep(args.k_safe) if args.k_safe is not None else config.k_safe_sweep
    bundle = build_bundle(config, enforce_bounds=True)
    # Each run, its CSV and its summary are made in a forked child
    # (_simulate_sweep); the parent writes summary.json and the SVGs once
    # every run is back. An out-of-range --dt or --horizon makes every
    # run_case raise the same ConfigError before it simulates, so no CSV and
    # no directory is written.
    runs = _simulate_sweep(bundle, (0.0, *sweep), args.dt, args.horizon, args.out)

    args.out.mkdir(parents=True, exist_ok=True)
    summary = parameter_report(bundle)
    summary["runs"] = [entry for entry, _ in runs]
    for entry, series in runs:
        if series is None:
            print(f"{entry['label']}: aborted before the first step")
            continue
        violation = entry["first_violation_time"]
        status = (
            "aborted"
            if "failure" in entry
            else "safe"
            if violation is None
            else f"VIOLATION at t={violation:.3f}s"
        )
        print(
            f"{entry['label']}: {status}, min margin {entry['min_margin']:.4f}, "
            f"final goal distance {entry['final_goal_distance']:.2e}"
        )

    figures = [series for _, series in runs]
    render_trajectories(figures, bundle, args.out / "trajectories.svg")
    render_input_norms(figures, args.out / "input_norms.svg")
    (args.out / "summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )

    w0 = summary["initial_w"]
    line = "initial certificate values: " + ", ".join(
        f"W{i + 1}={v:.4g}" for i, v in enumerate(w0) if v is not None
    )
    if "reference_initial_w" in summary:
        ref = summary["reference_initial_w"]
        line += " (reference readouts: " + ", ".join(
            f"W{i + 1}={v:.4g}" for i, v in enumerate(ref)
        ) + "; reported for comparison, not asserted)"
    print(line)
    print(f"outputs written to {args.out}")
    aborted = any("failure" in entry for entry in summary["runs"])
    return EXIT_NUMERICAL if aborted else EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "select-params":
            return cmd_select_params(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "reproduce-paper":
            return cmd_simulate(args, force_default=True)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SafeFlError as err:
        print(f"infeasible: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
