"""Command-line front end: parameter selection, verification, simulation.

`simulate` and `reproduce-paper` run each gain of the sweep in a forked child
process, at most one per usable CPU (os.sched_getaffinity). Each child makes
its run, writes its CSV and reduces the run with safety_monitor, the one
per-run reduction, to its summary.json entry and the thinned series the
figures plot (svg.RunSeries). It sends only that pair back over a pipe,
never the trajectory. The parent takes the pairs in sweep order and writes
summary.json and the SVGs, so its memory does not grow with the horizon. The
outputs do not depend on the CPU count. Forking makes this POSIX only.

Certificates are chosen and reported on Python floats, and this module
imports numpy only in write_trajectory_csv, in safety_monitor and before a
sweep forks, so `select-params` never loads it (`verify` does, for the
verifier's sampled block). The parent of a sweep imports numpy before its
first fork: each forked child then finds it loaded, and none pays for the
import again.

Exit codes: 0 success, 2 verification or feasibility failure, 3 configuration
error or an output that cannot be written, 4 numerical abort (singularity or
divergence during simulation).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .clbf import DEFAULT_GRID_RESOLUTION
from .errors import ConfigError, SafeFlError
from .manipulator import ArmStage
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
from .sim import Trajectory
from .svg import RunSeries, render_input_norms, render_trajectories, run_series

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4

# The CSV schema: the time, the recorded blocks that have columns, and the
# flag, each as a Trajectory field with the names of its columns.
CSV_FIELDS = (
    ("t", ("t",)),
    *((name, names) for name, names in ArmStage.layout if names),
    ("safe", ("safe_flag",)),
)
CSV_COLUMNS = tuple(name for _, names in CSV_FIELDS for name in names)

# one row of the schema: its floats with 9 significant digits, then the flag,
# stacked with them as 0.0 or 1.0; "%.9g" formats exactly like
# format(x, ".9g"), signed zero included
_CSV_ROW = ",".join(["%.9g"] * (len(CSV_COLUMNS) - 1) + ["%d"]) + "\n"
_CSV_BLOCK = 1024


def write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    """Emit the CSV_FIELDS schema with 9-significant-digit floats; a
    trajectory without records gives the header alone."""
    import numpy as np

    fields = [getattr(traj, name) for name, _ in CSV_FIELDS]
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        # a block of rows at a time keeps the stacked copy and its Python rows small
        for start in range(0, len(traj), _CSV_BLOCK):
            block = np.column_stack([field[start : start + _CSV_BLOCK] for field in fields])
            fh.write("".join([_CSV_ROW % tuple(row) for row in block.tolist()]))


def _make_out_dir(path: Path) -> None:
    """Make the output directory path with its parents where missing; one
    that cannot be made is a ConfigError that names it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {path}: {err.strerror}") from err


@contextlib.contextmanager
def _writing(path: Path):
    """Yields path to the code that writes it; an OSError there is a ConfigError."""
    try:
        yield path
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror}") from err


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safefl",
        description=(
            "Construct, verify and simulate scaled-certificate safe "
            "feedback-linearization controllers for a planar two-link arm."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, about: str, run, sim_flags: bool = False, config: bool = True):
        p = sub.add_parser(name, help=about)
        p.set_defaults(run=run, config=None, k_safe=None)
        if config:
            p.add_argument("--config", type=Path, help="JSON run configuration")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        if sim_flags:
            p.add_argument("--dt", type=float, default=None, help="integration step override")
            p.add_argument("--horizon", type=float, default=None, help="horizon override (s)")
        return p

    command("select-params", "choose certificate parameters and report bounds", cmd_select_params)
    command("verify", "decide the certificate conditions from closed forms", cmd_verify)
    simulate = command(
        "simulate", "run the closed-loop scenario and emit CSV/SVG", cmd_simulate, sim_flags=True
    )
    simulate.add_argument(
        "--k-safe",
        type=float,
        action="append",
        help="safety gain (repeatable); replaces the configured sweep",
    )
    # the bundled configuration and its published sweep only: it takes
    # neither --config nor --k-safe
    command(
        "reproduce-paper",
        "simulate the bundled reference scenario with its published gain sweep",
        cmd_simulate,
        sim_flags=True,
        config=False,
    )
    return parser


def _load(args) -> RunConfig:
    return load_config(default_config_path() if args.config is None else args.config)


def cmd_select_params(args) -> int:
    config = _load(args)
    bundle = build_bundle(config, enforce_bounds=True)
    report = parameter_report(bundle)
    _make_out_dir(args.out)
    with _writing(args.out / "parameters.json") as out_path:
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
    results = verify_bundle(bundle)
    _make_out_dir(args.out)
    payload = {"grid_resolution": DEFAULT_GRID_RESOLUTION, "subsystems": []}
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
    with _writing(args.out / "verification_report.json") as out_path:
        out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(("all conditions pass" if all_pass else "verification FAILED") + f"; report at {out_path}")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def safety_monitor(bundle, traj: Trajectory) -> tuple[dict, Optional[RunSeries]]:
    """The run's summary.json entry and what the figures plot of it (None
    for a run without records): per record, the norms of the safety force
    and of the plain force, the recorded total force minus the safety force."""
    import numpy as np

    k_safe = traj.meta["k_safe"]
    entry = {"label": run_label(k_safe), "k_safe": k_safe, "steps": traj.meta["steps"]}
    if traj.failed:
        entry["failure"] = traj.meta["failure"]
    if len(traj) == 0:
        entry["safe"] = False
        return entry, None
    violated = np.flatnonzero(~traj.safe)
    first_violation = float(traj.t[violated[0]]) if violated.size else None
    entry.update(
        {
            "safe": first_violation is None and not traj.failed,
            "min_margin": float(traj.margins.min()),
            "first_violation_time": first_violation,
            "final_goal_distance": float(np.linalg.norm(traj.pos[-1] - bundle.config.goal)),
        }
    )
    # a run that diverged records huge values; their norms overflow to inf
    with np.errstate(over="ignore", invalid="ignore"):
        phi_norm = np.linalg.norm(traj.force - traj.force_safe, axis=1)
        force_safe_norm = np.linalg.norm(traj.force_safe, axis=1)
    return entry, run_series(k_safe, traj.t, traj.pos, phi_norm, force_safe_norm)


def _simulate_in_child(conn, bundle, k_safe: float, dt, horizon, out: Path) -> None:
    """Body of one forked child: the run at k_safe and its CSV in out. Sends
    the pair safety_monitor reduces the run to, a few tens of kB at any
    horizon, or in its place the exception that stopped the child, which the
    parent raises. The trajectory itself never leaves the child.

    run_case, write_trajectory_csv and safety_monitor are looked up as module
    globals, so a name replaced in the parent before the fork is the one
    called here.
    """
    try:
        traj = run_case(bundle, k_safe, dt=dt, horizon=horizon)
        with _writing(out / f"{run_label(traj.meta['k_safe'])}.csv") as path:
            write_trajectory_csv(traj, path)
        conn.send(safety_monitor(bundle, traj))
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
    order (see safety_monitor). Each run is made in a forked child that also
    writes its CSV into out, which must exist; at most one child per usable
    CPU runs at a time.

    Once a child reports an error no further child starts. Every started
    child is joined before this returns or raises, and the first error in
    sweep order is raised only after all of them are.
    """
    # imported here: the modules that import cli but never simulate skip them.
    # numpy is loaded before the first fork, so no child imports it again.
    import multiprocessing

    import numpy  # noqa: F401

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


def cmd_simulate(args) -> int:
    config = _load(args)
    sweep = checked_sweep(args.k_safe) if args.k_safe is not None else config.k_safe_sweep
    bundle = build_bundle(config, enforce_bounds=True)
    # checked here, so an out-of-range --dt or --horizon, or an --out that
    # cannot be made, starts no child; each child writes its CSV into out
    bundle.sim_config(args.dt, args.horizon)
    _make_out_dir(args.out)
    runs = _simulate_sweep(bundle, (0.0, *sweep), args.dt, args.horizon, args.out)

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
    with _writing(args.out / "trajectories.svg") as path:
        render_trajectories(figures, bundle, path)
    with _writing(args.out / "input_norms.svg") as path:
        render_input_norms(figures, path)
    with _writing(args.out / "summary.json") as path:
        path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")

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
        return args.run(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SafeFlError as err:
        print(f"infeasible: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
