"""Spans around calls into the program's layers, for the traced run only.

The tracer replaces public names where their callers look them up (a module
global, or a method on its class) with a wrapper that records a span:
name, start, end, parent span and operation id. Spans stay in memory until
the run ends. restore() puts every original back.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from safefl import cli, clbf, scenario
from safefl.manipulator import ManipulatorPlant, SafeTaskController

# (owner, attribute, span name). The same name on two owners is one layer
# reached through two import sites.
PATCHES = (
    (cli, "build_bundle", "scenario.build_bundle"),
    (scenario, "build_bundle", "scenario.build_bundle"),
    (scenario, "solve_lyapunov_2x2", "numerics.solve_lyapunov_2x2"),
    (scenario, "select_parameters", "clbf.select_parameters"),
    (cli, "run_case", "scenario.run_case"),
    (scenario, "run_case", "scenario.run_case"),
    (scenario, "simulate_closed_loop", "sim.simulate_closed_loop"),
    (SafeTaskController, "__call__", "manipulator.controller"),
    (ManipulatorPlant, "derivative", "manipulator.plant"),
    (ManipulatorPlant, "task_state", "manipulator.task_state"),
    (cli, "safety_monitor", "sim.safety_monitor"),
    (cli, "write_trajectory_csv", "cli.write_trajectory_csv"),
    (cli, "render_trajectories", "svg.render_trajectories"),
    (cli, "render_input_norms", "svg.render_input_norms"),
    (clbf, "verify_weak_clbf", "clbf.verify_weak_clbf"),
    (clbf, "check_c_omega_subset", "clbf.check_c_omega_subset"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self.op = -1
        self._saved: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.op)

        return traced

    def install(self) -> None:
        for owner, attr, name in PATCHES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def table(self) -> dict:
        """Per span name: count, total time and total self time (the span
        minus the time of its direct children), in seconds."""
        if not self.spans:
            return {}
        arr = np.array(self.spans, dtype=float)
        nid, dur, parent = arr[:, 0].astype(int), arr[:, 2] - arr[:, 1], arr[:, 3].astype(int)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name] = {
                "count": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
            }
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for nid, start, end, parent, op in self.spans:
                fh.write(f"{self.names[nid]},{start!r},{end!r},{parent},{op}\n")
