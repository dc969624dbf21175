"""Hand-rolled static SVG figures (polylines and rectangles, no dependencies).

The figures plot each run's RunSeries, the thinned series that run_series
keeps of it, not the run's trajectory. run_series takes the run's
full-length numpy arrays, which it indexes with a list of positions, so a
plain list is refused there. The renderers map and format every point on
its own in Python floats, so a RunSeries may hold any sequences of numbers,
and the module imports only the standard library and .records. A run keeps
the colour of its position in the sweep in both figures, also where an
earlier run has no records.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Optional, Sequence

from .records import Record

_PALETTE = ("#1f77b4", "#2ca02c", "#ff7f0e", "#d62728", "#9467bd", "#8c564b")

_WIDTH, _HEIGHT = 640, 480
_MARGIN = 56


class _Frame:
    """Maps data coordinates onto the SVG viewport (y axis flipped)."""

    def __init__(self, x_range: tuple[float, float], y_range: tuple[float, float]):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range

    def x(self, value: float) -> float:
        span = self.x1 - self.x0
        return _MARGIN + (value - self.x0) / span * (_WIDTH - 2 * _MARGIN)

    def y(self, value: float) -> float:
        span = self.y1 - self.y0
        return _HEIGHT - _MARGIN - (value - self.y0) / span * (_HEIGHT - 2 * _MARGIN)

    def rect(self, x_lo, x_hi, y_lo, y_hi, fill: str, opacity: float) -> str:
        x_lo, x_hi = max(x_lo, self.x0), min(x_hi, self.x1)
        y_lo, y_hi = max(y_lo, self.y0), min(y_hi, self.y1)
        if x_lo >= x_hi or y_lo >= y_hi:
            return ""
        return (
            f'<rect x="{self.x(x_lo):.2f}" y="{self.y(y_hi):.2f}" '
            f'width="{self.x(x_hi) - self.x(x_lo):.2f}" '
            f'height="{self.y(y_lo) - self.y(y_hi):.2f}" '
            f'fill="{fill}" fill-opacity="{opacity}"/>'
        )

    def polyline(self, xs, ys, color: str, width: float = 1.5, dash: str = "") -> str:
        """The polyline through the points (x, y) of xs and ys where both are
        finite; "" if there is none."""
        x, y, isfinite = self.x, self.y, math.isfinite
        points = zip(map(float, xs), map(float, ys))
        pts = " ".join(["%.2f,%.2f" % (x(a), y(b)) for a, b in points if isfinite(a) and isfinite(b)])
        if not pts:
            return ""
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        return (
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{dash_attr}/>'
        )

    def axes(self, x_label: str, y_label: str) -> list[str]:
        parts = [
            f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_WIDTH - 2 * _MARGIN}" '
            f'height="{_HEIGHT - 2 * _MARGIN}" fill="none" stroke="#444"/>'
        ]
        for frac in (0.0, 0.5, 1.0):
            xv = self.x0 + frac * (self.x1 - self.x0)
            yv = self.y0 + frac * (self.y1 - self.y0)
            parts.append(
                f'<text x="{self.x(xv):.1f}" y="{_HEIGHT - _MARGIN + 18}" '
                f'font-size="11" text-anchor="middle">{xv:.3g}</text>'
            )
            parts.append(
                f'<text x="{_MARGIN - 8}" y="{self.y(yv) + 4:.1f}" '
                f'font-size="11" text-anchor="end">{yv:.3g}</text>'
            )
        parts.append(
            f'<text x="{_WIDTH / 2}" y="{_HEIGHT - 12}" font-size="13" '
            f'text-anchor="middle">{x_label}</text>'
        )
        parts.append(
            f'<text x="16" y="{_HEIGHT / 2}" font-size="13" text-anchor="middle" '
            f'transform="rotate(-90 16 {_HEIGHT / 2})">{y_label}</text>'
        )
        return parts


def _document(body: Sequence[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    return "\n".join([head, *[p for p in body if p], "</svg>"]) + "\n"


def _thin(n: int) -> list[int]:
    """Indices of every ceil(n / 800)-th of n records and of the last: all n
    up to 800, at most 801 otherwise."""
    idx = list(range(0, n, -(-n // 800)))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return idx


def _finite_cap(values: Sequence[float]) -> float:
    """Largest finite magnitude in a series; aborted runs can record huge forces."""
    return float(max(filter(math.isfinite, values), default=1.0))


class RunSeries(Record):
    """What the figures plot of one run with records: its float k_safe, the
    thinned sequences of time t, (x, y) positions pos and force norms
    phi_norm and force_safe_norm, and norm_cap, the largest finite force
    norm over the whole run (1.0 if there is none)."""

    __slots__ = ("k_safe", "t", "pos", "phi_norm", "force_safe_norm", "norm_cap")


def run_series(k_safe: float, t, pos, phi_norm, force_safe_norm) -> RunSeries:
    """The RunSeries of a run with records, from its full-length numpy arrays."""
    idx = _thin(len(t))
    cap = max(_finite_cap(phi_norm), _finite_cap(force_safe_norm))
    return RunSeries(k_safe, t[idx], pos[idx], phi_norm[idx], force_safe_norm[idx], cap)


def _run_name(k_safe: float) -> str:
    return "baseline" if k_safe == 0.0 else f"k_safe={k_safe:g}"


def _colored(runs: Sequence[Optional[RunSeries]]) -> tuple[list[tuple[RunSeries, str]], list[str]]:
    """The runs with records, each with the colour of its position in the
    sweep (a run without records, None, draws nothing but keeps its
    colour), and the legend entries of those runs."""
    drawn = [(run, _PALETTE[i % len(_PALETTE)]) for i, run in enumerate(runs) if run is not None]
    legend = []
    for i, (run, color) in enumerate(drawn):
        y = _MARGIN + 16 + 16 * i
        legend.append(
            f'<line x1="{_WIDTH - _MARGIN - 110}" y1="{y - 4}" '
            f'x2="{_WIDTH - _MARGIN - 86}" y2="{y - 4}" stroke="{color}" stroke-width="2"/>'
        )
        legend.append(
            f'<text x="{_WIDTH - _MARGIN - 80}" y="{y}" font-size="11">{_run_name(run.k_safe)}</text>'
        )
    return drawn, legend


def render_trajectories(runs: Sequence[Optional[RunSeries]], bundle, path: Path) -> None:
    """End-effector paths over the region box, unsafe half planes shaded."""
    config = bundle.config
    box = (config.region_p1, config.region_p2)
    frame = _Frame(*box)
    # each keep-out band is the region box with the constrained axis's
    # interval cut to the bound's side of it
    body = []
    for spec in config.constraints:
        band = list(box)
        lo, hi = box[spec.axis]
        band[spec.axis] = (spec.bound, hi) if spec.side == "max" else (lo, spec.bound)
        body.append(frame.rect(*band[0], *band[1], "#d62728", 0.25))

    drawn, legend = _colored(runs)
    for run, color in drawn:
        dash = "6,4" if run.k_safe == 0.0 else ""
        xs, ys = zip(*run.pos)
        body.append(frame.polyline(xs, ys, color, 1.6, dash))

    goal = config.goal
    if drawn:
        start = drawn[0][0].pos[0]
        body.append(
            f'<circle cx="{frame.x(start[0]):.1f}" cy="{frame.y(start[1]):.1f}" r="4" fill="#111"/>'
        )
    body.append(
        f'<circle cx="{frame.x(goal[0]):.1f}" cy="{frame.y(goal[1]):.1f}" r="5" '
        f'fill="none" stroke="#111" stroke-width="2"/>'
    )
    body.extend(legend)
    body.extend(frame.axes("position 1", "position 2"))
    path.write_text(_document(body), encoding="utf-8")


def render_input_norms(runs: Sequence[Optional[RunSeries]], path: Path) -> None:
    """Plain feedback-linearization force norm and safety force norm vs time,
    for the runs with records."""
    drawn, legend = _colored(runs)
    y_max = max((run.norm_cap for run, _ in drawn), default=0.0)
    t_max = max((float(run.t[-1]) for run, _ in drawn), default=1.0)
    frame = _Frame((0.0, max(t_max, 1e-9)), (0.0, 1.05 * max(y_max, 1e-9)))

    body = []
    for run, color in drawn:
        body.append(frame.polyline(run.t, run.phi_norm, color, 1.0, dash="3,3"))
        body.append(frame.polyline(run.t, run.force_safe_norm, color, 1.8))
    body.extend(legend)
    body.extend(frame.axes("time (s)", "force norm (dashed: plain FL, solid: safety)"))
    path.write_text(_document(body), encoding="utf-8")
