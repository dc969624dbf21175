"""Hand-rolled static SVG figures (polylines and rectangles, no dependencies).

The figures plot each run's RunSeries, the thinned series that run_series
keeps of it, not the run's trajectory. Every point is mapped and formatted
on its own in Python floats, so a series may be any sequence of numbers,
arrays included, and the module needs only the standard library.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

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


class RunSeries(NamedTuple):
    """What the figures plot of one run with records: the thinned time,
    (x, y) positions and force norms, and norm_cap, the largest finite force
    norm over the whole run (1.0 if there is none)."""

    k_safe: float
    t: Sequence[float]
    pos: Sequence[Sequence[float]]
    phi_norm: Sequence[float]
    force_safe_norm: Sequence[float]
    norm_cap: float


def run_series(k_safe: float, t, pos, phi_norm, force_safe_norm) -> RunSeries:
    """The RunSeries of a run with records, from its full-length columns."""
    idx = _thin(len(t))
    cap = max(_finite_cap(phi_norm), _finite_cap(force_safe_norm))
    return RunSeries(k_safe, t[idx], pos[idx], phi_norm[idx], force_safe_norm[idx], cap)


def _run_name(k_safe: float) -> str:
    return "baseline" if k_safe == 0.0 else f"k_safe={k_safe:g}"


def _legend(labels: list[str], colors: list[str]) -> list[str]:
    parts = []
    for i, (label, color) in enumerate(zip(labels, colors)):
        y = _MARGIN + 16 + 16 * i
        parts.append(
            f'<line x1="{_WIDTH - _MARGIN - 110}" y1="{y - 4}" '
            f'x2="{_WIDTH - _MARGIN - 86}" y2="{y - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN - 80}" y="{y}" font-size="11">{label}</text>'
        )
    return parts


def render_trajectories(runs: Sequence[Optional[RunSeries]], bundle, path: Path) -> None:
    """End-effector paths over the region box, unsafe half planes shaded.
    A run without records (None) plots nothing but keeps its colour."""
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

    labels, colors = [], []
    start = None
    for i, run in enumerate(runs):
        color = _PALETTE[i % len(_PALETTE)]
        if run is None:
            continue
        if start is None:
            start = run.pos[0]
        dash = "6,4" if run.k_safe == 0.0 else ""
        xs, ys = zip(*run.pos)
        body.append(frame.polyline(xs, ys, color, 1.6, dash))
        labels.append(_run_name(run.k_safe))
        colors.append(color)

    goal = config.goal
    if start is not None:
        body.append(
            f'<circle cx="{frame.x(start[0]):.1f}" cy="{frame.y(start[1]):.1f}" r="4" fill="#111"/>'
        )
    body.append(
        f'<circle cx="{frame.x(goal[0]):.1f}" cy="{frame.y(goal[1]):.1f}" r="5" '
        f'fill="none" stroke="#111" stroke-width="2"/>'
    )
    body.extend(_legend(labels, colors))
    body.extend(frame.axes("position 1", "position 2"))
    path.write_text(_document(body), encoding="utf-8")


def render_input_norms(runs: Sequence[Optional[RunSeries]], path: Path) -> None:
    """Plain feedback-linearization force norm and safety force norm vs time,
    for the runs with records, coloured in their order."""
    series = [run for run in runs if run is not None]
    y_max = max((run.norm_cap for run in series), default=0.0)
    t_max = max((float(run.t[-1]) for run in series), default=1.0)
    frame = _Frame((0.0, max(t_max, 1e-9)), (0.0, 1.05 * max(y_max, 1e-9)))

    body = []
    labels, colors = [], []
    for i, run in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        body.append(frame.polyline(run.t, run.phi_norm, color, 1.0, dash="3,3"))
        body.append(frame.polyline(run.t, run.force_safe_norm, color, 1.8))
        labels.append(_run_name(run.k_safe))
        colors.append(color)
    body.extend(_legend(labels, colors))
    body.extend(frame.axes("time (s)", "force norm (dashed: plain FL, solid: safety)"))
    path.write_text(_document(body), encoding="utf-8")
