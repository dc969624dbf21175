import re
from types import SimpleNamespace

import numpy as np
import pytest

from reference import svg_polyline
from safefl.cli import safety_monitor
from safefl.scenario import ConstraintSpec, run_case
from safefl.svg import (
    _HEIGHT,
    _MARGIN,
    _WIDTH,
    RunSeries,
    _Frame,
    _thin,
    render_input_norms,
    render_trajectories,
)
from tests.conftest import replace

# a frame off the origin, as the position figure's, and one at it, as the
# time axis of the force-norm figure
FRAMES = [_Frame((-0.2, 1.5), (-1.0, 1.2)), _Frame((0.0, 10.0), (0.0, 3.7))]


def _with_special_values(rng, n):
    values = rng.normal(scale=3.0, size=n)
    picks = rng.choice(n, size=n // 4, replace=False)
    values[picks] = rng.choice([np.nan, np.inf, -np.inf, -0.0, 0.0], size=picks.size)
    return values


@pytest.mark.parametrize(
    "n, count", [(1, 1), (799, 799), (800, 800), (801, 401), (1599, 800), (2001, 668), (10001, 771)]
)
def test_thin_keeps_at_most_target_plus_one(n, count):
    idx = _thin(n)
    assert len(idx) == count <= 801
    assert idx[0] == 0 and idx[-1] == n - 1


class TestPolyline:
    """_Frame.polyline against the per-point formula written apart from it,
    on arrays with NaN, infinities and signed zeros."""

    @pytest.mark.parametrize("frame", FRAMES)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_series_with_special_values(self, frame, seed):
        rng = np.random.default_rng(seed)
        xs, ys = _with_special_values(rng, 500), _with_special_values(rng, 500)
        line = frame.polyline(xs, ys, "#1f77b4", 1.0, dash="3,3")
        assert line.startswith("<polyline points=")
        assert line == svg_polyline(frame, xs, ys, "#1f77b4", 1.0, dash="3,3")

    @pytest.mark.parametrize("frame", FRAMES)
    def test_points_on_rounding_ties(self, frame):
        # pixels within a few ulps of a multiple of 0.125, where the last bit
        # of the mapping decides the second decimal, so an operation done in
        # another order shows in the output
        ticks = np.arange(0.0, _HEIGHT - 2 * _MARGIN, 0.125)
        xs = frame.x0 + ticks / (_WIDTH - 2 * _MARGIN) * (frame.x1 - frame.x0)
        ys = frame.y0 + ticks[::-1] / (_HEIGHT - 2 * _MARGIN) * (frame.y1 - frame.y0)
        assert frame.polyline(xs, ys, "#111") == svg_polyline(frame, xs, ys, "#111")

    @pytest.mark.parametrize("frame", FRAMES)
    def test_all_non_finite_gives_nothing(self, frame):
        xs = np.array([np.nan, np.inf, 0.5, -np.inf])
        ys = np.array([0.1, 0.2, np.nan, 0.3])
        assert frame.polyline(xs, ys, "#111") == "" == svg_polyline(frame, xs, ys, "#111")

    def test_series_of_a_bundled_run(self, default_bundle):
        _, run = safety_monitor(default_bundle, run_case(default_bundle, 1.5, horizon=2.0))
        config = default_bundle.config
        frame = _Frame(config.region_p1, config.region_p2)
        xs, ys = run.pos[:, 0], run.pos[:, 1]
        assert frame.polyline(xs, ys, "#2ca02c", 1.6) == svg_polyline(frame, xs, ys, "#2ca02c", 1.6)
        frame = _Frame((0.0, float(run.t[-1])), (0.0, 1.05 * run.norm_cap))
        for norm in (run.phi_norm, run.force_safe_norm):
            assert frame.polyline(run.t, norm, "#ff7f0e") == svg_polyline(frame, run.t, norm, "#ff7f0e")


@pytest.fixture(scope="module")
def sweep_series(default_bundle):
    """The figure series of a baseline and a safe run, with a run without
    records between them, as safety_monitor makes them: numpy arrays."""
    series = [safety_monitor(default_bundle, run_case(default_bundle, k, horizon=1.0))[1] for k in (0.0, 1.5)]
    return [series[0], None, series[1]]


def test_renderers_draw_plain_lists_without_numpy(tmp_path, default_bundle, sweep_series, no_numpy):
    as_lists = [
        None if run is None else RunSeries(
            run.k_safe, run.t.tolist(), run.pos.tolist(), run.phi_norm.tolist(),
            run.force_safe_norm.tolist(), run.norm_cap,
        )
        for run in sweep_series
    ]
    for name, runs in (("lists", as_lists), ("arrays", sweep_series)):
        render_trajectories(runs, default_bundle, tmp_path / f"{name}_trajectories.svg")
        render_input_norms(runs, tmp_path / f"{name}_norms.svg")
    for figure in ("trajectories", "norms"):
        drawn = (tmp_path / f"lists_{figure}.svg").read_bytes()
        assert drawn.count(b"<polyline") == (2 if figure == "trajectories" else 4)
        assert drawn == (tmp_path / f"arrays_{figure}.svg").read_bytes()


def _legend_colors(svg: str) -> dict:
    """Each legend label of a figure with the colour of its line."""
    entries = re.findall(r'<line [^>]* stroke="(#\w+)" stroke-width="2"/>\n<text [^>]*>([^<]*)</text>', svg)
    return {label: color for color, label in entries}


def test_a_run_has_one_colour_in_both_figures(tmp_path, default_bundle, sweep_series):
    # the colour of a run's position in the sweep, also after a run without
    # records
    render_trajectories(sweep_series, default_bundle, tmp_path / "trajectories.svg")
    render_input_norms(sweep_series, tmp_path / "input_norms.svg")
    paths, norms = (
        _legend_colors((tmp_path / name).read_text(encoding="utf-8"))
        for name in ("trajectories.svg", "input_norms.svg")
    )
    assert paths == norms == {"baseline": "#1f77b4", "k_safe=1.5": "#ff7f0e"}


_SIDES = ["min", "max", None]


@pytest.mark.parametrize("side1", _SIDES)
@pytest.mark.parametrize("side0", _SIDES)
def test_keep_out_bands_cover_the_bound_side_of_the_region(tmp_path, default_config, side0, side1):
    bounds = (1.1, 0.4)  # inside the bundled region [-0.2, 1.5] x [-1.0, 1.2]
    constraints = tuple(
        ConstraintSpec(axis, side, bounds[axis]) for axis, side in enumerate((side0, side1)) if side
    )
    config = replace(default_config, constraints=constraints)
    render_trajectories([], SimpleNamespace(config=config), tmp_path / "bands.svg")
    drawn = (tmp_path / "bands.svg").read_text(encoding="utf-8")
    rects = re.findall(
        r'<rect x="(\S+)" y="(\S+)" width="(\S+)" height="(\S+)" fill="#d62728"', drawn
    )
    assert len(rects) == len(constraints)

    (x0, x1), (y0, y1) = config.region_p1, config.region_p2
    for spec, rect in zip(constraints, rects):
        box = [[x0, x1], [y0, y1]]
        box[spec.axis][0 if spec.side == "max" else 1] = spec.bound
        (left, right), (bottom, top) = box
        x, y, width, height = map(float, rect)
        # pixel corners (left, top) and (right, bottom), the y axis flipped;
        # each printed value is rounded to 0.005
        expected = (
            _MARGIN + (left - x0) / (x1 - x0) * (_WIDTH - 2 * _MARGIN),
            _HEIGHT - _MARGIN - (top - y0) / (y1 - y0) * (_HEIGHT - 2 * _MARGIN),
            _MARGIN + (right - x0) / (x1 - x0) * (_WIDTH - 2 * _MARGIN),
            _HEIGHT - _MARGIN - (bottom - y0) / (y1 - y0) * (_HEIGHT - 2 * _MARGIN),
        )
        assert (x, y, x + width, y + height) == pytest.approx(expected, abs=0.0101)
