import numpy as np
import pytest

from reference import svg_polyline
from safefl.cli import safety_monitor
from safefl.scenario import run_case
from safefl.svg import _HEIGHT, _MARGIN, _WIDTH, _Frame, _thin

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
    """_Frame.polyline maps whole arrays; the per-point formula is the reference."""

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
