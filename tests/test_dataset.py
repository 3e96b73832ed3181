import dataclasses
import math

import numpy as np
import pytest

from evtpr import (
    IntensityFrame,
    InvalidInputError,
    WindowPlan,
    downsample_bicubic,
    plan_windows,
)
from evtpr.dataset import select_gt_frames


def enumerate_window_indices(n_in, skip):
    """Independent oracle: walk the window frame by frame, marking every
    (skip+1)-th frame as an input, until n_in inputs are collected."""
    inputs = []
    i = 1
    while len(inputs) < n_in:
        inputs.append(i)
        i += skip + 1
    return inputs, inputs[-1]


class TestPlanWindows:
    def test_four_inputs_skip_seven(self):
        plans = plan_windows(25, 4, 7)
        assert len(plans) == 1
        p = plans[0]
        assert p.window_size == 25
        assert p.input_indices == (1, 9, 17, 25)
        assert p.gt_indices == tuple(range(1, 26))

    def test_degenerate_skip(self):
        p = plan_windows(2, 2, 0)[0]
        assert p.window_size == 2
        assert p.input_indices == (1, 2)
        assert set(p.gt_indices) - set(p.input_indices) == set()

    def test_three_inputs_one_skip(self):
        p = plan_windows(5, 3, 1)[0]
        assert p.window_size == 5
        assert p.input_indices == (1, 3, 5)

    def test_sweep_against_enumeration(self):
        for n_in in range(2, 9):
            for skip in range(0, 16):
                inputs, w = enumerate_window_indices(n_in, skip)
                assert w == (n_in - 1) * (skip + 1) + 1
                p = plan_windows(w, n_in, skip)[0]
                assert p.window_size == w
                assert list(p.input_indices) == inputs
                assert p.input_indices[-1] == w

    def test_short_clip_gives_empty_plan(self):
        assert plan_windows(10, 4, 7) == []

    def test_normalized_times(self):
        p = plan_windows(25, 4, 7)[0]
        t = p.normalized_times()
        assert t[0] == 0.0 and t[-1] == 1.0
        assert t[12] == pytest.approx(0.5)

    @pytest.mark.parametrize("make,args,message", [
        (plan_windows, (10, 1, 0), "n_in must be >= 2"),
        (plan_windows, (10, 4, -1), "skip must be >= 0"),
        (WindowPlan, (1, 1, 0), "n_in must be >= 2"),
        (WindowPlan, (1, 4, -1), "skip must be >= 0"),
    ], ids=["plan-nin", "plan-skip", "window-nin", "window-skip"])
    def test_invalid_window(self, make, args, message):
        with pytest.raises(InvalidInputError, match=message):
            make(*args)

    def test_plan_stores_start_n_in_and_skip_only(self):
        p = plan_windows(50, 4, 7)[1]
        assert dataclasses.astuple(p) == (26, 4, 7)
        assert p.input_indices == (1, 9, 17, 25)
        assert p.gt_indices == tuple(range(1, 26))

    def test_select_gt_frames(self):
        p = plan_windows(25, 4, 7)[0]
        rng = np.random.default_rng(3)
        picked = select_gt_frames(p, 20, rng)
        assert len(picked) == len(set(picked)) == 20
        assert all(1 <= i <= 25 for i in picked)
        rng2 = np.random.default_rng(3)
        assert select_gt_frames(p, 20, rng2) == picked


def cubic_weight(x, a=-0.5):
    x = abs(x)
    if x <= 1:
        return (a + 2) * x ** 3 - (a + 3) * x ** 2 + 1
    if x < 2:
        return a * (x ** 3 - 5 * x ** 2 + 8 * x - 4)
    return 0.0


def brute_force_bicubic(px, s, out_h, out_w):
    """Direct 2D 4x4 kernel sum with clamped taps, normalized weights."""
    h, w = px.shape[:2]
    out = np.zeros((out_h, out_w) + px.shape[2:])
    for oy in range(out_h):
        for ox in range(out_w):
            sy = (oy + 0.5) * s - 0.5
            sx = (ox + 0.5) * s - 0.5
            by, bx = math.floor(sy), math.floor(sx)
            acc = 0.0
            wsum = 0.0
            for dy in range(-1, 3):
                for dx in range(-1, 3):
                    wgt = cubic_weight(sy - (by + dy)) * cubic_weight(sx - (bx + dx))
                    ty = min(max(by + dy, 0), h - 1)
                    tx = min(max(bx + dx, 0), w - 1)
                    acc = acc + wgt * px[ty, tx]
                    wsum += wgt
            out[oy, ox] = acc / wsum
    return out


class TestBicubic:
    def test_identity(self):
        px = np.random.default_rng(0).random((8, 8))
        frame = IntensityFrame(timestamp=0, pixels=px)
        out = downsample_bicubic(frame, 1.0)
        assert np.array_equal(out.pixels, px)

    def test_constant_preserved(self):
        frame = IntensityFrame(timestamp=0, pixels=np.full((12, 10), 0.37))
        out = downsample_bicubic(frame, 2.5)
        assert out.pixels.shape == (4, 4)
        assert np.allclose(out.pixels, 0.37, atol=1e-12)

    def test_ramp_matches_brute_force(self):
        yy, xx = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        px = (yy * 8 + xx) / 63.0
        frame = IntensityFrame(timestamp=0, pixels=px)
        out = downsample_bicubic(frame, 2.0)
        ref = np.clip(brute_force_bicubic(px, 2.0, 4, 4), 0, 1)
        assert np.allclose(out.pixels, ref, atol=1e-12)

    def test_random_rgb_matches_brute_force(self):
        px = np.random.default_rng(1).random((10, 14, 3))
        frame = IntensityFrame(timestamp=0, pixels=px)
        out = downsample_bicubic(frame, 1.7)
        ref = np.clip(brute_force_bicubic(px, 1.7, 5, 8), 0, 1)
        assert np.allclose(out.pixels, ref, atol=1e-12)

    def test_too_small_output(self):
        frame = IntensityFrame(timestamp=0, pixels=np.full((4, 4), 0.5))
        with pytest.raises(InvalidInputError):
            downsample_bicubic(frame, 8.0)

    @pytest.mark.parametrize("s", [0.5, math.nan, math.inf, -math.inf])
    def test_scale_must_be_finite_and_at_least_one(self, s):
        frame = IntensityFrame(timestamp=0, pixels=np.full((4, 4), 0.5))
        with pytest.raises(InvalidInputError, match="finite"):
            downsample_bicubic(frame, s)
