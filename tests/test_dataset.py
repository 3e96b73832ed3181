import math

import numpy as np
import pytest

from evtpr import (
    IntensityFrame,
    InvalidInputError,
    downsample_bicubic,
    normalize_times,
    plan_crop,
    plan_windows,
    sample_scale,
)
from evtpr.dataset import format_manifest, parse_manifest, select_gt_frames


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

    def test_stride(self):
        plans = plan_windows(30, 2, 1, stride=2)
        assert [p.start for p in plans] == list(range(1, 29, 2))

    def test_normalized_times(self):
        p = plan_windows(25, 4, 7)[0]
        t = p.normalized_times()
        assert t[0] == 0.0 and t[-1] == 1.0
        assert t[12] == pytest.approx(0.5)

    def test_manifest_round_trip(self):
        plans = plan_windows(60, 3, 2, stride=10)
        text = format_manifest(plans)
        assert parse_manifest(text) == plans
        first = text.splitlines()[0]
        assert first.startswith("1 7 3 2 inputs=1,4,7 ")

    @pytest.mark.parametrize("line", ["1 2 3 x inputs=1 gts=1",
                                      "1 2 3 4 inputs=1,a gts=1",
                                      "1 2 3 4 inputs=1 gts="])
    def test_manifest_non_integer_field(self, line):
        text = "1 7 3 2 inputs=1,4,7 gts=1,2,3,4,5,6,7\n" + line + "\n"
        with pytest.raises(InvalidInputError, match=line):
            parse_manifest(text)

    @pytest.mark.parametrize("line", ["1 99 4 1 inputs=5,6 gts=1,2",
                                      "1 7 4 1 inputs=1,3,5,6 gts=1,2,3,4,5,6,7",
                                      "1 7 4 1 inputs=1,3,5,7 gts=1,2",
                                      "1 3000000000001 4 999999999999 inputs=1 gts=1"])
    def test_manifest_line_must_match_its_plan(self, line):
        with pytest.raises(InvalidInputError, match="contradicts its N_in and S"):
            parse_manifest(line + "\n")

    def test_select_gt_frames(self):
        p = plan_windows(25, 4, 7)[0]
        rng = np.random.default_rng(3)
        picked = select_gt_frames(p, 20, rng)
        assert len(picked) == len(set(picked)) == 20
        assert all(1 <= i <= 25 for i in picked)
        rng2 = np.random.default_rng(3)
        assert select_gt_frames(p, 20, rng2) == picked


class TestSampleScale:
    def test_deterministic_for_seed(self):
        a = sample_scale(np.random.default_rng(0))
        b = sample_scale(np.random.default_rng(0))
        assert a == b
        assert 1.0 <= a <= 8.0

    def test_support_and_mean(self):
        rng = np.random.default_rng(42)
        samples = np.array([sample_scale(rng) for _ in range(100_000)])
        assert samples.min() >= 1.0 and samples.max() <= 8.0
        assert abs(samples.mean() - 4.5) < 0.05


class TestPlanCrop:
    def test_identity_scale(self):
        plan = plan_crop(600, 600, 1.0, np.random.default_rng(0))
        assert plan.hr_rect[2:] == (512, 512)
        assert plan.lr_rect[2:] == (512, 512)
        assert plan.hr_rect == plan.lr_rect

    def test_scale_four(self):
        plan = plan_crop(600, 600, 4.0, np.random.default_rng(0))
        assert plan.lr_rect[2:] == (128, 128)
        assert plan.hr_rect[2:] == (512, 512)

    def test_fractional_scale(self):
        # floor(512/3.7) = 138, floor(138*3.7) = 510
        plan = plan_crop(600, 600, 3.7, np.random.default_rng(0))
        assert plan.lr_rect[2:] == (138, 138)
        assert plan.hr_rect[2:] == (510, 510)

    def test_rect_within_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            s = sample_scale(rng)
            plan = plan_crop(700, 900, s, rng)
            top, left, hh, ww = plan.hr_rect
            assert 0 <= top and top + hh <= 700
            assert 0 <= left and left + ww <= 900
            # hr/lr side ratio within one pixel of s
            assert abs(hh - plan.lr_rect[2] * s) <= s

    def test_frame_too_small(self):
        with pytest.raises(InvalidInputError):
            plan_crop(100, 100, 1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("s", [0.5, math.nan, math.inf, -math.inf])
    def test_scale_must_be_finite_and_at_least_one(self, s):
        with pytest.raises(InvalidInputError, match="finite"):
            plan_crop(600, 600, s, np.random.default_rng(0))


class TestNormalizeTimes:
    def test_endpoints(self):
        p = plan_windows(5, 3, 1)[0]
        t = normalize_times(p, [100, 200, 300, 400, 500])
        assert t[0] == 0.0 and t[-1] == 1.0

    def test_uniform_midpoint(self):
        p = plan_windows(25, 4, 7)[0]
        stamps = [1000 + 40 * i for i in range(25)]
        t = normalize_times(p, stamps)
        assert t[12] == pytest.approx(0.5)

    def test_non_uniform_affine(self):
        p = plan_windows(4, 2, 2)[0]
        stamps = [0, 10, 70, 100]
        t = normalize_times(p, stamps)
        expected = [(s - stamps[0]) / (stamps[-1] - stamps[0]) for s in stamps]
        assert np.allclose(t, expected)
        assert np.all(np.diff(t) > 0)

    def test_bad_timestamps(self):
        p = plan_windows(4, 2, 2)[0]
        with pytest.raises(InvalidInputError):
            normalize_times(p, [0, 10, 10, 100])
        with pytest.raises(InvalidInputError):
            normalize_times(p, [0, 10, 100])


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
