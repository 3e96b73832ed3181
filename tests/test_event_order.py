"""The packed-key event order of `simulate_events` and the per-stream pixel index.

Simulated streams are compared byte for byte with the loop-and-tuple-sort
simulator in reference.py; voxel grids and pyramids that read the pixel
index are compared exactly with the reference's full-stream masks.
"""

import numpy as np
import pytest

from evtpr import EventStream, IntensityFrame
from evtpr.errors import InvalidInputError
from evtpr.events import polarity_integral, simulate_events
from evtpr.representations import build_tpr, build_voxel_grid

import reference
from test_event_reference import assert_same_stream, same


def noisy_clip(h, w, t_first, n_frames=5, dt=997, seed=3):
    """Random luma frames from t_first on: many multi-level crossings."""
    rng = np.random.default_rng(seed)
    px = rng.uniform(0.05, 0.95, (h, w))
    frames = []
    for i in range(n_frames):
        frames.append(IntensityFrame(timestamp=t_first + i * dt, pixels=px.copy()))
        px = np.clip(px + rng.normal(0.0, 0.25, (h, w)), 0.0, 1.0)
    return frames


class TestSimulateOrder:
    @pytest.mark.parametrize("h,w", [(3, 11), (11, 3), (1, 7)])
    def test_non_square_sensor(self, h, w):
        frames = noisy_clip(h, w, 0)
        got = simulate_events(frames, C=0.1)
        assert len(got) > 5 * h * w
        assert_same_stream(got, reference.simulate_events(frames, C=0.1))

    @pytest.mark.parametrize("t_first", [123_456, -5_000, -2_000],
                             ids=["positive", "negative", "spanning-zero"])
    def test_first_timestamp_not_zero(self, t_first):
        frames = noisy_clip(4, 6, t_first)
        got = simulate_events(frames, C=0.1)
        assert got.t_begin == t_first and got.t[0] < t_first + 997
        assert_same_stream(got, reference.simulate_events(frames, C=0.1))

    def test_same_microsecond_multi_level_both_polarities(self):
        # frames 1 us apart: every crossing of a segment lands in one
        # microsecond. Pixel 0 rises exactly 2C, so its second level fires
        # at t = 1, then falls 3.5C: three more levels at t = 1. Pixel 1
        # rises 3.5C (three identical +1 records at t = 0), then falls 2.7C
        # (two identical -1 records at t = 1).
        C, eps = 0.2, 1e-3
        base = np.log(0.2 + eps)
        levels = np.array([[0.0, 2.0, -1.5], [0.0, 3.5, 0.8]]) * C + base
        frames = [IntensityFrame(timestamp=i, pixels=(np.exp(levels[:, i]) - eps)
                                 .reshape(1, 2))
                  for i in range(3)]
        got = simulate_events(frames, C=C)
        assert_same_stream(got, reference.simulate_events(frames, C=C))
        assert list(zip(got.t.tolist(), got.x.tolist(), got.p.tolist())) == [
            (0, 0, 1), (0, 1, 1), (0, 1, 1), (0, 1, 1),
            (1, 0, 1), (1, 0, -1), (1, 0, -1), (1, 0, -1), (1, 1, -1), (1, 1, -1)]

    def test_span_overflowing_the_key_is_rejected(self):
        frames = [IntensityFrame(timestamp=t, pixels=np.full((2, 3), v))
                  for t, v in ((0, 0.2), (2 ** 62, 0.8))]
        with pytest.raises(InvalidInputError, match="int64"):
            simulate_events(frames, C=0.2)

    def test_largest_span_that_fits(self):
        # keys of a 2x2 sensor reach 2 * 4 * (span + 1) - 1
        def frames(span):
            return [IntensityFrame(timestamp=t, pixels=np.full((2, 2), 0.5))
                    for t in (-5, span - 5)]
        stream = simulate_events(frames(2 ** 60 - 1), C=0.2)
        assert len(stream) == 0 and stream.t_end == 2 ** 60 - 6
        with pytest.raises(InvalidInputError, match="int64"):
            simulate_events(frames(2 ** 60), C=0.2)


def integer_time_stream(t_end, w=4, h=3, per_t=3, seed=0):
    """per_t random events at every microsecond of [0, t_end]."""
    rng = np.random.default_rng(seed)
    n = per_t * (t_end + 1)
    return EventStream(
        sensor_width=w, sensor_height=h, t_begin=0, t_end=t_end,
        t=np.repeat(np.arange(t_end + 1, dtype=np.int64), per_t),
        x=rng.integers(0, w, n).astype(np.int32),
        y=rng.integers(0, h, n).astype(np.int32),
        p=rng.choice(np.array([-1, 1], np.int8), n))


class TestPixelIndex:
    def test_values_dtype_and_cache(self):
        stream = integer_time_stream(50, w=7, h=5)
        assert stream.pixel.dtype == np.int32
        assert np.array_equal(stream.pixel, stream.y * 7 + stream.x)
        assert stream.pixel is stream.pixel

    def test_sensor_beyond_int32_pixels(self):
        w = h = 70_000  # 4.9e9 pixels
        stream = EventStream(
            sensor_width=w, sensor_height=h, t_begin=0, t_end=10,
            t=np.array([1, 2, 3], np.int64), x=np.array([w - 1, 0, w - 1], np.int32),
            y=np.array([h - 1, h - 1, 0], np.int32), p=np.array([1, -1, 1], np.int8))
        assert stream.pixel.dtype == np.int64
        assert stream.pixel.tolist() == [w * h - 1, (h - 1) * w, w - 1]
        assert polarity_integral(stream, w - 1, h - 1, 0, 10) == 1
        assert polarity_integral(stream, 0, h - 1, 0, 10) == -1


class TestBinEdges:
    # with t0 = 0 and t1 = 10 M, tau = t / 10 - 0.5: t = 10 j lands on a
    # bin edge (frac 0.5) and t = 10 j + 5 on a bin centre (frac 0), the
    # last one tau = M - 1 with no upper tap
    @pytest.mark.parametrize("M", [1, 2, 3, 5])
    def test_voxel_grid(self, M):
        stream = integer_time_stream(10 * M + 7)
        for t0, t1 in ((0, 10 * M), (0.0, 10.0 * M), (5, 10 * M + 5)):
            got = build_voxel_grid(stream, M, t0, t1)
            assert same(got.data, reference.build_voxel_grid(stream, M, t0, t1).data)

    @pytest.mark.parametrize("moments", [1, 2, 4])
    def test_tpr(self, moments):
        # level windows [24, 56], [32, 48], [36, 44]; bins of 32/M_p,
        # 16/M_p and 8/M_p microseconds, all on integer times
        stream = integer_time_stream(80)
        got = build_tpr(stream, 40, 32.0, 3, moments, 2.0)
        assert same(got.data, reference.build_tpr(stream, 40, 32.0, 3, moments, 2.0).data)
