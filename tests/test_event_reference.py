"""Production event path against the frozen reference in reference.py.

Every comparison is exact: arrays must have the same shape, dtype and
bytes, integers must be equal. Window bounds are chosen to fall on event
timestamps, so a closed [t0, t1] window and a half-open (t0, t1] one
differ on them.
"""

import numpy as np
import pytest

from evtpr import EventStream, IntensityFrame
from evtpr.events import reconstruct_log_intensity, simulate_events
from evtpr.representations import build_tpr, build_voxel_grid

import reference
from conftest import make_ramp_clip


def same(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a, b) and a.tobytes() == b.tobytes())


def assert_same_stream(a: EventStream, b: EventStream):
    assert (a.sensor_width, a.sensor_height, a.t_begin, a.t_end) == \
        (b.sensor_width, b.sensor_height, b.t_begin, b.t_end)
    for name in ("t", "x", "y", "p"):
        assert same(getattr(a, name), getattr(b, name)), name


def dense_stream(seed, n=600, w=7, h=5, t_begin=0, t_end=80):
    """Many events per microsecond on a non-square sensor."""
    rng = np.random.default_rng(seed)
    return EventStream(
        sensor_width=w, sensor_height=h, t_begin=t_begin, t_end=t_end,
        t=np.sort(rng.integers(t_begin + 10, t_end - 10, n + 1)).astype(np.int64),
        x=rng.integers(0, w, n + 1).astype(np.int32),
        y=rng.integers(0, h, n + 1).astype(np.int32),
        p=rng.choice(np.array([-1, 1], np.int8), n + 1),
    )


def empty_stream(w=7, h=5):
    return EventStream(sensor_width=w, sensor_height=h, t_begin=0, t_end=80)


def on_event_windows(stream, seed, count=12):
    """(t0, t1) pairs with t0 < t1, both taken from event timestamps."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        i, j = np.sort(rng.integers(0, len(stream), 2))
        if stream.t[i] < stream.t[j]:
            pairs.append((int(stream.t[i]), int(stream.t[j])))
    return pairs


# windows past either end of the stream, and one between two events
OFF_STREAM_WINDOWS = [(-50, -1), (-50, 9), (71, 200), (80, 81)]


def gap_stream():
    t = np.array([5, 5, 6, 30, 30, 31], np.int64)
    return EventStream(sensor_width=3, sensor_height=2, t_begin=0, t_end=40,
                       t=t, x=np.array([0, 2, 1, 1, 0, 2], np.int32),
                       y=np.array([1, 0, 1, 0, 0, 1], np.int32),
                       p=np.array([1, -1, 1, -1, 1, 1], np.int8))


def keyframe(stream, t, value=0.4):
    return IntensityFrame(timestamp=t, pixels=np.full(
        (stream.sensor_height, stream.sensor_width), value))


class TestVoxelGrid:
    @pytest.mark.parametrize("M", [1, 2, 3, 5])
    def test_windows_on_event_timestamps(self, M):
        stream = dense_stream(1)
        for t0, t1 in on_event_windows(stream, M):
            for a, b in ((t0, t1), (float(t0), float(t1)), (t0 + 0.5, t1 - 0.25)):
                if a >= b:
                    continue
                got = build_voxel_grid(stream, M, a, b)
                ref = reference.build_voxel_grid(stream, M, a, b)
                assert (got.bins, got.t0, got.t1) == (ref.bins, ref.t0, ref.t1)
                assert same(got.data, ref.data)

    def test_empty_and_off_stream_windows(self):
        for stream in (dense_stream(2), empty_stream()):
            for t0, t1 in OFF_STREAM_WINDOWS:
                got = build_voxel_grid(stream, 4, t0, t1)
                assert same(got.data, reference.build_voxel_grid(stream, 4, t0, t1).data)
                assert not got.data.any()
        stream = gap_stream()
        got = build_voxel_grid(stream, 3, 7, 29)
        assert same(got.data, reference.build_voxel_grid(stream, 3, 7, 29).data)
        assert not got.data.any()

    def test_last_bin_has_no_upper_tap(self):
        # tau >= M - 1 for every event in the last half bin, so each keeps
        # its whole weight in bin M-1
        stream = gap_stream()
        for M in (1, 2, 4):
            for t0, t1 in ((0, 31), (6, 31), (5, 30), (30, 31)):
                got = build_voxel_grid(stream, M, t0, t1)
                assert same(got.data, reference.build_voxel_grid(stream, M, t0, t1).data)
        got = build_voxel_grid(stream, 4, 0, 31)
        assert got.data[3, 1, 2] == 1.0 and not got.data[2].any()

    def test_single_bin_sums_polarities(self):
        stream = dense_stream(3)
        got = build_voxel_grid(stream, 1, 20, 60)
        assert same(got.data, reference.build_voxel_grid(stream, 1, 20, 60).data)
        sel = (stream.t >= 20) & (stream.t <= 60)
        assert got.data.sum() == int(stream.p[sel].sum())


class TestTemporalPyramid:
    @pytest.mark.parametrize("levels,moments,ratio,half", [
        (3, 2, 2.0, 32.0),   # level bounds 16, 8, 4 us from an event
        (4, 3, 2.0, 64.0),
        (3, 2, 3.0, 27.0),   # 9, 3, 1 us
        (2, 1, 1.5, 20.0),
    ])
    def test_levels_bounded_on_event_timestamps(self, levels, moments, ratio, half):
        stream = dense_stream(4)
        for center in (stream.t[0], stream.t[len(stream) // 2], stream.t[-1], 0, 80):
            got = build_tpr(stream, int(center), half, levels, moments, ratio)
            ref = reference.build_tpr(stream, int(center), half, levels, moments, ratio)
            assert (got.levels, got.moments_per_level, got.attenuation,
                    got.center_t, got.half_window) == \
                (ref.levels, ref.moments_per_level, ref.attenuation,
                 ref.center_t, ref.half_window)
            assert same(got.data, ref.data)

    def test_empty_stream(self):
        stream = empty_stream()
        got = build_tpr(stream, 40, 16.0, 3, 2, 2.0)
        assert same(got.data, reference.build_tpr(stream, 40, 16.0, 3, 2, 2.0).data)


class TestReconstruct:
    def test_half_open_windows_on_event_timestamps(self):
        stream = dense_stream(5)
        for t0, t1 in on_event_windows(stream, 6) + [(30, 30)]:
            frame = keyframe(stream, t0)
            got = reconstruct_log_intensity(frame, stream, t1, C=0.2)
            ref = reference.reconstruct_log_intensity(frame, stream, t1, C=0.2)
            assert same(got, ref)

    def test_empty_and_off_stream_windows(self):
        for stream in (dense_stream(6), empty_stream()):
            for t0, t1 in OFF_STREAM_WINDOWS + [(0, 80)]:
                frame = keyframe(stream, t0, value=0.7)
                got = reconstruct_log_intensity(frame, stream, t1, C=0.3)
                assert same(got, reference.reconstruct_log_intensity(
                    frame, stream, t1, C=0.3))


def rgb_clip_with_hold(n_frames=6, h=12, w=10, seed=9):
    """Smooth random RGB frames; frame 3 repeats frame 2, so one segment
    has dl == 0 at every pixel, and a quarter of the pixels never change."""
    rng = np.random.default_rng(seed)
    still = rng.random((h, w)) < 0.25
    first = rng.uniform(0.05, 0.95, (h, w, 3))
    frames, px = [], first
    for i in range(n_frames):
        if i and i != 3:
            px = np.clip(px + rng.normal(0.0, 0.15, (h, w, 3)), 0.0, 1.0)
            px[still] = first[still]
        frames.append(IntensityFrame(timestamp=i * 997 + (i * i) % 7,
                                     pixels=px.copy()))
    return frames


class TestSimulate:
    @pytest.mark.parametrize("C", [0.1, 0.2, 0.5])
    def test_ramp_clip(self, C):
        frames = make_ramp_clip()
        got = simulate_events(frames, C=C)
        assert len(got) > 0
        assert_same_stream(got, reference.simulate_events(frames, C=C))

    @pytest.mark.parametrize("C", [0.1, 0.2, 0.5])
    def test_rgb_clip_with_held_frame(self, C):
        frames = rgb_clip_with_hold()
        assert np.array_equal(frames[2].pixels, frames[3].pixels)
        got = simulate_events(frames, C=C)
        assert len(got) > 0
        # nothing fires while the frame is held
        assert not ((got.t > frames[2].timestamp) & (got.t < frames[3].timestamp)).any()
        assert_same_stream(got, reference.simulate_events(frames, C=C))

    def test_opposite_polarities_in_one_microsecond(self):
        # a rise of exactly 2C ends on a frame time, then a fall crosses
        # within the next microsecond: +1 and -1 share (t, pixel), and the
        # canonical order puts the positive event first
        C, eps = 0.2, 1e-3
        top = np.log(0.2 + eps) + 2 * C
        values = [0.2, np.exp(top) - eps, np.exp(top - 1.5 * C) - eps]
        frames = [IntensityFrame(timestamp=i, pixels=np.full((2, 3), v))
                  for i, v in enumerate(values)]
        got = simulate_events(frames, C=C)
        assert_same_stream(got, reference.simulate_events(frames, C=C))
        # pixel-major within a microsecond, then positive first
        assert got.p[got.t == 1].tolist() == [1, -1] * 6
