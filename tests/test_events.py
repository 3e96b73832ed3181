import math

import numpy as np
import pytest

from evtpr import (
    Event,
    EventStream,
    IntensityFrame,
    InvalidInputError,
    log_view,
    polarity_integral,
    reconstruct_log_intensity,
    simulate_events,
)

from conftest import make_ramp_clip, random_stream


def frame_of(value, h=4, w=4, t=0):
    return IntensityFrame(timestamp=t, pixels=np.full((h, w), value))


class TestLogView:
    def test_uniform_frame(self):
        out = log_view(frame_of(0.25))
        assert np.allclose(out, math.log(0.251))

    def test_zero_value(self):
        out = log_view(frame_of(0.0))
        assert np.allclose(out, math.log(1e-3))

    def test_half_value(self):
        out = log_view(frame_of(0.5))
        assert np.allclose(out, -0.691149, atol=1e-6)

    def test_rgb_uses_luma(self):
        px = np.zeros((4, 4, 3))
        px[..., 0] = 1.0  # pure red
        out = log_view(IntensityFrame(timestamp=0, pixels=px))
        assert np.allclose(out, math.log(0.299 + 1e-3))


def scan_crossings_1ns(levels, stamps_us, C):
    """Independent oracle: walk the piecewise-linear log signal in 1 ns
    steps and record every departure of C from the running reference,
    pinning the crossing instant within the step by linear interpolation."""
    ref = levels[0]
    events = []
    for (t0, l0), (t1, l1) in zip(zip(stamps_us[:-1], levels[:-1]),
                                  zip(stamps_us[1:], levels[1:])):
        steps = int(round((t1 - t0) * 1000))
        prev = l0
        for k in range(1, steps + 1):
            t_ns = t0 * 1000 + k
            val = l0 + (l1 - l0) * (k / steps)
            while val - ref >= C - 1e-9:
                f = 0.0 if val == prev else (ref + C - prev) / (val - prev)
                t_cross = (t_ns - 1) + min(max(f, 0.0), 1.0)
                events.append((int(t_cross // 1000), +1))
                ref += C
            while ref - val >= C - 1e-9:
                f = 0.0 if val == prev else (ref - C - prev) / (val - prev)
                t_cross = (t_ns - 1) + min(max(f, 0.0), 1.0)
                events.append((int(t_cross // 1000), -1))
                ref -= C
            prev = val
    return events


class TestSimulateEvents:
    def test_constant_video_is_silent(self):
        frames = [frame_of(0.3, t=i * 100) for i in range(5)]
        stream = simulate_events(frames, C=0.1)
        assert len(stream) == 0

    def test_exact_double_threshold_rise(self):
        C = 0.2
        v0 = 0.2
        target_log = math.log(v0 + 1e-3) + 2 * C
        v1 = math.exp(target_log) - 1e-3
        frames = [frame_of(v0, h=1, w=1, t=0), frame_of(v1, h=1, w=1, t=1)]
        stream = simulate_events(frames, C=C)
        evs = list(stream)
        assert [e.p for e in evs] == [1, 1]
        # crossings at 50% and 100% of the 1 us segment, floored
        assert [e.t for e in evs] == [0, 1]

    def test_matches_1ns_scan_oracle(self):
        C = 0.15
        stamps = [0, 3, 7, 12]
        vals = [0.1, 0.55, 0.2, 0.8]
        frames = [frame_of(v, h=1, w=1, t=t) for v, t in zip(vals, stamps)]
        stream = simulate_events(frames, C=C)
        got = [(e.t, e.p) for e in stream]
        levels = [math.log(v + 1e-3) for v in vals]
        assert got == scan_crossings_1ns(levels, stamps, C)

    def test_polarity_antisymmetry(self):
        rng = np.random.default_rng(7)
        vals = rng.uniform(0.1, 0.9, size=(6, 3, 3))
        eps = 1e-3
        frames = [IntensityFrame(timestamp=i * 50, pixels=vals[i])
                  for i in range(6)]
        # reflect the log signal around the midpoint of its range, which
        # negates every delta while keeping intensities inside [0, 1]
        mid = (math.log(0.1 + eps) + math.log(0.9 + eps)) / 2.0
        inv = [IntensityFrame(timestamp=i * 50,
                              pixels=np.exp(2 * mid - np.log(vals[i] + eps)) - eps)
               for i in range(6)]
        a = simulate_events(frames, C=0.12)
        b = simulate_events(inv, C=0.12)
        assert len(a) == len(b)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.p, -b.p)

    def test_rejects_bad_inputs(self):
        frames = [frame_of(0.2, t=0), frame_of(0.4, t=0)]
        with pytest.raises(InvalidInputError):
            simulate_events(frames, C=0.1)
        with pytest.raises(InvalidInputError):
            simulate_events([frame_of(0.2, t=0), frame_of(0.4, t=10)], C=0.0)
        with pytest.raises(InvalidInputError):
            simulate_events([frame_of(0.2, t=0)], C=0.1)
        with pytest.raises(InvalidInputError, match="all frames must share dimensions"):
            simulate_events([frame_of(0.2, t=0), frame_of(0.4, h=4, w=8, t=10)], C=0.1)

    def test_stream_is_sorted_and_in_bounds(self):
        frames = make_ramp_clip(h=8, w=8, n_frames=6)
        stream = simulate_events(frames, C=0.1)
        assert len(stream) > 0
        assert np.all(np.diff(stream.t) >= 0)
        assert stream.t[0] >= stream.t_begin and stream.t[-1] <= stream.t_end


class TestPolarityIntegral:
    def test_empty_interval(self, rng):
        stream = random_stream(rng)
        assert polarity_integral(stream, 2, 3, 500, 500) == 0

    def test_counts_signed(self):
        evs = [Event(1, 1, 10, 1), Event(1, 1, 20, 1), Event(1, 1, 30, 1),
               Event(1, 1, 40, -1)]
        stream = EventStream.from_events(evs, 4, 4, 0, 100)
        assert polarity_integral(stream, 1, 1, 0, 100) == 2

    def test_additive_over_subintervals(self, rng):
        stream = random_stream(rng, n=400)
        cuts = [0, 10_000, 35_000, 70_000, 100_000]
        for x in range(stream.sensor_width):
            for y in range(stream.sensor_height):
                total = polarity_integral(stream, x, y, cuts[0], cuts[-1])
                parts = sum(polarity_integral(stream, x, y, a, b)
                            for a, b in zip(cuts[:-1], cuts[1:]))
                # brute-force enumeration over the raw event list
                brute = sum(int(p) for xx, yy, t, p in stream
                            if xx == x and yy == y and cuts[0] < t <= cuts[-1])
                assert total == parts == brute

    def test_out_of_bounds_pixel(self, rng):
        stream = random_stream(rng)
        with pytest.raises(InvalidInputError):
            polarity_integral(stream, 99, 0, 0, 10)


class TestReconstruct:
    def test_no_events_is_identity(self):
        stream = EventStream(sensor_width=4, sensor_height=4,
                             t_begin=0, t_end=100)
        frame = frame_of(0.4, t=0)
        out = reconstruct_log_intensity(frame, stream, 100, C=0.2)
        assert np.array_equal(out, log_view(frame))

    def test_positive_events_multiply_intensity(self):
        C = 0.25
        evs = [Event(2, 1, 10, 1), Event(2, 1, 20, 1), Event(2, 1, 30, 1)]
        stream = EventStream.from_events(evs, 4, 4, 0, 100)
        frame = frame_of(0.3, t=0)
        out = reconstruct_log_intensity(frame, stream, 100, C=C)
        expected = log_view(frame).copy()
        expected[1, 2] += 3 * C
        assert np.allclose(out, expected)
        # intensity view multiplies by exp(nC)
        assert np.isclose(math.exp(out[1, 2]), (0.3 + 1e-3) * math.exp(3 * C))

    def test_backward_integration_rejected(self):
        stream = EventStream(sensor_width=4, sensor_height=4,
                             t_begin=0, t_end=100)
        with pytest.raises(InvalidInputError):
            reconstruct_log_intensity(frame_of(0.4, t=50), stream, 10, C=0.2)

    @pytest.mark.parametrize("h,w", [(4, 4), (16, 16), (8, 4)])
    def test_frame_must_match_sensor(self, h, w):
        evs = [Event(7, 7, 10, 1)]
        stream = EventStream.from_events(evs, 8, 8, 0, 100)
        with pytest.raises(InvalidInputError, match="sensor size"):
            reconstruct_log_intensity(frame_of(0.4, h=h, w=w), stream, 100, C=0.2)

    @pytest.mark.parametrize("C", [0.1, 0.2, 0.5])
    def test_round_trip_bound(self, C):
        frames = make_ramp_clip(h=16, w=16, n_frames=8)
        stream = simulate_events(frames, C=C)
        base = frames[0]
        for f in frames:
            recon = reconstruct_log_intensity(base, stream, f.timestamp, C=C)
            err = np.abs(recon - log_view(f)).max()
            assert err <= C + 1e-9


def stream_of(t, x, y, p, w=8, h=8, t_begin=0, t_end=100):
    return EventStream(sensor_width=w, sensor_height=h, t_begin=t_begin,
                       t_end=t_end, t=t, x=x, y=y, p=p)


class TestEventStreamStorage:
    T, X, Y, P = [3, 5, 5, 90], [0, 7, 2, 1], [7, 0, 3, 3], [1, -1, 1, -1]

    @pytest.mark.parametrize("dtypes", [
        ("u8", "u2", "u2", "i1"),  # the EVT1 record's field types
        ("i8", "i8", "i8", "i8"),
        ("u1", "i2", "u4", "i4"),
    ])
    def test_stored_dtypes(self, dtypes):
        stream = stream_of(*(np.array(v, d) for v, d in
                             zip((self.T, self.X, self.Y, self.P), dtypes)))
        arrays = (stream.t, stream.x, stream.y, stream.p)
        assert [a.dtype for a in arrays] == [np.int64, np.int32, np.int32, np.int8]
        assert all(a.flags.c_contiguous for a in arrays)
        assert list(stream) == [Event(*e) for e in zip(self.X, self.Y, self.T, self.P)]

    def test_record_fields_are_copied(self):
        rec = np.zeros(4, [("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")])
        for name, v in zip("txyp", (self.T, self.X, self.Y, self.P)):
            rec[name] = v
        stream = stream_of(rec["t"], rec["x"], rec["y"], rec["p"])
        for a in (stream.t, stream.x, stream.y, stream.p):
            assert a.flags.c_contiguous and not np.shares_memory(a, rec)

    @pytest.mark.parametrize("field,value", [
        ("t", np.array([3.0, 5, 5, 90])), ("x", np.array([0.5, 7, 2, 1])),
        ("p", np.array([True, False, True, False])), ("y", np.array([[7, 0, 3, 3]])),
    ], ids=["float-t", "float-x", "bool-p", "2d-y"])
    def test_non_integer_arrays_rejected(self, field, value):
        arrays = {**dict(t=self.T, x=self.X, y=self.Y, p=self.P), field: value}
        with pytest.raises(InvalidInputError, match="integer"):
            stream_of(**arrays)

    @pytest.mark.parametrize("field,value", [
        ("t", np.array([5, 3, 5, 90], np.uint64)),
        ("t", np.array([2 ** 63, 2 ** 63, 2 ** 63, 2 ** 63], np.uint64)),
        ("x", np.array([2 ** 32, 7, 2, 1], np.int64)),
        ("p", np.array([1, 1, 1, 255], np.uint8)),  # 255 wraps to -1
        ("p", np.array([1, -1, 1, 257], np.int64)),
    ], ids=["t-unsorted-u8", "t-2**63", "x-2**32", "p-255-u1", "p-257"])
    def test_values_checked_before_narrowing(self, field, value):
        arrays = {**dict(t=self.T, x=self.X, y=self.Y, p=self.P), field: value}
        with pytest.raises(InvalidInputError):
            stream_of(**arrays)

    def test_unsorted_across_int64_range(self):
        # their difference wraps around int64, so a diff would look sorted
        with pytest.raises(InvalidInputError, match="sorted"):
            stream_of([2 ** 62 + 1, -2 ** 62 - 1], [0, 0], [0, 0], [1, 1],
                      t_begin=-2 ** 63, t_end=2 ** 63 - 1)

    @pytest.mark.parametrize("event", [
        Event(0, 0, 10, 300), Event(2 ** 40, 0, 10, 1), Event(0, 0, 2 ** 70, 1),
        Event(0, -1, 10, 1), Event(0, 0, -2 ** 63, -1),
    ], ids=["p-300", "x-2**40", "t-2**70", "y-negative", "t-before-begin"])
    def test_from_events_out_of_range(self, event):
        with pytest.raises(InvalidInputError):
            EventStream.from_events([Event(1, 1, 5, 1), event], 8, 8, 0, 100)

    @pytest.mark.parametrize("kwargs", [
        dict(t_end=2 ** 63), dict(t_begin=-2 ** 63 - 1),
        dict(w=2 ** 31 + 1), dict(h=2 ** 40),
    ])
    def test_bounds_beyond_stored_dtypes(self, kwargs):
        with pytest.raises(InvalidInputError, match="exceed int"):
            stream_of([], [], [], [], **kwargs)

    def test_empty_default_arrays(self):
        stream = EventStream(sensor_width=4, sensor_height=4, t_begin=0, t_end=10)
        assert len(stream) == 0
        assert stream.pixel.size == 0
        assert [a.dtype for a in (stream.t, stream.x, stream.y, stream.p)] == \
            [np.int64, np.int32, np.int32, np.int8]
