"""Event-camera data model.

Deterministic event generation from frame sequences (threshold crossings of
the piecewise-linear log-intensity signal) and log-intensity reconstruction
by integrating event polarities.

An `EventStream` holds its events as parallel arrays sorted by timestamp,
narrowed to their dtypes only after their values are checked, and
`EventStream.window` is the one place that decides which events lie in
a time window: a binary search on the sorted timestamps. Its `pixel` index
(y * width + x, computed once per stream) is the one place that maps an
event to its flat pixel; every scatter reads it. Reconstruction integrates
over the half-open window (t0, t1]; the voxel grid and temporal pyramid in
`representations` use the closed [t0, t1]. Reconstruction requires the
keyframe to have the sensor's size.

`simulate_events` emits the canonical event order: by timestamp, then
pixel (row-major), then positive polarity first. It sorts one packed int64
key per event, (t - t_begin) * 2HW + 2 * pixel + (p < 0), so a clip whose
(t_end - t_begin + 1) * H * W * 2 exceeds 2**63 is rejected. The sorted
keys are decoded by floor division and a multiply-subtract, not
`np.divmod`, which on int64 is about ten times slower than `//`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InvalidInputError

# the offset of the log-intensity model ln(I + LOG_EPS)
LOG_EPS = 1e-3

# absolute slack when deciding whether the log signal reaches the next
# threshold level; log values are O(1), so this is far below one event
_CROSSING_TOL = 1e-9

_EVENT_DTYPES = {"t": np.int64, "x": np.int32, "y": np.int32, "p": np.int8}


@dataclass(frozen=True)
class EventStream:
    """Time-sorted sequence of events on a fixed sensor.

    Events are stored as parallel arrays t, x, y and p. Each may be any 1-D
    integer array-like; it is stored contiguous as its `_EVENT_DTYPES`
    entry, narrowed before its range check only where no value can wrap.
    The arrays are not mutated after construction: derived arrays such as
    `pixel` are cached on first use.
    """

    sensor_width: int
    sensor_height: int
    t_begin: int
    t_end: int
    t: np.ndarray = ()
    x: np.ndarray = ()
    y: np.ndarray = ()
    p: np.ndarray = ()

    def __post_init__(self):
        if self.t_begin > self.t_end:
            raise InvalidInputError("t_begin must not exceed t_end")
        bounds = {"t": (self.t_begin, self.t_end), "x": (0, self.sensor_width - 1),
                  "y": (0, self.sensor_height - 1), "p": (-1, 1)}
        for name, dtype in _EVENT_DTYPES.items():
            a, (lo, hi), info = np.asarray(getattr(self, name)), bounds[name], np.iinfo(dtype)
            if a.ndim != 1 or (a.size and a.dtype.kind not in "iu"):
                raise InvalidInputError("event %s must be a 1-D integer array, not %s"
                                        % (name, a.dtype))
            if np.can_cast(a.dtype, dtype):  # no value can wrap: check the narrow copy
                a = np.ascontiguousarray(a, dtype)
            if lo < info.min or hi > info.max:
                raise InvalidInputError("event %s bounds [%d, %d] exceed %s"
                                        % (name, lo, hi, info.dtype))
            if a.size and (a.min() < lo or a.max() > hi):
                raise InvalidInputError("event %s outside [%d, %d]" % (name, lo, hi))
            object.__setattr__(self, name, np.ascontiguousarray(a, dtype))
        if not (len(self.x) == len(self.y) == len(self.p) == len(self.t)):
            raise InvalidInputError("event arrays must have equal length")
        if np.any(self.t[1:] < self.t[:-1]):
            raise InvalidInputError("events must be sorted by timestamp")
        if np.any(self.p == 0):
            raise InvalidInputError("polarity must be +1 or -1")

    def __len__(self) -> int:
        return len(self.t)

    def window(self, t0, t1, lo_open: bool = False) -> slice:
        """Events with t in [t0, t1], or in (t0, t1] if lo_open, by binary search.

        The keys are the integer bounds that admit the same events (a float
        key would convert all of `t`), clamped to just past the stream's ends.
        """
        if not t0 <= t1:  # also a NaN bound
            return slice(0, 0)
        t0, t1 = (min(max(v, self.t_begin - 1), self.t_end + 1) for v in (t0, t1))
        first = math.floor(t0) + 1 if lo_open else math.ceil(t0)
        return slice(*np.searchsorted(self.t, [first, math.floor(t1) + 1]).tolist())

    @cached_property
    def pixel(self) -> np.ndarray:
        """Flat pixel index y * sensor_width + x of every event.

        int32 whenever the sensor's pixel count fits, which halves the
        cached array's size.
        """
        hw = self.sensor_width * self.sensor_height
        dtype = np.int32 if hw <= np.iinfo(np.int32).max else np.int64
        pixel = np.multiply(self.y, self.sensor_width, dtype=dtype)
        pixel += self.x
        return pixel


@dataclass(frozen=True)
class IntensityFrame:
    """A single frame with values in [0, 1]; 1 channel (luma) or 3 (RGB)."""

    timestamp: int  # microseconds
    pixels: np.ndarray  # H x W or H x W x 3

    def __post_init__(self):
        px = self.pixels
        if px.ndim not in (2, 3) or (px.ndim == 3 and px.shape[2] != 3):
            raise InvalidInputError("pixels must be HxW or HxWx3")
        if px.size == 0:  # H or W is 0: min() below has no identity
            raise InvalidInputError("pixels must be at least 1x1")
        if not np.all(np.isfinite(px)):
            raise InvalidInputError("pixel values must be finite")
        if px.min() < 0.0 or px.max() > 1.0:
            raise InvalidInputError("pixel values must lie in [0, 1]")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return 1 if self.pixels.ndim == 2 else 3


def log_view(frame: IntensityFrame) -> np.ndarray:
    """ln(luma + LOG_EPS) for every pixel; RGB frames go through the BT.601 luma."""
    px = frame.pixels
    if px.ndim == 3:
        from .metrics import rgb_to_y
        px = rgb_to_y(px)
    if not np.all(np.isfinite(px)):
        raise InvalidInputError("pixel values must be finite")
    return np.log(px.astype(np.float64) + LOG_EPS)


def check_clip(frames: Sequence[IntensityFrame]) -> tuple[int, int, list[int]]:
    """(H, W, timestamps) of a non-empty clip; InvalidInputError unless its
    frames share one size and its timestamps strictly increase."""
    h, w = frames[0].height, frames[0].width
    if any((f.height, f.width) != (h, w) for f in frames):
        raise InvalidInputError("all frames must share dimensions")
    ts = [f.timestamp for f in frames]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise InvalidInputError("frame timestamps must be strictly increasing")
    return h, w, ts


def simulate_events(frames: Sequence[IntensityFrame], C: float) -> EventStream:
    """Generate events from frames by linear threshold crossings in log space.

    The per-pixel log-intensity signal is linearly interpolated between frame
    samples. Starting from the first frame's log value as reference, an event
    of polarity sign(dL) fires each time the signal departs from the
    reference by C; the reference then advances by p*C. Event times are
    rounded down to the microsecond. Deterministic: simultaneous events are
    ordered row-major by pixel, positive polarity first.

    That order is the order of one int64 key per event,
    (t - t_begin) * 2HW + 2 * (y * W + x) + (p < 0). Events with equal
    keys are identical, so one plain sort gives the same bytes for any sort
    algorithm. Raises InvalidInputError when the keys of the clip's span
    could overflow int64, or when a segment's threshold crossings are too
    many to index.

    Each segment works on the flat indices of its crossing pixels and
    expands their values to events through one event -> pixel map.
    """
    if len(frames) < 2:
        raise InvalidInputError("need at least two frames")
    if not 0 < C < math.inf:
        raise InvalidInputError("contrast threshold C must be positive and finite")
    h, w, ts = check_clip(frames)
    t_begin, span, hw = int(ts[0]), int(ts[-1]) - int(ts[0]), h * w
    if 2 * hw * (span + 1) > 2 ** 63:
        raise InvalidInputError("a %d us clip on %dx%d pixels overflows the int64 "
                                "event sort key" % (span, w, h))

    logs = [log_view(f).ravel() for f in frames]
    ref = logs[0].copy()

    keys = []  # per segment: the packed sort key of each of its events
    for (t0, l0), (t1, l1) in zip(zip(ts[:-1], logs[:-1]), zip(ts[1:], logs[1:])):
        dl = l1 - l0
        # number of threshold levels crossed per pixel during this segment
        n_cross = np.floor(np.abs(l1 - ref) / C + _CROSSING_TOL)
        n_cross[np.sign(dl) != np.sign(l1 - ref)] = 0
        n_cross[dl == 0] = 0
        # their sum bounds each count and the running event index below
        # (not NaN: the logs are finite and C is positive)
        if not n_cross.sum() < 2.0 ** 62:
            raise InvalidInputError("threshold %r gives %.3g events in one segment, "
                                    "too many to index" % (C, n_cross.sum()))
        n_cross = n_cross.astype(np.int64)
        pix = np.flatnonzero(n_cross)  # row-major, as np.nonzero's (y, x)
        n, dl_pix = n_cross[pix], dl[pix]
        pol = np.where(dl_pix > 0, 1, -1)
        # one entry per event: j, its pixel's place in pix, whose signal
        # crosses level k = 1..n past ref
        j = np.repeat(np.arange(len(pix)), n)
        start = np.cumsum(n)
        start -= n
        level = np.arange(1, len(j) + 1)
        level -= start[j]
        level *= pol[j]  # p * k
        # in place, in the order that fixes the rounding:
        # frac = (ref + (p * k) * C - l0) / dl, then floor(t0 + frac * (t1 - t0))
        t_ev = level * C
        t_ev += ref[pix][j]
        t_ev -= l0[pix][j]
        t_ev /= dl_pix[j]
        t_ev *= t1 - t0
        t_ev += t0
        key = np.floor(t_ev, out=t_ev).astype(np.int64)  # t, packed below
        # the check EventStream makes, before the key could wrap around
        if len(key) and (key.min() < ts[0] or key.max() > ts[-1]):
            raise InvalidInputError("event timestamps outside [t_begin, t_end]")
        # (t - t_begin) * 2HW + 2 * pixel + (p < 0), in place
        key -= t_begin
        key *= 2 * hw
        key += (2 * pix + (pol < 0))[j]
        keys.append(key)
        ref[pix] += (pol * n) * C

    key = np.concatenate(keys)
    key.sort()
    # p as int8, and x and y as int32 wherever H * W fits (as in
    # EventStream.pixel), so EventStream makes no narrowing copy
    p = (key & 1).astype(np.int8)
    p *= -2
    p += 1
    key >>= 1
    t = key // hw
    key -= t * hw  # now the pixel
    t += t_begin
    pixel = key.astype(np.int32 if hw <= np.iinfo(np.int32).max else np.int64, copy=False)
    y = pixel // w
    pixel -= y * w  # now x
    return EventStream(
        sensor_width=w,
        sensor_height=h,
        t_begin=ts[0],
        t_end=ts[-1],
        t=t,
        x=pixel,
        y=y,
        p=p,
    )


def reconstruct_log_intensity(frame: IntensityFrame, stream: EventStream,
                              t: int, C: float) -> np.ndarray:
    """Log-intensity field at time t from a keyframe plus integrated events.

    output(x, y) = log_view(frame)(x, y) + C * sum of p over (frame.timestamp, t].
    """
    if not 0 < C < math.inf:
        raise InvalidInputError("contrast threshold C must be positive and finite")
    if t < frame.timestamp:
        raise InvalidInputError("backward integration is not supported (t < frame time)")
    if (frame.height, frame.width) != (stream.sensor_height, stream.sensor_width):
        raise InvalidInputError("frame size differs from the event sensor size")
    base = log_view(frame)
    win = stream.window(frame.timestamp, t, lo_open=True)
    counts = np.bincount(stream.pixel[win], weights=stream.p[win], minlength=base.size)
    return base + C * counts.reshape(base.shape)
