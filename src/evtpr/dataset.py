"""Sliding-window dataset arithmetic: window planning, crop geometry,
scale sampling, timestamp normalization, and bicubic downsampling."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInputError
from .events import IntensityFrame

CROP_SIZE = 512
SCALE_LOW = 1.0
SCALE_HIGH = 8.0


@dataclass(frozen=True)
class WindowPlan:
    """Frame-index arithmetic for one sliding window.

    Indices are 1-based within the window; W = (N_in - 1)*(S + 1) + 1.
    """

    start: int  # 1-based index of the window's first frame in the clip
    window_size: int  # W
    n_in: int
    skip: int  # S
    input_indices: tuple[int, ...]
    gt_indices: tuple[int, ...]

    def normalized_times(self) -> np.ndarray:
        """Normalized time of window index i: (i - 1) / (W - 1)."""
        w = self.window_size
        return np.arange(w, dtype=np.float64) / (w - 1)


@dataclass(frozen=True)
class CropPlan:
    scale: float  # s >= 1
    hr_rect: tuple[int, int, int, int]  # top, left, height, width
    lr_rect: tuple[int, int, int, int]


def _window_size(n_in: int, skip: int) -> int:
    """W = (N_in - 1)*(S + 1) + 1, for N_in >= 2 and S >= 0."""
    if n_in < 2:
        raise InvalidInputError("n_in must be >= 2")
    if skip < 0:
        raise InvalidInputError("skip must be >= 0")
    return (n_in - 1) * (skip + 1) + 1


def _window_plan(start: int, n_in: int, skip: int) -> WindowPlan:
    """The window from clip frame `start`: inputs every S + 1 frames, GTs all W."""
    w = _window_size(n_in, skip)
    return WindowPlan(start=start, window_size=w, n_in=n_in, skip=skip,
                      input_indices=tuple(range(1, w + 1, skip + 1)),
                      gt_indices=tuple(range(1, w + 1)))


def plan_windows(total_frames: int, n_in: int, skip: int,
                 stride: Optional[int] = None) -> list[WindowPlan]:
    """All windows starting at 1, 1+stride, ... that fit in the clip.

    Returns an empty list (not an error) when the clip is shorter than W.
    Default stride is W (non-overlapping windows).
    """
    w = _window_size(n_in, skip)
    if stride is None:
        stride = w
    if stride < 1:
        raise InvalidInputError("stride must be >= 1")
    return [_window_plan(start, n_in, skip)
            for start in range(1, total_frames - w + 2, stride)]


def select_gt_frames(plan: WindowPlan, count: int,
                     rng: np.random.Generator) -> tuple[int, ...]:
    """Seeded without-replacement choice of `count` GT indices from the window."""
    if not 1 <= count <= plan.window_size:
        raise InvalidInputError("count must be in [1, W]")
    picked = rng.choice(plan.window_size, size=count, replace=False)
    return tuple(sorted(int(i) + 1 for i in picked))


def sample_scale(rng: np.random.Generator) -> float:
    """Upsampling scale drawn uniformly from [1, 8]."""
    return float(rng.uniform(SCALE_LOW, SCALE_HIGH))


def plan_crop(frame_h: int, frame_w: int, s: float,
              rng: np.random.Generator) -> CropPlan:
    """Random HR crop of side floor(floor(512/s) * s) and its LR counterpart."""
    if not 1 <= s < math.inf:
        raise InvalidInputError("scale must be finite and >= 1")
    lr_side = int(math.floor(CROP_SIZE / s))
    hr_side = int(math.floor(lr_side * s))
    if hr_side > frame_h or hr_side > frame_w:
        raise InvalidInputError("frame smaller than the HR crop")
    top = int(rng.integers(0, frame_h - hr_side + 1))
    left = int(rng.integers(0, frame_w - hr_side + 1))
    return CropPlan(
        scale=float(s),
        hr_rect=(top, left, hr_side, hr_side),
        lr_rect=(int(math.floor(top / s)), int(math.floor(left / s)),
                 lr_side, lr_side),
    )


def normalize_times(plan: WindowPlan, frame_timestamps: Sequence[int]) -> np.ndarray:
    """Affine map of the window's frame timestamps onto [0, 1].

    `frame_timestamps` holds the W timestamps of the window's frames, in
    microseconds, strictly increasing.
    """
    ts = np.asarray(frame_timestamps, np.float64)
    if len(ts) != plan.window_size:
        raise InvalidInputError("expected one timestamp per window frame")
    if np.any(np.diff(ts) <= 0):
        raise InvalidInputError("timestamps must be strictly increasing")
    if ts[-1] == ts[0]:
        raise InvalidInputError("window endpoints must differ in time")
    return (ts - ts[0]) / (ts[-1] - ts[0])


def format_manifest(plans: Sequence[WindowPlan]) -> str:
    """One window per line: `start W N_in S inputs=i1,i2,... gts=...`."""
    lines = []
    for p in plans:
        lines.append("%d %d %d %d inputs=%s gts=%s" % (
            p.start, p.window_size, p.n_in, p.skip,
            ",".join(str(i) for i in p.input_indices),
            ",".join(str(i) for i in p.gt_indices)))
    return "".join(line + "\n" for line in lines)


def parse_manifest(text: str) -> list[WindowPlan]:
    """Plans from `format_manifest` text. A malformed line, or one whose W,
    inputs or GTs differ from plan_windows' for its N_in and S, is an error."""
    plans = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 6:
            raise InvalidInputError("malformed manifest line: %r" % line)
        try:
            start, w, n_in, skip = (int(v) for v in fields[:4])
            inputs = tuple(int(v) for v in fields[4].removeprefix("inputs=").split(","))
            gts = tuple(int(v) for v in fields[5].removeprefix("gts=").split(","))
        except ValueError:
            raise InvalidInputError("non-integer manifest field: %r" % line) from None
        plan = WindowPlan(start=start, window_size=w, n_in=n_in, skip=skip,
                          input_indices=inputs, gt_indices=gts)
        # W against the line's own GT count first: a short line builds no huge plan
        if _window_size(n_in, skip) != len(gts) or plan != _window_plan(start, n_in, skip):
            raise InvalidInputError("manifest line contradicts its N_in and S: %r" % line)
        plans.append(plan)
    return plans


def _cubic_kernel(x: np.ndarray, a: float = -0.5) -> np.ndarray:
    ax = np.abs(x)
    out = np.zeros_like(ax)
    near = ax <= 1
    out[near] = (a + 2) * ax[near] ** 3 - (a + 3) * ax[near] ** 2 + 1
    far = (ax > 1) & (ax < 2)
    out[far] = a * (ax[far] ** 3 - 5 * ax[far] ** 2 + 8 * ax[far] - 4)
    return out


def _resample_axis(arr: np.ndarray, out_len: int, s: float) -> np.ndarray:
    """Bicubic resampling along axis 0 with clamp-to-edge taps."""
    in_len = arr.shape[0]
    dst = np.arange(out_len, dtype=np.float64)
    src = (dst + 0.5) * s - 0.5
    base = np.floor(src).astype(np.int64)
    out = np.zeros((out_len,) + arr.shape[1:], np.float64)
    wsum = np.zeros(out_len, np.float64)
    for off in range(-1, 3):
        tap = np.clip(base + off, 0, in_len - 1)
        w = _cubic_kernel(src - (base + off))
        wsum += w
        out += w.reshape((-1,) + (1,) * (arr.ndim - 1)) * arr[tap]
    out /= wsum.reshape((-1,) + (1,) * (arr.ndim - 1))
    return out


def downsample_bicubic(frame: IntensityFrame, s: float) -> IntensityFrame:
    """Separable bicubic resize to floor(H/s) x floor(W/s), values clamped to [0,1]."""
    if not 1 <= s < math.inf:
        raise InvalidInputError("scale must be finite and >= 1")
    h, w = frame.height, frame.width
    out_h = int(math.floor(h / s))
    out_w = int(math.floor(w / s))
    if out_h < 1 or out_w < 1:
        raise InvalidInputError("output smaller than one pixel")
    px = frame.pixels.astype(np.float64)
    px = _resample_axis(px, out_h, s)
    px = np.swapaxes(_resample_axis(np.swapaxes(px, 0, 1), out_w, s), 0, 1)
    return IntensityFrame(timestamp=frame.timestamp,
                          pixels=np.clip(px, 0.0, 1.0))
