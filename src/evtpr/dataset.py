"""Sliding-window dataset arithmetic: window planning, seeded ground-truth
selection, and bicubic downsampling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .events import IntensityFrame

@dataclass(frozen=True)
class WindowPlan:
    """One sliding window of W = (N_in - 1)*(S + 1) + 1 frames from clip
    frame `start` (1-based): an input every S + 1 frames and a ground truth
    at every frame, indexed 1..W within the window."""

    start: int
    n_in: int
    skip: int  # S

    def __post_init__(self):
        if self.n_in < 2:
            raise InvalidInputError("n_in must be >= 2")
        if self.skip < 0:
            raise InvalidInputError("skip must be >= 0")

    @property
    def window_size(self) -> int:
        return (self.n_in - 1) * (self.skip + 1) + 1

    @property
    def input_indices(self) -> tuple[int, ...]:
        return tuple(range(1, self.window_size + 1, self.skip + 1))

    @property
    def gt_indices(self) -> tuple[int, ...]:
        return tuple(range(1, self.window_size + 1))

    def normalized_times(self) -> np.ndarray:
        """Normalized time of window index i: (i - 1) / (W - 1)."""
        w = self.window_size
        return np.arange(w, dtype=np.float64) / (w - 1)


def plan_windows(total_frames: int, n_in: int, skip: int) -> list[WindowPlan]:
    """The non-overlapping windows from clip frames 1, 1 + W, ... that fit in
    the clip; empty (not an error) when the clip is shorter than W."""
    w = WindowPlan(1, n_in, skip).window_size  # checks n_in and skip
    return [WindowPlan(start, n_in, skip)
            for start in range(1, total_frames - w + 2, w)]


def select_gt_frames(plan: WindowPlan, count: int,
                     rng: np.random.Generator) -> tuple[int, ...]:
    """Seeded without-replacement choice of `count` GT indices from the window."""
    if not 1 <= count <= plan.window_size:
        raise InvalidInputError("count must be in [1, W]")
    picked = rng.choice(plan.window_size, size=count, replace=False)
    return tuple(sorted(int(i) + 1 for i in picked))


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
