"""Voxel grid and temporal pyramid representations of event streams.

The voxel grid accumulates signed polarities into M equal temporal bins
with a bilinear (triangular) kernel. The temporal pyramid stacks L nested
windows around a center timestamp, each 1/r the span of the previous, each
voxelized into M_p bins. Finest granularity: delta_t = 2*half_window /
(M_p * r^L).

Both take the events of the closed window [t0, t1] from
`EventStream.window`, a binary search on the sorted timestamps, so a grid
or pyramid level costs O(log N + events in its window), and scatter them
with one `np.bincount` through the stream's cached `pixel` index. On a
time-sorted window the bin index is non-decreasing, so the events with an
upper tap are a prefix of the window, found by one binary search.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import InvalidInputError
from .events import EventStream

Number = Union[int, float, Fraction]

# tpr_granularity's exact result may have this many digits in its numerator
# and in its denominator: the CLI prints it, and by default Python refuses
# to convert an int of more than 4300 digits to a string
_MAX_GRANULARITY_DIGITS = 4000


@dataclass(frozen=True)
class VoxelGrid:
    bins: int
    t0: float  # microseconds
    t1: float
    data: np.ndarray  # bins x H x W signed reals

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class TemporalPyramid:
    levels: int
    moments_per_level: int
    attenuation: float  # r > 1
    center_t: float  # microseconds
    half_window: float  # microseconds
    data: np.ndarray  # levels x moments x H x W

    def level_window(self, level: int) -> tuple[float, float]:
        """Closed window [center - dt/r^level, center + dt/r^level], level 1-indexed."""
        if not 1 <= level <= self.levels:
            raise InvalidInputError("level out of range")
        h = self.half_window / self.attenuation ** level
        return self.center_t - h, self.center_t + h


@dataclass(frozen=True)
class GranularitySpec:
    half_window_s: Fraction
    levels: int
    moments_per_level: int
    attenuation: Fraction
    delta_t: Fraction  # seconds, exact


def build_voxel_grid(stream: EventStream, M: int, t0: float, t1: float) -> VoxelGrid:
    """Accumulate a stream into M temporal bins over [t0, t1].

    Each in-window event lands at normalized coordinate
    tau = M*(t-t0)/(t1-t0) - 0.5 and splats p*(1-|tau-k|) into the one or
    two nearest bins. tau is clamped into [0, M-1] so that boundary events
    keep their full weight and signed mass is conserved exactly. A grid
    whose byte size numpy cannot represent raises InvalidInputError.
    """
    if M < 1:
        raise InvalidInputError("bin count M must be >= 1")
    hw = stream.sensor_height * stream.sensor_width
    # the float64 grid must have a byte size numpy can represent
    if int(M) * hw > np.iinfo(np.intp).max // 8:
        raise InvalidInputError("%d bins of a %dx%d sensor are too many for one array"
                                % (M, stream.sensor_width, stream.sensor_height))
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise InvalidInputError("voxel window bounds must be finite")
    if t0 >= t1:
        raise InvalidInputError("t0 must be less than t1")
    win = stream.window(t0, t1)
    p = stream.p[win]
    # in place, in the order of M * (t - t0) / (t1 - t0) - 0.5
    tau = np.subtract(stream.t[win], float(t0))
    tau *= M
    tau /= t1 - t0
    tau -= 0.5
    np.clip(tau, 0.0, M - 1.0, out=tau)
    k = tau.astype(np.int64)  # floor, as tau >= 0
    frac = np.subtract(tau, k, out=tau)
    # k is non-decreasing on the time-sorted window, so the events with an
    # upper tap (k < M-1) are its first n_up
    n, n_up = len(k), int(np.searchsorted(k, M - 1))
    # lower taps, then upper taps, each in event order: bincount adds in
    # input order, so this fixes every cell's float sum; given no input it
    # returns integer zeros
    idx = np.empty(n + n_up, np.int64)
    wts = np.empty(n + n_up)
    np.multiply(k, hw, out=idx[:n])
    idx[:n] += stream.pixel[win]
    np.add(idx[:n_up], hw, out=idx[n:])
    np.subtract(1.0, frac, out=wts[:n])
    wts[:n] *= p
    np.multiply(p[:n_up], frac[:n_up], out=wts[n:])
    data = np.bincount(idx, weights=wts, minlength=M * hw).astype(np.float64, copy=False)
    return VoxelGrid(bins=M, t0=float(t0), t1=float(t1),
                     data=data.reshape(M, stream.sensor_height, stream.sensor_width))


def build_tpr(stream: EventStream, center_t: float, half_window: float,
              levels: int, moments_per_level: int, attenuation: float) -> TemporalPyramid:
    """Stack L nested voxel grids around center_t into L x M_p x H x W.

    Level l (1-indexed) covers the closed window
    [center_t - half_window/r^l, center_t + half_window/r^l].
    """
    if levels < 1:
        raise InvalidInputError("levels must be >= 1")
    if moments_per_level < 1:
        raise InvalidInputError("moments_per_level must be >= 1")
    if not 1 < attenuation < math.inf:
        raise InvalidInputError("attenuation r must be finite and exceed 1")
    if not 0 < half_window < math.inf:
        raise InvalidInputError("half_window must be positive and finite")
    _check_finest_window(half_window, levels, attenuation)
    planes = []
    for level in range(1, levels + 1):
        h = half_window / float(attenuation) ** level
        grid = build_voxel_grid(stream, moments_per_level,
                                center_t - h, center_t + h)
        planes.append(grid.data)
    return TemporalPyramid(
        levels=levels,
        moments_per_level=moments_per_level,
        attenuation=float(attenuation),
        center_t=float(center_t),
        half_window=float(half_window),
        data=np.stack(planes, axis=0),
    )


def tpr_granularity(half_window_s: Number, levels: int, moments_per_level: int,
                    attenuation: Number) -> GranularitySpec:
    """Finest time granularity 2*half_window / (M_p * r^L), exact for rational r."""
    if levels < 1 or moments_per_level < 1:
        raise InvalidInputError("levels and moments_per_level must be >= 1")
    hw = _as_fraction(half_window_s)
    if hw <= 0:
        raise InvalidInputError("half_window must be positive")
    r = _as_fraction(attenuation)
    if r <= 1:
        raise InvalidInputError("attenuation r must exceed 1")
    # build_tpr's rule, on the window cmd_tpr hands it, before the exact
    # r^L, whose digits grow with L
    _check_finest_window(float(hw) * 1e6 if hw <= sys.float_info.max else math.inf,
                         levels, r)
    # r^L of an r close to 1 passes that rule, yet the exact result's digits
    # grow with L, with r's precision and with the half window's: bound the
    # numerator 2*a*q^L and denominator b*M_p*p^L (hw = a/b, r = p/q) before
    # forming them
    power_bits = levels * max(r.numerator.bit_length(), r.denominator.bit_length())
    bits = (power_bits + hw.numerator.bit_length() + hw.denominator.bit_length()
            + moments_per_level.bit_length() + 1)
    if _digits(bits) > _MAX_GRANULARITY_DIGITS:
        raise InvalidInputError(
            "--L %d and --r give an exact r^L of up to %d digits, and with "
            "--half-window and --Mp a granularity of up to %d; at most %d are "
            "supported" % (levels, _digits(power_bits), _digits(bits),
                           _MAX_GRANULARITY_DIGITS))
    delta = 2 * hw / (moments_per_level * r ** levels)
    return GranularitySpec(
        half_window_s=hw,
        levels=levels,
        moments_per_level=moments_per_level,
        attenuation=r,
        delta_t=delta,
    )


def _digits(bits: int) -> int:
    """Decimal digits of a bits-bit integer, rounded up."""
    return -(-bits * 30103 // 100000)


def _check_finest_window(half_window_us: float, levels: int, attenuation: Number) -> None:
    """Raise unless the finest level's window, 2 * half_window / r^L in
    floats, spans at least the 1 microsecond timestamp clock."""
    try:
        narrow = 2.0 * half_window_us / float(attenuation) ** levels < 1.0
    except OverflowError:  # r or r^L beyond the float range
        narrow = True
    if narrow:
        raise InvalidInputError(
            "finest level window narrower than 1 microsecond (granularity "
            "exceeds the timestamp clock)")


def _as_fraction(v: Number) -> Fraction:
    # Fraction(float) is the exact binary value, so 0.5 etc. stay exact
    return v if isinstance(v, Fraction) else Fraction(v)
