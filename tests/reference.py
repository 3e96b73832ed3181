"""Frozen reference for the pipeline: event path, extractors, per-timestamp head.

The STEB kernels (`layer_norm`, `_softmax`, `_gelu`,
`multi_head_self_attention`, `steb_forward`), both extractors,
`fuse_features`, `temporal_embed` and `spatial_decode` (with the
`mlp_forward` and `conv1x1` they call) are the straightforward versions the
production kernels were derived from, kept unchanged as the oracle: layer
norm, softmax and GELU run internally in float64, every corner of every
query runs the whole decoder MLP on feature || offset, and the fused
C_t x H x W tensor is built explicitly. The one later edit is the area
weight on a clamped border cell's centre line in `spatial_decode`, which
follows the same rule as production (the limit of the per-axis factors in
place of an equal-weight fallback). `window_partition` and
`window_unpartition` are index loops that copy one token at a time, so a
fault in production's reshape/transpose geometry shows here.
`downsample_half` (a stack of the four stride-2 taps and one einsum) and
`upsample_double` (an explicit nearest x2 tensor, zero-padded, and nine
per-tap einsums) are the straightforward resampling convolutions, kept
unchanged for the same purpose. `cyclic_shift` is a gather of modular row
and column indices, not production's `np.roll`, so the reference checks the
shift geometry too.
The event path (`simulate_events`, `polarity_integral`,
`reconstruct_log_intensity`, `build_voxel_grid`, `build_tpr`) is kept the
same way: a Python loop over every threshold crossing with a tuple sort,
full-stream boolean window masks and `np.add.at` scatters. The event and
representation containers and `log_view` are imported from production.
`reference_pipeline_forward` composes all of it in the same order as
`pipeline_forward`.
"""

from __future__ import annotations

import math

import numpy as np

from typing import Optional, Sequence

from evtpr.errors import InvalidInputError, NumericError
from evtpr.kernels import (
    AttentionParams,
    ConvParams,
    HolisticParams,
    MlpParams,
    RegionalParams,
    StebParams,
    TemporalEmbedParams,
)
from evtpr.events import EventStream, IntensityFrame, log_view
from evtpr.representations import TemporalPyramid, VoxelGrid

# absolute slack when deciding whether the log signal reaches the next
# threshold level; log values are O(1), so this is far below one event
_CROSSING_TOL = 1e-9


def _gelu(x: np.ndarray) -> np.ndarray:
    from scipy.special import erf
    x64 = x.astype(np.float64)
    return (0.5 * x64 * (1.0 + erf(x64 / math.sqrt(2.0)))).astype(np.float32)


_ACTIVATIONS = {
    "gelu": lambda x: _gelu(x),
    "relu": lambda x: np.maximum(x, 0.0).astype(np.float32),
    "none": lambda x: x.astype(np.float32),
}


def mlp_forward(x: np.ndarray, params: MlpParams) -> np.ndarray:
    """Dense layers over the last axis of x."""
    out = x.astype(np.float32)
    for w, b, act in zip(params.weights, params.biases, params.activations):
        out = out @ w.T.astype(np.float32) + b.astype(np.float32)
        out = _ACTIVATIONS[act](out)
    return out


def conv1x1(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """1x1 convolution over the channel axis of ... x C x H x W."""
    w, b = params.weight, params.bias
    if w.ndim != 2 or x.shape[-3] != w.shape[1]:
        raise InvalidInputError("1x1 conv weight inconsistent with input channels")
    out = np.einsum("oc,...chw->...ohw", w.astype(np.float32), x.astype(np.float32))
    return (out + b.astype(np.float32)[:, None, None]).astype(np.float32)


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
               eps: float = 1e-5) -> np.ndarray:
    """Per-token normalization over the last axis; constant rows map to 0."""
    if eps <= 0:
        raise InvalidInputError("eps must be positive")
    x64 = x.astype(np.float64)
    mean = x64.mean(axis=-1, keepdims=True)
    var = x64.var(axis=-1, keepdims=True)
    normed = (x64 - mean) / np.sqrt(var + eps)
    return (normed * gamma + beta).astype(np.float32)


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted.astype(np.float64))
    return (e / e.sum(axis=-1, keepdims=True)).astype(np.float32)


def multi_head_self_attention(x: np.ndarray, params: AttentionParams,
                              row_sum_dev: Optional[list] = None) -> np.ndarray:
    """softmax(Q K^T / sqrt(d)) V per head, with output projection.

    Works on ... x N x C inputs (leading axes are batched). When
    `row_sum_dev` is given, the max |row sum - 1| of the softmax is
    appended to it.
    """
    if x.shape[-1] != params.channels:
        raise InvalidInputError("input channels do not match attention parameters")
    if x.shape[-2] < 1:
        raise InvalidInputError("need at least one token")
    h, d = params.heads, params.head_dim
    lead = x.shape[:-2]
    n = x.shape[-2]
    xf = x.astype(np.float32)
    q = xf @ params.w_q.T.astype(np.float32) + params.b_q.astype(np.float32)
    k = xf @ params.w_k.T.astype(np.float32) + params.b_k.astype(np.float32)
    v = xf @ params.w_v.T.astype(np.float32) + params.b_v.astype(np.float32)

    def split(m):
        m = m.reshape(lead + (n, h, d))
        return np.moveaxis(m, -2, -3)  # ... h, n, d

    q, k, v = split(q), split(k), split(v)
    scores = (q @ np.swapaxes(k, -1, -2)) / np.float32(math.sqrt(d))
    if not np.all(np.isfinite(scores)):
        raise NumericError("non-finite attention scores")
    attn = _softmax(scores)
    if row_sum_dev is not None:
        row_sum_dev.append(float(np.abs(attn.astype(np.float64).sum(-1) - 1.0).max()))
    out = attn @ v
    out = np.moveaxis(out, -3, -2).reshape(lead + (n, h * d))
    out = out @ params.w_o.T.astype(np.float32) + params.b_o.astype(np.float32)
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite attention output")
    return out


def downsample_half(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """Strided 2x2 convolution (stride 2), channels preserved."""
    w, b = params.weight, params.bias
    if x.shape[-2] % 2 or x.shape[-1] % 2:
        raise InvalidInputError("downsample requires even spatial dimensions")
    if w.ndim != 4 or w.shape[2:] != (2, 2) or x.shape[-3] != w.shape[1]:
        raise InvalidInputError("downsample kernel must be out_c x in_c x 2 x 2")
    xf = np.asarray(x, np.float32)
    patches = np.stack([xf[..., 0::2, 0::2], xf[..., 0::2, 1::2],
                        xf[..., 1::2, 0::2], xf[..., 1::2, 1::2]], axis=-3)
    # patches: ... x C x 4 x H/2 x W/2
    out = np.einsum("ock,...ckhw->...ohw", w.reshape(w.shape[0], w.shape[1], 4), patches)
    out += b[:, None, None]
    return out


def upsample_double(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """Nearest-neighbor x2 followed by a zero-padded 3x3 convolution."""
    w, b = params.weight, params.bias
    if w.ndim != 4 or w.shape[2:] != (3, 3) or x.shape[-3] != w.shape[1]:
        raise InvalidInputError("upsample kernel must be out_c x in_c x 3 x 3")
    xf = np.repeat(np.repeat(np.asarray(x, np.float32), 2, axis=-2), 2, axis=-1)
    padded = np.zeros(xf.shape[:-2] + (xf.shape[-2] + 2, xf.shape[-1] + 2), np.float32)
    padded[..., 1:-1, 1:-1] = xf
    out = np.zeros(xf.shape[:-3] + (w.shape[0],) + xf.shape[-2:], np.float32)
    for di in range(3):
        for dj in range(3):
            sl = padded[..., di:di + xf.shape[-2], dj:dj + xf.shape[-1]]
            out += np.einsum("oc,...chw->...ohw", w[:, :, di, dj], sl)
    out += b[:, None, None]
    return out


def cyclic_shift(x: np.ndarray, offset: int) -> np.ndarray:
    """Circular shift by (offset, offset) over the two trailing axes:
    out[..., (i + offset) % H, (j + offset) % W] = x[..., i, j]."""
    h, w = x.shape[-2:]
    rows = (np.arange(h) - offset) % h
    cols = (np.arange(w) - offset) % w
    return x[..., rows[:, None], cols[None, :]]


def window_partition(x: np.ndarray, M: int) -> np.ndarray:
    """L x C x H x W -> (L * H/M * W/M) x (M*M) x C: windows in raster order
    per level, each window's tokens in raster order."""
    l, c, h, w = x.shape
    out = np.empty((l * (h // M) * (w // M), M * M, c), x.dtype)
    n = 0
    for lv in range(l):
        for i in range(h // M):
            for j in range(w // M):
                for a in range(M):
                    for b in range(M):
                        out[n, a * M + b] = x[lv, :, i * M + a, j * M + b]
                n += 1
    return out


def window_unpartition(windows: np.ndarray, M: int, l: int, h: int, w: int) -> np.ndarray:
    """Inverse of window_partition."""
    out = np.empty((l, windows.shape[2], h, w), windows.dtype)
    n = 0
    for lv in range(l):
        for i in range(h // M):
            for j in range(w // M):
                for a in range(M):
                    for b in range(M):
                        out[lv, :, i * M + a, j * M + b] = windows[n, a * M + b]
                n += 1
    return out


def steb_forward(x: np.ndarray, params: StebParams, M: int,
                 shifted: bool = False,
                 row_sum_dev: Optional[list] = None) -> np.ndarray:
    """Shift -> partition -> LN+windowed MHSA (residual) -> LN+MLP (residual)
    -> unpartition -> inverse shift. Output shape equals input shape."""
    l, c, h, w = x.shape
    if shifted:
        x = cyclic_shift(x, -(M // 2))
    tokens = window_partition(x, M)
    y = tokens + multi_head_self_attention(
        layer_norm(tokens, params.norm1.gamma, params.norm1.beta),
        params.attn, row_sum_dev=row_sum_dev)
    y = y + mlp_forward(layer_norm(y, params.norm2.gamma, params.norm2.beta),
                        params.mlp)
    out = window_unpartition(y, M, l, h, w)
    if shifted:
        out = cyclic_shift(out, M // 2)
    return out


def regional_extractor_forward(tpr: np.ndarray, params: RegionalParams, M: int,
                               row_sum_dev: Optional[list] = None) -> np.ndarray:
    """TPR L x M_p x H x W -> features L x C_r x H x W via 1x1 lift + STEBs."""
    if tpr.ndim != 4:
        raise InvalidInputError("TPR tensor must be L x M_p x H x W")
    x = conv1x1(tpr, params.lift)
    for i, block in enumerate(params.blocks):
        x = steb_forward(x, block, M, shifted=bool(i % 2), row_sum_dev=row_sum_dev)
    return x


def holistic_extractor_forward(frames: np.ndarray, segments: Sequence[np.ndarray],
                               params: HolisticParams, M: int,
                               row_sum_dev: Optional[list] = None) -> np.ndarray:
    """Multi-scale encoder/decoder over lifted frames and event segments.

    frames: N_in x 3 x H x W; segments: N_in - 1 voxel grids, each
    bins x H x W. Frames and segments are interleaved along the level axis
    (2*N_in - 1 levels), lifted to a common channel count, then passed
    through STEB + downsample stages and STEB + upsample stages with
    addition fusion at matching resolutions. Output keeps the input
    resolution.
    """
    n_in = frames.shape[0]
    if len(segments) != n_in - 1:
        raise InvalidInputError("expected N_in - 1 event segments")
    lifted_frames = conv1x1(frames, params.frame_lift)
    lifted_events = conv1x1(np.stack(list(segments), axis=0), params.event_lift)
    levels = []
    for i in range(n_in - 1):
        levels.append(lifted_frames[i])
        levels.append(lifted_events[i])
    levels.append(lifted_frames[n_in - 1])
    x = np.stack(levels, axis=0)  # (2*N_in - 1) x C x H x W

    skips = []
    for block, down in zip(params.encoder_blocks, params.downs):
        x = steb_forward(x, block, M, row_sum_dev=row_sum_dev)
        skips.append(x)
        x = downsample_half(x, down)
    for block, up, skip in zip(params.decoder_blocks, params.ups, reversed(skips)):
        x = steb_forward(x, block, M, shifted=True, row_sum_dev=row_sum_dev)
        x = upsample_double(x, up) + skip
    return x


def fuse_features(f_g: np.ndarray, f_t_l: np.ndarray, conv: ConvParams) -> np.ndarray:
    """Element-wise sum followed by a 1x1 convolution."""
    if f_g.shape != f_t_l.shape:
        raise InvalidInputError("holistic and regional features must share a shape")
    return conv1x1(f_g + f_t_l, conv)


def temporal_embed(t: float, params: TemporalEmbedParams, r_t: np.ndarray) -> np.ndarray:
    """Channel attention a(t) from the MLP, applied to R_t, then compressed.

    r_t: C_t x H x W. Returns C_ts x H x W.
    """
    if not 0.0 <= t <= 1.0:
        raise InvalidInputError("t must lie in [0, 1]")
    attn = mlp_forward(np.array([t], np.float32), params.mlp)
    if attn.shape[0] != r_t.shape[0]:
        raise InvalidInputError("temporal MLP output does not match R_t channels")
    weighted = (attn[:, None, None] * r_t).astype(np.float32)
    return conv1x1(weighted, params.compress)


def spatial_decode(feature: np.ndarray, queries: np.ndarray, s: float,
                   decoder: MlpParams) -> np.ndarray:
    """Decode RGB at continuous (x, y) query points over a C x h x w grid.

    Cell (i, j) has its center at (j + 0.5, i + 0.5); the grid's continuous
    extent is [0, w] x [0, h]. Per query the four nearest cells each decode
    MLP(feature || offset-to-center) into an RGB candidate; candidates are
    combined with weights proportional to the rectangle area spanned by the
    query and the diagonally opposite cell center (weights sum to 1).
    """
    if s < 1:
        raise InvalidInputError("scale must be >= 1")
    c, h, w = feature.shape
    if decoder.in_dim != c + 2:
        raise InvalidInputError("decoder input dim must be feature channels + 2")
    q = np.asarray(queries, np.float64)
    if q.ndim != 2 or q.shape[1] != 2:
        raise InvalidInputError("queries must be N x 2 (x, y)")
    if np.any(q[:, 0] < 0) or np.any(q[:, 0] > w) or np.any(q[:, 1] < 0) or np.any(q[:, 1] > h):
        raise InvalidInputError("query outside the feature grid extent")

    qx, qy = q[:, 0], q[:, 1]
    j0 = np.clip(np.floor(qx - 0.5).astype(np.int64), 0, w - 1)
    i0 = np.clip(np.floor(qy - 0.5).astype(np.int64), 0, h - 1)
    j1 = np.minimum(j0 + 1, w - 1)
    i1 = np.minimum(i0 + 1, h - 1)

    feat = feature.astype(np.float32)
    n = q.shape[0]
    rgb = np.zeros((n, 4, 3), np.float32)
    ax = np.zeros((n, 4), np.float64)
    ay = np.zeros((n, 4), np.float64)
    corners = [(i0, j0), (i0, j1), (i1, j0), (i1, j1)]
    opposite = [3, 2, 1, 0]
    for k, (ci, cj) in enumerate(corners):
        cx, cy = cj + 0.5, ci + 0.5
        dx, dy = qx - cx, qy - cy
        inp = np.concatenate([
            feat[:, ci, cj].T,
            np.stack([dx, dy], axis=1).astype(np.float32),
        ], axis=1)
        rgb[:, k, :] = mlp_forward(inp, decoder)
        oi, oj = corners[opposite[k]]
        ax[:, k] = np.abs(qx - (oj + 0.5))
        ay[:, k] = np.abs(qy - (oi + 0.5))

    # an axis whose four factors are all 0 (a clamped border cell, query on
    # its centre line) takes their limit from either side, 1
    ax[~ax.any(axis=1)] = 1.0
    ay[~ay.any(axis=1)] = 1.0
    weights = ax * ay
    weights = weights / weights.sum(axis=1, keepdims=True)
    out = np.einsum("nk,nkc->nc", weights.astype(np.float32), rgb)
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite decoded values")
    return out


def simulate_events(frames: Sequence[IntensityFrame], C: float) -> EventStream:
    """Generate events from frames by linear threshold crossings in log space.

    The per-pixel log-intensity signal is linearly interpolated between frame
    samples. Starting from the first frame's log value as reference, an event
    of polarity sign(dL) fires each time the signal departs from the
    reference by C; the reference then advances by p*C. Event times are
    rounded down to the microsecond. Deterministic: simultaneous events are
    ordered row-major by pixel, positive polarity first.
    """
    if len(frames) < 2:
        raise InvalidInputError("need at least two frames")
    if C <= 0:
        raise InvalidInputError("contrast threshold C must be positive")
    h, w = frames[0].height, frames[0].width
    for f in frames:
        if f.height != h or f.width != w:
            raise InvalidInputError("all frames must share dimensions")
    ts = [f.timestamp for f in frames]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise InvalidInputError("frame timestamps must be strictly increasing")

    logs = [log_view(f) for f in frames]
    ref = logs[0].copy()

    rec = []  # (t_us, pixel_index, -p, x, y, p) for canonical sorting
    for (t0, l0), (t1, l1) in zip(zip(ts[:-1], logs[:-1]), zip(ts[1:], logs[1:])):
        dl = l1 - l0
        # number of threshold levels crossed per pixel during this segment
        n_cross = np.floor(np.abs(l1 - ref) / C + _CROSSING_TOL).astype(np.int64)
        n_cross[np.sign(dl) != np.sign(l1 - ref)] = 0
        n_cross[dl == 0] = 0
        ys, xs = np.nonzero(n_cross)
        for yy, xx in zip(ys, xs):
            pol = 1 if dl[yy, xx] > 0 else -1
            for k in range(1, int(n_cross[yy, xx]) + 1):
                target = ref[yy, xx] + pol * k * C
                frac = (target - l0[yy, xx]) / dl[yy, xx]
                t_ev = int(math.floor(t0 + frac * (t1 - t0)))
                rec.append((t_ev, yy * w + xx, -pol, int(xx), int(yy), pol))
            ref[yy, xx] += pol * n_cross[yy, xx] * C

    rec.sort(key=lambda r: (r[0], r[1], r[2]))
    return EventStream(
        sensor_width=w,
        sensor_height=h,
        t_begin=ts[0],
        t_end=ts[-1],
        t=np.array([r[0] for r in rec], np.int64),
        x=np.array([r[3] for r in rec], np.int32),
        y=np.array([r[4] for r in rec], np.int32),
        p=np.array([r[5] for r in rec], np.int8),
    )


def polarity_integral(stream: EventStream, x: int, y: int,
                      t0: int, t1: int) -> int:
    """Sum of polarities of events at (x, y) with t in (t0, t1]."""
    if not (0 <= x < stream.sensor_width and 0 <= y < stream.sensor_height):
        raise InvalidInputError("pixel out of sensor bounds")
    if t0 > t1:
        raise InvalidInputError("t0 must not exceed t1")
    mask = (stream.x == x) & (stream.y == y) & (stream.t > t0) & (stream.t <= t1)
    return int(stream.p[mask].sum())


def reconstruct_log_intensity(frame: IntensityFrame, stream: EventStream,
                              t: int, C: float) -> np.ndarray:
    """Log-intensity field at time t from a keyframe plus integrated events.

    output(x, y) = log_view(frame)(x, y) + C * sum of p over (frame.timestamp, t].
    """
    if C <= 0:
        raise InvalidInputError("contrast threshold C must be positive")
    if t < frame.timestamp:
        raise InvalidInputError("backward integration is not supported (t < frame time)")
    base = log_view(frame)
    counts = np.zeros(base.shape, np.int64)
    mask = (stream.t > frame.timestamp) & (stream.t <= t)
    np.add.at(counts, (stream.y[mask], stream.x[mask]), stream.p[mask])
    return base + C * counts


def build_voxel_grid(stream: EventStream, M: int, t0: float, t1: float) -> VoxelGrid:
    """Accumulate a stream into M temporal bins over [t0, t1].

    Each in-window event lands at normalized coordinate
    tau = M*(t-t0)/(t1-t0) - 0.5 and splats p*(1-|tau-k|) into the one or
    two nearest bins. tau is clamped into [0, M-1] so that boundary events
    keep their full weight and signed mass is conserved exactly.
    """
    if M < 1:
        raise InvalidInputError("bin count M must be >= 1")
    if t0 >= t1:
        raise InvalidInputError("t0 must be less than t1")
    data = np.zeros((M, stream.sensor_height, stream.sensor_width), np.float64)
    mask = (stream.t >= t0) & (stream.t <= t1)
    if mask.any():
        t = stream.t[mask].astype(np.float64)
        xs = stream.x[mask].astype(np.int64)
        ys = stream.y[mask].astype(np.int64)
        ps = stream.p[mask].astype(np.float64)
        tau = M * (t - t0) / (t1 - t0) - 0.5
        np.clip(tau, 0.0, M - 1.0, out=tau)
        k = np.floor(tau).astype(np.int64)
        np.clip(k, 0, M - 1, out=k)
        frac = tau - k
        flat = data.reshape(M, -1)
        idx = ys * stream.sensor_width + xs
        np.add.at(flat, (k, idx), ps * (1.0 - frac))
        hi = k + 1
        valid = hi < M
        np.add.at(flat, (hi[valid], idx[valid]), ps[valid] * frac[valid])
    return VoxelGrid(bins=M, t0=float(t0), t1=float(t1), data=data)


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
    if attenuation <= 1:
        raise InvalidInputError("attenuation r must exceed 1")
    if half_window <= 0:
        raise InvalidInputError("half_window must be positive")
    if 2.0 * half_window / float(attenuation) ** levels < 1.0:
        raise InvalidInputError(
            "finest level window narrower than 1 microsecond (granularity "
            "exceeds the timestamp clock)")
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


def reference_pipeline_forward(frames, stream, s, times, config, params):
    """Output frames of `pipeline_forward`, with the head above.

    Inputs are assumed valid; this mirrors the production stage order
    (voxel segments, one holistic call, then per time TPR, regional
    extractor, fuse, temporal embed, decode) without its checks.
    """
    ts = [f.timestamp for f in frames]
    h, w = frames[0].height, frames[0].width
    segments = [build_voxel_grid(stream, config.voxel_bins, a, b).data
                for a, b in zip(ts[:-1], ts[1:])]
    frame_tensor = np.stack(
        [np.moveaxis(f.pixels, -1, 0) for f in frames]).astype(np.float32)
    f_g = holistic_extractor_forward(frame_tensor, segments, params.holistic,
                                     config.window_size)
    f_g_pooled = f_g.mean(axis=0)
    span = ts[-1] - ts[0]
    half_window = 0.5 * span
    out_h = int(math.floor(s * h + 1e-9))
    out_w = int(math.floor(s * w + 1e-9))
    gy, gx = np.meshgrid(np.arange(out_h), np.arange(out_w), indexing="ij")
    queries = np.stack([(gx.ravel() + 0.5) / s,
                        (gy.ravel() + 0.5) / s], axis=1)
    outputs = []
    for t in times:
        tpr = build_tpr(stream, ts[0] + t * span, half_window, config.tpr_levels,
                        config.tpr_moments, config.tpr_ratio)
        f_t_l = regional_extractor_forward(tpr.data.astype(np.float32),
                                           params.regional, config.window_size)
        r_t = fuse_features(f_g_pooled, f_t_l.mean(axis=0), params.fuse)
        r_ts = temporal_embed(t, params.temporal, r_t)
        rgb = spatial_decode(r_ts, queries, s, params.decoder)
        outputs.append(np.clip(rgb.reshape(out_h, out_w, 3), 0.0, 1.0))
    return outputs
