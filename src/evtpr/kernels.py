"""Forward-only numerical kernels for feature extraction and implicit
decoding: window partitioning, shifted-window attention blocks, multi-scale
down/up-sampling, holistic/regional extractors, temporal embedding, and
area-weighted spatial decoding.

Everything here is pure float32 numpy with explicitly supplied parameters;
no training, no hidden state. STEB arithmetic is float32 end to end,
layer norm, softmax and GELU included (only the layer-norm mean and the
softmax row-sum check accumulate in float64); tests/reference.py keeps the
float64-internal originals, and the outputs agree with them to 1e-5.

The STEBs and the decoder split their work into fixed-size blocks,
_STEB_CHUNK attention windows or _DECODE_CHUNK queries, and run them on
`threads` threads (the caller and threads - 1 pool workers). Block
boundaries are module constants and never depend on `threads`, so every
output is byte-identical for any thread count. BLAS is kept to one thread
per caller (see evtpr/__init__.py), so the blocks do not oversubscribe
the cores.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidInputError, NumericError


def _f32(a) -> np.ndarray:
    return np.asarray(a, np.float32)


# ---------------------------------------------------------------------------
# parameter containers; each casts its arrays to float32 once, when built,
# so the kernels use weights as they are

@dataclass(frozen=True)
class AttentionParams:
    heads: int
    w_q: np.ndarray  # C x C
    b_q: np.ndarray
    w_k: np.ndarray
    b_k: np.ndarray
    w_v: np.ndarray
    b_v: np.ndarray
    w_o: np.ndarray
    b_o: np.ndarray

    def __post_init__(self):
        for name in ("w_q", "b_q", "w_k", "b_k", "w_v", "b_v", "w_o", "b_o"):
            object.__setattr__(self, name, _f32(getattr(self, name)))
        c = self.w_q.shape[1]
        for m in (self.w_q, self.w_k, self.w_v, self.w_o):
            if m.shape != (c, c):
                raise InvalidInputError("attention projections must be square and consistent")
        if c % self.heads != 0:
            raise InvalidInputError("head count must divide the channel dimension")

    @property
    def channels(self) -> int:
        return self.w_q.shape[1]

    @property
    def head_dim(self) -> int:
        return self.channels // self.heads


@dataclass(frozen=True)
class MlpParams:
    weights: tuple[np.ndarray, ...]  # each out_dim x in_dim
    biases: tuple[np.ndarray, ...]
    activations: tuple[str, ...]  # per layer: "gelu", "relu", "none"

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(_f32(w) for w in self.weights))
        object.__setattr__(self, "biases", tuple(_f32(b) for b in self.biases))
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise InvalidInputError("mlp layer lists must align")
        for w_prev, w_next in zip(self.weights, self.weights[1:]):
            if w_prev.shape[0] != w_next.shape[1]:
                raise InvalidInputError("consecutive mlp layer dimensions must chain")

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]


@dataclass(frozen=True)
class LayerNormParams:
    gamma: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", _f32(self.gamma))
        object.__setattr__(self, "beta", _f32(self.beta))


@dataclass(frozen=True)
class StebParams:
    norm1: LayerNormParams
    attn: AttentionParams
    norm2: LayerNormParams
    mlp: MlpParams


@dataclass(frozen=True)
class ConvParams:
    weight: np.ndarray  # out_c x in_c (1x1) or out_c x in_c x kh x kw
    bias: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weight", _f32(self.weight))
        object.__setattr__(self, "bias", _f32(self.bias))


@dataclass(frozen=True)
class TemporalEmbedParams:
    mlp: MlpParams  # scalar t -> C_t attention vector
    compress: ConvParams  # 1x1, C_t -> C_ts


@dataclass(frozen=True)
class PipelineConfig:
    n_in: int
    c_r: int = 16  # feature channels inside both extractors
    c_t: int = 640  # fused/temporal channel dimension
    c_ts: int = 64  # compressed channels entering the spatial decoder
    window_size: int = 4  # attention window M
    heads: int = 2
    voxel_bins: int = 4  # M of the holistic voxel grid segments
    tpr_levels: int = 3
    tpr_moments: int = 2
    tpr_ratio: float = 3.0
    tpr_half_window_fraction: float = 0.5  # of the input window span
    encoder_depth: int = 3  # down/up iterations in the holistic extractor
    mlp_ratio: int = 2  # hidden width multiplier inside STEB MLPs
    temporal_hidden: int = 32
    decoder_hidden: int = 64

    def __post_init__(self):
        if self.c_t <= 0:
            raise InvalidInputError("c_t must be positive")
        if self.n_in < 2:
            raise InvalidInputError("n_in must be >= 2")
        if self.c_r % self.heads:
            raise InvalidInputError("heads must divide c_r")

    def tpr_half_window_us(self, span_us: float) -> float:
        return self.tpr_half_window_fraction * span_us

    def validate_spatial(self, h: int, w: int) -> None:
        step = self.window_size * 2 ** self.encoder_depth
        if h % step or w % step:
            raise InvalidInputError(
                "working resolution %dx%d must be divisible by window*2^depth = %d"
                % (h, w, step))


# ---------------------------------------------------------------------------
# geometry

def window_partition(x: np.ndarray, M: int) -> np.ndarray:
    """L x C x H x W -> (L * H/M * W/M) x (M*M) x C, raster order per window."""
    if x.ndim != 4:
        raise InvalidInputError("expected an L x C x H x W tensor")
    l, c, h, w = x.shape
    if h % M or w % M:
        raise InvalidInputError("window size must divide H and W")
    x = x.reshape(l, c, h // M, M, w // M, M)
    x = x.transpose(0, 2, 4, 3, 5, 1)  # l, h/M, w/M, M, M, c
    return np.ascontiguousarray(x.reshape(l * (h // M) * (w // M), M * M, c))


def window_unpartition(windows: np.ndarray, M: int, l: int, h: int, w: int) -> np.ndarray:
    """Inverse of window_partition; bit-exact."""
    c = windows.shape[2]
    if windows.shape != (l * (h // M) * (w // M), M * M, c):
        raise InvalidInputError("window tensor inconsistent with target shape")
    x = windows.reshape(l, h // M, w // M, M, M, c)
    x = x.transpose(0, 5, 1, 3, 2, 4)
    return np.ascontiguousarray(x.reshape(l, c, h, w))


def cyclic_shift(x: np.ndarray, offset: int) -> np.ndarray:
    """Circular roll by (offset, offset) over the two trailing spatial axes."""
    if offset == 0:
        return x
    return np.roll(x, (offset, offset), axis=(-2, -1))


def _map_blocks(fn: Callable[[int], None], n: int, size: int, threads: int) -> None:
    """Call fn(start) for each start in range(0, n, size) on `threads` threads.

    The calling thread and threads - 1 pool workers pull starts from one
    shared iterator, so blocks are balanced however long each takes. Once
    a block raises, no new block starts; the first exception propagates
    unchanged after every worker has finished, so no thread outlives the
    call.
    """
    if threads < 1:
        raise InvalidInputError("threads must be >= 1")
    starts = iter(range(0, n, size))
    if threads == 1 or n <= size:
        for start in starts:
            fn(start)
        return
    lock = threading.Lock()
    errors: list[BaseException] = []

    def drain():
        while True:
            with lock:
                start = None if errors else next(starts, None)
            if start is None:
                return
            try:
                fn(start)
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                return

    workers = min(threads, -(-n // size)) - 1
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for _ in range(workers):
            pool.submit(drain)
        drain()
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# core kernels

def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
               eps: float = 1e-5) -> np.ndarray:
    """Per-token normalization over the last axis; constant rows map to 0.

    Float32 throughout except the mean, which is accumulated in float64:
    that makes it exact for a constant row (a float32 mean of, say, five
    copies of 1/3 is not), so the row centres to exactly 0.
    """
    if eps <= 0:
        raise InvalidInputError("eps must be positive")
    x = _f32(x)
    out = x - x.mean(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
    var = np.einsum("...c,...c->...", out, out)[..., None]
    var /= x.shape[-1]
    var += eps
    out /= np.sqrt(var, out=var)
    out *= gamma
    out += beta
    return out


def _gelu(x: np.ndarray) -> np.ndarray:
    from scipy.special import erf
    e = x / np.float32(math.sqrt(2.0))
    erf(e, out=e)  # scipy's float32 loop
    e += 1.0
    x *= e
    x *= 0.5
    return x


# each may overwrite its float32 argument, which callers pass fresh
_ACTIVATIONS = {
    "gelu": _gelu,
    "relu": lambda x: np.maximum(x, 0.0, out=x),
    "none": lambda x: x,
}


def mlp_forward(x: np.ndarray, params: MlpParams) -> np.ndarray:
    """Dense layers over the last axis of x."""
    out = _f32(x)
    for w, b, act in zip(params.weights, params.biases, params.activations):
        out = out @ w.T
        out += b
        out = _ACTIVATIONS[act](out)
    return out


def _row_max(x: np.ndarray) -> np.ndarray:
    """x.max(axis=-1, keepdims=True) as a tree of np.maximum over halves.

    Bit-identical to .max, and faster on the short rows of a window.
    """
    while x.shape[-1] > 1:
        n, half = x.shape[-1], x.shape[-1] // 2
        m = np.maximum(x[..., :half], x[..., half:2 * half])
        if n % 2:
            np.maximum(m, x[..., -1:], out=m)
        x = m
    return x


def _softmax(scores: np.ndarray) -> np.ndarray:
    e = scores - _row_max(scores)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


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
    xf = _f32(x)
    q = xf @ params.w_q.T + params.b_q
    k = xf @ params.w_k.T + params.b_k
    v = xf @ params.w_v.T + params.b_v

    def split(m):
        m = m.reshape(lead + (n, h, d))
        return np.moveaxis(m, -2, -3)  # ... h, n, d

    q, k, v = split(q), split(k), split(v)
    scores = (q @ np.swapaxes(k, -1, -2)) / np.float32(math.sqrt(d))
    if not np.all(np.isfinite(scores)):
        raise NumericError("non-finite attention scores")
    attn = _softmax(scores)
    if row_sum_dev is not None:
        row_sum_dev.append(float(np.abs(attn.sum(-1, dtype=np.float64) - 1.0).max()))
    out = attn @ v
    out = np.moveaxis(out, -3, -2).reshape(lead + (n, h * d))
    out = out @ params.w_o.T + params.b_o
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite attention output")
    return out


# Attention windows per STEB block. A block's largest temporaries, the
# attention scores and the MLP hidden layer, stay near 1 MB at c_r = 16 and
# M = 4, so they fit in cache and peak memory does not grow with the input.
_STEB_CHUNK = 512


def steb_forward(x: np.ndarray, params: StebParams, M: int,
                 shifted: bool = False,
                 row_sum_dev: Optional[list] = None,
                 threads: int = 1) -> np.ndarray:
    """Shift -> partition -> LN+windowed MHSA (residual) -> LN+MLP (residual)
    -> unpartition -> inverse shift. Output shape equals input shape.

    Windows are independent, so the four middle steps run over blocks of
    _STEB_CHUNK windows on `threads` threads, each block writing its rows
    of one preallocated token tensor."""
    l, c, h, w = x.shape
    if shifted:
        x = cyclic_shift(x, -(M // 2))
    tokens = window_partition(x, M)
    y = np.empty(tokens.shape, np.result_type(tokens.dtype, np.float32))

    def block(start: int) -> None:
        t = tokens[start:start + _STEB_CHUNK]
        out = y[start:start + _STEB_CHUNK]
        np.add(t, multi_head_self_attention(
            layer_norm(t, params.norm1.gamma, params.norm1.beta),
            params.attn, row_sum_dev=row_sum_dev), out=out)
        out += mlp_forward(layer_norm(out, params.norm2.gamma, params.norm2.beta),
                           params.mlp)

    _map_blocks(block, len(tokens), _STEB_CHUNK, threads)
    out = window_unpartition(y, M, l, h, w)
    if shifted:
        out = cyclic_shift(out, M // 2)
    return out


def conv1x1(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """1x1 convolution over the channel axis of ... x C x H x W."""
    w, b = params.weight, params.bias
    if w.ndim != 2 or x.shape[-3] != w.shape[1]:
        raise InvalidInputError("1x1 conv weight inconsistent with input channels")
    *lead, c, h, wd = x.shape
    out = w @ _f32(x).reshape(*lead, c, h * wd)  # BLAS per leading index
    out += b[:, None]
    return out.reshape(*lead, w.shape[0], h, wd)


def downsample_half(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """Strided 2x2 convolution (stride 2), channels preserved."""
    w, b = params.weight, params.bias
    if x.shape[-2] % 2 or x.shape[-1] % 2:
        raise InvalidInputError("downsample requires even spatial dimensions")
    if w.ndim != 4 or w.shape[2:] != (2, 2) or x.shape[-3] != w.shape[1]:
        raise InvalidInputError("downsample kernel must be out_c x in_c x 2 x 2")
    xf = _f32(x)
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
    xf = np.repeat(np.repeat(_f32(x), 2, axis=-2), 2, axis=-1)
    padded = np.zeros(xf.shape[:-2] + (xf.shape[-2] + 2, xf.shape[-1] + 2), np.float32)
    padded[..., 1:-1, 1:-1] = xf
    out = np.zeros(xf.shape[:-3] + (w.shape[0],) + xf.shape[-2:], np.float32)
    for di in range(3):
        for dj in range(3):
            sl = padded[..., di:di + xf.shape[-2], dj:dj + xf.shape[-1]]
            out += np.einsum("oc,...chw->...ohw", w[:, :, di, dj], sl)
    out += b[:, None, None]
    return out


# ---------------------------------------------------------------------------
# extractors and fusion

@dataclass(frozen=True)
class RegionalParams:
    lift: ConvParams  # 1x1, M_p -> C_r
    blocks: tuple[StebParams, ...]  # alternating plain / shifted


def regional_extractor_forward(tpr: np.ndarray, params: RegionalParams, M: int,
                               row_sum_dev: Optional[list] = None,
                               threads: int = 1) -> np.ndarray:
    """TPR L x M_p x H x W -> features L x C_r x H x W via 1x1 lift + STEBs."""
    if tpr.ndim != 4:
        raise InvalidInputError("TPR tensor must be L x M_p x H x W")
    x = conv1x1(tpr, params.lift)
    for i, block in enumerate(params.blocks):
        x = steb_forward(x, block, M, shifted=bool(i % 2), row_sum_dev=row_sum_dev,
                         threads=threads)
    return x


@dataclass(frozen=True)
class HolisticParams:
    frame_lift: ConvParams  # 1x1, 3 -> C
    event_lift: ConvParams  # 1x1, voxel_bins -> C
    encoder_blocks: tuple[StebParams, ...]  # depth entries
    downs: tuple[ConvParams, ...]
    decoder_blocks: tuple[StebParams, ...]
    ups: tuple[ConvParams, ...]


def holistic_extractor_forward(frames: np.ndarray, segments: Sequence[np.ndarray],
                               params: HolisticParams, M: int,
                               row_sum_dev: Optional[list] = None,
                               threads: int = 1) -> np.ndarray:
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
        x = steb_forward(x, block, M, row_sum_dev=row_sum_dev, threads=threads)
        skips.append(x)
        x = downsample_half(x, down)
    for block, up, skip in zip(params.decoder_blocks, params.ups, reversed(skips)):
        x = steb_forward(x, block, M, shifted=True, row_sum_dev=row_sum_dev,
                         threads=threads)
        x = upsample_double(x, up) + skip
    return x


def fuse_features(f_g: np.ndarray, f_t_l: np.ndarray, conv: ConvParams) -> np.ndarray:
    """Element-wise sum followed by a 1x1 convolution."""
    if f_g.shape != f_t_l.shape:
        raise InvalidInputError("holistic and regional features must share a shape")
    return conv1x1(f_g + f_t_l, conv)


def gated_compress(t: float, params: TemporalEmbedParams) -> ConvParams:
    """The compress conv with the channel attention a(t) folded in.

    compress(a(t) * R) = (W_c diag(a(t))) R + b_c, so gating and
    compression are one 1x1 conv of weight W_c diag(a(t)) and bias b_c.
    """
    if not 0.0 <= t <= 1.0:
        raise InvalidInputError("t must lie in [0, 1]")
    attn = mlp_forward(np.array([t], np.float32), params.mlp)
    if attn.shape[0] != params.compress.weight.shape[1]:
        raise InvalidInputError("temporal MLP output does not match compress input channels")
    return ConvParams(weight=params.compress.weight * attn, bias=params.compress.bias)


def temporal_embed(t: float, params: TemporalEmbedParams, r_t: np.ndarray) -> np.ndarray:
    """Channel attention a(t) from the MLP, applied to R_t, then compressed.

    r_t: C_t x H x W. Returns C_ts x H x W.
    """
    gated = gated_compress(t, params)
    if gated.weight.shape[1] != r_t.shape[0]:
        raise InvalidInputError("temporal MLP output does not match R_t channels")
    return conv1x1(r_t, gated)


def timestamp_head(t: float, fuse: ConvParams, params: TemporalEmbedParams) -> ConvParams:
    """fuse -> a(t) gating -> compress as one C_ts x C_r 1x1 conv.

    All three are linear, so the composition has weight
    W_c diag(a(t)) W_f and bias W_c (a(t) * b_f) + b_c; applied to
    F_g + F_t it equals temporal_embed(t, params, fuse_features(...))
    without building the C_t x H x W tensor.
    """
    gated = gated_compress(t, params)
    if gated.weight.shape[1] != fuse.weight.shape[0]:
        raise InvalidInputError("fuse output does not match temporal channels")
    return ConvParams(weight=gated.weight @ fuse.weight,
                      bias=gated.weight @ fuse.bias + gated.bias)


# ---------------------------------------------------------------------------
# implicit spatial decoding

# Queries per decode chunk. A chunk's temporaries are 4 * _DECODE_CHUNK rows
# of the decoder's hidden width (4 MB at width 64), so peak memory does not
# grow with the output size, and blocks that small are reused from the heap
# rather than mapped (and page-faulted) afresh for every layer.
_DECODE_CHUNK = 4096


def spatial_decode(feature: np.ndarray, queries: np.ndarray, s: float,
                   decoder: MlpParams, threads: int = 1) -> np.ndarray:
    """Decode RGB at continuous (x, y) query points over a C x h x w grid.

    Cell (i, j) has its center at (j + 0.5, i + 0.5); the grid's continuous
    extent is [0, w] x [0, h]. Per query the four nearest cells each decode
    MLP(feature || offset-to-center) into an RGB candidate; candidates are
    combined with weights proportional to the rectangle area spanned by the
    query and the diagonally opposite cell center (weights sum to 1).

    The decoder's first layer is linear in feature || offset, so it splits
    into a per-cell part, W1[:, :C] f + b1, computed once for each of the
    h*w cells, and a per-corner part, dx W1[:, C] + dy W1[:, C+1], added to
    the gathered row of the corner's cell. Queries are decoded in chunks of
    _DECODE_CHUNK, the four corners of a chunk as one batch through the
    remaining layers, so memory stays bounded at any output size. Chunks
    share the per-cell table and run on `threads` threads.
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

    w1 = decoder.weights[0]
    cell = _f32(feature).reshape(c, h * w).T @ w1[:, :c].T  # (h*w) x hidden
    cell += decoder.biases[0]
    w_offset = w1[:, c:].T  # 2 x hidden
    first_act = _ACTIVATIONS[decoder.activations[0]]
    rest = MlpParams(weights=decoder.weights[1:], biases=decoder.biases[1:],
                     activations=decoder.activations[1:])

    n = q.shape[0]
    out = np.empty((n, decoder.out_dim), np.float32)

    def block(start: int) -> None:
        qx, qy = q[start:start + _DECODE_CHUNK].T
        j0 = np.clip(np.floor(qx - 0.5).astype(np.int64), 0, w - 1)
        i0 = np.clip(np.floor(qy - 0.5).astype(np.int64), 0, h - 1)
        j1 = np.minimum(j0 + 1, w - 1)
        i1 = np.minimum(i0 + 1, h - 1)
        rows = np.stack([i0, i0, i1, i1])  # corner x query
        cols = np.stack([j0, j1, j0, j1])
        dx = qx - (cols + 0.5)
        dy = qy - (rows + 0.5)
        # corner k is weighted by the area to the opposite corner, 3 - k
        weights = np.abs(dx[::-1] * dy[::-1])
        total = weights.sum(axis=0)
        degenerate = total <= 0
        if np.any(degenerate):
            # clamped corners collapsed; fall back to equal weighting
            weights[:, degenerate] = 0.25
            total[degenerate] = 1.0
        weights /= total

        hidden = cell[(rows * w + cols).ravel()]
        hidden += np.stack([dx.ravel(), dy.ravel()], axis=1).astype(np.float32) @ w_offset
        rgb = mlp_forward(first_act(hidden), rest).reshape(4, len(qx), -1)
        out[start:start + len(qx)] = np.einsum("kn,knc->nc", weights.astype(np.float32), rgb)

    _map_blocks(block, n, _DECODE_CHUNK, threads)
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite decoded values")
    return out
