"""Forward-only numerical kernels for feature extraction and implicit
decoding: window partitioning, shifted-window attention blocks, multi-scale
down/up-sampling, holistic/regional extractors, temporal embedding, and
area-weighted spatial decoding.

Everything here is pure float32 numpy with explicitly supplied parameters;
no training, no hidden state, no scipy. STEB arithmetic is float32 end to
end, layer norm (which has no gain or bias), softmax and GELU included (only
the layer-norm mean accumulates in float64); GELU takes the normal tail from
Abramowitz & Stegun 7.1.26 in place of erf. Attention computes Q, K and V
with one fused C x 3C GEMM whose Q columns carry the 1/sqrt(d) of the
scores, and its scores are keys-major, K Q^T, so the softmax reduces over
contiguous rows; AttentionParams builds the fused weights once. Both
resampling convolutions run as BLAS GEMMs over gathered taps, the x2
upsampling as four sub-pixel phases with no x2 tensor. The decoder runs one
block body for query arrays and output grids: a block takes the taps of its
rows and of its columns and broadcasts them into each query's four corners.
A whole output grid (QueryGrid), at any scale, solves each axis once and
decodes blocks of whole output rows; a query array solves its axes per
block. A QueryGrid holds only the grid's size; spatial_decode's s places its
pixel centres.
tests/reference.py keeps the float64-internal and straightforward
originals, and the outputs agree with them to 1e-5.

The STEBs and the decoder split their work into fixed-size blocks,
_STEB_CHUNK attention windows or at most _DECODE_CHUNK queries, and run them on
`threads` threads (the caller and threads - 1 pool workers). Block
boundaries follow from module constants and the shapes, never from
`threads`, so every output is byte-identical for any thread count.
pipeline_forward runs OpenBLAS at one thread under the blocks and restores
the caller's count after (evtpr.blas: process-wide; nothing is set under
another BLAS).
"""

from __future__ import annotations

import math
import operator
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import InvalidInputError, NumericError


def _f32(a) -> np.ndarray:
    return np.asarray(a, np.float32)


# ---------------------------------------------------------------------------
# parameter containers; each casts its arrays to float32 once, when built,
# so the kernels use weights as they are

@dataclass(frozen=True)
class AttentionParams:
    """Multi-head attention weights, each out x in, and biases.

    When built, it also derives the arrays multi_head_self_attention uses:
    w_qkv, the contiguous C x 3C matrix [W_q / sqrt(d); W_k; W_v]^T, whose
    one GEMM gives Q with the 1/sqrt(d) of the scores folded in, K and V
    side by side; b_qkv, the bias [b_q / sqrt(d), b_k, b_v]; and w_o_t, a
    contiguous W_o^T. dataclasses.replace builds them anew.
    """
    heads: int
    w_q: np.ndarray  # C x C
    b_q: np.ndarray
    w_k: np.ndarray
    b_k: np.ndarray
    w_v: np.ndarray
    b_v: np.ndarray
    w_o: np.ndarray
    b_o: np.ndarray
    w_qkv: np.ndarray = field(init=False, repr=False, compare=False)
    b_qkv: np.ndarray = field(init=False, repr=False, compare=False)
    w_o_t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("w_q", "b_q", "w_k", "b_k", "w_v", "b_v", "w_o", "b_o"):
            object.__setattr__(self, name, _f32(getattr(self, name)))
        c = self.w_q.shape[1]
        for m in (self.w_q, self.w_k, self.w_v, self.w_o):
            if m.shape != (c, c):
                raise InvalidInputError("attention projections must be square and consistent")
        for b in (self.b_q, self.b_k, self.b_v, self.b_o):
            if b.shape != (c,):
                raise InvalidInputError("attention biases must have one entry per channel")
        if c % self.heads != 0:
            raise InvalidInputError("head count must divide the channel dimension")
        root_d = np.float32(math.sqrt(self.head_dim))
        object.__setattr__(self, "w_qkv", np.ascontiguousarray(
            np.concatenate([self.w_q / root_d, self.w_k, self.w_v]).T))
        object.__setattr__(self, "b_qkv", np.concatenate(
            [self.b_q / root_d, self.b_k, self.b_v]))
        object.__setattr__(self, "w_o_t", np.ascontiguousarray(self.w_o.T))

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
class StebParams:
    attn: AttentionParams
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
    """Pipeline sizes. The fields are the sizes callers set; the ClassVars
    are fixed for the model, as in the paper, and read through any instance
    (build_tpr and build_voxel_grid still take any L, M_p, r and bins)."""
    n_in: int
    c_r: int = 16  # feature channels inside both extractors
    c_t: int = 640  # fused/temporal channel dimension
    c_ts: int = 64  # compressed channels entering the spatial decoder
    heads: int = 2
    encoder_depth: int = 3  # down/up iterations in the holistic extractor
    window_size: ClassVar[int] = 4  # attention window M
    voxel_bins: ClassVar[int] = 4  # M of the holistic voxel grid segments
    tpr_levels: ClassVar[int] = 3  # L
    tpr_moments: ClassVar[int] = 2  # M_p
    tpr_ratio: ClassVar[float] = 3.0  # r

    def __post_init__(self):
        for name in ("c_r", "c_t", "c_ts", "heads"):
            if getattr(self, name) < 1:
                raise InvalidInputError("%s must be >= 1" % name)
        if self.encoder_depth < 0:
            raise InvalidInputError("encoder_depth must be >= 0")
        if self.n_in < 2:
            raise InvalidInputError("n_in must be >= 2")
        if self.c_r % self.heads:
            raise InvalidInputError("heads must divide c_r")

    def validate_spatial(self, h: int, w: int) -> None:
        step = self.window_size * 2 ** self.encoder_depth
        if h % step or w % step:
            raise InvalidInputError(
                "working resolution %dx%d must be divisible by window*2^depth = %d*2^%d"
                % (h, w, self.window_size, self.encoder_depth))


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
    # a copy even where the reshape below could be a view of the input (C = 1
    # and M = 1 or M = W), so steb_forward may add into it in place
    x = x.transpose(0, 2, 4, 3, 5, 1).copy()  # l, h/M, w/M, M, M, c
    return x.reshape(l * (h // M) * (w // M), M * M, c)


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


def _map_blocks(fn: Callable[[object], None], items: Sequence, threads: int) -> None:
    """Call fn(item) for each item of `items` on `threads` threads.

    The calling thread and threads - 1 pool workers pull items from one
    shared iterator, so blocks are balanced however long each takes. Once
    a block raises, no new item starts; the first exception propagates
    unchanged after every worker has finished, so no thread outlives the
    call.

    The caller runs blocks itself rather than only waiting on the pool, so
    the pool has one thread fewer. A version whose caller only waited on
    ThreadPoolExecutor.map raised the forward-only peak RSS of a 128x128
    clip at s = 2 and 7 times from 141-154 MB to 168-171 MB (3 runs each,
    2-core VM), likely through one more glibc malloc arena (not profiled
    further).
    """
    if threads < 1:
        raise InvalidInputError("threads must be >= 1")
    pending = iter(items)
    if threads == 1 or len(items) <= 1:
        for item in pending:
            fn(item)
        return
    lock = threading.Lock()
    errors: list[BaseException] = []
    done = object()

    def drain():
        while True:
            with lock:
                item = done if errors else next(pending, done)
            if item is done:
                return
            try:
                fn(item)
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                return

    workers = min(threads, len(items)) - 1
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for _ in range(workers):
            pool.submit(drain)
        drain()
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# core kernels

# added to the variance in layer_norm
_LN_EPS = 1e-5


def layer_norm(x: np.ndarray) -> np.ndarray:
    """Per-token normalization over the last axis, (x - mean) /
    sqrt(var + 1e-5), with no gain or bias; constant rows map to 0.

    Float32 throughout except the mean, which is accumulated in float64:
    that makes it exact for a constant row (a float32 mean of, say, five
    copies of 1/3 is not), so the row centres to exactly 0.
    """
    x = _f32(x)
    out = x - x.mean(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
    var = np.einsum("...c,...c->...", out, out)[..., None]
    var /= x.shape[-1]
    var += _LN_EPS
    out /= np.sqrt(var, out=var)
    return out


# Abramowitz & Stegun 7.1.26: erfc(z) = t (A1 + t (A2 + ... + t A5)) e^(-z^2),
# t = 1 / (1 + P z), for z >= 0, with |error| <= 1.5e-7. Here z = a / sqrt(2),
# so P carries the 1/sqrt(2), and the A carry the 1/2 of Phi = erfc / 2.
_GELU_P = np.float32(0.3275911 / math.sqrt(2.0))
_GELU_A = tuple(np.float32(0.5 * a) for a in (
    1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592))


def _gelu(x: np.ndarray) -> np.ndarray:
    """Exact-form GELU x * Phi(x), in float32 and in place on x.

    x * Phi(x) = relu(x) - |x| * Phi(-|x|), and Phi(-a) = erfc(a / sqrt(2)) / 2
    comes from Abramowitz & Stegun 7.1.26: one exp, one reciprocal and a
    5-term Horner polynomial. Against the float64-erf GELU the result is
    within 5e-7 absolute on [-20, 20] (tests/test_kernels.py); it is
    exactly 0 at +-0, and a non-finite input gives a non-finite output.
    """
    a = np.abs(x)
    e = a * a
    e *= np.float32(-0.5)
    np.exp(e, out=e)
    e *= a  # |x| exp(-x^2 / 2)
    t = np.multiply(a, _GELU_P, out=a)
    t += np.float32(1.0)
    np.reciprocal(t, out=t)
    poly = t * _GELU_A[0]
    for coef in _GELU_A[1:]:
        poly += coef
        poly *= t
    poly *= e  # |x| Phi(-|x|)
    np.maximum(x, np.float32(0.0), out=x)
    x -= poly
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


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over axis -2 of keys-major (..., key, query) scores, in
    float32 and in place on scores.

    Each slice along the keys axis is a contiguous row of queries, so every
    pass is a whole-row operation. The max is a tree of np.maximum over
    halves of that axis; it is exact, so bit-identical to .max(axis=-2).
    The sum is one ones((1, n)) GEMM: on one STEB block's (512, 2, 16, 16)
    scores it took 0.06 ms against 0.5-0.7 ms for .sum(axis=-2), and the
    tree max 0.18 ms against 0.6 ms for .max (2-core VM, one BLAS thread).
    """
    m = scores
    while m.shape[-2] > 1:
        n, half = m.shape[-2], m.shape[-2] // 2
        top = np.maximum(m[..., :half, :], m[..., half:2 * half, :])
        if n % 2:
            np.maximum(top, m[..., -1:, :], out=top)
        m = top
    scores -= m
    np.exp(scores, out=scores)
    scores /= np.ones((1, scores.shape[-2]), np.float32) @ scores
    return scores


def multi_head_self_attention(x: np.ndarray, params: AttentionParams) -> np.ndarray:
    """softmax(Q K^T / sqrt(d)) V per head, with output projection.

    Works on ... x N x C inputs (leading axes are batched). Q, K and V come
    from one GEMM with the fused params.w_qkv, which carries the 1/sqrt(d)
    in its Q columns. The scores are computed keys-major, K Q^T as
    (..., heads, key, query), so _softmax reduces over contiguous rows, and
    A V is the transposed product. Non-finite scores or outputs raise
    NumericError.
    """
    if x.shape[-1] != params.channels:
        raise InvalidInputError("input channels do not match attention parameters")
    if x.shape[-2] < 1:
        raise InvalidInputError("need at least one token")
    h, d = params.heads, params.head_dim
    lead = x.shape[:-2]
    n = x.shape[-2]
    qkv = _f32(x) @ params.w_qkv
    qkv += params.b_qkv
    # ... n, 3, h, d -> 3, ... h, n, d
    q, k, v = np.moveaxis(qkv.reshape(lead + (n, 3, h, d)), (-4, -3), (-2, 0))
    scores = k @ np.swapaxes(q, -1, -2)  # ... h, key, query
    if not np.all(np.isfinite(scores)):
        raise NumericError("non-finite attention scores")
    out = np.swapaxes(_softmax(scores), -1, -2) @ v
    out = np.moveaxis(out, -3, -2).reshape(lead + (n, h * d))
    out = out @ params.w_o_t
    out += params.b_o
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite attention output")
    return out


# Attention windows per STEB block. A block's largest temporaries, the
# attention scores and the MLP hidden layer, stay near 1 MB at c_r = 16 and
# M = 4, so they fit in cache and peak memory does not grow with the input.
_STEB_CHUNK = 512


def steb_forward(x: np.ndarray, params: StebParams, M: int,
                 shifted: bool = False, threads: int = 1) -> np.ndarray:
    """Shift -> partition -> LN+windowed MHSA (residual) -> LN+MLP (residual)
    -> unpartition -> inverse shift. Output shape equals input shape.

    Windows are independent, so the four middle steps run over blocks of
    _STEB_CHUNK windows on `threads` threads, each block adding both
    residuals in place into its rows of the partitioned tokens."""
    l, c, h, w = x.shape
    if shifted:
        x = cyclic_shift(x, -(M // 2))
    tokens = window_partition(x, M)

    def block(start: int) -> None:
        t = tokens[start:start + _STEB_CHUNK]
        t += multi_head_self_attention(layer_norm(t), params.attn)
        t += mlp_forward(layer_norm(t), params.mlp)

    _map_blocks(block, range(0, len(tokens), _STEB_CHUNK), threads)
    out = window_unpartition(tokens, M, l, h, w)
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
    """Strided 2x2 convolution (stride 2), channels preserved.

    The four stride-2 taps of every channel are gathered into one
    ... x 4C x (H/2 * W/2) buffer, in the order of the kernel's flattened
    in_c x 2 x 2 axes, and convolved as one BLAS GEMM.
    """
    w, b = params.weight, params.bias
    if x.shape[-2] % 2 or x.shape[-1] % 2:
        raise InvalidInputError("downsample requires even spatial dimensions")
    if w.ndim != 4 or w.shape[2:] != (2, 2) or x.shape[-3] != w.shape[1]:
        raise InvalidInputError("downsample kernel must be out_c x in_c x 2 x 2")
    xf = _f32(x)
    *lead, c, h, wd = xf.shape
    taps = np.stack([xf[..., 0::2, 0::2], xf[..., 0::2, 1::2],
                     xf[..., 1::2, 0::2], xf[..., 1::2, 1::2]], axis=-3)
    out = w.reshape(w.shape[0], 4 * c) @ taps.reshape(*lead, 4 * c, h // 2 * (wd // 2))
    out += b[:, None]
    return out.reshape(*lead, w.shape[0], h // 2, wd // 2)


# _PHASE_TAPS[p][u, d] = 1 where tap d of a 3-tap axis lands, after nearest x2,
# on input offset p + u - 1 (u = 0, 1) for output phase p: through its three
# taps an even output row 2i reads input rows i-1, i, i, an odd one i, i, i+1
_PHASE_TAPS = np.array([[[1, 0, 0], [0, 1, 1]],
                        [[1, 1, 0], [0, 0, 1]]], np.float32)


def upsample_double(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """Nearest-neighbor x2 followed by a zero-padded 3x3 convolution.

    Computed as a sub-pixel convolution (Shi et al., CVPR 2016), without
    the x2 tensor: output phase (pi, pj), the pixels out[..., pi::2, pj::2],
    is a 2x2 convolution of the input, zero-padded once, whose four taps
    are the sums of the 3x3 taps that land on the same input pixel. Each
    phase gathers its four taps into one ... x 4C x (H * W) buffer and runs
    as one BLAS GEMM.
    """
    w, b = params.weight, params.bias
    if w.ndim != 4 or w.shape[2:] != (3, 3) or x.shape[-3] != w.shape[1]:
        raise InvalidInputError("upsample kernel must be out_c x in_c x 3 x 3")
    xf = _f32(x)
    *lead, c, h, wd = xf.shape
    o = w.shape[0]
    padded = np.zeros((*lead, c, h + 2, wd + 2), np.float32)
    padded[..., 1:-1, 1:-1] = xf
    taps = np.empty((*lead, 4, c, h, wd), np.float32)
    out = np.empty((*lead, o, 2 * h, 2 * wd), np.float32)
    for pi in range(2):
        for pj in range(2):
            # the o x c x 2 x 2 phase kernel, flattened to the (u, v, c) order
            # of the taps; this order fixes the GEMM's float32 summation
            # order, which the output digests pin
            k = _PHASE_TAPS[pi] @ w @ _PHASE_TAPS[pj].T
            k = k.transpose(0, 2, 3, 1).reshape(o, 4 * c)
            for u in range(2):
                for v in range(2):
                    taps[..., 2 * u + v, :, :, :] = \
                        padded[..., pi + u:pi + u + h, pj + v:pj + v + wd]
            y = k @ taps.reshape(*lead, 4 * c, h * wd)
            np.add(y.reshape(*lead, o, h, wd), b[:, None, None],
                   out=out[..., pi::2, pj::2])
    return out


# ---------------------------------------------------------------------------
# extractors and fusion

@dataclass(frozen=True)
class RegionalParams:
    lift: ConvParams  # 1x1, M_p -> C_r
    blocks: tuple[StebParams, ...]  # alternating plain / shifted


def regional_extractor_forward(tpr: np.ndarray, params: RegionalParams, M: int,
                               threads: int = 1) -> np.ndarray:
    """TPR L x M_p x H x W -> features L x C_r x H x W via 1x1 lift + STEBs."""
    if tpr.ndim != 4:
        raise InvalidInputError("TPR tensor must be L x M_p x H x W")
    x = conv1x1(tpr, params.lift)
    for i, block in enumerate(params.blocks):
        x = steb_forward(x, block, M, shifted=bool(i % 2), threads=threads)
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
    x = np.empty((2 * n_in - 1,) + lifted_frames.shape[1:], np.float32)
    x[0::2] = lifted_frames
    x[1::2] = conv1x1(np.stack(segments), params.event_lift)

    skips = []
    for block, down in zip(params.encoder_blocks, params.downs):
        x = steb_forward(x, block, M, threads=threads)
        skips.append(x)
        x = downsample_half(x, down)
    for block, up, skip in zip(params.decoder_blocks, params.ups, reversed(skips)):
        x = steb_forward(x, block, M, shifted=True, threads=threads)
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

# Queries per decode block. A block's temporaries are 4 * _DECODE_CHUNK rows
# of the decoder's hidden width (1 MB at width 64), so peak memory does not
# grow with the output size, and blocks that small are reused from the heap
# rather than mapped (and page-faulted) afresh for every layer. 1024 is the
# best or tied of 256, 512, 1024 and 2048 pixels for this block body: one
# grid decode took 528, 465, 482 and 864 ms at s = 8 on a 64 x 64 x 64
# feature at 1 thread, 371, 281, 272 and 528 ms at 2 threads, and 96, 73, 66
# and 75 ms at s = 2 on 128 x 128 at 2 threads (6 alternating calls each;
# 2-core VM, one BLAS thread). Changing it moves the bits under some sgemm
# kernels (spatial_decode's docstring).
_DECODE_CHUNK = 1024


@dataclass(frozen=True)
class QueryGrid:
    """The pixel centres of an out_h x out_w output grid, as spatial_decode
    queries: at spatial_decode's scale s, output pixel (Y, X) is the query
    ((X + 0.5) / s, (Y + 0.5) / s), in row-major order. Both sizes must be
    non-negative integers."""
    out_h: int
    out_w: int

    def __post_init__(self):
        for name in ("out_h", "out_w"):
            try:
                size = operator.index(getattr(self, name))
            except TypeError:
                size = -1
            if size < 0:
                raise InvalidInputError("%s must be a non-negative integer" % name)
            object.__setattr__(self, name, size)

    def __len__(self) -> int:
        return self.out_h * self.out_w


def _taps(q: np.ndarray, n: int):
    """The two taps of coordinates q on an axis of n cells, their offsets
    q - (tap + 0.5) and their area factors, each 2 x q.shape
    (spatial_decode's docstring has the rules).

    A tap's factor is the |offset| of the other tap; where both are 0 (both
    taps are one cell and q is on its centre), both factors are 1.
    """
    low = np.clip(np.floor(q - 0.5).astype(np.int64), 0, n - 1)
    taps = np.stack([low, np.minimum(low + 1, n - 1)])
    offsets = q - (taps + 0.5)
    factors = np.abs(offsets[::-1])
    factors[:, ~factors.any(axis=0)] = 1.0
    return taps, offsets, factors


def spatial_decode(feature: np.ndarray, queries, s: float,
                   decoder: MlpParams, threads: int = 1) -> np.ndarray:
    """Decode RGB at continuous (x, y) query points over a C x h x w grid.

    `queries` is an N x 2 array of (x, y) points or a QueryGrid, whose
    pixel centres are placed at scale `s`.

    Cell (i, j) has its center at (j + 0.5, i + 0.5); the grid's continuous
    extent is [0, w] x [0, h]. Per query the four nearest cells each decode
    MLP(feature || offset-to-center) into an RGB candidate; candidates are
    combined with weights proportional to the rectangle area spanned by the
    query and the diagonally opposite cell center (weights sum to 1).

    Near the border a corner index is clamped to the grid, and the two kinds
    of edge differ. Within the outer half cell at the bottom and right
    edges, both taps of the axis are the last cell. Within it at the top and
    left edges, the low tap clamps from -1 to cell 0 and the high tap stays
    cell 1, so the axis blends cells 0 and 1 at offsets q - 0.5 and
    q - 1.5: at q = 0 with weights 0.75 and 0.25. Each area is a product of
    one |offset| factor per axis; where an axis's four factors are all 0
    (both taps are one cell and the query is on its centre line), they are
    set to 1, their limit from either side. No other rule applies, so the
    decoded field is continuous in (x, y), and a query on a cell centre
    (every output pixel at s = 1) decodes that cell alone at offset (0, 0).

    The decoder's first layer is linear in feature || offset, so it splits
    into a per-cell part, W1[:, :C] f + b1, computed once for each of the
    h*w cells, and a per-corner part, dx W1[:, C] + dy W1[:, C+1], added to
    the corner's cell row. The four corners of a block of queries run as
    one batch through the remaining layers, so memory stays bounded at any
    output size. Blocks share the per-cell table and run on `threads`
    threads.

    One block body serves both kinds of query. It takes the taps, offsets
    and factors of its rows and of its columns and forms corner (a, b), row
    tap a and column tap b, by broadcasting one against the other. A query
    array pairs them element by element and runs in blocks of
    _DECODE_CHUNK queries, each solving its own axes. A QueryGrid solves
    each axis once, its rows as a column and its columns as a row, so they
    broadcast to its pixels; at any s it runs in blocks of whole output
    rows, at most _DECODE_CHUNK pixels (a row wider than that in runs of
    _DECODE_CHUNK columns). Where out_w divides _DECODE_CHUNK, a grid's
    blocks are the blocks of the same points as an array, so the two give
    the same bytes. Otherwise they may differ in the last bits: some sgemm
    kernels (OpenBLAS 0.3.31's Haswell) round a row of a float32 product by
    the number of rows in the block and the row's place in it.
    """
    if not 1 <= s < math.inf:
        raise InvalidInputError("scale must be finite and >= 1")
    c, h, w = feature.shape
    if decoder.in_dim != c + 2:
        raise InvalidInputError("decoder input dim must be feature channels + 2")
    if isinstance(queries, QueryGrid):
        qx = ((np.arange(queries.out_w) + 0.5) / s)[None, :]
        qy = ((np.arange(queries.out_h) + 0.5) / s)[:, None]
    else:
        q = np.asarray(queries, np.float64)
        if q.ndim != 2 or q.shape[1] != 2:
            raise InvalidInputError("queries must be N x 2 (x, y)")
        qx, qy = q.T
    if not (np.all((qx >= 0) & (qx <= w)) and np.all((qy >= 0) & (qy <= h))):
        raise InvalidInputError("query outside the feature grid extent")
    out = np.empty((len(queries), decoder.out_dim), np.float32)
    if len(out) == 0:
        return out

    w1 = decoder.weights[0]
    cell = _f32(feature).reshape(c, h * w).T @ w1[:, :c].T  # (h*w) x hidden
    cell += decoder.biases[0]
    w_offset = w1[:, c:].T  # 2 x hidden
    first_act = _ACTIVATIONS[decoder.activations[0]]
    rest = MlpParams(weights=decoder.weights[1:], biases=decoder.biases[1:],
                     activations=decoder.activations[1:])

    def block(start: int, row_taps, col_taps) -> None:
        # corner k = 2a + b of each query pairs row tap a with column tap b
        (rows, dy, ay), (cols, dx, ax) = row_taps, col_taps
        idx = (rows * w)[:, None] + cols[None, :]
        dxy = np.empty(idx.shape + (2,), np.float32)
        dxy[..., 0] = dx[None, :]
        dxy[..., 1] = dy[:, None]
        weights = (ax[None, :] * ay[:, None]).reshape(4, -1)
        weights /= weights.sum(axis=0)
        hidden = np.take(cell, idx.reshape(-1), axis=0)
        hidden += dxy.reshape(-1, 2) @ w_offset
        rgb = mlp_forward(first_act(hidden), rest).reshape(4, weights.shape[1], -1)
        out[start:start + weights.shape[1]] = \
            np.einsum("kn,knc->nc", weights.astype(np.float32), rgb)

    if isinstance(queries, QueryGrid):
        out_h, out_w = queries.out_h, queries.out_w
        row_taps, col_taps = _taps(qy, h), _taps(qx, w)
        block_rows = max(1, _DECODE_CHUNK // out_w)
        block_cols = min(out_w, _DECODE_CHUNK)

        def run(start: int) -> None:
            # whole output rows, or a run of block_cols columns of one row
            y, x = divmod(start, out_w)
            block(start, [a[:, y:y + block_rows] for a in row_taps],
                  [a[..., x:x + block_cols] for a in col_taps])

        starts = [y * out_w + x for y in range(0, out_h, block_rows)
                  for x in range(0, out_w, block_cols)]
    else:
        def run(start: int) -> None:
            end = start + _DECODE_CHUNK
            block(start, _taps(qy[start:end], h), _taps(qx[start:end], w))

        starts = range(0, len(qx), _DECODE_CHUNK)
    _map_blocks(run, starts, threads)
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite decoded values")
    return out
