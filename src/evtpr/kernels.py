"""Forward-only numerical kernels for feature extraction and implicit
decoding: window partitioning, shifted-window attention blocks, multi-scale
down/up-sampling, holistic/regional extractors, temporal embedding, and
area-weighted spatial decoding.

Everything here is pure float32 numpy with explicitly supplied parameters;
no training, no hidden state, no scipy. STEB arithmetic is float32 end to
end, layer norm, softmax and GELU included (only the layer-norm mean
accumulates in float64); GELU takes the normal tail from Abramowitz &
Stegun 7.1.26 in place of erf. Attention computes Q, K and V with one
fused C x 3C GEMM whose Q columns carry the 1/sqrt(d) of the scores, and
its scores are keys-major, K Q^T, so the softmax reduces over contiguous
rows; AttentionParams builds the fused weights once. Both resampling
convolutions run as BLAS GEMMs over gathered taps, the x2 upsampling as four
sub-pixel phases with no x2 tensor. The decoder, given a whole output grid
(QueryGrid) at an integer scale s, decodes it by sub-pixel phase too: each
of the s * s phases reads shifted views of one per-cell table, and only the
clamped border band and other queries are decoded per query.
tests/reference.py keeps the float64-internal and straightforward
originals, and the outputs agree with them to 1e-5.

The STEBs and the decoder split their work into fixed-size blocks,
_STEB_CHUNK attention windows or at most _DECODE_CHUNK queries, and run them on
`threads` threads (the caller and threads - 1 pool workers). Block
boundaries are module constants and never depend on `threads`, so every
output is byte-identical for any thread count. pipeline_forward runs
OpenBLAS at one thread under the blocks and restores the caller's count
after (evtpr.blas: process-wide; nothing is set under another BLAS).
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
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
        t += multi_head_self_attention(
            layer_norm(t, params.norm1.gamma, params.norm1.beta), params.attn)
        t += mlp_forward(layer_norm(t, params.norm2.gamma, params.norm2.beta),
                         params.mlp)

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

# Queries per decode block, on both paths. A block's temporaries are
# 4 * _DECODE_CHUNK rows of the decoder's hidden width (1 MB at width 64), so
# peak memory does not grow with the output size, and blocks that small are
# reused from the heap rather than mapped (and page-faulted) afresh for every
# layer. 1024 rather than 4096: decode per upscale-x8 clip took 1007 ms at
# 1024 against 1153 ms at 4096 on the phase path, and 1191 against 1286 ms on
# the per-query path (medians of 10 clips, chunk sizes alternating in one
# process; 2-core VM, one BLAS thread).
_DECODE_CHUNK = 1024


@dataclass(frozen=True)
class QueryGrid:
    """The pixel centres of an out_h x out_w output grid at scale s, as
    spatial_decode queries: output pixel (Y, X) is the query
    ((X + 0.5) / s, (Y + 0.5) / s), in row-major order.

    np.asarray gives the (out_h * out_w) x 2 float64 (x, y) array; passed
    as it is, it tells spatial_decode that its queries are a whole grid.
    """
    out_h: int
    out_w: int
    s: float

    def __len__(self) -> int:
        return self.out_h * self.out_w

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        q = np.empty((len(self), 2))
        grid = q.reshape(self.out_h, self.out_w, 2)
        grid[..., 0] = (np.arange(self.out_w) + 0.5) / self.s
        grid[..., 1] = ((np.arange(self.out_h) + 0.5) / self.s)[:, None]
        return q if dtype is None else q.astype(dtype, copy=False)


def _corners(qx: np.ndarray, qy: np.ndarray, h: int, w: int):
    """Corner cells, offsets and area weights of queries (qx, qy) on an
    h x w grid (spatial_decode's docstring has the rules).

    Returns rows, cols, dx, dy and weights, each 4 x len(qx): corner k of a
    query is cell (rows[k], cols[k]) at offset (dx[k], dy[k]) from its
    centre, in the order (i0, j0), (i0, j1), (i1, j0), (i1, j1).
    """
    j0 = np.clip(np.floor(qx - 0.5).astype(np.int64), 0, w - 1)
    i0 = np.clip(np.floor(qy - 0.5).astype(np.int64), 0, h - 1)
    j1 = np.minimum(j0 + 1, w - 1)
    i1 = np.minimum(i0 + 1, h - 1)
    rows = np.stack([i0, i0, i1, i1])
    cols = np.stack([j0, j1, j0, j1])
    dx = qx - (cols + 0.5)
    dy = qy - (rows + 0.5)
    # corner k is weighted by the area to the opposite corner, 3 - k, a
    # product of per-axis factors; all-zero factors become 1
    ax = np.abs(dx[::-1])
    ay = np.abs(dy[::-1])
    ax[:, ~ax.any(axis=0)] = 1.0
    ay[:, ~ay.any(axis=0)] = 1.0
    weights = ax * ay
    weights /= weights.sum(axis=0)
    return rows, cols, dx, dy, weights


def spatial_decode(feature: np.ndarray, queries, s: float,
                   decoder: MlpParams, threads: int = 1) -> np.ndarray:
    """Decode RGB at continuous (x, y) query points over a C x h x w grid.

    `queries` is an N x 2 array of (x, y) points or a QueryGrid.

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

    Given QueryGrid(s * h, s * w, s) at an integer s, every output pixel
    whose four corners are unclamped is decoded by sub-pixel phase, as
    upsample_double does (Shi et al., CVPR 2016): the pixels of one phase,
    out[y0::s, x0::s], share their four offsets and weights, so each corner
    is the per-cell table shifted by (0 or 1, 0 or 1) cells plus one offset
    row, with no per-query geometry or gather. Blocks are (phase, cell rows,
    cell columns) blocks. The rest run per query, through the same code as
    any query array: the clamped border band (s//2 pixels at the top and
    left, s - s//2 at the bottom and right; at s = 8 on a 64 x 64 feature,
    8,128 of 262,144 pixels), any non-integer s, and any other queries. Both paths run the same
    float32 operations on each pixel. Where s is a power of two, so that
    offsets are exact, they agree to the bit unless BLAS rounds a block
    with another kernel: OpenBLAS 0.3.31 (Haswell) does so for GEMMs of at
    most 76,800 multiply-adds, which at hidden width 64 means blocks of at
    most 100 queries.
    """
    if not 1 <= s < math.inf:
        raise InvalidInputError("scale must be finite and >= 1")
    c, h, w = feature.shape
    if decoder.in_dim != c + 2:
        raise InvalidInputError("decoder input dim must be feature channels + 2")
    phased = isinstance(queries, QueryGrid) and queries.s == s and \
        float(s).is_integer() and (queries.out_h, queries.out_w) == (s * h, s * w)
    if not phased:
        q = np.asarray(queries, np.float64)
        if q.ndim != 2 or q.shape[1] != 2:
            raise InvalidInputError("queries must be N x 2 (x, y)")
        if not np.all((q >= 0) & (q <= (w, h))):
            raise InvalidInputError("query outside the feature grid extent")

    w1 = decoder.weights[0]
    cell = _f32(feature).reshape(c, h * w).T @ w1[:, :c].T  # (h*w) x hidden
    cell += decoder.biases[0]
    w_offset = w1[:, c:].T  # 2 x hidden
    first_act = _ACTIVATIONS[decoder.activations[0]]
    rest = MlpParams(weights=decoder.weights[1:], biases=decoder.biases[1:],
                     activations=decoder.activations[1:])

    def offset_rows(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        return np.stack([dx.ravel(), dy.ravel()], axis=1).astype(np.float32) @ w_offset

    def blend(hidden: np.ndarray, weights: np.ndarray) -> np.ndarray:
        # hidden: first-layer pre-activations of 4 x n corners, corner-major
        rgb = mlp_forward(first_act(hidden), rest).reshape(4, weights.shape[1], -1)
        return np.einsum("kn,knc->nc", weights.astype(np.float32), rgb)

    out = np.empty((len(queries), decoder.out_dim), np.float32)
    blocks = []  # phase blocks (p, i, j), run before the per-query blocks
    targets = None  # the output row of each row of q, if not the same row
    if phased:
        # The pixels whose four corners are unclamped are one rectangle, rows
        # [s//2, s//2 + s(h-1)) by the same range of columns; the rest is
        # border, decoded per query. Phase p = py * s + px covers the pixels
        # Y = s//2 + py + s i, X = s//2 + px + s j of cells i < h - 1,
        # j < w - 1. Its first pixel has corner 0 at cell (0, 0) and fixes its
        # geometry, and its corner tables are table[:-1, :-1],
        # table[:-1, 1:], table[1:, :-1] and table[1:, 1:].
        s = int(s)
        out3 = out.reshape(s * h, s * w, -1)
        border = np.ones((s * h, s * w), bool)
        border[s // 2:s // 2 + s * (h - 1), s // 2:s // 2 + s * (w - 1)] = False
        targets = np.flatnonzero(border)
        q = np.stack([(targets % (s * w) + 0.5) / s, (targets // (s * w) + 0.5) / s], axis=1)
        first = s // 2 + np.arange(s)
        fy, fx = np.repeat(first, s), np.tile(first, s)
        _, _, dx, dy, phase_weights = _corners((fx + 0.5) / s, (fy + 0.5) / s, h, w)
        offsets = offset_rows(dx, dy).reshape(4, s * s, -1)
        table = cell.reshape(h, w, -1)
        block_rows = max(1, _DECODE_CHUNK // max(1, w - 1))
        block_cols = min(max(1, w - 1), _DECODE_CHUNK)
        blocks = [(p, i, j) for p in range(s * s)
                  for i in range(0, h - 1, block_rows)
                  for j in range(0, w - 1, block_cols)]

    def phase_block(p: int, i: int, j: int) -> None:
        ni, nj = min(block_rows, h - 1 - i), min(block_cols, w - 1 - j)
        hidden = np.empty((4, ni, nj, table.shape[2]), np.float32)
        for k, (a, b) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            np.add(table[i + a:i + a + ni, j + b:j + b + nj], offsets[k, p],
                   out=hidden[k])
        rgb = blend(hidden.reshape(4 * ni * nj, -1),
                    np.repeat(phase_weights[:, p:p + 1], ni * nj, axis=1))
        y0, x0 = fy[p] + s * i, fx[p] + s * j
        out3[y0:y0 + s * ni:s, x0:x0 + s * nj:s] = rgb.reshape(ni, nj, -1)

    def query_block(start: int) -> None:
        qx, qy = q[start:start + _DECODE_CHUNK].T
        rows, cols, dx, dy, weights = _corners(qx, qy, h, w)
        hidden = cell[(rows * w + cols).ravel()]
        hidden += offset_rows(dx, dy)
        stop = start + len(qx)
        out[slice(start, stop) if targets is None else targets[start:stop]] = \
            blend(hidden, weights)

    tasks = [partial(phase_block, *block) for block in blocks]
    tasks += [partial(query_block, start) for start in range(0, len(q), _DECODE_CHUNK)]
    _map_blocks(lambda task: task(), tasks, threads)
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite decoded values")
    return out
