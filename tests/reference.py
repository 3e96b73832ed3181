"""Frozen reference for the per-timestamp head of the pipeline.

`fuse_features`, `temporal_embed` and `spatial_decode` (with the
`mlp_forward` and `conv1x1` they call) are the straightforward versions the
production kernels were derived from, kept unchanged as the oracle:
every corner of every query runs the whole decoder MLP on
feature || offset, and the fused C_t x H x W tensor is built explicitly.
`reference_pipeline_forward` composes them with the production extractors
in the same order as `pipeline_forward`.
"""

from __future__ import annotations

import math

import numpy as np

from evtpr.errors import InvalidInputError, NumericError
from evtpr.kernels import (
    ConvParams,
    MlpParams,
    TemporalEmbedParams,
    holistic_extractor_forward,
    regional_extractor_forward,
)
from evtpr.representations import build_tpr, build_voxel_grid


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
    weights = np.zeros((n, 4), np.float64)
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
        weights[:, k] = np.abs((qx - (oj + 0.5)) * (qy - (oi + 0.5)))

    total = weights.sum(axis=1, keepdims=True)
    degenerate = total[:, 0] <= 0
    if np.any(degenerate):
        # clamped corners collapsed; fall back to equal weighting
        weights[degenerate] = 0.25
        total[degenerate] = 1.0
    weights = weights / total
    out = np.einsum("nk,nkc->nc", weights.astype(np.float32), rgb)
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite decoded values")
    return out


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
    half_window = config.tpr_half_window_us(span)
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
