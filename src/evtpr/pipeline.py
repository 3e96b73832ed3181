"""End-to-end forward pipeline: frames + events -> output frames at an
arbitrary scale and arbitrary timestamps, with seeded parameter
initialization and a shape/invariant run report."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import blas
from .errors import InvalidInputError
from .events import EventStream, IntensityFrame, check_clip
from .kernels import (
    AttentionParams,
    ConvParams,
    HolisticParams,
    MlpParams,
    PipelineConfig,
    QueryGrid,
    RegionalParams,
    StebParams,
    TemporalEmbedParams,
    fuse_features,
    holistic_extractor_forward,
    regional_extractor_forward,
    spatial_decode,
    temporal_embed,  # unused here; perfbench/tracing.py wraps it under this module's name
    timestamp_head,
)
from .representations import build_tpr, build_voxel_grid


@dataclass(frozen=True)
class PipelineParams:
    regional: RegionalParams
    holistic: HolisticParams
    fuse: ConvParams  # 1x1, C_r -> C_t
    temporal: TemporalEmbedParams
    decoder: MlpParams


@dataclass
class RunReport:
    holistic_calls: int = 0
    stage_shapes: dict = field(default_factory=dict)


def _uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape).astype(np.float32)


def _init_conv1x1(rng, in_c, out_c) -> ConvParams:
    return ConvParams(weight=_uniform(rng, in_c, (out_c, in_c)),
                      bias=_uniform(rng, in_c, (out_c,)))


def _init_conv(rng, in_c, out_c, k) -> ConvParams:
    fan = in_c * k * k
    return ConvParams(weight=_uniform(rng, fan, (out_c, in_c, k, k)),
                      bias=_uniform(rng, fan, (out_c,)))


def _init_mlp(rng, dims: Sequence[int], activations: Sequence[str]) -> MlpParams:
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(_uniform(rng, d_in, (d_out, d_in)))
        biases.append(_uniform(rng, d_in, (d_out,)))
    return MlpParams(weights=tuple(weights), biases=tuple(biases),
                     activations=tuple(activations))


def _init_steb(rng, channels: int, heads: int) -> StebParams:
    def lin():
        return (_uniform(rng, channels, (channels, channels)),
                _uniform(rng, channels, (channels,)))

    w_q, b_q = lin()
    w_k, b_k = lin()
    w_v, b_v = lin()
    w_o, b_o = lin()
    attn = AttentionParams(heads=heads, w_q=w_q, b_q=b_q, w_k=w_k, b_k=b_k,
                           w_v=w_v, b_v=b_v, w_o=w_o, b_o=b_o)
    hidden = channels * _MLP_RATIO
    mlp = _init_mlp(rng, [channels, hidden, channels], ["gelu", "none"])
    return StebParams(attn=attn, mlp=mlp)


# Fixed architecture sizes; no caller varies them.
_MLP_RATIO = 2  # hidden width multiplier inside STEB MLPs
_TEMPORAL_HIDDEN = 32  # hidden width of the a(t) MLP
_DECODER_HIDDEN = 64  # hidden width of the spatial decoder MLP
_TPR_HALF_WINDOW_FRACTION = 0.5  # TPR half window, as a fraction of the input span


def init_pipeline_params(config: PipelineConfig, seed: int) -> PipelineParams:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) initialization.

    Creation order is fixed, so a seed fully determines every parameter.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    c = config.c_r
    regional = RegionalParams(
        lift=_init_conv1x1(rng, config.tpr_moments, c),
        blocks=tuple(_init_steb(rng, c, config.heads) for _ in range(4)),
    )
    depth = config.encoder_depth
    holistic = HolisticParams(
        frame_lift=_init_conv1x1(rng, 3, c),
        event_lift=_init_conv1x1(rng, config.voxel_bins, c),
        encoder_blocks=tuple(_init_steb(rng, c, config.heads) for _ in range(depth)),
        downs=tuple(_init_conv(rng, c, c, 2) for _ in range(depth)),
        decoder_blocks=tuple(_init_steb(rng, c, config.heads) for _ in range(depth)),
        ups=tuple(_init_conv(rng, c, c, 3) for _ in range(depth)),
    )
    fuse = _init_conv1x1(rng, c, config.c_t)
    temporal = TemporalEmbedParams(
        mlp=_init_mlp(rng, [1, _TEMPORAL_HIDDEN, config.c_t], ["relu", "none"]),
        compress=_init_conv1x1(rng, config.c_t, config.c_ts),
    )
    d = _DECODER_HIDDEN
    decoder = _init_mlp(rng, [config.c_ts + 2, d, d, d, 3],
                        ["relu", "relu", "relu", "none"])
    return PipelineParams(regional=regional, holistic=holistic, fuse=fuse,
                          temporal=temporal, decoder=decoder)


def _available_cores() -> int:
    """Cores this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@blas.single_threaded()
def pipeline_forward(frames: Sequence[IntensityFrame], stream: EventStream,
                     s: float, times: Sequence[float], config: PipelineConfig,
                     params: PipelineParams,
                     threads: int | None = None) -> tuple[list[np.ndarray], RunReport]:
    """Decode output frames at normalized times `times` and scale `s`.

    The holistic extractor runs exactly once; the regional extractor,
    fusion, temporal embedding, and spatial decoding run per output
    timestamp. Fusion, the a(t) gating and compression are linear, so per
    timestamp they run as one folded 1x1 conv (`timestamp_head`) on
    F_g + F_t, and the C_t-channel fused tensor is never built.

    The decoder is given the output grid as a QueryGrid. At any `s` it
    solves the corner geometry once per axis and decodes blocks of whole
    output rows, at most 1024 pixels each.

    Stages run one after another. Inside the STEBs and the decoder, fixed
    blocks of attention windows or queries run on `threads` threads (None:
    the cores this process may use). Block boundaries do not depend on
    `threads`, so outputs are byte-identical for any value >= 1. OpenBLAS
    runs one thread for the whole call and gets the caller's count back
    after (evtpr.blas: process-wide; nothing is set under another BLAS).
    """
    if len(frames) != config.n_in:
        raise InvalidInputError("frame count must equal config.n_in")
    if not 1 <= s < math.inf:
        raise InvalidInputError("scale must be finite and >= 1")
    if threads is None:
        threads = _available_cores()
    if threads < 1:
        raise InvalidInputError("threads must be >= 1")
    times = [float(t) for t in times]
    if not all(0.0 <= t <= 1.0 for t in times):
        raise InvalidInputError("all times must lie in [0, 1]")
    h, w, ts = check_clip(frames)
    if not math.isfinite(s * max(h, w)):
        raise InvalidInputError("scale %r overflows the output size" % s)
    out_h = int(math.floor(s * h + 1e-9))
    out_w = int(math.floor(s * w + 1e-9))
    config.validate_spatial(h, w)
    if any(f.channels != 3 for f in frames):
        raise InvalidInputError("pipeline inputs must be RGB frames")
    if (stream.sensor_height, stream.sensor_width) != (h, w):
        raise InvalidInputError("frame size differs from the event sensor size")
    # allocated before any voxel or holistic work, so an output too large
    # for memory fails at once
    try:
        outputs = [np.empty((out_h, out_w, 3), np.float32) for _ in times]
    except (MemoryError, ValueError):  # ValueError: numpy cannot even size it
        raise InvalidInputError("scale %r gives a %dx%d output, too large for memory"
                                % (s, out_h, out_w)) from None
    queries = QueryGrid(out_h, out_w)

    report = RunReport()

    # one voxel-grid segment per consecutive frame pair, cast once to the
    # float32 the lift reads
    segments = [build_voxel_grid(stream, config.voxel_bins, a, b).data.astype(np.float32)
                for a, b in zip(ts[:-1], ts[1:])]
    frame_tensor = np.stack(
        [np.moveaxis(f.pixels, -1, 0) for f in frames]).astype(np.float32)

    f_g = holistic_extractor_forward(frame_tensor, segments, params.holistic,
                                     config.window_size, threads=threads)
    report.holistic_calls += 1
    report.stage_shapes["holistic_features"] = tuple(f_g.shape)
    f_g_pooled = f_g.mean(axis=0)  # collapse the level axis for fusion
    del f_g, segments, frame_tensor  # later stages read only the mean

    span = ts[-1] - ts[0]
    half_window = _TPR_HALF_WINDOW_FRACTION * span

    # a timestamp's tensors are released before the next timestamp's are
    # built, and its regional features before the decode
    for t, frame in zip(times, outputs):
        center = ts[0] + t * span
        tpr = build_tpr(stream, center, half_window, config.tpr_levels,
                        config.tpr_moments, config.tpr_ratio)
        f_t_l = regional_extractor_forward(tpr.data.astype(np.float32),
                                           params.regional, config.window_size,
                                           threads=threads)
        report.stage_shapes["regional_features"] = tuple(f_t_l.shape)
        head = timestamp_head(t, params.fuse, params.temporal)
        r_ts = fuse_features(f_g_pooled, f_t_l.mean(axis=0), head)
        report.stage_shapes["temporal_embedded"] = tuple(r_ts.shape)
        del tpr, f_t_l
        rgb = spatial_decode(r_ts, queries, s, params.decoder, threads=threads)
        del r_ts
        np.clip(rgb.reshape(out_h, out_w, 3), 0.0, 1.0, out=frame)
        del rgb
    report.stage_shapes["output_frame"] = (out_h, out_w, 3)
    return outputs, report
