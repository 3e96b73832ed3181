"""Production pipeline head against the frozen reference in reference.py."""

import numpy as np
import pytest

from evtpr import PipelineConfig, init_pipeline_params, pipeline_forward, simulate_events
from evtpr.kernels import (
    holistic_extractor_forward,
    regional_extractor_forward,
    spatial_decode,
)
from evtpr.pipeline import _init_mlp
from evtpr.representations import build_voxel_grid

import reference
from test_pipeline import toy_clip, toy_config

TOL = 1e-5


@pytest.mark.parametrize("config,side,s,times", [
    (toy_config(), 16, 3.5, [0.0, 0.4, 1.0]),
    # default channel widths: c_r=16, c_t=640, c_ts=64
    (PipelineConfig(n_in=4, encoder_depth=2), 16, 2.0, [0.3, 0.9]),
    # 137^2 = 18769 queries: several decode chunks and a ragged last one
    (toy_config(), 32, 4.3, [0.6]),
], ids=["toy-s3.5", "ct640", "ragged-chunks"])
def test_pipeline_matches_reference(config, side, s, times):
    frames = toy_clip(h=side, w=side)
    stream = simulate_events(frames, C=0.2)
    params = init_pipeline_params(config, 3)
    outs, _ = pipeline_forward(frames, stream, s, times, config, params)
    refs = reference.reference_pipeline_forward(frames, stream, s, times,
                                                config, params)
    assert len(outs) == len(refs)
    for out, ref in zip(outs, refs):
        assert out.shape == ref.shape
        assert np.abs(out - ref).max() <= TOL


def test_regional_extractor_matches_reference():
    check_regional_extractor(32)


def test_regional_extractor_matches_reference_over_several_blocks():
    # 3 x 16 x 16 = 768 windows per STEB: one full block and a partial one
    check_regional_extractor(64)


def check_regional_extractor(side):
    # default c_r=16 on an L=3, M_p=2 TPR-shaped input
    config = PipelineConfig(n_in=4)
    params = init_pipeline_params(config, 5).regional
    rng = np.random.default_rng(17)
    tpr = (rng.standard_normal((3, 2, side, side)) * 3.0).astype(np.float32)
    out = regional_extractor_forward(tpr, params, config.window_size)
    ref = reference.regional_extractor_forward(tpr, params, config.window_size)
    assert out.shape == ref.shape == (3, 16, side, side)
    assert np.abs(out - ref).max() <= TOL


def test_holistic_extractor_matches_reference():
    config = toy_config()
    params = init_pipeline_params(config, 6).holistic
    frames = toy_clip(h=32, w=32)
    stream = simulate_events(frames, C=0.2)
    ts = [f.timestamp for f in frames]
    segments = [build_voxel_grid(stream, config.voxel_bins, a, b).data
                for a, b in zip(ts[:-1], ts[1:])]
    frame_tensor = np.stack(
        [np.moveaxis(f.pixels, -1, 0) for f in frames]).astype(np.float32)
    out = holistic_extractor_forward(frame_tensor, segments, params,
                                     config.window_size)
    ref = reference.holistic_extractor_forward(frame_tensor, segments, params,
                                               config.window_size)
    assert out.shape == ref.shape == (7, config.c_r, 32, 32)
    assert np.abs(out - ref).max() <= TOL


def test_decode_degenerate_queries_across_chunk_boundaries():
    # queries on the last row's or column's centre clamp both corner pairs
    # to one cell, so their area weights vanish and the equal-weight
    # fallback applies; runs of them straddle every multiple of 1024, so
    # any power-of-two chunk size of at least 1024 splits a run
    rng = np.random.default_rng(41)
    c, h, w = 5, 6, 7
    n = 3 * 4096 + 37
    decoder = _init_mlp(rng, [c + 2, 16, 16, 16, 3],
                        ["relu", "relu", "relu", "none"])
    feature = rng.standard_normal((c, h, w)).astype(np.float32)
    q = np.column_stack([rng.uniform(0, w, n), rng.uniform(0, h, n)])
    idx = np.arange(n)
    runs = (idx % 1024 < 3) | (idx % 1024 > 1020)
    q[runs & (idx % 2 == 0), 0] = w - 0.5
    q[runs & (idx % 2 == 1), 1] = h - 0.5
    out = spatial_decode(feature, q, 2.0, decoder)
    ref = reference.spatial_decode(feature, q, 2.0, decoder)
    assert np.abs(out - ref).max() <= TOL
