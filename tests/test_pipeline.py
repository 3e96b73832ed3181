import threading

import numpy as np
import pytest

from evtpr import (
    IntensityFrame,
    InvalidInputError,
    NumericError,
    PipelineConfig,
    init_pipeline_params,
    pipeline_forward,
    simulate_events,
)


def toy_clip(n_frames=4, h=16, w=16, seed=0):
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(n_frames):
        base = 0.1 + 0.7 * i / (n_frames - 1)
        px = np.clip(base + 0.05 * rng.random((h, w, 3)), 0, 1)
        frames.append(IntensityFrame(timestamp=i * 1000, pixels=px))
    return frames


def toy_config(n_in=4):
    return PipelineConfig(n_in=n_in, c_r=8, c_t=16, c_ts=8, heads=2,
                          encoder_depth=2)


class TestPipeline:
    def test_shape_contract_identity_scale(self):
        frames = toy_clip()
        stream = simulate_events(frames, C=0.2)
        config = toy_config()
        params = init_pipeline_params(config, 0)
        outs, report = pipeline_forward(frames, stream, 1.0, [0.0], config, params)
        assert len(outs) == 1
        assert outs[0].shape == (16, 16, 3)
        assert report.stage_shapes["output_frame"] == (16, 16, 3)

    @pytest.mark.parametrize("n_times", [1, 3, 7])
    def test_holistic_called_once(self, n_times):
        frames = toy_clip()
        stream = simulate_events(frames, C=0.2)
        config = toy_config()
        params = init_pipeline_params(config, 0)
        times = [i / max(n_times - 1, 1) for i in range(n_times)]
        outs, report = pipeline_forward(frames, stream, 1.0, times, config, params)
        assert report.holistic_calls == 1
        assert len(outs) == n_times

    @pytest.mark.parametrize("s,expected", [(1.0, 16), (2.0, 32), (3.5, 56)])
    def test_output_scaling(self, s, expected):
        frames = toy_clip()
        stream = simulate_events(frames, C=0.2)
        config = toy_config()
        params = init_pipeline_params(config, 0)
        outs, _ = pipeline_forward(frames, stream, s, [0.5], config, params)
        assert outs[0].shape == (expected, expected, 3)

    def test_deterministic_across_runs_and_threads(self):
        frames = toy_clip()
        stream = simulate_events(frames, C=0.2)
        config = toy_config()
        a, _ = pipeline_forward(frames, stream, 2.0, [0.25, 0.75], config,
                                init_pipeline_params(config, 7), threads=1)
        b, _ = pipeline_forward(frames, stream, 2.0, [0.25, 0.75], config,
                                init_pipeline_params(config, 7), threads=4)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)

    def test_byte_identical_across_threads_over_several_blocks(self):
        # 64^2: the regional STEBs see 3 x 16 x 16 = 768 windows (two
        # blocks), the holistic ones 7 x 256, and s=2 decodes 4 query chunks
        frames = toy_clip(h=64, w=64)
        stream = simulate_events(frames, C=0.2)
        config = toy_config()
        params = init_pipeline_params(config, 7)
        a, _ = pipeline_forward(frames, stream, 2.0, [0.25, 0.75], config,
                                params, threads=1)
        b, _ = pipeline_forward(frames, stream, 2.0, [0.25, 0.75], config,
                                params, threads=2)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_numeric_error_propagates_from_blocks(self, threads):
        frames = toy_clip(h=64, w=64)
        stream = simulate_events(frames, C=0.2)
        config = toy_config()
        params = init_pipeline_params(config, 7)
        params.regional.lift.weight[0, 0] = np.nan
        before = threading.active_count()
        with pytest.raises(NumericError):
            pipeline_forward(frames, stream, 1.0, [0.5], config, params,
                             threads=threads)
        assert threading.active_count() == before

    def test_default_threads_match_one_thread(self):
        frames = toy_clip()
        stream = simulate_events(frames, C=0.2)
        config = toy_config()
        params = init_pipeline_params(config, 7)
        a, _ = pipeline_forward(frames, stream, 2.0, [0.5], config, params)
        b, _ = pipeline_forward(frames, stream, 2.0, [0.5], config, params,
                                threads=1)
        assert np.array_equal(a[0], b[0])
        with pytest.raises(InvalidInputError):
            pipeline_forward(frames, stream, 2.0, [0.5], config, params,
                             threads=0)

    def test_different_seeds_differ(self):
        frames = toy_clip()
        stream = simulate_events(frames, C=0.2)
        config = toy_config()
        a, _ = pipeline_forward(frames, stream, 1.0, [0.5], config,
                                init_pipeline_params(config, 0))
        b, _ = pipeline_forward(frames, stream, 1.0, [0.5], config,
                                init_pipeline_params(config, 1))
        assert not np.array_equal(a[0], b[0])

    def test_softmax_rows_checked(self):
        frames = toy_clip()
        stream = simulate_events(frames, C=0.2)
        config = toy_config()
        params = init_pipeline_params(config, 0)
        _, report = pipeline_forward(frames, stream, 1.0, [0.5], config, params)
        assert report.softmax_row_sum_max_dev <= 1e-6

    def test_invalid_times_and_scale(self):
        frames = toy_clip()
        stream = simulate_events(frames, C=0.2)
        config = toy_config()
        params = init_pipeline_params(config, 0)
        with pytest.raises(InvalidInputError):
            pipeline_forward(frames, stream, 1.0, [1.5], config, params)
        with pytest.raises(InvalidInputError):
            pipeline_forward(frames, stream, 0.5, [0.5], config, params)

    def test_resolution_must_fit_window_and_depth(self):
        frames = toy_clip(h=12, w=12)
        stream = simulate_events(frames, C=0.2)
        config = toy_config()
        params = init_pipeline_params(config, 0)
        with pytest.raises(InvalidInputError):
            pipeline_forward(frames, stream, 1.0, [0.5], config, params)

    def test_event_sensor_must_match_frames(self):
        # 16^2 frames with events from a 32^2 sensor
        frames = toy_clip()
        stream = simulate_events(toy_clip(h=32, w=32), C=0.2)
        config = toy_config()
        params = init_pipeline_params(config, 0)
        with pytest.raises(InvalidInputError, match="sensor size"):
            pipeline_forward(frames, stream, 1.0, [0.5], config, params)
