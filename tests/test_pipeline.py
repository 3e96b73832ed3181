import hashlib
import io
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
from evtpr import blas
from evtpr.io_formats import write_frame


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
    def test_holistic_called_once(self, n_times, monkeypatch):
        import evtpr.pipeline

        calls = []
        forward = evtpr.pipeline.holistic_extractor_forward

        def counted(*args, **kwargs):
            calls.append(None)
            return forward(*args, **kwargs)

        monkeypatch.setattr(evtpr.pipeline, "holistic_extractor_forward", counted)
        frames = toy_clip()
        stream = simulate_events(frames, C=0.2)
        config = toy_config()
        params = init_pipeline_params(config, 0)
        times = [i / max(n_times - 1, 1) for i in range(n_times)]
        outs, report = pipeline_forward(frames, stream, 1.0, times, config, params)
        assert len(calls) == 1
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

    def test_invalid_times_and_scale(self):
        frames = toy_clip()
        stream = simulate_events(frames, C=0.2)
        config = toy_config()
        params = init_pipeline_params(config, 0)
        with pytest.raises(InvalidInputError):
            pipeline_forward(frames, stream, 1.0, [1.5], config, params)
        with pytest.raises(InvalidInputError):
            pipeline_forward(frames, stream, 0.5, [0.5], config, params)

    def test_output_too_large_for_memory_fails_before_any_work(self, monkeypatch):
        # a 16e6 x 16e6 output: intp can size its 4 PiB query array, but
        # nothing can allocate it
        import evtpr.pipeline

        def never(*args, **kwargs):
            raise AssertionError("pipeline work ran")

        monkeypatch.setattr(evtpr.pipeline, "build_voxel_grid", never)
        monkeypatch.setattr(evtpr.pipeline, "holistic_extractor_forward", never)
        frames = toy_clip()
        stream = simulate_events(frames, C=0.2)
        config = toy_config()
        params = init_pipeline_params(config, 0)
        with pytest.raises(InvalidInputError, match="too large for memory"):
            pipeline_forward(frames, stream, 1e6, [0.5], config, params)

    @pytest.mark.parametrize("field,value", [
        ("c_r", 0), ("c_r", -8), ("c_ts", 0), ("heads", 0), ("heads", -2),
        ("encoder_depth", -1),
    ])
    def test_config_rejects_bad_sizes(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            PipelineConfig(n_in=4, **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("window_size", 4), ("voxel_bins", 4), ("tpr_levels", 3), ("tpr_moments", 2),
        ("tpr_ratio", 3.0),
    ])
    def test_fixed_sizes_are_constants(self, field, value):
        config = toy_config()
        assert getattr(config, field) == value
        assert type(getattr(config, field)) is type(value)
        with pytest.raises(TypeError):
            PipelineConfig(n_in=4, **{field: value})

    def test_resolution_must_fit_window_and_depth(self):
        # the check runs before any parameter is read, so the depth-2
        # parameters stand in for a 20000-deep model's
        params = init_pipeline_params(toy_config(), 0)
        for side, depth in [(12, 2), (16, 20000)]:
            frames = toy_clip(h=side, w=side)
            stream = simulate_events(frames, C=0.2)
            config = PipelineConfig(n_in=4, c_r=8, c_t=16, c_ts=8, encoder_depth=depth)
            with pytest.raises(InvalidInputError, match=r"= 4\*2\^%d$" % depth):
                pipeline_forward(frames, stream, 1.0, [0.5], config, params)

    def test_event_sensor_must_match_frames(self):
        # 16^2 frames with events from a 32^2 sensor
        frames = toy_clip()
        stream = simulate_events(toy_clip(h=32, w=32), C=0.2)
        config = toy_config()
        params = init_pipeline_params(config, 0)
        with pytest.raises(InvalidInputError, match="sensor size"):
            pipeline_forward(frames, stream, 1.0, [0.5], config, params)

    @pytest.mark.parametrize("fault,message", [
        ("count", "frame count must equal config.n_in"),
        ("luma", "pipeline inputs must be RGB frames"),
        ("sizes", "all frames must share dimensions"),
        ("timestamps", "frame timestamps must be strictly increasing"),
    ])
    def test_frame_contract(self, fault, message):
        frames = toy_clip()
        stream = simulate_events(frames, C=0.2)
        config = toy_config(n_in=3 if fault == "count" else 4)
        params = init_pipeline_params(config, 0)
        if fault == "luma":
            frames = [IntensityFrame(timestamp=f.timestamp, pixels=f.pixels[..., 0])
                      for f in frames]
        elif fault == "sizes":
            frames[2] = toy_clip(h=32, w=32)[2]
        elif fault == "timestamps":
            frames[2] = IntensityFrame(timestamp=frames[1].timestamp,
                                       pixels=frames[2].pixels)
        with pytest.raises(InvalidInputError, match=message):
            pipeline_forward(frames, stream, 1.0, [0.5], config, params)


class TestBrightOutputDigest:
    """SHA-256 of the 8-bit frames, as the CLI writes them, on the
    `bright_pipeline` fixture, whose output spans [0, 1].

    A wrong pixel or a swapped axis moves many 8-bit levels here, where the
    near-black seeded frames of TestOutputDigest show few. Any intended
    change to pipeline output values must update these digests in the same
    change and say so. The bytes belong to the OpenBLAS sgemm kernel that
    computed them, since kernels round differently, so they are pinned per
    kernel: Haswell, which CI pins with OPENBLAS_CORETYPE=Haswell, and
    SkylakeX, the default on AVX-512 hosts. Under any other kernel the test
    fails and names it; it never skips. Each kernel's digests come from its
    own run, never copied from another; pipeline_forward runs OpenBLAS at
    one thread, so they do not depend on the host's core count. The
    decoder gets the output grid, in blocks of whole output rows.
    """

    TIMES = [0.0, 0.5, 1.0]
    DIGESTS = {
        "Haswell": {
            1.0: "69db125cd0bfe25eedca2793c72c7411beaa67a89506f5e1ff9e06f78e59a7aa",
            2.0: "8e35faec446b3572bc70b49606f731226ee4b4e4757fb335c4cc680772821175",
            2.5: "eb680dcca642836678865e32d7ab0d8bda4e89c80f33751fe5e0bf92a95c58d5",
            8.0: "fdf7f731166564b50f57eb2daa7dabd637dcaf4b1722a91cf7da09c2ef4050a2",
        },
        "SkylakeX": {
            1.0: "69db125cd0bfe25eedca2793c72c7411beaa67a89506f5e1ff9e06f78e59a7aa",
            2.0: "8befb62072648f3a67717850b1a4c9e873a84474be46d446a6dd5c46685951cc",
            2.5: "739cde1a51939e3a96e5521a808f5c2f33f5ea04317652f63c21dba6280195b6",
            8.0: "7ba2b846acf129f0ccf53efcebb2c2544a9e6e1d1cb75e3aefe6e96d0a75b73d",
        },
    }

    @pytest.mark.parametrize("s", [1.0, 2.0, 2.5, 8.0])
    def test_frames_bytes(self, bright_pipeline, s):
        core = blas.core()
        assert core in self.DIGESTS, \
            "no bright digests pinned for OpenBLAS sgemm kernel %r" % core
        frames, stream, config, params = bright_pipeline
        outs, _ = pipeline_forward(frames, stream, s, self.TIMES, config, params)
        # the fixture's frames really span [0, 1]
        assert min(o.min() for o in outs) == 0.0
        assert max(o.max() for o in outs) == 1.0
        sha = hashlib.sha256()
        for out in outs:
            buf = io.BytesIO()
            write_frame(out, buf)
            sha.update(buf.getvalue())
        assert sha.hexdigest() == self.DIGESTS[core][s], \
            "bright digest at s = %g under OpenBLAS sgemm kernel %s" % (s, core)
