import dataclasses
import math

import numpy as np
import pytest

from evtpr import EventStream, IntensityFrame, init_pipeline_params, simulate_events


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_ramp_clip(h=32, w=32, n_frames=16, dt_us=1000, lo=0.05, hi=0.9):
    """Frames whose log intensity ramps linearly per pixel (distinct slopes)."""
    frames = []
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    log_lo = math.log(lo)
    log_hi = math.log(hi)
    # per-pixel end level varies so different pixels emit different counts
    end = log_lo + (log_hi - log_lo) * (0.25 + 0.75 * (yy * w + xx) / (h * w))
    for i in range(n_frames):
        frac = i / (n_frames - 1)
        log_val = log_lo + frac * (end - log_lo)
        frames.append(IntensityFrame(timestamp=i * dt_us,
                                     pixels=np.exp(log_val)))
    return frames


def random_stream(rng, h=8, w=8, n=200, t_begin=0, t_end=100_000):
    t = np.sort(rng.integers(t_begin, t_end + 1, size=n)).astype(np.int64)
    return EventStream(
        sensor_width=w, sensor_height=h, t_begin=t_begin, t_end=t_end,
        t=t,
        x=rng.integers(0, w, size=n).astype(np.int32),
        y=rng.integers(0, h, size=n).astype(np.int32),
        p=rng.choice(np.array([-1, 1], np.int8), size=n),
    )


@pytest.fixture(scope="module")
def bright_pipeline():
    """(frames, stream, config, params) whose decoded frames span [0, 1].

    The seeded decoder's raw RGB varies by only ~0.03 around zero, so its
    frames are near black and a digest sees few 8-bit levels. Here the last
    layer is rescaled per channel, out -> gain * out + bias, with gain and
    bias chosen so the toy clip's s = 1 output covers slightly more than
    [0, 1] before clipping. `init_pipeline_params` is left as it is.
    """
    from test_pipeline import toy_clip, toy_config
    frames = toy_clip()
    config = toy_config()
    params = init_pipeline_params(config, 0)
    gain = np.array([120.0, 116.0, 300.0], np.float32)
    bias = np.array([3.93, 0.09, 21.1], np.float32)
    dec = params.decoder
    decoder = dataclasses.replace(
        dec, weights=dec.weights[:-1] + (dec.weights[-1] * gain[:, None],),
        biases=dec.biases[:-1] + (dec.biases[-1] * gain + bias,))
    return (frames, simulate_events(frames, C=0.2), config,
            dataclasses.replace(params, decoder=decoder))
