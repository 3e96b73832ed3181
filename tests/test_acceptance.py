"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import io
import math
from fractions import Fraction

import numpy as np
import pytest

from evtpr import (
    EventStream,
    IntensityFrame,
    PipelineConfig,
    build_tpr,
    build_voxel_grid,
    init_pipeline_params,
    pipeline_forward,
    plan_windows,
    psnr,
    reconstruct_log_intensity,
    simulate_events,
    ssim,
    tpr_granularity,
)
from evtpr.cli import main
from evtpr.events import log_view
from evtpr.io_formats import (
    read_events,
    read_frame,
    read_tensor,
    write_events,
    write_frame,
    write_tensor,
)
from evtpr.kernels import (
    _softmax,
    ConvParams,
    MlpParams,
    fuse_features,
    multi_head_self_attention,
    spatial_decode,
    steb_forward,
    temporal_embed,
    window_partition,
    window_unpartition,
    cyclic_shift,
    downsample_half,
)
from evtpr.pipeline import _init_mlp, _init_steb

from conftest import make_ramp_clip, random_stream
from test_kernels import (
    attention_scores,
    make_temporal_params,
    naive_attention,
    naive_conv1x1,
    naive_spatial_decode,
    rand_attention,
)
from test_cli import rgb_ramp_clip, write_clip
from test_dataset import enumerate_window_indices


def report(n, text):
    print("PASS criterion %d: %s" % (n, text))


def test_criterion_01_granularity_table():
    expected = {
        (3, 3): Fraction(1, 81),
        (5, 3): Fraction(1, 729),
        (7, 3): Fraction(1, 6561),
        (7, 9): Fraction(1, 19683),
        (7, 18): Fraction(1, 39366),
    }
    for (levels, moments), value in expected.items():
        spec = tpr_granularity(Fraction(1, 2), levels, moments, 3)
        assert spec.delta_t == value, (levels, moments)
    report(1, "captured-moment granularities exact for all five rows")


def test_criterion_02_worked_example(rng):
    spec = tpr_granularity(Fraction(1, 2), 7, 2, 3)
    assert spec.delta_t == Fraction(1, 4374)
    assert spec.delta_t < Fraction(1, 1000)
    stream = random_stream(rng, h=6, w=5, n=200)
    pyr = build_tpr(stream, 50_000, 20_000, 7, 2, 3.0)
    assert pyr.data.shape == (7, 2, 6, 5)
    report(2, "delta_t = 1/4374 s < 1/1000 s; TPR dims 7x2xHxW")


def test_criterion_03_windowing():
    p = plan_windows(25, 4, 7)[0]
    assert p.window_size == 25
    assert p.input_indices == (1, 9, 17, 25)
    for n_in in range(2, 9):
        for skip in range(0, 16):
            inputs, w = enumerate_window_indices(n_in, skip)
            plan = plan_windows(w, n_in, skip)[0]
            assert plan.window_size == w
            assert list(plan.input_indices) == inputs
    report(3, "W formula and inputs match index-enumeration oracle "
              "(N_in 2..8, S 0..15)")


@pytest.mark.parametrize("C", [0.1, 0.2, 0.5])
def test_criterion_04_event_round_trip(C):
    frames = make_ramp_clip(h=32, w=32, n_frames=16)
    stream = simulate_events(frames, C=C)
    base = frames[0]
    worst = 0.0
    for f in frames:
        recon = reconstruct_log_intensity(base, stream, f.timestamp, C=C)
        worst = max(worst, float(np.abs(recon - log_view(f)).max()))
    assert worst <= C + 1e-9
    report(4, "round-trip log error %.3g <= C = %g" % (worst, C))


def test_criterion_05_mass_conservation(rng):
    for i in range(200):
        stream = random_stream(rng, h=6, w=6, n=int(rng.integers(1, 250)))
        t0 = int(rng.integers(0, 40_000))
        t1 = t0 + int(rng.integers(1_000, 60_000))
        grid = build_voxel_grid(stream, int(rng.integers(1, 8)), t0, t1)
        in_w = (stream.t >= t0) & (stream.t <= t1)
        expected = float(stream.p[in_w].sum())
        assert grid.data.sum() == pytest.approx(expected, rel=1e-6, abs=1e-9)

        center = (t0 + t1) / 2
        half = (t1 - t0) / 2
        levels = int(rng.integers(1, 4))
        r = 2.0
        pyr = build_tpr(stream, center, half, levels, 3, r)
        for level in range(1, levels + 1):
            h = half / r ** level
            mask = np.abs(stream.t - center) <= h
            assert pyr.data[level - 1].sum() == pytest.approx(
                float(stream.p[mask].sum()), rel=1e-6, abs=1e-9)
    report(5, "voxel and per-level TPR signed mass conserved on 200 streams")


def test_criterion_06_kernel_oracles():
    rng = np.random.default_rng(60)
    dev = []
    for _ in range(100):
        c = int(rng.choice([4, 8, 16]))
        params = rand_attention(rng, c, int(rng.choice([1, 2])))
        x = rng.standard_normal((int(rng.integers(1, 10)), c)).astype(np.float32)
        out = multi_head_self_attention(x, params)
        assert np.allclose(out, naive_attention(x, params), rtol=1e-5, atol=1e-5)
        attn = _softmax(attention_scores(x, params))
        dev.append(np.abs(attn.sum(-2, dtype=np.float64) - 1.0).max())
    assert max(dev) <= 1e-6

    for _ in range(100):
        c_in, c_out = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = rng.standard_normal((c_in, h, w)).astype(np.float32)
        b = rng.standard_normal((c_in, h, w)).astype(np.float32)
        conv = ConvParams(weight=rng.standard_normal((c_out, c_in)).astype(np.float32),
                          bias=rng.standard_normal(c_out).astype(np.float32))
        ref = naive_conv1x1((a + b)[None], conv.weight, conv.bias)[0]
        assert np.allclose(fuse_features(a, b, conv), ref, rtol=1e-5, atol=1e-5)

    for _ in range(100):
        c_t, c_ts = int(rng.integers(2, 8)), int(rng.integers(1, 6))
        t = float(rng.uniform(0, 1))
        params = make_temporal_params(rng, c_t, c_ts)
        r_t = rng.standard_normal((c_t, 3, 3)).astype(np.float32)
        hid = np.maximum(params.mlp.weights[0].astype(np.float64) @ [t]
                         + params.mlp.biases[0], 0.0)
        attn = params.mlp.weights[1].astype(np.float64) @ hid + params.mlp.biases[1]
        ref = np.einsum("oc,chw->ohw", params.compress.weight.astype(np.float64),
                        attn[:, None, None] * r_t.astype(np.float64)
                        ) + params.compress.bias[:, None, None]
        assert np.allclose(temporal_embed(t, params, r_t), ref,
                           rtol=1e-5, atol=1e-5)

    for _ in range(100):
        c = int(rng.integers(1, 6))
        decoder = _init_mlp(rng, [c + 2, 6, 6, 6, 3],
                            ["relu", "relu", "relu", "none"])
        feature = rng.standard_normal((c, 4, 4)).astype(np.float32)
        q = np.column_stack([rng.uniform(0.51, 3.49, 7),
                             rng.uniform(0.51, 3.49, 7)])
        out = spatial_decode(feature, q, 1.5, decoder)
        assert np.allclose(out, naive_spatial_decode(feature, q, decoder),
                           rtol=1e-5, atol=1e-5)

    # constant-field invariance over scales and times (weights sum to 1)
    c = 3
    w_lin = np.zeros((3, c + 2), np.float32)
    w_lin[:, :c] = 1.0
    decoder = MlpParams(weights=(w_lin,), biases=(np.zeros(3, np.float32),),
                        activations=("none",))
    feature = np.full((c, 5, 5), 0.21, np.float32)
    for s in (1.0, 1.7, 2.0, 3.5):
        for t in (0.0, 0.25, 0.5, 1.0):
            q = np.column_stack([rng.uniform(0, 5, 40), rng.uniform(0, 5, 40)])
            out = spatial_decode(feature, q, s, decoder)
            assert np.allclose(out, 3 * 0.21, atol=1e-9)
    report(6, "attention, fusion, temporal embed, spatial decode match naive "
              "references; softmax and decode weights normalized")


def test_criterion_07_geometry_inverses():
    rng = np.random.default_rng(70)
    for h in (4, 8, 12, 16):
        for w in (4, 8, 12, 16):
            x = rng.standard_normal((2, 4, h, w)).astype(np.float32)
            assert np.array_equal(
                window_unpartition(window_partition(x, 4), 4, 2, h, w), x)
            assert np.array_equal(cyclic_shift(cyclic_shift(x, 2), -2), x)
    params = _init_steb(rng, 8, 2)
    x = rng.standard_normal((3, 8, 8, 16)).astype(np.float32)
    for shifted in (False, True):
        assert steb_forward(x, params, 4, shifted=shifted).shape == x.shape
    down = ConvParams(weight=rng.standard_normal((4, 4, 2, 2)).astype(np.float32),
                      bias=np.zeros(4, np.float32))
    y = rng.standard_normal((1, 4, 32, 24)).astype(np.float32)
    for _ in range(3):
        y = downsample_half(y, down)
    assert y.shape[-2:] == (4, 3)
    report(7, "partition/shift inverses bit-exact; STEB shape-preserving; "
              "3 downsamples reach H/8 x W/8")


def test_criterion_08_pipeline_contract(tmp_path):
    frames = rgb_ramp_clip(n=4, h=16, w=16)
    d = write_clip(tmp_path, frames)
    events = tmp_path / "events.evt"
    assert main(["simulate", str(d), "--threshold", "0.2",
                 "-o", str(events)]) == 0

    for times in ("0.5", "0.0,0.5,1.0",
                  "0.0,0.2,0.35,0.5,0.65,0.8,1.0"):
        out = tmp_path / ("t%d" % len(times.split(",")))
        assert main(["pipeline", str(d), str(events), "--scale", "1",
                     "--times", times, "--seed", "0", "-o", str(out)]) == 0
        text = (out / "report.txt").read_text()
        assert "holistic_extractor_calls: 1" in text
        n_out = len(times.split(","))
        assert len(list(out.glob("out_*.ppm"))) == n_out

    for s, side in ((1.0, 16), (2.0, 32), (3.5, 56)):
        out = tmp_path / ("s%d" % (s * 10))
        assert main(["pipeline", str(d), str(events), "--scale", str(s),
                     "--times", "0.5", "--seed", "0", "-o", str(out)]) == 0
        assert read_frame(str(out / "out_000.ppm")).shape == (side, side, 3)

    runs = []
    for i, threads in enumerate((1, 1, 4)):
        out = tmp_path / ("rep%d" % i)
        assert main(["--threads", str(threads), "pipeline", str(d),
                     str(events), "--scale", "2", "--times", "0.25,0.75",
                     "--seed", "11", "-o", str(out)]) == 0
        runs.append([(out / n.name).read_bytes()
                     for n in sorted(out.iterdir())])
    assert runs[0] == runs[1] == runs[2]
    report(8, "holistic extractor invoked once; output sizes (sH)x(sW); "
              "byte-identical across runs and thread counts")


def test_criterion_09_metrics():
    rng = np.random.default_rng(90)
    a = rng.random((32, 32))
    assert psnr(a, a) == math.inf
    assert ssim(a, a) == pytest.approx(1.0, abs=1e-9)
    base = np.full((32, 32), 0.5)
    assert psnr(base, base + 1 / 255.0) == pytest.approx(48.1308, abs=1e-3)
    b = rng.random((32, 32))
    assert psnr(a, b) == pytest.approx(psnr(b, a))
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)
    report(9, "PSNR/SSIM identities, 48.1308 dB closed form, symmetry")


def test_criterion_10_format_round_trips(rng):
    cases = 0
    for _ in range(400):
        stream = random_stream(rng, h=int(rng.integers(1, 30)),
                               w=int(rng.integers(1, 30)),
                               n=int(rng.integers(0, 120)))
        buf = io.BytesIO()
        write_events(stream, buf)
        back = read_events(io.BytesIO(buf.getvalue()))
        buf2 = io.BytesIO()
        write_events(back, buf2)
        assert buf2.getvalue() == buf.getvalue()
        assert np.array_equal(back.t, stream.t)
        assert np.array_equal(back.p, stream.p)
        cases += 1
    for _ in range(300):
        ndim = int(rng.integers(0, 5))
        shape = tuple(int(rng.integers(1, 6)) for _ in range(ndim))
        data = rng.standard_normal(shape).astype(np.float32)
        buf = io.BytesIO()
        write_tensor(data, buf)
        back = read_tensor(io.BytesIO(buf.getvalue()))
        buf2 = io.BytesIO()
        write_tensor(back, buf2)
        assert buf2.getvalue() == buf.getvalue()
        assert np.array_equal(back, data)
        cases += 1
    for _ in range(300):
        h, w = int(rng.integers(1, 24)), int(rng.integers(1, 24))
        shape = (h, w) if rng.integers(0, 2) else (h, w, 3)
        img = rng.integers(0, 256, shape).astype(np.float64) / 255.0
        buf = io.BytesIO()
        write_frame(img, buf)
        back = read_frame(io.BytesIO(buf.getvalue()))
        buf2 = io.BytesIO()
        write_frame(back, buf2)
        assert buf2.getvalue() == buf.getvalue()
        assert np.array_equal(back, img)
        cases += 1
    assert cases == 1000
    report(10, "1000 randomized codec round trips byte-identical")
