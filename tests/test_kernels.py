import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from evtpr.errors import InvalidInputError, NumericError
from evtpr.kernels import (
    _DECODE_CHUNK,
    _STEB_CHUNK,
    _gelu,
    _map_blocks,
    _softmax,
    _taps,
    AttentionParams,
    ConvParams,
    MlpParams,
    PipelineConfig,
    QueryGrid,
    StebParams,
    TemporalEmbedParams,
    conv1x1,
    cyclic_shift,
    downsample_half,
    fuse_features,
    holistic_extractor_forward,
    layer_norm,
    mlp_forward,
    multi_head_self_attention,
    regional_extractor_forward,
    spatial_decode,
    steb_forward,
    temporal_embed,
    timestamp_head,
    upsample_double,
    window_partition,
)
from evtpr.pipeline import _init_mlp, _init_steb, init_pipeline_params
from reference import window_unpartition


def rand_attention(rng, c, heads):
    def mat():
        return rng.standard_normal((c, c)).astype(np.float32) / math.sqrt(c)

    def vec():
        return rng.standard_normal(c).astype(np.float32) * 0.1

    return AttentionParams(heads=heads, w_q=mat(), b_q=vec(), w_k=mat(),
                           b_k=vec(), w_v=mat(), b_v=vec(), w_o=mat(),
                           b_o=vec())


def attention_scores(x, params):
    """multi_head_self_attention's float32 scores for an N x C input, in its
    keys-major layout: K Q^T / sqrt(d) as heads x key x query."""
    h, d = params.heads, params.head_dim

    def split(w, b):
        return np.swapaxes((x @ w.T + b).reshape(len(x), h, d), 0, 1)

    q, k = split(params.w_q, params.b_q), split(params.w_k, params.b_k)
    return (k @ np.swapaxes(q, -1, -2)) / np.float32(math.sqrt(d))


class TestWindowGeometry:
    def test_single_window_raster_order(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        win = window_partition(x, 4)
        assert win.shape == (1, 16, 1)
        assert np.array_equal(win[0, :, 0], np.arange(16))

    @pytest.mark.parametrize("h", [4, 8, 12, 16])
    @pytest.mark.parametrize("w", [4, 8, 12, 16])
    def test_partition_unpartition_inverse(self, h, w):
        rng = np.random.default_rng(h * 100 + w)
        x = rng.standard_normal((3, 5, h, w)).astype(np.float32)
        back = window_unpartition(window_partition(x, 4), 4, 3, h, w)
        assert np.array_equal(back, x)  # bit-exact

    def test_ramp_against_index_oracle(self):
        x = np.arange(64, dtype=np.float32).reshape(1, 1, 8, 8)
        win = window_partition(x, 4)
        assert win.shape == (4, 16, 1)
        # explicit index-map enumeration: window (wi, wj), in-window (i, j)
        for wi in range(2):
            for wj in range(2):
                for i in range(4):
                    for j in range(4):
                        expected = (wi * 4 + i) * 8 + (wj * 4 + j)
                        assert win[wi * 2 + wj, i * 4 + j, 0] == expected

    def test_non_divisible_rejected(self):
        with pytest.raises(InvalidInputError):
            window_partition(np.zeros((1, 1, 6, 8), np.float32), 4)

    def test_partition_rejects_wrong_rank(self):
        with pytest.raises(InvalidInputError, match="L x C x H x W"):
            window_partition(np.zeros((1, 8, 8), np.float32), 4)

    @pytest.mark.parametrize("M,h,w", [(1, 4, 4), (4, 8, 4)])
    def test_never_a_view_of_its_input(self, M, h, w):
        # one channel and M = 1 or M = W: here a reshape alone is a view
        x = np.zeros((2, 1, h, w), np.float32)
        assert not np.shares_memory(window_partition(x, M), x)


class TestCyclicShift:
    def test_zero_offset_identity(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 4, 4))
        assert cyclic_shift(x, 0) is x

    def test_shift_inverse_bit_exact(self):
        x = np.random.default_rng(1).standard_normal((2, 3, 8, 8)).astype(np.float32)
        assert np.array_equal(cyclic_shift(cyclic_shift(x, 2), -2), x)

    def test_modular_index_oracle(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = cyclic_shift(x, 2)
        for i in range(4):
            for j in range(4):
                assert out[0, 0, (i + 2) % 4, (j + 2) % 4] == x[0, 0, i, j]


class TestGelu:
    def test_against_float64_erf_on_dense_grid(self):
        from scipy.special import erf
        x = np.linspace(-20.0, 20.0, 2_000_001, dtype=np.float32)
        x64 = x.astype(np.float64)
        exact = 0.5 * x64 * (1.0 + erf(x64 / math.sqrt(2.0)))
        out = _gelu(x.copy())
        assert out.dtype == np.float32
        assert np.abs(out - exact).max() <= 5e-7

    def test_zero_at_signed_zero(self):
        out = _gelu(np.array([0.0, -0.0], np.float32))
        assert np.all(out == 0.0)

    def test_non_finite_input_stays_non_finite(self):
        # so the NumericError checks downstream still fire
        x = np.array([np.inf, -np.inf, np.nan, 1.0], np.float32)
        with np.errstate(invalid="ignore"):
            out = _gelu(x)
        assert not np.isfinite(out[:3]).any()
        assert np.isfinite(out[3])


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        x = np.full((3, 8), 2.5, np.float32)
        out = layer_norm(x)
        assert np.allclose(out, 0.0, atol=1e-5)

    @pytest.mark.parametrize("width", [3, 5, 12, 17])
    @pytest.mark.parametrize("value", [1 / 3, 7.77])
    def test_constant_row_awkward_widths(self, width, value):
        # a float32 mean of these rows is inexact at widths 5 and 12, and
        # the centred row then normalizes to ~1e-4 instead of 0
        x = np.full((4, width), value, np.float32)
        out = layer_norm(x)
        assert np.abs(out).max() <= 1e-6

    def test_float32_output_input_untouched(self):
        x = np.random.default_rng(12).standard_normal((6, 4, 16)).astype(np.float32)
        before = x.copy()
        out = layer_norm(x)
        assert out.dtype == np.float32
        assert np.array_equal(x, before)

    def test_unit_stats(self):
        x = np.random.default_rng(2).standard_normal((10, 32)).astype(np.float32)
        out = layer_norm(x)
        assert np.abs(out.mean(axis=-1)).max() <= 1e-6
        assert np.abs(out.var(axis=-1) - 1.0).max() <= 1e-4

    def test_known_four_vector(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0]], np.float32)
        out = layer_norm(x)
        std = math.sqrt(1.25 + 1e-5)
        expected = [(v - 2.5) / std for v in (1, 2, 3, 4)]
        assert np.allclose(out[0], expected, atol=1e-6)


def naive_attention(x, params):
    """Brute-force reference: explicit per-head, per-row float64 loops."""
    n, c = x.shape
    h, d = params.heads, params.head_dim
    x = x.astype(np.float64)
    q = x @ params.w_q.T.astype(np.float64) + params.b_q.astype(np.float64)
    k = x @ params.w_k.T.astype(np.float64) + params.b_k.astype(np.float64)
    v = x @ params.w_v.T.astype(np.float64) + params.b_v.astype(np.float64)
    out = np.zeros((n, c))
    for head in range(h):
        sl = slice(head * d, (head + 1) * d)
        qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
        for i in range(n):
            scores = [float(qh[i] @ kh[j]) / math.sqrt(d) for j in range(n)]
            m = max(scores)
            exps = [math.exp(s - m) for s in scores]
            z = sum(exps)
            for j in range(n):
                out[i, sl] += (exps[j] / z) * vh[j]
    return out @ params.w_o.T.astype(np.float64) + params.b_o.astype(np.float64)


class TestAttention:
    def test_single_token_closed_form(self):
        rng = np.random.default_rng(3)
        params = rand_attention(rng, 8, 2)
        x = rng.standard_normal((1, 8)).astype(np.float32)
        out = multi_head_self_attention(x, params)
        expected = (x @ params.w_v.T + params.b_v) @ params.w_o.T + params.b_o
        assert np.allclose(out, expected, atol=1e-5)

    def test_softmax_rows_sum_to_one(self):
        # keys-major: each query's column of n keys is divided by its own
        # float32 sum, whose largest term is exp(0) = 1, so float32 rounding
        # bounds |sum - 1| by n * 2^-24
        rng = np.random.default_rng(4)
        for n in (1, 4, 16, 64):
            for scale in 10.0 ** np.arange(-3, 7):
                scores = (scale * rng.standard_normal((n, 32))).astype(np.float32)
                attn = _softmax(scores)
                assert attn.dtype == np.float32
                dev = np.abs(attn.sum(-2, dtype=np.float64) - 1.0).max()
                assert dev <= n * 2.0 ** -24, (n, scale, dev)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 16, 25])
    def test_softmax_keys_max_is_exact(self, n):
        # the tree max over halves of the keys axis, odd slices included,
        # must be bit-identical to .max(axis=-2): the same softmax built on
        # .max gives the same bytes; ties and signed zeros included
        rng = np.random.default_rng(n)
        scores = (rng.integers(-3, 4, (4, 2, n, 7)) * 0.5).astype(np.float32)
        scores[0] = rng.standard_normal((2, n, 7)).astype(np.float32) * 30.0
        scores[1, 0] = -0.0
        expected = scores - scores.max(axis=-2, keepdims=True)
        np.exp(expected, out=expected)
        expected /= np.ones((1, n), np.float32) @ expected
        assert np.array_equal(_softmax(scores.copy()), expected)

    def test_replace_rebuilds_fused_projection(self):
        rng = np.random.default_rng(9)
        params = rand_attention(rng, 8, 2)
        x = rng.standard_normal((3, 5, 8)).astype(np.float32)
        w_q = rng.standard_normal((8, 8)).astype(np.float32)
        replaced = dataclasses.replace(params, w_q=w_q)
        fresh = AttentionParams(heads=2, w_q=w_q, b_q=params.b_q, w_k=params.w_k,
                                b_k=params.b_k, w_v=params.w_v, b_v=params.b_v,
                                w_o=params.w_o, b_o=params.b_o)
        out = multi_head_self_attention(x, replaced)
        assert not np.allclose(out, multi_head_self_attention(x, params), atol=1e-3)
        assert np.array_equal(out, multi_head_self_attention(x, fresh))

    def test_mis_sized_bias_rejected(self):
        params = rand_attention(np.random.default_rng(10), 8, 2)
        with pytest.raises(InvalidInputError, match="biases"):
            dataclasses.replace(params, b_k=np.zeros(4, np.float32))

    @pytest.mark.parametrize("field,value,message", [
        ("w_k", np.zeros((8, 4), np.float32), "square and consistent"),
        ("w_o", np.zeros((4, 4), np.float32), "square and consistent"),
        ("heads", 3, "head count must divide"),
    ], ids=["w_k-8x4", "w_o-4x4", "heads-3"])
    def test_malformed_params_rejected(self, field, value, message):
        params = rand_attention(np.random.default_rng(10), 8, 2)
        with pytest.raises(InvalidInputError, match=message):
            dataclasses.replace(params, **{field: value})

    @pytest.mark.parametrize("shape,message", [
        ((5, 6), "input channels do not match"), ((3, 0, 8), "at least one token"),
    ], ids=["6-channels", "no-tokens"])
    def test_bad_input_rejected(self, shape, message):
        params = rand_attention(np.random.default_rng(10), 8, 2)
        with pytest.raises(InvalidInputError, match=message):
            multi_head_self_attention(np.zeros(shape, np.float32), params)

    def test_non_finite_output_raises(self):
        # b_o enters after the scores, so they stay finite and only the
        # check on the output can see it
        params = rand_attention(np.random.default_rng(11), 8, 2)
        b_o = params.b_o.copy()
        b_o[3] = np.inf
        x = np.random.default_rng(12).standard_normal((2, 16, 8)).astype(np.float32)
        with pytest.raises(NumericError, match="non-finite attention output"):
            multi_head_self_attention(x, dataclasses.replace(params, b_o=b_o))

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            c = int(rng.choice([4, 8, 16]))
            heads = int(rng.choice([1, 2]))
            n = int(rng.integers(1, 10))
            params = rand_attention(rng, c, heads)
            x = rng.standard_normal((n, c)).astype(np.float32)
            out = multi_head_self_attention(x, params)
            ref = naive_attention(x, params)
            assert np.allclose(out, ref, rtol=1e-5, atol=1e-5)


def zero_bias_steb(c, heads, seed=0):
    rng = np.random.default_rng(seed)
    params = _init_steb(rng, c, heads)
    zero = lambda a: np.zeros_like(a)
    attn = AttentionParams(
        heads=heads, w_q=params.attn.w_q, b_q=zero(params.attn.b_q),
        w_k=params.attn.w_k, b_k=zero(params.attn.b_k),
        w_v=params.attn.w_v, b_v=zero(params.attn.b_v),
        w_o=np.zeros_like(params.attn.w_o), b_o=zero(params.attn.b_o))
    mlp = MlpParams(weights=(params.mlp.weights[0],
                             np.zeros_like(params.mlp.weights[1])),
                    biases=(zero(params.mlp.biases[0]),
                            zero(params.mlp.biases[1])),
                    activations=params.mlp.activations)
    return StebParams(attn=attn, mlp=mlp)


class TestSteb:
    @pytest.mark.parametrize("layers,message", [
        (dict(activations=("gelu",)), "lists must align"),
        (dict(weights=(np.zeros((4, 8)), np.zeros((8, 5)))), "must chain"),
    ], ids=["one-activation", "4-into-5"])
    def test_malformed_mlp_rejected(self, layers, message):
        mlp = dict(weights=(np.zeros((4, 8)), np.zeros((8, 4))),
                   biases=(np.zeros(4), np.zeros(8)), activations=("gelu", "none"))
        with pytest.raises(InvalidInputError, match=message):
            MlpParams(**{**mlp, **layers})

    @pytest.mark.parametrize("shifted", [False, True])
    def test_shape_preserved(self, shifted):
        rng = np.random.default_rng(6)
        params = _init_steb(rng, 8, 2)
        x = rng.standard_normal((3, 8, 8, 12)).astype(np.float32)
        out = steb_forward(x, params, 4, shifted=shifted)
        assert out.shape == x.shape

    def test_rejects_wrong_rank(self):
        params = _init_steb(np.random.default_rng(6), 8, 2)
        with pytest.raises(InvalidInputError, match="L x C x H x W"):
            steb_forward(np.zeros((8, 8, 8), np.float32), params, 4)

    def test_zero_projections_give_identity(self):
        x = np.random.default_rng(7).standard_normal((2, 8, 8, 8)).astype(np.float32)
        params = zero_bias_steb(8, 2)
        out = steb_forward(x.copy(), params, 4)
        assert np.array_equal(out, x)

    def test_matches_composed_reference(self):
        rng = np.random.default_rng(8)
        params = _init_steb(rng, 4, 2)
        x = rng.standard_normal((1, 4, 4, 4)).astype(np.float32)
        out = steb_forward(x.copy(), params, 4, shifted=True)
        # straight-line composition of the public kernels
        y = cyclic_shift(x, -2)
        tokens = window_partition(y, 4)
        tokens = tokens + multi_head_self_attention(layer_norm(tokens), params.attn)
        tokens = tokens + mlp_forward(layer_norm(tokens), params.mlp)
        ref = cyclic_shift(window_unpartition(tokens, 4, 1, 4, 4), 2)
        assert np.array_equal(out, ref)  # bit-identical

    def test_updates_its_input_in_place(self):
        # C = 1, M = 1: every pixel is a window of one token
        rng = np.random.default_rng(9)
        params = _init_steb(rng, 1, 1)
        x = rng.standard_normal((2, 1, 4, 4)).astype(np.float32)
        tokens = window_partition(x, 1)
        tokens = tokens + multi_head_self_attention(layer_norm(tokens), params.attn)
        tokens = tokens + mlp_forward(layer_norm(tokens), params.mlp)
        want = window_unpartition(tokens, 1, 2, 4, 4)
        assert not np.array_equal(want, x)
        # a contiguous float32 input is updated and returned
        got = x.copy()
        assert steb_forward(got, params, 1) is got
        assert np.array_equal(got, want)
        # any other input is copied once, and the copy is updated: the
        # scatter is not lost in a reshape copy of a strided view
        wide = np.zeros((2, 1, 4, 8), np.float32)
        wide[..., ::2] = x
        assert np.array_equal(steb_forward(wide[..., ::2], params, 1), want)
        assert np.array_equal(wide[..., ::2], x)
        assert np.array_equal(steb_forward(x.astype(np.float64), params, 1), want)

    @pytest.mark.parametrize("shifted", [False, True])
    def test_blocks_byte_identical_across_thread_counts(self, shifted):
        # 5 x 16 x 16 = 1280 windows: two full blocks and a half one
        rng = np.random.default_rng(40)
        params = _init_steb(rng, 8, 2)
        x = rng.standard_normal((5, 8, 64, 64)).astype(np.float32)
        assert 2 * _STEB_CHUNK < 5 * 16 * 16 < 3 * _STEB_CHUNK
        outs = [steb_forward(x.copy(), params, 4, shifted=shifted, threads=t)
                for t in (1, 2, 3)]
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])
        # every block, the ragged tail included, against one unblocked pass
        y = cyclic_shift(x, -2) if shifted else x
        tokens = window_partition(y, 4)
        tokens = tokens + multi_head_self_attention(layer_norm(tokens), params.attn)
        tokens = tokens + mlp_forward(layer_norm(tokens), params.mlp)
        ref = window_unpartition(tokens, 4, 5, 64, 64)
        if shifted:
            ref = cyclic_shift(ref, 2)
        assert np.allclose(outs[0], ref, rtol=0, atol=1e-5)

    def test_scatter_from_more_threads_than_cores(self):
        # 9 blocks on 8 threads, switching often, all scattering into one
        # output: a lost or misplaced write shows against one thread
        rng = np.random.default_rng(41)
        params = _init_steb(rng, 4, 2)
        x = rng.standard_normal((9, 4, 64, 128)).astype(np.float32)
        assert 9 * 16 * 32 == 9 * _STEB_CHUNK
        want = steb_forward(x.copy(), params, 4, shifted=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = steb_forward(x, params, 4, shifted=True, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_peak_memory_bounded(self, threads):
        # 3 x 16 x 128 x 128 is 3 MB; unblocked, the attention and MLP
        # temporaries over all 3072 windows peaked at 38 MB. Blocks that
        # gather their windows and scatter them back into x peak at 5.6 MB
        # at one thread, 9.3-10.9 MB at two (8.7 and 13.5 MB with an output
        # beside the input)
        rng = np.random.default_rng(42)
        params = _init_steb(rng, 16, 2)
        x = rng.standard_normal((3, 16, 128, 128)).astype(np.float32)
        steb_forward(x[:, :, :4, :4], params, 4)  # lazy imports, untraced
        tracemalloc.start()
        try:
            steb_forward(x, params, 4, threads=threads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12.5e6


class TestMapBlocks:
    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    @pytest.mark.parametrize("n", [0, 1, 5, 6, 23])
    def test_each_start_once(self, threads, n):
        seen = []
        lock = threading.Lock()

        def fn(start):
            with lock:
                seen.append(start)

        _map_blocks(fn, range(0, n, 3), threads)
        assert sorted(seen) == list(range(0, n, 3))

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_first_exception_propagates_unchanged(self, threads):
        raised = ValueError("block 4")
        before = threading.active_count()

        def fn(start):
            if start == 4:
                raise raised

        with pytest.raises(ValueError) as info:
            _map_blocks(fn, range(10), threads)
        assert info.value is raised
        assert threading.active_count() == before

    def test_threads_below_one_rejected(self):
        with pytest.raises(InvalidInputError):
            _map_blocks(lambda start: None, range(10), 0)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_raise_stops_new_items(self, threads):
        # one thread runs items in order, so exactly items 0-3 start; with
        # more, only the items already pulled when item 0 raised may run
        fail_at, n = (3, 10) if threads == 1 else (0, 40)
        calls = []
        lock = threading.Lock()
        before = threading.active_count()

        def fn(item):
            with lock:
                calls.append(item)
            if item == fail_at:
                raise ValueError("item %d" % item)
            time.sleep(0.002)

        with pytest.raises(ValueError):
            _map_blocks(fn, range(n), threads)
        if threads == 1:
            assert calls == [0, 1, 2, 3]
        else:
            assert len(calls) < 20
        assert threading.active_count() == before


def upsample_into_zeros(x, conv):
    """upsample_double added into a zero skip: the upsampling alone."""
    *lead, _, h, w = x.shape
    return upsample_double(x, conv, np.zeros((*lead, conv.weight.shape[0], 2 * h, 2 * w),
                                             np.float32))


class TestResampling:
    def test_shapes(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 4, 8, 16)).astype(np.float32)
        down = ConvParams(weight=rng.standard_normal((4, 4, 2, 2)).astype(np.float32),
                          bias=np.zeros(4, np.float32))
        up = ConvParams(weight=rng.standard_normal((4, 4, 3, 3)).astype(np.float32),
                        bias=np.zeros(4, np.float32))
        assert downsample_half(x, down).shape == (2, 4, 4, 8)
        assert upsample_into_zeros(x, up).shape == (2, 4, 16, 32)

    def test_identity_upsample_on_constant_interior(self):
        c = 3
        w = np.zeros((c, c, 3, 3), np.float32)
        for i in range(c):
            w[i, i, 1, 1] = 1.0
        up = ConvParams(weight=w, bias=np.zeros(c, np.float32))
        x = np.full((1, c, 4, 4), 0.7, np.float32)
        out = upsample_into_zeros(x, up)
        assert np.allclose(out, 0.7)

    def test_three_downsamples_reach_one_eighth(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((1, 2, 32, 16)).astype(np.float32)
        down = ConvParams(weight=rng.standard_normal((2, 2, 2, 2)).astype(np.float32),
                          bias=np.zeros(2, np.float32))
        for _ in range(3):
            x = downsample_half(x, down)
        assert x.shape[-2:] == (4, 2)

    def test_odd_dimensions_rejected(self):
        down = ConvParams(weight=np.zeros((1, 1, 2, 2), np.float32),
                          bias=np.zeros(1, np.float32))
        with pytest.raises(InvalidInputError):
            downsample_half(np.zeros((1, 1, 5, 4), np.float32), down)

    @pytest.mark.parametrize("op,weight_shape,message", [
        (downsample_half, (2, 2, 3, 3), "downsample kernel"),
        (downsample_half, (2, 3, 2, 2), "downsample kernel"),
        (downsample_half, (2, 2), "downsample kernel"),
        (upsample_into_zeros, (2, 2, 2, 2), "upsample kernel"),
        (upsample_into_zeros, (2, 3, 3, 3), "upsample kernel"),
    ], ids=["down-3x3", "down-3-in", "down-2-d", "up-2x2", "up-3-in"])
    def test_kernel_shape_rejected(self, op, weight_shape, message):
        conv = ConvParams(weight=np.zeros(weight_shape), bias=np.zeros(2))
        with pytest.raises(InvalidInputError, match=message):
            op(np.zeros((1, 2, 4, 4), np.float32), conv)

    def test_adds_into_its_skip(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 5, 7)).astype(np.float32)
        conv = rand_conv(rng, 3, 4, 3)
        skip = rng.standard_normal((2, 4, 10, 14)).astype(np.float32)
        want = upsample_into_zeros(x, conv) + skip
        # a contiguous float32 skip is updated and returned, to the same bits
        got = skip.copy()
        assert upsample_double(x, conv, got) is got
        assert np.array_equal(got, want)
        # any other skip is copied once, and the copy is updated
        assert np.array_equal(upsample_double(x, conv, skip.astype(np.float64)), want)
        assert np.array_equal(upsample_double(x, conv, np.asfortranarray(skip)), want)

    @pytest.mark.parametrize("shape", [(2, 4, 10, 12), (2, 3, 10, 14), (4, 10, 14)],
                             ids=["width", "channels", "rank"])
    def test_skip_shape_rejected(self, shape):
        conv = rand_conv(np.random.default_rng(12), 3, 4, 3)
        with pytest.raises(InvalidInputError, match="skip must have"):
            upsample_double(np.zeros((2, 3, 5, 7), np.float32), conv,
                            np.zeros(shape, np.float32))


def brute_upsample_double(x, weight, bias):
    """Nearest x2 by np.repeat, then a zero-padded 3x3 convolution as a
    9-tap loop, in float64."""
    up = np.repeat(np.repeat(x.astype(np.float64), 2, axis=-2), 2, axis=-1)
    h, w = up.shape[-2:]
    padded = np.zeros(up.shape[:-2] + (h + 2, w + 2))
    padded[..., 1:-1, 1:-1] = up
    out = np.zeros(up.shape[:-3] + (weight.shape[0], h, w))
    for di in range(3):
        for dj in range(3):
            tap = padded[..., di:di + h, dj:dj + w]
            out += np.tensordot(tap, weight[:, :, di, dj].astype(np.float64),
                                axes=([-3], [1])).transpose(*range(up.ndim - 3), -1, -3, -2)
    return out + bias.astype(np.float64)[:, None, None]


def brute_downsample_half(x, weight, bias):
    """Stride-2 2x2 convolution as a 4-tap loop, in float64."""
    x64 = x.astype(np.float64)
    out = bias.astype(np.float64)[:, None, None]
    for di in range(2):
        for dj in range(2):
            tap = x64[..., di::2, dj::2]
            out = out + np.tensordot(tap, weight[:, :, di, dj].astype(np.float64),
                                     axes=([-3], [1])).transpose(*range(x.ndim - 3), -1, -3, -2)
    return out


def rand_conv(rng, c_in, c_out, k):
    return ConvParams(weight=rng.standard_normal((c_out, c_in, k, k)).astype(np.float32),
                      bias=rng.standard_normal(c_out).astype(np.float32))


class TestResamplingBruteForce:
    # (leading axes, in channels, out channels, H, W)
    SHAPES = [((3,), 4, 4, 8, 8), ((2,), 3, 5, 5, 7), ((1,), 16, 16, 16, 16),
              ((2, 3), 2, 6, 6, 10), ((2, 2), 5, 3, 3, 1)]

    @pytest.mark.parametrize("lead,c_in,c_out,h,w", SHAPES)
    def test_upsample_double(self, lead, c_in, c_out, h, w):
        rng = np.random.default_rng(h * 31 + w)
        x = rng.standard_normal(lead + (c_in, h, w)).astype(np.float32)
        conv = rand_conv(rng, c_in, c_out, 3)
        out = upsample_into_zeros(x, conv)
        ref = brute_upsample_double(x, conv.weight, conv.bias)
        assert out.dtype == np.float32
        assert out.shape == ref.shape == lead + (c_out, 2 * h, 2 * w)
        assert np.abs(out - ref).max() <= 1e-5 * np.abs(ref).max()

    @pytest.mark.parametrize("lead,c_in,c_out,h,w", SHAPES)
    def test_downsample_half(self, lead, c_in, c_out, h, w):
        rng = np.random.default_rng(h * 37 + w)
        h, w = 2 * h, 2 * w  # even, with odd and non-square halves
        x = rng.standard_normal(lead + (c_in, h, w)).astype(np.float32)
        conv = rand_conv(rng, c_in, c_out, 2)
        out = downsample_half(x, conv)
        ref = brute_downsample_half(x, conv.weight, conv.bias)
        assert out.dtype == np.float32
        assert out.shape == ref.shape == lead + (c_out, h // 2, w // 2)
        assert np.abs(out - ref).max() <= 1e-5 * np.abs(ref).max()


def test_pipeline_runs_without_scipy():
    # GELU needs no scipy, so a whole forward pass must run with every
    # scipy import failing
    code = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None  # any scipy import now raises ImportError
        import numpy as np
        from evtpr import (IntensityFrame, PipelineConfig, init_pipeline_params,
                           pipeline_forward, simulate_events)
        frames = [IntensityFrame(timestamp=i * 1000,
                                 pixels=np.full((16, 16, 3), 0.2 + 0.2 * i))
                  for i in range(3)]
        config = PipelineConfig(n_in=3, c_r=8, c_t=16, c_ts=8, encoder_depth=2)
        outs, _ = pipeline_forward(frames, simulate_events(frames, C=0.2), 1.5,
                                   [0.5], config, init_pipeline_params(config, 0))
        assert outs[0].shape == (24, 24, 3)
        assert "scipy.special" not in sys.modules
        print("ok")
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ok"


def naive_conv1x1(x, weight, bias):
    """Per-pixel matrix multiply in float64 loops."""
    c_out, c_in = weight.shape
    lead = x.shape[:-3]
    h, w = x.shape[-2:]
    x2 = x.reshape((-1, c_in, h, w)).astype(np.float64)
    out = np.zeros((x2.shape[0], c_out, h, w))
    for b in range(x2.shape[0]):
        for i in range(h):
            for j in range(w):
                out[b, :, i, j] = weight.astype(np.float64) @ x2[b, :, i, j] + bias
    return out.reshape(lead + (c_out, h, w))


class TestFusion:
    def test_identity_conv_is_plain_sum(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 6, 6)).astype(np.float32)
        b = rng.standard_normal((4, 6, 6)).astype(np.float32)
        conv = ConvParams(weight=np.eye(4, dtype=np.float32),
                          bias=np.zeros(4, np.float32))
        assert np.allclose(fuse_features(a, b, conv), a + b, atol=1e-7)
        assert np.allclose(fuse_features(a, np.zeros_like(b), conv), a, atol=1e-7)

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            c_in = int(rng.integers(1, 6))
            c_out = int(rng.integers(1, 6))
            h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            a = rng.standard_normal((c_in, h, w)).astype(np.float32)
            b = rng.standard_normal((c_in, h, w)).astype(np.float32)
            conv = ConvParams(weight=rng.standard_normal((c_out, c_in)).astype(np.float32),
                              bias=rng.standard_normal(c_out).astype(np.float32))
            out = fuse_features(a, b, conv)
            ref = naive_conv1x1((a + b)[None], conv.weight, conv.bias)[0]
            assert np.allclose(out, ref, rtol=1e-5, atol=1e-5)

    def test_shape_mismatch(self):
        conv = ConvParams(weight=np.eye(2, dtype=np.float32),
                          bias=np.zeros(2, np.float32))
        with pytest.raises(InvalidInputError):
            fuse_features(np.zeros((2, 4, 4), np.float32),
                          np.zeros((2, 4, 5), np.float32), conv)

    @pytest.mark.parametrize("weight_shape", [(2, 3), (2, 4, 1, 1)],
                             ids=["3-in-channels", "4-d-weight"])
    def test_conv1x1_rejects_inconsistent_weight(self, weight_shape):
        conv = ConvParams(weight=np.zeros(weight_shape), bias=np.zeros(2))
        with pytest.raises(InvalidInputError, match="1x1 conv weight inconsistent"):
            conv1x1(np.zeros((4, 4, 4), np.float32), conv)


class TestExtractors:
    @pytest.mark.parametrize("shape", [(2, 8, 8), (1, 3, 2, 8, 8)], ids=["3-d", "5-d"])
    def test_regional_rejects_tpr_rank(self, shape):
        from evtpr.kernels import RegionalParams
        from evtpr.pipeline import _init_conv1x1
        params = RegionalParams(lift=_init_conv1x1(np.random.default_rng(14), 2, 8),
                                blocks=())
        with pytest.raises(InvalidInputError, match="L x M_p x H x W"):
            regional_extractor_forward(np.zeros(shape, np.float32), params, 4)

    def test_regional_shape_contract(self):
        rng = np.random.default_rng(13)
        params_rng = np.random.default_rng(14)
        from evtpr.kernels import RegionalParams
        from evtpr.pipeline import _init_conv1x1
        params = RegionalParams(
            lift=_init_conv1x1(params_rng, 2, 8),
            blocks=tuple(_init_steb(params_rng, 8, 2) for _ in range(4)))
        tpr = rng.standard_normal((7, 2, 8, 8)).astype(np.float32)
        out = regional_extractor_forward(tpr, params, 4)
        assert out.shape == (7, 8, 8, 8)

    def test_regional_zero_input_zero_biases(self):
        from evtpr.kernels import RegionalParams
        rng = np.random.default_rng(15)
        lift = ConvParams(weight=rng.standard_normal((8, 2)).astype(np.float32),
                          bias=np.zeros(8, np.float32))
        params = RegionalParams(
            lift=lift, blocks=tuple(zero_bias_steb(8, 2, seed=i) for i in range(4)))
        out = regional_extractor_forward(np.zeros((3, 2, 8, 8), np.float32),
                                         params, 4)
        assert np.array_equal(out, np.zeros_like(out))

    def test_regional_deterministic(self):
        from evtpr.kernels import RegionalParams
        from evtpr.pipeline import _init_conv1x1
        rng = np.random.default_rng(16)
        params = RegionalParams(
            lift=_init_conv1x1(rng, 2, 8),
            blocks=tuple(_init_steb(rng, 8, 2) for _ in range(4)))
        tpr = np.random.default_rng(17).standard_normal((3, 2, 8, 8)).astype(np.float32)
        a = regional_extractor_forward(tpr, params, 4)
        b = regional_extractor_forward(tpr.copy(), params, 4)
        assert np.array_equal(a, b)

    def _holistic_params(self, rng, c, bins, depth):
        from evtpr.kernels import HolisticParams
        from evtpr.pipeline import _init_conv, _init_conv1x1
        return HolisticParams(
            frame_lift=_init_conv1x1(rng, 3, c),
            event_lift=_init_conv1x1(rng, bins, c),
            encoder_blocks=tuple(_init_steb(rng, c, 2) for _ in range(depth)),
            downs=tuple(_init_conv(rng, c, c, 2) for _ in range(depth)),
            decoder_blocks=tuple(_init_steb(rng, c, 2) for _ in range(depth)),
            ups=tuple(_init_conv(rng, c, c, 3) for _ in range(depth)),
        )

    def test_holistic_keeps_resolution(self):
        rng = np.random.default_rng(18)
        params = self._holistic_params(rng, 4, 3, 2)
        frames = rng.random((3, 3, 16, 16)).astype(np.float32)
        segments = [rng.standard_normal((3, 16, 16)) for _ in range(2)]
        out = holistic_extractor_forward(frames, segments, params, 4)
        assert out.shape == (5, 4, 16, 16)

    def test_holistic_minimal_input_single_segment(self):
        rng = np.random.default_rng(19)
        params = self._holistic_params(rng, 4, 3, 1)
        frames = rng.random((2, 3, 8, 8)).astype(np.float32)
        out = holistic_extractor_forward(frames, [rng.standard_normal((3, 8, 8))],
                                         params, 4)
        assert out.shape == (3, 4, 8, 8)
        with pytest.raises(InvalidInputError):
            holistic_extractor_forward(frames, [], params, 4)

    @pytest.mark.parametrize("threads,bound", [(1, 1030), (2, 1400)],
                             ids=["1-thread", "2-threads"])
    def test_holistic_peak_memory_per_input_pixel(self, threads, bound):
        # the default config on 7 levels of 128 x 128 peaks at 889 B per
        # input pixel at one thread and 1150-1214 at two, where two blocks'
        # temporaries can be live at once; the bounds are about 15% above.
        # With STEBs that kept their input and an upsample output held
        # beside its skip, it peaked at 1237 and 1530-1562
        config = PipelineConfig(n_in=4)
        params = init_pipeline_params(config, 0).holistic
        rng = np.random.default_rng(50)
        frames = rng.random((4, 3, 128, 128)).astype(np.float32)
        segments = [rng.standard_normal((4, 128, 128)) for _ in range(3)]
        holistic_extractor_forward(frames[..., :32, :32], [s[:, :32, :32] for s in segments],
                                   params, 4)  # lazy imports, untraced
        tracemalloc.start()
        try:
            holistic_extractor_forward(frames, segments, params, 4, threads=threads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 128 ** 2 < bound

    def test_holistic_deterministic(self):
        rng = np.random.default_rng(20)
        params = self._holistic_params(rng, 4, 3, 2)
        data_rng = np.random.default_rng(21)
        frames = data_rng.random((2, 3, 16, 16)).astype(np.float32)
        segments = [data_rng.standard_normal((3, 16, 16))]
        a = holistic_extractor_forward(frames, segments, params, 4)
        b = holistic_extractor_forward(frames.copy(),
                                       [s.copy() for s in segments], params, 4)
        assert np.array_equal(a, b)


def make_temporal_params(rng, c_t, c_ts, hidden=8):
    return TemporalEmbedParams(
        mlp=_init_mlp(rng, [1, hidden, c_t], ["relu", "none"]),
        compress=ConvParams(
            weight=rng.standard_normal((c_ts, c_t)).astype(np.float32),
            bias=rng.standard_normal(c_ts).astype(np.float32)))


def forced_output_mlp(c_t, value):
    """Two-layer MLP that outputs a constant vector regardless of t."""
    return MlpParams(
        weights=(np.zeros((1, 1), np.float32), np.zeros((c_t, 1), np.float32)),
        biases=(np.zeros(1, np.float32), np.full(c_t, value, np.float32)),
        activations=("relu", "none"))


class TestTemporalEmbed:
    def test_identity_attention_before_compression(self):
        rng = np.random.default_rng(22)
        c_t = 6
        r_t = rng.standard_normal((c_t, 4, 4)).astype(np.float32)
        params = TemporalEmbedParams(
            mlp=forced_output_mlp(c_t, 1.0),
            compress=ConvParams(weight=np.eye(c_t, dtype=np.float32),
                                bias=np.zeros(c_t, np.float32)))
        out = temporal_embed(0.3, params, r_t)
        assert np.allclose(out, r_t, atol=1e-7)

    def test_zero_attention_gives_zero(self):
        rng = np.random.default_rng(23)
        c_t = 6
        r_t = rng.standard_normal((c_t, 4, 4)).astype(np.float32)
        params = TemporalEmbedParams(
            mlp=forced_output_mlp(c_t, 0.0),
            compress=ConvParams(weight=np.eye(c_t, dtype=np.float32),
                                bias=np.zeros(c_t, np.float32)))
        assert np.allclose(temporal_embed(0.7, params, r_t), 0.0)

    def test_matches_matvec_broadcast_oracle(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            c_t = int(rng.integers(2, 8))
            c_ts = int(rng.integers(1, 6))
            t = float(rng.uniform(0, 1))
            params = make_temporal_params(rng, c_t, c_ts)
            r_t = rng.standard_normal((c_t, 3, 3)).astype(np.float32)
            out = temporal_embed(t, params, r_t)
            # dense-layer reference in float64
            hid = np.maximum(
                params.mlp.weights[0].astype(np.float64) @ [t]
                + params.mlp.biases[0], 0.0)
            attn = params.mlp.weights[1].astype(np.float64) @ hid + params.mlp.biases[1]
            weighted = attn[:, None, None] * r_t.astype(np.float64)
            ref = np.einsum("oc,chw->ohw", params.compress.weight.astype(np.float64),
                            weighted) + params.compress.bias[:, None, None]
            assert np.allclose(out, ref, rtol=1e-5, atol=1e-6)

    def test_t_out_of_range(self):
        params = make_temporal_params(np.random.default_rng(25), 4, 2)
        with pytest.raises(InvalidInputError):
            temporal_embed(1.5, params, np.zeros((4, 2, 2), np.float32))

    @pytest.mark.parametrize("compress_in,r_t_channels,message", [
        (6, 6, "compress input channels"), (4, 6, "R_t channels"),
    ], ids=["mlp-4-compress-6", "compress-4-r_t-6"])
    def test_channel_mismatch(self, compress_in, r_t_channels, message):
        params = TemporalEmbedParams(
            mlp=forced_output_mlp(4, 1.0),
            compress=ConvParams(weight=np.zeros((2, compress_in)), bias=np.zeros(2)))
        with pytest.raises(InvalidInputError, match=message):
            temporal_embed(0.5, params, np.zeros((r_t_channels, 2, 2), np.float32))

    def test_folded_head_matches_fuse_then_embed(self):
        rng = np.random.default_rng(26)
        c_r, c_t, c_ts = 6, 640, 8
        fuse = ConvParams(weight=rng.standard_normal((c_t, c_r)).astype(np.float32) / 3,
                          bias=rng.standard_normal(c_t).astype(np.float32) / 3)
        params = make_temporal_params(rng, c_t, c_ts)
        a = rng.standard_normal((c_r, 5, 7)).astype(np.float32)
        b = rng.standard_normal((c_r, 5, 7)).astype(np.float32)
        for t in (0.0, 0.37, 1.0):
            ref = temporal_embed(t, params, fuse_features(a, b, fuse))
            out = fuse_features(a, b, timestamp_head(t, fuse, params))
            assert np.allclose(out, ref, rtol=1e-5, atol=1e-5)
        with pytest.raises(InvalidInputError):
            timestamp_head(0.5, fuse, make_temporal_params(rng, c_t + 1, c_ts))


def naive_spatial_decode(feature, queries, decoder):
    """Geometric oracle: nearest-center search + closed-form area weights,
    float64 dense layers evaluated per neighbor."""
    c, h, w = feature.shape
    outs = []
    for qx, qy in queries:
        rows = sorted(range(h), key=lambda i: abs(qy - (i + 0.5)))[:2]
        cols = sorted(range(w), key=lambda j: abs(qx - (j + 0.5)))[:2]
        cells = sorted((i, j) for i in rows for j in cols)
        rgb = []
        wts = []
        for i, j in cells:
            inp = np.concatenate([feature[:, i, j].astype(np.float64),
                                  [qx - (j + 0.5), qy - (i + 0.5)]])
            out = inp
            for wm, bm, act in zip(decoder.weights, decoder.biases,
                                   decoder.activations):
                out = wm.astype(np.float64) @ out + bm.astype(np.float64)
                if act == "relu":
                    out = np.maximum(out, 0.0)
            rgb.append(out)
            oi = max(ii for ii, _ in cells) + min(ii for ii, _ in cells) - i
            oj = max(jj for _, jj in cells) + min(jj for _, jj in cells) - j
            wts.append(abs((qx - (oj + 0.5)) * (qy - (oi + 0.5))))
        wts = np.array(wts) / sum(wts)
        outs.append(sum(wt * r for wt, r in zip(wts, rgb)))
    return np.array(outs)


class TestSpatialDecode:
    def test_corners_at_the_border(self):
        # One 4-cell axis. At q = 0 the low tap clamps from -1 to cell 0 and
        # the high tap stays cell 1, at offsets -0.5 and -1.5, so the factors
        # weight cells 0 and 1 by 0.75 and 0.25. At q = 4 both taps are
        # cell 3, at offset 0.5.
        taps, offsets, factors = _taps(np.array([0.0, 4.0]), 4)
        assert np.array_equal(taps, [[0, 3], [1, 3]])
        assert np.array_equal(offsets, [[-0.5, 0.5], [-1.5, 0.5]])
        assert np.array_equal(factors, [[1.5, 0.5], [0.5, 0.5]])
        # The blended weights of the four corners on a 4 x 4 grid: with a
        # one-hot feature per cell and the decoder [I | 0], each output row
        # is the query's weight on every cell.
        feature = np.eye(16, dtype=np.float32).reshape(16, 4, 4)
        decoder = MlpParams(weights=(np.eye(16, 18, dtype=np.float32),),
                            biases=(np.zeros(16, np.float32),), activations=("none",))
        out = spatial_decode(feature, np.array([[0.0, 0.0], [4.0, 4.0]]), 1.0, decoder)
        top_left, bottom_right = np.zeros((2, 16), np.float32)
        top_left[[0, 1, 4, 5]] = [0.5625, 0.1875, 0.1875, 0.0625]
        bottom_right[15] = 1.0
        assert np.array_equal(out, [top_left, bottom_right])

    def test_constant_field_invariance(self):
        rng = np.random.default_rng(26)
        c = 5
        decoder = _init_mlp(rng, [c + 2, 8, 8, 8, 3],
                            ["relu", "relu", "relu", "none"])
        feature = np.full((c, 4, 4), 0.3, np.float32)
        reference = None
        for s in (1.0, 1.7, 2.0, 3.5):
            q = np.array([[2.0, 2.0], [1.3, 2.9], [0.6, 3.2]])
            out = spatial_decode(feature, q, s, decoder)
            # identical per query position and per scale up to offsets:
            # offsets differ per query, so only compare the center query
            if reference is None:
                reference = out[0]
            assert np.allclose(out[0], reference, atol=1e-6)

    def test_constant_field_weight_partition(self):
        # with a linear decoder ignoring offsets, output must equal the
        # constant candidate exactly for any query: weights sum to 1
        c = 3
        w_lin = np.zeros((3, c + 2), np.float32)
        w_lin[:, :c] = 1.0
        decoder = MlpParams(weights=(w_lin,), biases=(np.zeros(3, np.float32),),
                            activations=("none",))
        feature = np.full((c, 5, 5), 0.21, np.float32)
        rng = np.random.default_rng(27)
        q = np.column_stack([rng.uniform(0, 5, 50), rng.uniform(0, 5, 50)])
        out = spatial_decode(feature, q, 2.0, decoder)
        assert np.allclose(out, 3 * 0.21, atol=1e-6)

    def test_cell_center_gets_full_weight(self):
        rng = np.random.default_rng(28)
        c = 4
        decoder = _init_mlp(rng, [c + 2, 8, 8, 8, 3],
                            ["relu", "relu", "relu", "none"])
        feature = rng.standard_normal((c, 4, 4)).astype(np.float32)
        q = np.array([[1.5, 2.5]])  # center of cell (row 2, col 1)
        out = spatial_decode(feature, q, 1.0, decoder)
        inp = np.concatenate([feature[:, 2, 1], np.zeros(2, np.float32)])
        ref = mlp_forward(inp[None], decoder)[0]
        assert np.allclose(out[0], ref, atol=1e-6)

    def test_identity_scale_decodes_each_cell_at_zero_offset(self):
        # every cell centre, the last row and column included, where both
        # taps of an axis clamp to the same border cell
        rng = np.random.default_rng(32)
        c, h, w = 4, 5, 7
        decoder = _init_mlp(rng, [c + 2, 8, 8, 8, 3],
                            ["relu", "relu", "relu", "none"])
        feature = rng.standard_normal((c, h, w)).astype(np.float32)
        gy, gx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        q = np.stack([gx.ravel() + 0.5, gy.ravel() + 0.5], axis=1)
        out = spatial_decode(feature, q, 1.0, decoder)
        inp = np.concatenate([feature.reshape(c, h * w).T,
                              np.zeros((h * w, 2), np.float32)], axis=1)
        assert np.abs(out - mlp_forward(inp, decoder)).max() <= 1e-5

    def test_continuous_across_clamped_centre_lines(self):
        rng = np.random.default_rng(33)
        c, h, w = 4, 5, 7
        decoder = _init_mlp(rng, [c + 2, 8, 8, 8, 3],
                            ["relu", "relu", "relu", "none"])
        feature = rng.standard_normal((c, h, w)).astype(np.float32)
        n = 40
        on_col = np.column_stack([np.full(n, w - 0.5), rng.uniform(0, h, n)])
        on_row = np.column_stack([rng.uniform(0, w, n), np.full(n, h - 0.5)])
        for q, axis in ((on_col, 0), (on_row, 1)):
            q = np.vstack([q, [w - 0.5, h - 0.5]])  # the corner clamps both
            at = spatial_decode(feature, q, 2.0, decoder)
            for side in (-1e-9, 1e-9):
                near = q.copy()
                near[:, axis] += side
                assert np.abs(spatial_decode(feature, near, 2.0, decoder)
                              - at).max() <= 1e-6

    def test_matches_geometric_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            c = int(rng.integers(1, 6))
            decoder = _init_mlp(rng, [c + 2, 6, 6, 6, 3],
                                ["relu", "relu", "relu", "none"])
            feature = rng.standard_normal((c, 4, 4)).astype(np.float32)
            # interior queries away from the outer half-cell margin
            q = np.column_stack([rng.uniform(0.51, 3.49, 7),
                                 rng.uniform(0.51, 3.49, 7)])
            out = spatial_decode(feature, q, 1.5, decoder)
            ref = naive_spatial_decode(feature, q, decoder)
            assert np.allclose(out, ref, rtol=1e-5, atol=1e-5)

    def test_blocks_byte_identical_across_thread_counts(self):
        # three chunks and 1229 queries more, so the last chunk is ragged
        rng = np.random.default_rng(43)
        c, h, w = 6, 9, 11
        n = 3 * _DECODE_CHUNK + 1229
        decoder = _init_mlp(rng, [c + 2, 16, 16, 16, 3],
                            ["relu", "relu", "relu", "none"])
        feature = rng.standard_normal((c, h, w)).astype(np.float32)
        q = np.column_stack([rng.uniform(0, w, n), rng.uniform(0, h, n)])
        outs = [spatial_decode(feature, q, 2.0, decoder, threads=t)
                for t in (1, 2, 3)]
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])
        # the tail is decoded like any other query
        tail = spatial_decode(feature, q[-1229:], 2.0, decoder)
        assert np.array_equal(outs[0][-1229:], tail)

    def test_query_outside_extent(self):
        decoder = _init_mlp(np.random.default_rng(30), [4, 4, 4, 4, 3],
                            ["relu", "relu", "relu", "none"])
        feature = np.zeros((2, 4, 4), np.float32)
        with pytest.raises(InvalidInputError):
            spatial_decode(feature, np.array([[5.0, 1.0]]), 1.0, decoder)

    @pytest.mark.parametrize("s,decoder_in,queries,message", [
        (0.5, 4, [[1.0, 1.0]], "scale must be finite and >= 1"),
        (math.inf, 4, [[1.0, 1.0]], "scale must be finite and >= 1"),
        (math.nan, 4, [[1.0, 1.0]], "scale must be finite and >= 1"),
        (1.0, 5, [[1.0, 1.0]], "decoder input dim"),
        (1.0, 4, [[1.0, 1.0, 1.0]], "N x 2"),
        (1.0, 4, [1.0, 1.0], "N x 2"),
    ], ids=["s-0.5", "s-inf", "s-nan", "decoder-5-in", "queries-Nx3", "queries-1-d"])
    def test_bad_arguments_rejected(self, s, decoder_in, queries, message):
        decoder = _init_mlp(np.random.default_rng(30), [decoder_in, 4, 3], ["relu", "none"])
        feature = np.zeros((2, 4, 4), np.float32)
        with pytest.raises(InvalidInputError, match=message):
            spatial_decode(feature, np.array(queries), s, decoder)

    def test_peak_memory_bounded_at_large_output(self):
        # 64x64x64 features at s=8: 262144 queries, whose N x 64 float32
        # hidden activations alone would take 67 MB per array
        rng = np.random.default_rng(31)
        decoder = _init_mlp(rng, [66, 64, 64, 64, 3],
                            ["relu", "relu", "relu", "none"])
        feature = rng.standard_normal((64, 64, 64)).astype(np.float32)
        gy, gx = np.meshgrid(np.arange(512), np.arange(512), indexing="ij")
        q = np.stack([(gx.ravel() + 0.5) / 8, (gy.ravel() + 0.5) / 8], axis=1)
        tracemalloc.start()
        try:
            spatial_decode(feature, q, 8.0, decoder)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48e6


def grid_queries(out_h, out_w, s):
    """The pixel centres of an out_h x out_w grid at scale s, row-major."""
    gy, gx = np.meshgrid(np.arange(out_h), np.arange(out_w), indexing="ij")
    return np.stack([(gx.ravel() + 0.5) / s, (gy.ravel() + 0.5) / s], axis=1)


class TestPhaseDecode:
    """spatial_decode of a whole QueryGrid, by blocks of output rows. (The
    class is named after the sub-pixel phase path that the grid path
    replaced; the name is kept so that its test ids stay.)"""

    @staticmethod
    def decoder(rng, c, hidden=16):
        return _init_mlp(rng, [c + 2, hidden, hidden, hidden, 3],
                         ["relu", "relu", "relu", "none"])

    # h or w of 1 has no unclamped pixel and 2 one row or column of cells
    @pytest.mark.parametrize("h,w", [(5, 9), (9, 4), (1, 6), (6, 1), (2, 7),
                                     (7, 2), (2, 2), (1, 1)])
    @pytest.mark.parametrize("s", [1, 2, 3, 8, 1.5, 2.5, 7.5])
    def test_matches_query_array(self, h, w, s):
        rng = np.random.default_rng(100 + 10 * h + w)
        c = 5
        decoder = self.decoder(rng, c)
        feature = rng.standard_normal((c, h, w)).astype(np.float32)
        out_h, out_w = int(s * h), int(s * w)
        grid = QueryGrid(out_h, out_w)
        out = spatial_decode(feature, grid, float(s), decoder)
        ref = spatial_decode(feature, grid_queries(out_h, out_w, s), float(s), decoder)
        assert out.shape == ref.shape == (out_h * out_w, 3)
        assert np.abs(out - ref).max() <= 1e-6

    @pytest.mark.parametrize("s", [2, 4, 8])
    def test_same_bytes_as_query_array_where_rows_divide_blocks(self, s):
        # out_w = 64 s divides _DECODE_CHUNK, so the grid's blocks are the
        # array's blocks, and the bytes agree under every sgemm kernel
        rng = np.random.default_rng(47)
        c, h, w = 8, 64, 64
        decoder = self.decoder(rng, c, hidden=64)
        feature = rng.standard_normal((c, h, w)).astype(np.float32)
        out = spatial_decode(feature, QueryGrid(s * h, s * w), float(s), decoder)
        ref = spatial_decode(feature, grid_queries(s * h, s * w, s), float(s), decoder)
        assert np.array_equal(out, ref)

    def test_wide_rows_run_in_column_runs(self):
        # a row of 1100 pixels is two blocks, 1024 columns and 76
        rng = np.random.default_rng(48)
        c, h, w, s = 3, 2, 275, 4
        decoder = self.decoder(rng, c)
        feature = rng.standard_normal((c, h, w)).astype(np.float32)
        out = spatial_decode(feature, QueryGrid(s * h, s * w), float(s), decoder)
        ref = spatial_decode(feature, grid_queries(s * h, s * w, s), float(s), decoder)
        assert np.abs(out - ref).max() <= 1e-6

    def test_grid_past_the_extent_raises(self):
        rng = np.random.default_rng(49)
        c, h, w = 2, 4, 4
        decoder = self.decoder(rng, c)
        feature = np.zeros((c, h, w), np.float32)
        # the last pixel centres of 9 columns at s = 2 lie at x = 4.25
        for grid in (QueryGrid(8, 9), QueryGrid(9, 8)):
            with pytest.raises(InvalidInputError):
                spatial_decode(feature, grid, 2.0, decoder)

    @pytest.mark.parametrize("out_h,out_w", [(-1, 4), (4, -2), (2.5, 4)])
    def test_malformed_grid_rejected(self, out_h, out_w):
        with pytest.raises(InvalidInputError, match="non-negative integer"):
            QueryGrid(out_h, out_w)

    @pytest.mark.parametrize("out_h,out_w", [(0, 8), (8, 0), (0, 0)])
    def test_empty_grid(self, out_h, out_w):
        rng = np.random.default_rng(50)
        decoder = self.decoder(rng, 2)
        feature = np.zeros((2, 4, 4), np.float32)
        out = spatial_decode(feature, QueryGrid(out_h, out_w), 2.0, decoder)
        assert out.shape == (0, 3)

    def test_matches_geometric_oracle(self):
        rng = np.random.default_rng(44)
        c, h, w, s = 3, 3, 4, 3
        decoder = self.decoder(rng, c, hidden=6)
        feature = rng.standard_normal((c, h, w)).astype(np.float32)
        out = spatial_decode(feature, QueryGrid(s * h, s * w), float(s), decoder)
        q = grid_queries(s * h, s * w, s)
        # the oracle knows no clamping: pixels away from the outer half cell
        inner = np.all((q > 0.5) & (q < (w - 0.5, h - 0.5)), axis=1)
        ref = naive_spatial_decode(feature, q[inner], decoder)
        assert np.allclose(out[inner], ref, rtol=1e-5, atol=1e-5)

    def test_blocks_byte_identical_across_thread_counts(self):
        # 88-pixel rows, 11 to a block: 72 rows in 7 blocks, the last ragged
        rng = np.random.default_rng(45)
        c, h, w, s = 6, 9, 11, 8
        decoder = self.decoder(rng, c)
        feature = rng.standard_normal((c, h, w)).astype(np.float32)
        grid = QueryGrid(s * h, s * w)
        outs = [spatial_decode(feature, grid, float(s), decoder, threads=t)
                for t in (1, 2, 3)]
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])

    def test_non_finite_feature_raises(self):
        rng = np.random.default_rng(46)
        c, h, w = 4, 6, 6
        decoder = self.decoder(rng, c)
        feature = rng.standard_normal((c, h, w)).astype(np.float32)
        feature[1, 3, 2] = np.nan  # an interior cell, away from the border
        with pytest.raises(NumericError):
            spatial_decode(feature, QueryGrid(4 * h, 4 * w), 4.0, decoder)

    def test_peak_memory_bounded_at_large_output(self):
        # as TestSpatialDecode's test of the same name, through the grid
        rng = np.random.default_rng(31)
        decoder = _init_mlp(rng, [66, 64, 64, 64, 3],
                            ["relu", "relu", "relu", "none"])
        feature = rng.standard_normal((64, 64, 64)).astype(np.float32)
        tracemalloc.start()
        try:
            spatial_decode(feature, QueryGrid(512, 512), 8.0, decoder)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48e6
