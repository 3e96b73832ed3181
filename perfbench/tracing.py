"""Spans around the public functions of `evtpr`, recorded from outside.

`Tracer.installed()` replaces the functions the pipeline and the benchmark
call (the names as imported by `evtpr.pipeline`, the kernels the STEBs and
the decoder call, and the module functions the benchmark itself calls) with
wrappers that record one span each: name, start, end, parent and the op it
belongs to. Spans stay in memory and are written out when the run ends.

Each wrapper may attach the work of the call, computed from tensor shapes
(FLOPs and bytes moved, float32, every operand read once and every result
written once). These are labelled "computed": they count what the
algorithm must do, not what the hardware did.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from evtpr import dataset, events, io_formats, kernels, metrics, pipeline, representations

F32 = 4


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 for a root
    op: int = -1  # index of the traced unit (setup repeat or op)
    flops: float = 0.0
    nbytes: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


@dataclass
class _MemFrame:
    base: int
    peak: int
    started: bool


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._mem: list[_MemFrame] = []
        self._unit = -1

    @contextlib.contextmanager
    def unit(self, name: str):
        """A root span for one setup repeat or one op; children share its id."""
        self._unit += 1
        with self.span(name):
            yield

    @contextlib.contextmanager
    def span(self, name: str, memory: bool = False):
        s = Span(name=name, start=0.0, parent=self._stack[-1] if self._stack else -1,
                 op=self._unit)
        idx = len(self.spans)
        self.spans.append(s)
        self._stack.append(idx)
        if memory:
            self._mem_enter()
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            if memory:
                s.extra["peak_bytes"] = self._mem_exit()
            self._stack.pop()

    # tracemalloc has one global peak; fold it into every open frame before
    # resetting it, so nested memory spans each see their own peak
    def _mem_enter(self):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        cur, peak = tracemalloc.get_traced_memory()
        for f in self._mem:
            f.peak = max(f.peak, peak)
        tracemalloc.reset_peak()
        self._mem.append(_MemFrame(base=cur, peak=cur, started=started))

    def _mem_exit(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        for f in self._mem:
            f.peak = max(f.peak, peak)
        frame = self._mem.pop()
        if frame.started:
            tracemalloc.stop()
        return frame.peak - frame.base

    def wrap(self, name: str, fn, work=None, memory: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, memory=memory) as s:
                out = fn(*args, **kwargs)
            if work is not None:
                s.flops, s.nbytes, more = work(args, kwargs, out)
                s.extra.update(more)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap in the wrappers for the duration of the block."""
        saved = []
        try:
            for module, attr, name, work, memory in _TARGETS:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(name, getattr(module, attr), work, memory))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "op": s.op, "flops": s.flops, "bytes": s.nbytes, **s.extra}
                for s in self.spans]


# ---------------------------------------------------------------------------
# computed work per call: (flops, bytes, extra)

def _rows(x) -> int:
    return int(np.prod(x.shape[:-1]))


def _mlp(n: int, params) -> tuple[float, float]:
    flops = nbytes = 0.0
    for w in params.weights:
        d_out, d_in = w.shape
        flops += 2.0 * n * d_in * d_out + n * d_out
        nbytes += F32 * (n * d_in + d_in * d_out + d_out + n * d_out)
    return flops, nbytes


def _attention(lead: int, n: int, c: int, heads: int) -> tuple[float, float]:
    t = lead * n
    scores = lead * heads * n * n
    flops = 8.0 * t * c * c + 4.0 * lead * n * n * c + 5.0 * scores
    # x, 4 projections, q/k/v written and read, scores and probabilities
    # written and read, per-head output written and read, result written
    nbytes = F32 * (t * c + 4 * (c * c + c) + 6 * t * c + 4 * scores + 3 * t * c)
    return flops, nbytes


def _layer_norm(elems: int, c: int) -> tuple[float, float]:
    return 8.0 * elems, F32 * (2 * elems + 2 * c)


def _conv(pixels: int, c_in: int, c_out: int, taps: int) -> tuple[float, float]:
    flops = 2.0 * pixels * c_in * c_out * taps + pixels * c_out
    nbytes = F32 * (pixels * c_in * taps + c_in * c_out * taps + c_out + pixels * c_out)
    return flops, nbytes


def _steb_stack(levels: int, c: int, h: int, w: int, m: int, blocks) -> tuple[float, float]:
    tokens = levels * h * w
    windows = tokens // (m * m)
    flops = nbytes = 0.0
    for b in blocks:
        for f, nb in (_layer_norm(tokens * c, c), _layer_norm(tokens * c, c),
                      _attention(windows, m * m, c, b.attn.heads),
                      _mlp(tokens, b.mlp),
                      (2.0 * tokens * c, F32 * 6 * tokens * c)):
            flops += f
            nbytes += nb
    return flops, nbytes


def _sum(*parts) -> tuple[float, float]:
    return tuple(float(sum(v)) for v in zip(*parts))


def work_mlp(args, kwargs, out):
    x, params = args[0], args[1]
    return (*_mlp(_rows(x), params), {})


def work_attention(args, kwargs, out):
    x, params = args[0], args[1]
    return (*_attention(int(np.prod(x.shape[:-2])), x.shape[-2], x.shape[-1],
                        params.heads), {})


def work_layer_norm(args, kwargs, out):
    x = args[0]
    return (*_layer_norm(x.size, x.shape[-1]), {})


def work_regional(args, kwargs, out):
    tpr, params, m = args[0], args[1], args[2]
    levels, moments, h, w = tpr.shape
    c = params.lift.weight.shape[0]
    return (*_sum(_conv(levels * h * w, moments, c, 1),
                  _steb_stack(levels, c, h, w, m, params.blocks)), {})


def work_holistic(args, kwargs, out):
    frames, segments, params, m = args[0], args[1], args[2], args[3]
    n_in, _, h, w = frames.shape
    bins = segments[0].shape[0]
    levels = 2 * n_in - 1
    c = params.frame_lift.weight.shape[0]
    parts = [_conv(n_in * h * w, 3, c, 1), _conv((n_in - 1) * h * w, bins, c, 1)]
    depth = len(params.downs)
    for i, block in enumerate(params.encoder_blocks):
        hh, ww = h >> i, w >> i
        parts.append(_steb_stack(levels, c, hh, ww, m, (block,)))
        parts.append(_conv(levels * (hh // 2) * (ww // 2), c, c, 4))
    for i, block in enumerate(params.decoder_blocks):
        hh, ww = h >> (depth - i), w >> (depth - i)
        parts.append(_steb_stack(levels, c, hh, ww, m, (block,)))
        parts.append(_conv(levels * hh * ww * 4, c, c, 9))
    return (*_sum(*parts), {})


def work_fuse(args, kwargs, out):
    f_g, _, conv = args[0], args[1], args[2]
    c, h, w = f_g.shape
    px = h * w
    add = (float(c * px), F32 * 3.0 * c * px)
    return (*_sum(add, _conv(px, c, conv.weight.shape[0], 1)), {})


def work_temporal(args, kwargs, out):
    params, r_t = args[1], args[2]
    c_t, h, w = r_t.shape
    px = h * w
    gate = (float(c_t * px), F32 * 2.0 * c_t * px)
    return (*_sum(_mlp(1, params.mlp), gate,
                  _conv(px, c_t, params.compress.weight.shape[0], 1)), {})


def work_decode(args, kwargs, out):
    feature, queries, decoder = args[0], args[1], args[3]
    c = feature.shape[0]
    n = len(queries)
    flops, nbytes = _mlp(n, decoder)
    # four corners: gather feature||offset, run the MLP, blend with area weights
    return (4.0 * flops + 4.0 * n * 3 * 2,
            4.0 * nbytes + F32 * (4.0 * n * (c + 2) * 2 + 4.0 * n * 3 + n * 3), {})


def work_voxel(args, kwargs, out):
    stream, t0, t1 = args[0], args[2], args[3]
    a = np.searchsorted(stream.t, t0, side="left")
    b = np.searchsorted(stream.t, t1, side="right")
    return 0.0, 0.0, {"events_in_window": int(b - a), "events_scanned": len(stream)}


def work_simulate(args, kwargs, out):
    return 0.0, 0.0, {"events": len(out)}


def work_event_file(args, kwargs, out):
    stream = out if out is not None else args[0]
    n = len(stream)
    return 0.0, float(io_formats.EVENT_HEADER.size + n * io_formats.EVENT_RECORD.size), {}


# (module, attribute, span name, work, track memory); the pipeline's own
# imported names come first so its calls are caught where it makes them
_TARGETS = [
    (pipeline, "pipeline_forward", "pipeline.forward", None, True),
    (pipeline, "init_pipeline_params", "pipeline.init", None, False),
    (pipeline, "build_voxel_grid", "representations.voxel", work_voxel, False),
    (pipeline, "build_tpr", "representations.tpr", None, False),
    (pipeline, "holistic_extractor_forward", "kernels.holistic", work_holistic, False),
    (pipeline, "regional_extractor_forward", "kernels.regional", work_regional, False),
    (pipeline, "fuse_features", "kernels.fuse", work_fuse, False),
    (pipeline, "temporal_embed", "kernels.temporal", work_temporal, False),
    (pipeline, "spatial_decode", "kernels.decode", work_decode, True),
    (kernels, "layer_norm", "kernels.layer_norm", work_layer_norm, False),
    (kernels, "multi_head_self_attention", "kernels.attention", work_attention, False),
    (kernels, "mlp_forward", "kernels.mlp", work_mlp, False),
    (representations, "build_voxel_grid", "representations.voxel", work_voxel, False),
    (representations, "build_tpr", "representations.tpr", None, False),
    (events, "simulate_events", "events.simulate", work_simulate, False),
    (events, "reconstruct_log_intensity", "events.reconstruct", None, False),
    (io_formats, "write_events", "io_formats.write_events", work_event_file, False),
    (io_formats, "read_events", "io_formats.read_events", work_event_file, False),
    (io_formats, "read_frame", "io_formats.read_frame", None, False),
    (io_formats, "write_frame", "io_formats.write_frame", None, False),
    (dataset, "downsample_bicubic", "dataset.downsample", None, False),
    (metrics, "evaluate", "metrics.evaluate", None, False),
]


# ---------------------------------------------------------------------------
# per-layer metrics: each is computed per traced unit (one setup repeat or
# one op) and reported as the median over the units where it occurs

_STEB_PARENTS = ("kernels.regional", "kernels.holistic")
_STAGES = [  # metric prefix, span name, parents the call is attributed to
    ("kernels.decode", "kernels.decode", None),
    ("kernels.regional", "kernels.regional", None),
    ("kernels.holistic", "kernels.holistic", None),
    ("kernels.fuse", "kernels.fuse", None),
    ("kernels.temporal", "kernels.temporal", None),
    ("kernels.steb.layer_norm", "kernels.layer_norm", _STEB_PARENTS),
    ("kernels.steb.attention", "kernels.attention", _STEB_PARENTS),
    ("kernels.steb.mlp", "kernels.mlp", _STEB_PARENTS),
]
_TIMED = [  # metric, span name
    ("events.simulate_s", "events.simulate"),
    ("events.reconstruct_s", "events.reconstruct"),
    ("io_formats.write_events_s", "io_formats.write_events"),
    ("io_formats.read_events_s", "io_formats.read_events"),
    ("io_formats.read_frame_s", "io_formats.read_frame"),
    ("io_formats.write_frame_s", "io_formats.write_frame"),
    ("dataset.downsample_s", "dataset.downsample"),
    ("metrics.evaluate_s", "metrics.evaluate"),
    ("pipeline.forward_s", "pipeline.forward"),
    ("pipeline.init_s", "pipeline.init"),
]

# (name, unit) of every per-layer metric, in report order; the harness adds
# the last three from the whole run
LAYER_METRICS = []
for _prefix, _, _parents in _STAGES:
    LAYER_METRICS += [(_prefix + "_s", "s")]
    if _parents is None:  # the pipeline's direct stages, which have children
        LAYER_METRICS += [(_prefix + "_self_s", "s")]
    LAYER_METRICS += [(_prefix + "_calls", "count"),
                      (_prefix + "_gflop", "GFLOP"), (_prefix + "_gbytes", "GB"),
                      (_prefix + "_gflop_per_s", "GFLOP/s")]
LAYER_METRICS += [
    ("kernels.decode_peak_mb", "MB"),
    ("representations.tpr_s", "s"), ("representations.tpr_calls", "count"),
    ("representations.voxel_s", "s"), ("representations.voxel_calls", "count"),
    ("representations.events_in_window", "count"),
    ("representations.window_hit_ratio", "ratio"),
    ("events.simulate_s", "s"), ("events.simulate_us_per_event", "us"),
    ("events.reconstruct_s", "s"), ("events.reconstruct_calls", "count"),
    ("io_formats.write_events_s", "s"), ("io_formats.read_events_s", "s"),
    ("io_formats.event_bytes", "B"),
    ("io_formats.read_frame_s", "s"), ("io_formats.write_frame_s", "s"),
    ("dataset.downsample_s", "s"),
    ("metrics.evaluate_s", "s"),
    ("pipeline.forward_s", "s"), ("pipeline.self_s", "s"), ("pipeline.init_s", "s"),
    ("pipeline.peak_mb", "MB"),
    ("page_faults_per_op", "count"),
    ("trace_overhead_pct", "%"),
    ("fail_ratio", "ratio"),
]


def _unit_values(spans: list[Span], all_spans: list[Span]) -> dict[str, float]:
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def parent(s: Span) -> str:
        return all_spans[s.parent].name if s.parent >= 0 else ""

    # time covered by each span's children (calls are sequential)
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent >= 0:
            covered[id(all_spans[s.parent])] = covered.get(id(all_spans[s.parent]), 0.0) + s.dur

    def self_time(ss: list[Span]) -> float:
        return sum(s.dur - covered.get(id(s), 0.0) for s in ss)

    v: dict[str, float] = {}
    for prefix, name, parents in _STAGES:
        ss = [s for s in by_name.get(name, ()) if parents is None or parent(s) in parents]
        if not ss:
            continue
        t = sum(s.dur for s in ss)
        flops = sum(s.flops for s in ss)
        v[prefix + "_s"] = t
        if parents is None:
            v[prefix + "_self_s"] = self_time(ss)
        v[prefix + "_calls"] = len(ss)
        v[prefix + "_gflop"] = flops / 1e9
        v[prefix + "_gbytes"] = sum(s.nbytes for s in ss) / 1e9
        v[prefix + "_gflop_per_s"] = flops / t / 1e9 if t > 0 else 0.0
    for metric, name in _TIMED:
        if name in by_name:
            v[metric] = sum(s.dur for s in by_name[name])
    if "kernels.decode" in by_name:
        v["kernels.decode_peak_mb"] = max(s.extra["peak_bytes"]
                                          for s in by_name["kernels.decode"]) / 1e6
    forwards = by_name.get("pipeline.forward", [])
    if forwards:
        v["pipeline.self_s"] = self_time(forwards)
        v["pipeline.peak_mb"] = max(s.extra["peak_bytes"] for s in forwards) / 1e6
    tprs = by_name.get("representations.tpr", [])
    if tprs:
        v["representations.tpr_s"] = sum(s.dur for s in tprs)
        v["representations.tpr_calls"] = len(tprs)
    voxels = by_name.get("representations.voxel", [])
    if voxels:
        direct = [s for s in voxels if parent(s) != "representations.tpr"]
        if direct:
            v["representations.voxel_s"] = sum(s.dur for s in direct)
            v["representations.voxel_calls"] = len(direct)
        inside = sum(s.extra["events_in_window"] for s in voxels)
        scanned = sum(s.extra["events_scanned"] for s in voxels)
        v["representations.events_in_window"] = inside
        v["representations.window_hit_ratio"] = inside / scanned if scanned else 0.0
    sims = by_name.get("events.simulate", [])
    n_ev = sum(s.extra["events"] for s in sims)
    if n_ev:
        v["events.simulate_us_per_event"] = v["events.simulate_s"] / n_ev * 1e6
    if "events.reconstruct" in by_name:
        v["events.reconstruct_calls"] = len(by_name["events.reconstruct"])
    if "io_formats.read_events" in by_name:
        v["io_formats.event_bytes"] = sum(s.nbytes for s in by_name["io_formats.read_events"])
    return v


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values as the median over the traced ops where the layer
    ran; a layer that runs only in set-up is the median over set-ups. A
    layer the workload never calls is absent (reported as 0)."""
    units: dict[int, list[Span]] = {}
    for s in tracer.spans:
        units.setdefault(s.op, []).append(s)
    in_ops: dict[str, list[float]] = {}
    in_setup: dict[str, list[float]] = {}
    for spans in units.values():
        root = next(s for s in spans if s.parent < 0)
        bucket = in_setup if root.name == "setup" else in_ops
        for k, val in _unit_values(spans, tracer.spans).items():
            bucket.setdefault(k, []).append(val)
    merged = {**in_setup, **in_ops}
    return {k: float(statistics.median(vals)) for k, vals in merged.items()}


def stage_shares(tracer: Tracer) -> dict[str, float]:
    """Share of traced `pipeline_forward` time per direct child stage."""
    spans = tracer.spans
    total = sum(s.dur for s in spans if s.name == "pipeline.forward")
    shares: dict[str, float] = {}
    for s in spans:
        if s.parent >= 0 and spans[s.parent].name == "pipeline.forward":
            shares[s.name] = shares.get(s.name, 0.0) + s.dur / total
    if total:
        shares["pipeline.self"] = 1.0 - sum(shares.values())
    return shares
