"""The benchmark's three workloads, their seeded inputs and their checks.

Every workload is a closed loop: one client in one process sends the next
operation only after the previous one returned. A workload exposes

- ``setup(seed)``: builds the inputs from the seed (timed as ``setup_s``);
- ``next_op(i)``: the i-th operation as ``(kind, callable)``;
- ``check_setup`` / ``check(kind, i, output)``: correctness, returning a
  list of failure messages (empty when the output is right);
- ``fingerprints(...)``: the values stored in ``reference.json`` for the
  default seed.

The program under test only ever sees the generated frames, events and
query times; the seed stays inside the benchmark.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from evtpr import dataset, events, io_formats, metrics, pipeline, representations
from evtpr.events import IntensityFrame
from evtpr.kernels import PipelineConfig

DEFAULT_SEED = 0

# ROADMAP item 2's tolerance on output frames in [0, 1]
FRAME_TOL = 1e-5
# a 1e-5 pixel change moves PSNR by well under 1e-2 dB at these error levels
PSNR_TOL = 1e-2
SSIM_TOL = 1e-3
# relative tolerance on float64 event-path sums (reordered accumulation
# differs in the last digits only)
SUM_RTOL = 1e-9

SUBSAMPLE = 256  # output values per frame compared against the reference
QUERY_SUBSAMPLE = 32  # values per TPR, voxel grid and reconstruction of a query
SUBSAMPLE_SEED = 20240521
# absolute tolerance on a reconstructed log intensity
REC_TOL = 1e-5

CONTRAST = 0.1  # event threshold C
FRAME_DT_US = 10_000
GRATINGS = 4  # components of a synthetic clip
INPUTS = 2  # distinct windows or clips per run, cycled by the closed loop
# event-ingest: slices of queries per clip, one after each ingest in turn;
# more, shorter rounds give work_m_per_s more ingest samples per run
QUERY_SLICES = 4
SKIP = 1  # frames between pipeline inputs, so W = 7 at n_in = 4
# the pipeline's default configuration; event-ingest queries build its TPR
# and voxel grid
DEFAULT_CONFIG = PipelineConfig(n_in=4)
# synth_clip's mean |d log luma| per pixel and frame interval, and its
# highest grating frequency: gentle for the pipeline clips, fast and fine
# for event-ingest (~350k events per 8-frame 128^2 clip at C = 0.1)
PIPELINE_MOTION, PIPELINE_MAX_FREQ = 0.08, 6.0
INGEST_MOTION, INGEST_MAX_FREQ = 0.36, 12.0


def stream_digest(stream) -> tuple[int, str]:
    """Event count and SHA-256 of the canonical t/x/y/p bytes."""
    h = hashlib.sha256()
    for arr, dtype in ((stream.t, "<i8"), (stream.x, "<i4"),
                       (stream.y, "<i4"), (stream.p, "i1")):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return len(stream), h.hexdigest()


def array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def polarity_sum(stream, lo: float, hi: float, lo_open: bool = False) -> int:
    """Sum of p over events with t in [lo, hi] (or (lo, hi] when lo_open)."""
    a = np.searchsorted(stream.t, lo, side="right" if lo_open else "left")
    b = np.searchsorted(stream.t, hi, side="right")
    return int(stream.p[a:b].sum(dtype=np.int64))


def synth_clip(rng: np.random.Generator, size: int, n_frames: int, motion: float,
               max_freq: float) -> list[IntensityFrame]:
    """Moving near-grey gratings: smooth, seeded, values in [0.05, 0.95].

    The gratings' speed is scaled so that the mean |change of log luma| per
    pixel and frame interval equals `motion`. The seed changes the picture
    but hardly the number of events it produces, and so the cost of a run.
    """
    components = GRATINGS
    coords = (np.arange(size) + 0.5) / size
    theta = rng.uniform(0.0, 2.0 * np.pi, components)
    freq = rng.uniform(1.0, max_freq, components)
    vel = rng.uniform(0.9, 1.1, components) * rng.choice([-1.0, 1.0], components)
    phase = rng.uniform(0.0, 2.0 * np.pi, components)
    colour = 1.0 - rng.uniform(0.0, 0.3, (components, 3))
    u = (np.cos(theta)[:, None, None] * coords[None, None, :]
         + np.sin(theta)[:, None, None] * coords[None, :, None])
    arg = 2.0 * np.pi * freq[:, None, None] * u + phase[:, None, None]

    def render(speed: float, count: int, step: int = 1) -> list[IntensityFrame]:
        a = arg[:, ::step, ::step]
        frames = []
        for i in range(count):
            g = np.sin(a + speed * vel[:, None, None] * i)
            img = 0.5 + 0.45 / components * np.einsum("khw,kc->hwc", g, colour)
            frames.append(IntensityFrame(timestamp=i * FRAME_DT_US, pixels=img))
        return frames

    # the change is close to linear in speed and the same in every interval,
    # so calibrate on three frames of a grid of at most 128^2 pixels
    speed = 1.0
    for _ in range(3):
        logs = np.stack([events.log_view(f)
                         for f in render(speed, 3, max(1, size // 128))])
        speed *= motion / float(np.abs(np.diff(logs, axis=0)).mean())
    return render(speed, n_frames)


def subsample_index(shape: tuple, count: int = SUBSAMPLE) -> np.ndarray:
    """Fixed flat positions compared against the reference for this shape."""
    size = int(np.prod(shape))
    rng = np.random.default_rng(SUBSAMPLE_SEED)
    return np.sort(rng.choice(size, size=min(count, size), replace=False))


def subsample(a: np.ndarray, count: int = SUBSAMPLE) -> np.ndarray:
    return np.asarray(a).reshape(-1)[subsample_index(np.shape(a), count)]


def _close(a, b, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# pipeline workloads: upscale-x8 and interp-x2


@dataclass(frozen=True)
class PipelineSpec:
    hr_size: int
    scale: int
    n_gt: int | None  # GT frames decoded per window; None = all W
    config: PipelineConfig = DEFAULT_CONFIG


@dataclass
class Window:
    input_paths: list
    input_stamps: list
    events_path: Path
    times: list
    gt: list  # HR frames at the decoded times
    digest: tuple


@dataclass
class PipelineState:
    windows: list
    params: object


class PipelineWorkload:
    """HR clip -> bicubic LR inputs -> events -> decode at GT times and scale.

    The op is one clip: read the input frames and events, run
    `pipeline_forward`, write the output PPMs and evaluate PSNR/SSIM
    against the HR ground truth.
    """

    op_kinds = ("clip",)
    main_kind = "clip"

    def __init__(self, spec: PipelineSpec, workdir: Path):
        self.spec = spec
        self.workdir = workdir
        self.state: PipelineState | None = None
        self.seen: dict[int, str] = {}  # window -> digest of its first outputs

    @property
    def round_length(self) -> int:
        """Ops that visit every input once: one clip per window."""
        return INPUTS

    @property
    def min_ops(self) -> int:
        """Every window once; the warm-up already ran window 0."""
        return INPUTS

    @property
    def warmup_ops(self) -> int:
        """Leading ops run untimed: the first clip."""
        return 1

    def setup(self, seed: int) -> PipelineState:
        sp = self.spec
        rng = np.random.default_rng([seed, sp.hr_size, sp.scale])
        plan = dataset.plan_windows(INPUTS * ((sp.config.n_in - 1) * (SKIP + 1) + 1),
                                    sp.config.n_in, SKIP)
        n_frames = sum(p.window_size for p in plan)
        hr = synth_clip(rng, sp.hr_size, n_frames, PIPELINE_MOTION, PIPELINE_MAX_FREQ)
        lr = [dataset.downsample_bicubic(f, sp.scale) for f in hr]
        windows = []
        for k, p in enumerate(plan):
            wdir = self.workdir / ("window%d" % k)
            wdir.mkdir(parents=True, exist_ok=True)
            first = p.start - 1
            seen = []  # the LR window as stored on disk (8-bit)
            paths = []
            for i in range(p.window_size):
                f = lr[first + i]
                path = wdir / ("lr_%02d.ppm" % (i + 1))
                io_formats.write_frame(f.pixels, path)
                seen.append(IntensityFrame(timestamp=f.timestamp,
                                           pixels=io_formats.read_frame(path)))
                paths.append(path)
            stream = events.simulate_events(seen, CONTRAST)
            ev_path = wdir / "events.evt"
            io_formats.write_events(stream, ev_path)
            if sp.n_gt is None:
                gt_idx = p.gt_indices
            else:
                gt_idx = dataset.select_gt_frames(p, sp.n_gt, rng)
            norm = p.normalized_times()
            windows.append(Window(
                input_paths=[paths[i - 1] for i in p.input_indices],
                input_stamps=[seen[i - 1].timestamp for i in p.input_indices],
                events_path=ev_path,
                times=[float(norm[i - 1]) for i in gt_idx],
                gt=[hr[first + i - 1].pixels for i in gt_idx],
                digest=stream_digest(stream)))
        params = pipeline.init_pipeline_params(sp.config, seed)
        self.state = PipelineState(windows=windows, params=params)
        return self.state

    def setup_digest(self, state: PipelineState) -> str:
        return repr([w.digest for w in state.windows]) + array_digest(
            *[np.asarray(g) for w in state.windows for g in w.gt])

    def next_op(self, i: int):
        k = i % len(self.state.windows)
        return "clip", lambda: self._clip(k)

    def _clip(self, k: int):
        sp, win = self.spec, self.state.windows[k]
        frames = [IntensityFrame(timestamp=t, pixels=io_formats.read_frame(p))
                  for p, t in zip(win.input_paths, win.input_stamps)]
        stream = io_formats.read_events(win.events_path)
        outs, report = pipeline.pipeline_forward(frames, stream, sp.scale, win.times,
                                                 sp.config, self.state.params)
        out_dir = self.workdir / ("out%d" % k)
        out_dir.mkdir(exist_ok=True)
        for j, o in enumerate(outs):
            io_formats.write_frame(o, out_dir / ("out_%02d.ppm" % j))
        evals = [metrics.evaluate(o, g) for o, g in zip(outs, win.gt)]
        return {"window": k, "outputs": outs, "report": report, "evals": evals}

    def work_items(self, kind: str, output) -> float:
        """Output pixels of one clip."""
        return float(sum(o.shape[0] * o.shape[1] for o in output["outputs"]))

    # -- correctness

    def check_setup(self, state: PipelineState, reference: dict | None) -> list[str]:
        bad = []
        for k, w in enumerate(state.windows):
            stream = io_formats.read_events(w.events_path)
            if stream_digest(stream) != w.digest:
                bad.append("window %d: events changed through EVT1" % k)
            ts = w.input_stamps
            for a, b in zip(ts[:-1], ts[1:]):
                grid = representations.build_voxel_grid(stream, self.spec.config.voxel_bins, a, b)
                if not _close(float(grid.data.sum()), polarity_sum(stream, a, b), SUM_RTOL):
                    bad.append("window %d: voxel mass != polarity sum on [%d, %d]" % (k, a, b))
            if reference is not None:
                want = reference["streams"][k]
                if [w.digest[0], w.digest[1]] != [want["count"], want["sha256"]]:
                    bad.append("window %d: event stream differs from the reference "
                               "(%d events, want %d)" % (k, w.digest[0], want["count"]))
        return bad

    def check(self, kind: str, i: int, out, reference: dict | None) -> list[str]:
        k = out["window"]
        win = self.state.windows[k]
        bad = []
        if out["report"].holistic_calls != 1:
            bad.append("holistic_calls = %d" % out["report"].holistic_calls)
        h, w = win.gt[0].shape[:2]
        for o in out["outputs"]:
            if o.shape != (h, w, 3):
                bad.append("output shape %s != %s" % (o.shape, (h, w, 3)))
            elif not (np.all(np.isfinite(o)) and o.min() >= 0.0 and o.max() <= 1.0):
                bad.append("output outside [0, 1]")
        for e in out["evals"]:
            if math.isnan(e.psnr) or not -1.0 <= e.ssim <= 1.0:
                bad.append("bad PSNR/SSIM %r" % (e,))
        digest = array_digest(*out["outputs"])
        if self.seen.setdefault(k, digest) != digest:
            bad.append("window %d: repeated clip is not byte-identical" % k)
        if reference is not None and not bad:
            want = reference["outputs"][k]
            for j, o in enumerate(out["outputs"]):
                got = subsample(o)
                err = float(np.max(np.abs(got - np.asarray(want["frames"][j]))))
                if err > FRAME_TOL:
                    bad.append("window %d frame %d: max abs %.3g vs reference" % (k, j, err))
            for j, e in enumerate(out["evals"]):
                if not (abs(e.psnr - want["psnr"][j]) <= PSNR_TOL
                        and abs(e.ssim - want["ssim"][j]) <= SSIM_TOL):
                    bad.append("window %d frame %d: PSNR/SSIM differ from reference" % (k, j))
        return bad

    def fingerprints(self, state: PipelineState) -> dict:
        """Reference values: one clip per window of the default seed."""
        outputs = []
        for k in range(len(state.windows)):
            out = self._clip(k)
            outputs.append({
                "frames": [[float(v) for v in subsample(o)]
                           for o in out["outputs"]],
                "psnr": [e.psnr for e in out["evals"]],
                "ssim": [e.ssim for e in out["evals"]],
            })
        return {"streams": [{"count": w.digest[0], "sha256": w.digest[1]}
                            for w in state.windows],
                "outputs": outputs}


# ---------------------------------------------------------------------------
# event-ingest


@dataclass(frozen=True)
class IngestSpec:
    size: int = 128
    n_frames: int = 8
    queries: int = 25  # read-side queries after each ingest


@dataclass
class Query:
    center: float
    half_window: float
    key: int  # keyframe index for reconstruction


@dataclass
class IngestState:
    clips: list  # list of frame lists
    queries: list  # per clip, QUERY_SLICES slices of `queries` Query each, flat
    stream: object = None  # the stream the last ingest decoded
    clip: int = -1


class IngestWorkload:
    """Write side: simulate -> EVT1 encode -> decode one clip.
    Read side: seeded TPR / voxel / reconstruction queries on that stream.

    Each round is one ingest op followed by `queries` query ops on the
    stream it decoded. Rounds cycle through the clips, and through each
    clip's QUERY_SLICES slices of queries.
    """

    op_kinds = ("ingest", "query")
    main_kind = "query"

    def __init__(self, spec: IngestSpec, workdir: Path):
        self.spec = spec
        self.workdir = workdir
        self.state: IngestState | None = None
        self.seen: dict[tuple, str] = {}

    @property
    def round_length(self) -> int:
        """Ops that visit every clip once: its ingest and one query slice."""
        return INPUTS * (1 + self.spec.queries)

    @property
    def min_ops(self) -> int:
        """A round per query slice: 100 queries at full size, so the query
        p90 has 10 samples beyond it."""
        return QUERY_SLICES * (1 + self.spec.queries)

    @property
    def warmup_ops(self) -> int:
        """Leading ops run untimed: the first ingest and its queries, which
        the timed loop then repeats."""
        return 1 + self.spec.queries

    def setup(self, seed: int) -> IngestState:
        sp = self.spec
        rng = np.random.default_rng([seed, sp.size, sp.n_frames])
        clips, queries = [], []
        for _ in range(INPUTS):
            frames = synth_clip(rng, sp.size, sp.n_frames, INGEST_MOTION, INGEST_MAX_FREQ)
            clips.append(frames)
            t0, t1 = frames[0].timestamp, frames[-1].timestamp
            span = t1 - t0
            qs = []
            for _ in range(QUERY_SLICES):
                # stratified draws: every seed and slice gets the same spread
                # of window sizes and positions, so the cost of a round is
                # seed-free
                n = sp.queries
                strata = (np.arange(n) + rng.random((2, n))) / n
                for a, b in zip(rng.permutation(strata[0]), rng.permutation(strata[1])):
                    hw = float(span / 16 + a * (span / 4 - span / 16))
                    c = float(t0 + hw + b * (span - 2 * hw))
                    key = max(i for i, f in enumerate(frames) if f.timestamp <= c - hw)
                    qs.append(Query(center=c, half_window=hw, key=key))
            queries.append(qs)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.state = IngestState(clips=clips, queries=queries)
        return self.state

    def setup_digest(self, state: IngestState) -> str:
        return array_digest(*[f.pixels for c in state.clips for f in c]) + repr(
            [(q.center, q.half_window, q.key) for qs in state.queries for q in qs])

    def next_op(self, i: int):
        n = self.spec.queries
        r, j = divmod(i, 1 + n)
        if j == 0:
            return "ingest", lambda: self._ingest(r % INPUTS)
        first = (r // INPUTS) % QUERY_SLICES * n
        return "query", lambda: self._query(first + j - 1)

    def _ingest(self, c: int):
        frames = self.state.clips[c]
        stream = events.simulate_events(frames, CONTRAST)
        path = self.workdir / "ingest.evt"
        io_formats.write_events(stream, path)
        decoded = io_formats.read_events(path)
        self.state.stream, self.state.clip = decoded, c
        return {"clip": c, "simulated": stream, "decoded": decoded}

    def _query(self, j: int):
        st = self.state
        q = st.queries[st.clip][j]
        stream = st.stream
        cfg = DEFAULT_CONFIG
        tpr = representations.build_tpr(stream, q.center, q.half_window, cfg.tpr_levels,
                                        cfg.tpr_moments, cfg.tpr_ratio)
        vox = representations.build_voxel_grid(stream, cfg.voxel_bins,
                                               q.center - q.half_window,
                                               q.center + q.half_window)
        key = st.clips[st.clip][q.key]
        rec = events.reconstruct_log_intensity(key, stream, int(q.center), CONTRAST)
        return {"clip": st.clip, "query": j, "tpr": tpr, "voxel": vox.data, "rec": rec}

    def work_items(self, kind: str, output) -> float:
        """Events through simulate + encode + decode (ingest ops only)."""
        return float(len(output["decoded"])) if kind == "ingest" else 0.0

    # -- correctness

    def check_setup(self, state: IngestState, reference: dict | None) -> list[str]:
        return []

    def check(self, kind: str, i: int, out, reference: dict | None) -> list[str]:
        return self._check_ingest(out, reference) if kind == "ingest" \
            else self._check_query(out, reference)

    def _check_ingest(self, out, reference) -> list[str]:
        bad = []
        c = out["clip"]
        digest = stream_digest(out["simulated"])
        if stream_digest(out["decoded"]) != digest:
            bad.append("clip %d: events changed through EVT1" % c)
        if self.seen.setdefault(("ingest", c), repr(digest)) != repr(digest):
            bad.append("clip %d: repeated simulation is not byte-identical" % c)
        if reference is not None:
            want = reference["streams"][c]
            if [digest[0], digest[1]] != [want["count"], want["sha256"]]:
                bad.append("clip %d: event stream differs from the reference "
                           "(%d events, want %d)" % (c, digest[0], want["count"]))
        return bad

    def _check_query(self, out, reference) -> list[str]:
        st = self.state
        c, j = out["clip"], out["query"]
        q = st.queries[c][j]
        stream = st.stream
        bad = []
        lo, hi = q.center - q.half_window, q.center + q.half_window
        if not _close(float(out["voxel"].sum()), polarity_sum(stream, lo, hi), SUM_RTOL):
            bad.append("query %d: voxel mass != in-window polarity sum" % j)
        for level in range(1, DEFAULT_CONFIG.tpr_levels + 1):
            a, b = out["tpr"].level_window(level)
            if not _close(float(out["tpr"].data[level - 1].sum()),
                          polarity_sum(stream, a, b), SUM_RTOL):
                bad.append("query %d: TPR level %d mass != polarity sum" % (j, level))
        key = st.clips[c][q.key]
        base = events.log_view(key)
        got = float((out["rec"] - base).sum()) / CONTRAST
        want_sum = polarity_sum(stream, key.timestamp, int(q.center), lo_open=True)
        if not _close(got, want_sum, 1e-6):
            bad.append("query %d: reconstruction mass != polarity sum" % j)
        digest = array_digest(out["tpr"].data, out["voxel"], out["rec"])
        if self.seen.setdefault(("query", c, j), digest) != digest:
            bad.append("clip %d query %d: repeated query is not byte-identical" % (c, j))
        if reference is not None:
            for name, got in self._query_fingerprint(out).items():
                want = np.asarray(reference["queries"][c][j][name])
                # the float64 grids within SUM_RTOL, the log intensity within REC_TOL
                limit = REC_TOL if name == "rec" else SUM_RTOL * np.maximum(1.0, np.abs(want))
                if np.any(np.abs(np.asarray(got) - want) > limit):
                    bad.append("clip %d query %d: %s differs from the reference"
                               % (c, j, name))
        return bad

    @staticmethod
    def _query_fingerprint(out) -> dict[str, list[float]]:
        """A fixed subsample of every output array, so that a value moved to
        the wrong pixel or bin shows, not only a wrong total."""
        return {name: [float(v) for v in subsample(a, QUERY_SUBSAMPLE)]
                for name, a in (("tpr", out["tpr"].data), ("voxel", out["voxel"]),
                                ("rec", out["rec"]))}

    def fingerprints(self, state: IngestState) -> dict:
        """Reference values: every clip and every query of the default seed."""
        streams, queries = [], []
        for c in range(INPUTS):
            out = self._ingest(c)
            count, sha = stream_digest(out["decoded"])
            streams.append({"count": count, "sha256": sha})
            queries.append([self._query_fingerprint(self._query(j))
                            for j in range(len(state.queries[c]))])
        return {"streams": streams, "queries": queries}


# ---------------------------------------------------------------------------
# registry

TOY_CONFIG = PipelineConfig(n_in=4, c_r=8, c_t=16, c_ts=8, heads=2, encoder_depth=2)

SPECS = {
    # decoder-bound: 64^2 LR -> 512^2 output at 3 seeded GT times
    "upscale-x8": PipelineSpec(hr_size=512, scale=8, n_gt=3),
    # per-timestamp branch: 128^2 LR -> 256^2 output at all W = 7 times
    "interp-x2": PipelineSpec(hr_size=256, scale=2, n_gt=None),
    # event path only: ~350k events per 8-frame 128^2 clip
    "event-ingest": IngestSpec(),
}

# 16^2 inputs with a toy-sized network: every code path in well under a second
TOY_SPECS = {
    "upscale-x8": replace(SPECS["upscale-x8"], hr_size=128, config=TOY_CONFIG),
    "interp-x2": replace(SPECS["interp-x2"], hr_size=32, config=TOY_CONFIG),
    "event-ingest": replace(SPECS["event-ingest"], size=16, n_frames=4, queries=5),
}


def make_workload(spec, workdir: Path):
    cls = PipelineWorkload if isinstance(spec, PipelineSpec) else IngestWorkload
    return cls(spec, workdir)
