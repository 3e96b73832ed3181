"""Closed-loop harness: set-up repeats, the timed op loop, checks, metrics."""

from __future__ import annotations

import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from tracing import LAYER_METRICS, Tracer, layer_metrics, stage_shares
from workloads import DEFAULT_SEED, SPECS, TOY_SPECS, make_workload

# Timed set-ups run between ops, so that they take SETUP_SHARE of the run,
# and at least SETUP_REPEATS times. A set-up sample is the mean of the
# set-ups run back to back within SETUP_BATCH_S (at least one). On a shared
# host one short set-up takes either about t or about 2t, as the neighbours
# come and go within a second, and a median of such samples jumps between
# the two; spread over the run and batched, it follows the run's average
# as the op latency does.
SETUP_SHARE = 0.15
SETUP_BATCH_S = 0.5
SETUP_REPEATS = 3

# (name, unit) of every end-to-end metric, in report order
END_TO_END = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("work_m_per_s", "M/s"),
    ("peak_rss_mb", "MB"),
]


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    attempted: int
    failed: int
    failures: list[str]
    metrics: dict[str, tuple[float, str]]
    samples: dict[str, int]
    env: dict
    shares: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def summary_json(self) -> str:
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted, "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, asked through its C API."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": "%s %s" % (blas.get("name", "unknown"), blas.get("version", "")),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def load_reference(bench_dir: Path) -> dict:
    with open(bench_dir / "reference.json") as fh:
        return json.load(fh)


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        reference: dict | None, toy: bool = False) -> Result:
    """One benchmark run. `reference` holds the default seed's expected
    values; it is consulted only for the default seed at full size."""
    spec = (TOY_SPECS if toy else SPECS)[name]
    ref = reference[name] if reference is not None and seed == DEFAULT_SEED and not toy \
        else None
    wl = make_workload(spec, workdir)
    tracer = Tracer() if trace else None

    def traced(kind: str):
        if tracer is None:
            return contextlib.nullcontext()
        stack = contextlib.ExitStack()
        stack.enter_context(tracer.installed())
        stack.enter_context(tracer.unit(kind))
        return stack

    # an untimed set-up builds the state the ops use, and takes the first-use
    # costs of the process (lazy imports, BLAS start) out of setup_s; the
    # timed set-ups build a second instance of the workload
    state = wl.setup(seed)
    digest = wl.setup_digest(state)
    setup_bad = wl.check_setup(state, ref)
    probe = make_workload(spec, workdir / "setup")
    setup_s: list[float] = []
    setup_wall = 0.0  # run time spent on timed set-ups and their checks

    def timed_setup() -> None:
        nonlocal setup_wall
        w0, batch = time.perf_counter(), []
        while not batch or sum(batch) < SETUP_BATCH_S:
            with traced("setup"):
                t0 = time.perf_counter()
                probe_state = probe.setup(seed)
                batch.append(time.perf_counter() - t0)
            nondeterministic = "set-up is not deterministic"
            if probe.setup_digest(probe_state) != digest and nondeterministic not in setup_bad:
                setup_bad.append(nondeterministic)
        setup_s.append(statistics.mean(batch))
        setup_wall += time.perf_counter() - w0

    def attempt(op) -> tuple[object, list[str], float, int]:
        """Run one op: its output (None if it raised), the traceback if it
        raised, seconds and minor page faults."""
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        try:
            out, bad = op(), []
        except Exception:  # a failed op is counted and the run goes on
            out, bad = None, [traceback.format_exc(limit=3)]
        dt = time.perf_counter() - t0
        return out, bad, dt, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0

    # warm-up outside any timer: lazy imports and BLAS start; checked like
    # any other op, and repeated by the timed loop, so every run checks that
    # a repeated op is byte-identical
    failures, attempted, failed = [], 0, 0
    for i in range(wl.warmup_ops):
        kind, op = wl.next_op(i)
        out, bad, _, _ = attempt(op)
        if out is not None:
            bad = wl.check(kind, i, out, ref)
        failures += ["warm-up op %d (%s): %s" % (i, kind, b) for b in bad]
        attempted += 1
        failed += int(bool(bad))

    latency: dict[str, list[float]] = {k: [] for k in wl.op_kinds}
    traced_latency: dict[str, list[float]] = {k: [] for k in wl.op_kinds}
    rates: list[float] = []  # work items per second of each untraced op
    page_faults: list[int] = []  # minor page faults of each untraced main op
    # a traced run traces every other round, so the untraced rounds give the
    # overhead baseline on the same inputs (on event-ingest, the same clips);
    # it needs two rounds at least
    rounds = wl.round_length
    min_ops = max(wl.min_ops, 2 * rounds) if trace else wl.min_ops
    start = time.perf_counter()
    i = 0
    while True:
        while not setup_s or setup_wall < SETUP_SHARE * (time.perf_counter() - start):
            timed_setup()
        kind, op = wl.next_op(i)
        # start an op only if it should end within the run, going by the
        # median of its kind so far
        done = latency[kind] + traced_latency[kind]
        expected = statistics.median(done) if done else 0.0
        if i >= min_ops and time.perf_counter() - start + expected > seconds:
            break
        is_traced = trace and (i // rounds) % 2 == 1
        with traced("op." + kind) if is_traced else contextlib.nullcontext():
            out, bad, dt, faults = attempt(op)
        (traced_latency if is_traced else latency)[kind].append(dt)
        if not is_traced and kind == wl.main_kind:
            page_faults.append(faults)
        if out is not None:
            bad = wl.check(kind, i, out, ref)
            items = wl.work_items(kind, out)
            if items and not is_traced:
                rates.append(items / dt)
        attempted += 1
        if bad:
            failed += 1
            failures.extend("op %d (%s): %s" % (i, kind, b) for b in bad)
        i += 1
    while len(setup_s) < SETUP_REPEATS:
        timed_setup()
    failures = setup_bad + failures
    attempted += 1
    failed += int(bool(setup_bad))

    main = latency[wl.main_kind]
    samples = {"setup": len(setup_s), **{k: len(v) for k, v in latency.items()},
               **{"traced_" + k: len(v) for k, v in traced_latency.items() if v}}
    if trace:
        values = layer_metrics(tracer)
        traced_main = traced_latency[wl.main_kind]
        values["trace_overhead_pct"] = (statistics.median(traced_main)
                                        / statistics.median(main) - 1.0) * 100.0
        values["page_faults_per_op"] = statistics.median(page_faults)
        values["fail_ratio"] = failed / attempted
        metrics = {n: (float(values.get(n, 0.0)), u) for n, u in LAYER_METRICS}
        shares, spans = stage_shares(tracer), tracer.to_json()
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "op_ms_p50": statistics.median(main) * 1e3,
            "op_ms_p90": percentile(main, 90) * 1e3,
            "work_m_per_s": statistics.median(rates) / 1e6 if rates else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {n: (float(values[n]), u) for n, u in END_TO_END}
        shares, spans = {}, []
    return Result(workload=name, seed=seed, trace=trace, attempted=attempted,
                  failed=failed, failures=failures, metrics=metrics, samples=samples,
                  env=environment(), shares=shares, spans=spans)


def report_lines(res: Result) -> list[str]:
    """Human-readable report; the JSON summary follows it as the last line."""
    env = res.env
    lines = ["# evtpr benchmark: workload=%s seed=%d trace=%d" % (
                 res.workload, res.seed, int(res.trace)),
             "# env: " + " ".join("%s=%s" % (k, json.dumps(v)) for k, v in env.items()),
             "# samples: " + " ".join("%s=%d" % kv for kv in res.samples.items()),
             "# fail_ratio: %d/%d" % (res.failed, res.attempted)]
    for name, (value, unit) in res.metrics.items():
        lines.append("%-40s %16.6g %s" % (name, value, unit))
    for name, share in sorted(res.shares.items(), key=lambda kv: -kv[1]):
        lines.append("# share of pipeline.forward: %-26s %6.1f%%" % (name, 100 * share))
    for f in res.failures[:20]:
        lines.append("# FAILED: " + f.strip().replace("\n", " | "))
    return lines


def write_result(res: Result, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / ("%s-seed%d-trace%d.json" % (res.workload, res.seed, int(res.trace)))
    with open(path, "w") as fh:
        json.dump({"workload": res.workload, "seed": res.seed, "trace": res.trace,
                   "correct": res.correct, "attempted": res.attempted,
                   "failed": res.failed, "failures": res.failures,
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in res.metrics.items()},
                   "samples": res.samples, "env": res.env, "shares": res.shares,
                   "spans": res.spans}, fh)
    return path
