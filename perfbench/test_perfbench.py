"""Toy-size smoke test of the benchmark harness (16^2 inputs, toy network).

    python3 -m pytest perfbench

Runs every workload's path, traced and untraced, in a few seconds and checks
that every metric BENCHMARK.json names is printed with its unit.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

assert run.import_program()

import harness  # noqa: E402
from workloads import TOY_SPECS, make_workload  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_toy_run_prints_every_metric(workload, trace, tmp_path):
    res = harness.run(workload, seed=3, seconds=0.0, trace=trace, workdir=tmp_path,
                      reference=None, toy=True)
    assert res.correct, res.failures
    assert res.attempted > 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    summary = json.loads(res.summary_json())
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == want
    printed = {line.split()[0]: line.split()[-1] for line in harness.report_lines(res)
               if not line.startswith("#")}
    assert printed == want
    if not trace:
        assert all(summary["metrics"][k]["value"] > 0 for k in want)


def test_traced_stages_add_up_to_forward(tmp_path):
    res = harness.run("interp-x2", seed=1, seconds=0.0, trace=True, workdir=tmp_path,
                      reference=None, toy=True)
    assert res.shares and abs(sum(res.shares.values()) - 1.0) < 1e-9
    m = {k: v for k, (v, _) in res.metrics.items()}
    stages = sum(m[k] for k in ("kernels.decode_s", "kernels.regional_s", "kernels.holistic_s",
                                "kernels.fuse_s", "kernels.temporal_s",
                                "representations.tpr_s", "representations.voxel_s"))
    assert m["pipeline.self_s"] >= 0
    assert m["kernels.holistic_calls"] == 1
    assert stages <= m["pipeline.forward_s"]


def test_wrong_or_unrepeatable_output_counts_as_failed(tmp_path):
    wl = make_workload(TOY_SPECS["upscale-x8"], tmp_path)
    wl.setup(2)
    kind, op = wl.next_op(0)
    out = op()
    assert wl.check(kind, 0, out, None) == []
    out["outputs"][0] = out["outputs"][0] + np.float32(2.0)
    bad = wl.check(kind, 2, out, None)
    assert any("[0, 1]" in b for b in bad)
    assert any("byte-identical" in b for b in bad)


def test_misplaced_query_output_fails_the_reference(tmp_path):
    wl = make_workload(TOY_SPECS["event-ingest"], tmp_path)
    state = wl.setup(4)
    reference = wl.fingerprints(state)
    kind, op = wl.next_op(1)
    out = op()
    assert wl.check(kind, 1, out, reference) == []
    # x and y swapped: every total and every mass stays the same
    out["voxel"] = out["voxel"].transpose(0, 2, 1).copy()
    bad = wl.check(kind, 1, out, reference)
    assert "clip 1 query 0: voxel differs from the reference" in bad
    assert not any("tpr" in b or "rec" in b or "mass" in b for b in bad)


def test_no_result_without_program_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "event-ingest", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
