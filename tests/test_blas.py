"""One OpenBLAS thread inside pipeline_forward, whatever the caller set before
and whatever was imported first; the caller's count comes back after."""

import contextlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from evtpr import (NumericError, blas, init_pipeline_params, pipeline,
                   pipeline_forward, simulate_events)
from test_pipeline import toy_clip, toy_config

pytestmark = pytest.mark.skipif(blas.core() is None, reason="numpy's BLAS is not OpenBLAS")


@contextlib.contextmanager
def blas_threads(n):
    """OpenBLAS at `n` threads for the body, then at the count it had."""
    old = blas._get_num_threads()
    blas._set_num_threads(n)
    try:
        yield
    finally:
        blas._set_num_threads(old)


def test_import_leaves_environment_alone():
    code = textwrap.dedent("""
        import os
        before = dict(os.environ)
        import evtpr
        assert dict(os.environ) == before, sorted(set(os.environ.items()) - set(before.items()))
        print("ok")
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ok"


@pytest.mark.parametrize("nan_weight", [False, True])
def test_forward_runs_one_blas_thread_and_restores_the_callers(monkeypatch, nan_weight):
    seen = []

    def spy(fn):
        def counted(*args, **kwargs):
            seen.append((fn.__name__, blas._get_num_threads()))
            return fn(*args, **kwargs)
        return counted

    for name in ("holistic_extractor_forward", "spatial_decode"):
        monkeypatch.setattr(pipeline, name, spy(getattr(pipeline, name)))
    frames = toy_clip()
    stream = simulate_events(frames, C=0.2)
    config = toy_config()
    params = init_pipeline_params(config, 7)
    if nan_weight:  # the regional STEBs raise, after the holistic extractor ran
        params.regional.lift.weight[0, 0] = np.nan
    with blas_threads(3):
        with pytest.raises(NumericError) if nan_weight else contextlib.nullcontext():
            pipeline_forward(frames, stream, 2.0, [0.5], config, params, threads=2)
        assert blas._get_num_threads() == 3
    expected = [("holistic_extractor_forward", 1)]
    if not nan_weight:
        expected.append(("spatial_decode", 1))
    assert seen == expected


@pytest.mark.parametrize("s", [2.0, 8.0])
def test_bright_bytes_do_not_depend_on_the_callers_blas_threads(bright_pipeline, s):
    # under some sgemm kernels (Haswell) a GEMM's bits depend on how many
    # threads OpenBLAS splits it over
    frames, stream, config, params = bright_pipeline
    outs = []
    for n in (1, 2, 3):
        with blas_threads(n):
            outs.append(pipeline_forward(frames, stream, s, [0.0, 0.5, 1.0],
                                         config, params)[0])
    for other in outs[1:]:
        for a, b in zip(outs[0], other):
            assert a.tobytes() == b.tobytes()
