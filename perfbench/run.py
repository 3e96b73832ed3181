#!/usr/bin/env python3
"""Outside-in benchmark of evtpr.

    python3 perfbench/run.py --workload upscale-x8 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy. Prints a human-readable report, then
one JSON object as the last line of standard output. Exits with 2, printing
no result, when the package sources are missing.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("upscale-x8", "interp-x2", "event-ingest")


# One BLAS thread: on a small shared host a second BLAS thread buys ~10% on
# these shapes but makes every timing hostage to the neighbours' load.
BLAS_THREADS = 1


def limit_blas_threads() -> None:
    """Pin BLAS to BLAS_THREADS threads. Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_program() -> bool:
    """Import evtpr from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "evtpr" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import evtpr
    return Path(evtpr.__file__).resolve().is_relative_to(src.resolve())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    limit_blas_threads()
    if not import_program():
        print("error: no evtpr sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    import harness

    out_dir = ROOT / ".bench_out"
    workdir = out_dir / ("work-%s-%d" % (args.workload, os.getpid()))
    try:
        res = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                          workdir, harness.load_reference(BENCH_DIR))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    harness.write_result(res, out_dir / "results")
    for line in harness.report_lines(res):
        print(line)
    print(res.summary_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
