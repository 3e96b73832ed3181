#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: the default seed's expected outputs.

    python3 perfbench/make_reference.py

Run it only for an intended change of the numbers, and say so in the
change that commits the new file.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    run.limit_blas_threads()
    if not run.import_program():
        print("error: no evtpr sources under %s" % (run.ROOT / "src"), file=sys.stderr)
        return 2
    from workloads import DEFAULT_SEED, SPECS, make_workload

    workdir = run.ROOT / ".bench_out" / "reference"
    reference = {}
    try:
        for name in run.WORKLOADS:
            wl = make_workload(SPECS[name], workdir / name)
            reference[name] = wl.fingerprints(wl.setup(DEFAULT_SEED))
            print("%s: done" % name, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.BENCH_DIR / "reference.json", "w") as fh:
        json.dump(reference, fh)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
