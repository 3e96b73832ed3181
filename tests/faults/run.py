"""The committed fault list: wiring faults the tier-1 tests must catch.

Each entry below is one exact-text substitution in one file of `src`, and
the tests expected to fail once it is made. This script copies `src`,
`tests`, `pyproject.toml` and `README.md` (which a test reads) to a
temporary directory. For every entry it applies the substitution there and
runs the entry's tests with the output digests (`-k "not Digest"`) and
`tests/test_reference.py` left out, so a fault counts as caught only by a
test that does not compare against pinned bytes or the frozen reference.
The repository itself is never modified.

A fault that no test catches is a survivor. KNOWN_SURVIVORS names the faults
that only a digest or the reference can see today; their entries run the
whole suite. The script exits 1 when:

- an entry's old text does not occur exactly once (the code moved: update
  the entry);
- the tests fail before any fault is applied;
- a fault outside KNOWN_SURVIVORS survives;
- a known survivor is caught (take it off KNOWN_SURVIVORS).

Never add a name to KNOWN_SURVIVORS to make a run pass. Standard library
only; run from anywhere with `python tests/faults/run.py`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]
PYTEST_ARGS = ("-q", "-x", "-p", "no:cacheprovider", "-k", "not Digest",
               "--ignore=tests/test_reference.py")


class Fault(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids expected to catch it


FAULTS = (
    Fault("decoder-factors-not-reversed", "src/evtpr/kernels.py",
          "factors = np.abs(offsets[::-1])", "factors = np.abs(offsets)",
          ("tests/test_kernels.py::TestSpatialDecode",)),
    Fault("pixel-index-x-y-swapped", "src/evtpr/events.py",
          "pixel = np.multiply(self.y, self.sensor_width, dtype=dtype)\n"
          "        pixel += self.x",
          "pixel = np.multiply(self.x, self.sensor_height, dtype=dtype)\n"
          "        pixel += self.y",
          ("tests/test_representations.py", "tests/test_event_order.py")),
    Fault("tpr-level-exponent-off-by-one", "src/evtpr/representations.py",
          "h = half_window / float(attenuation) ** level",
          "h = half_window / float(attenuation) ** (level - 1)",
          ("tests/test_representations.py::TestTemporalPyramid",)),
    Fault("shifted-steb-roll-back-sign", "src/evtpr/kernels.py",
          "out = cyclic_shift(out, M // 2)", "out = cyclic_shift(out, -(M // 2))",
          ("tests/test_kernels.py::TestSteb",)),
    Fault("decoder-dx-dy-swapped", "src/evtpr/kernels.py",
          "dxy[..., 0] = dx[None, :]\n        dxy[..., 1] = dy[:, None]",
          "dxy[..., 0] = dy[:, None]\n        dxy[..., 1] = dx[None, :]",
          ("tests/test_kernels.py::TestSpatialDecode",)),
    Fault("softmax-without-max-subtraction", "src/evtpr/kernels.py",
          "    scores -= m\n", "",
          ("tests/test_kernels.py::TestAttention",)),
    Fault("attention-output-bias-dropped", "src/evtpr/kernels.py",
          "    out += params.b_o\n", "",
          ("tests/test_kernels.py::TestAttention",)),
    Fault("reconstruction-closed-window", "src/evtpr/events.py",
          "win = stream.window(frame.timestamp, t, lo_open=True)",
          "win = stream.window(frame.timestamp, t)",
          ("tests/test_event_reference.py::TestReconstruct",)),
    Fault("voxel-tau-without-half-bin-shift", "src/evtpr/representations.py",
          "    tau -= 0.5\n", "",
          ("tests/test_representations.py::TestVoxelGrid",)),
    Fault("negative-polarity-sorted-first", "src/evtpr/events.py",
          "key += (2 * pix + (pol < 0))[j]", "key += (2 * pix + (pol > 0))[j]",
          ("tests/test_event_order.py",)),
    Fault("holistic-frames-interleaved-in-reverse", "src/evtpr/kernels.py",
          "x[0::2] = lifted_frames", "x[0::2] = lifted_frames[::-1]",
          ("tests",)),
    Fault("tpr-centre-at-half-span", "src/evtpr/pipeline.py",
          "center = ts[0] + t * span", "center = ts[0] + t * span / 2",
          ("tests",)),
    Fault("tpr-half-window-quarter-span", "src/evtpr/pipeline.py",
          "_TPR_HALF_WINDOW_FRACTION = 0.5", "_TPR_HALF_WINDOW_FRACTION = 0.25",
          ("tests",)),
    Fault("holistic-levels-last-not-mean", "src/evtpr/pipeline.py",
          "f_g.mean(axis=0)", "f_g[-1]",
          ("tests",)),
    Fault("regional-levels-first-not-mean", "src/evtpr/pipeline.py",
          "f_t_l.mean(axis=0)", "f_t_l[0]",
          ("tests",)),
    Fault("tpr-level-window-off-by-one", "src/evtpr/representations.py",
          "h = self.half_window / self.attenuation ** level",
          "h = self.half_window / self.attenuation ** (level + 1)",
          ("tests/test_representations.py::TestTemporalPyramid",)),
)

# caught today only by a digest or by tests/test_reference.py
KNOWN_SURVIVORS = frozenset({
    "holistic-frames-interleaved-in-reverse",
    "tpr-centre-at-half-span",
    "tpr-half-window-quarter-span",
    "holistic-levels-last-not-mean",
    "regional-levels-first-not-mean",
})


def run_tests(tree: Path, tests) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "pytest", *PYTEST_ARGS, *tests],
                          cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    problems = ["%s: old text does not occur exactly once in %s" % (f.name, f.file)
                for f in FAULTS if (ROOT / f.file).read_text().count(f.old) != 1]
    if problems:
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory(prefix="evtpr-faults-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "faults")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, tree)
        if run_tests(tree, ["tests"]) != 0:
            print("the tests fail with no fault applied")
            return 1

        survivors = []
        for f in FAULTS:
            path = tree / f.file
            original = path.read_text()
            path.write_text(original.replace(f.old, f.new))
            start = time.monotonic()
            try:
                rc = run_tests(tree, f.tests)
            finally:
                path.write_text(original)
            verdict = {0: "survived", 1: "caught"}.get(rc, "error")
            if verdict == "error":  # pytest exits 1 only when tests fail
                problems.append("%s: pytest exited %d, not a test verdict" % (f.name, rc))
            elif rc == 0:
                survivors.append(f.name)
                if f.name not in KNOWN_SURVIVORS:
                    problems.append("%s: survived, and is not a known survivor" % f.name)
            elif f.name in KNOWN_SURVIVORS:
                problems.append("%s: a known survivor is caught; take it off "
                                "KNOWN_SURVIVORS" % f.name)
            print("%-40s %-8s %5.1f s" % (f.name, verdict, time.monotonic() - start),
                  flush=True)

    print("%d faults, %d survivors: %s" % (len(FAULTS), len(survivors),
                                          ", ".join(survivors) or "none"))
    if problems:
        print("\n".join(problems))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
