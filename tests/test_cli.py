import argparse
import hashlib
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import evtpr
from evtpr import IntensityFrame, simulate_events
from evtpr.cli import build_parser, main
from evtpr.io_formats import read_events, read_frame, read_tensor, write_frame

from conftest import make_ramp_clip


def write_clip(tmp_path, frames, name="clip"):
    d = tmp_path / name
    d.mkdir()
    for i, f in enumerate(frames):
        write_frame(f.pixels, str(d / ("frame_%03d.ppm" % i))
                    if f.channels == 3 else str(d / ("frame_%03d.pgm" % i)))
    (d / "timestamps.txt").write_text(
        "".join("%d\n" % f.timestamp for f in frames))
    return d


def rgb_ramp_clip(n=4, h=16, w=16):
    frames = make_ramp_clip(h=h, w=w, n_frames=n)
    return [IntensityFrame(timestamp=f.timestamp,
                           pixels=np.repeat(f.pixels[..., None], 3, axis=2))
            for f in frames]


def run_main_limited(argv, timeout=120):
    """evtpr.cli.main(argv) in a subprocess whose address space is capped at
    1.5 GB, so a huge allocation fails there rather than exhausting memory."""
    pytest.importorskip("resource")
    limit = 1536 << 20
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (%d, %d)); "
            "from evtpr.cli import main; sys.exit(main(sys.argv[1:]))" % (limit, limit))
    src = str(Path(evtpr.__file__).resolve().parents[1])
    # one OpenBLAS thread: its per-thread buffers stay out of the limit
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


class TestSimulate:
    def test_constant_clip_gives_empty_file(self, tmp_path):
        frames = [IntensityFrame(timestamp=i * 100, pixels=np.full((8, 8), 0.5))
                  for i in range(3)]
        d = write_clip(tmp_path, frames)
        out = tmp_path / "events.evt"
        assert main([ "simulate", str(d), "--threshold", "0.2",
                      "-o", str(out)]) == 0
        assert len(read_events(str(out))) == 0

    def test_matches_library_simulation(self, tmp_path):
        frames = make_ramp_clip(h=8, w=8, n_frames=6)
        # quantize to what the pixmap round trip preserves
        frames = [IntensityFrame(timestamp=f.timestamp,
                                 pixels=np.rint(f.pixels * 255) / 255.0)
                  for f in frames]
        d = write_clip(tmp_path, frames)
        out = tmp_path / "events.evt"
        assert main(["simulate", str(d), "--threshold", "0.2",
                     "-o", str(out)]) == 0
        expected = simulate_events(frames, C=0.2)
        got = read_events(str(out))
        assert len(got) == len(expected)
        assert np.array_equal(got.t, expected.t)
        assert np.array_equal(got.p, expected.p)

    def test_deterministic_bytes(self, tmp_path):
        frames = make_ramp_clip(h=8, w=8, n_frames=4)
        d = write_clip(tmp_path, frames)
        a, b = tmp_path / "a.evt", tmp_path / "b.evt"
        main(["simulate", str(d), "--threshold", "0.1", "-o", str(a)])
        main(["simulate", str(d), "--threshold", "0.1", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_timestamps_is_usage_error(self, tmp_path):
        d = tmp_path / "clip"
        d.mkdir()
        write_frame(np.full((4, 4), 0.5), str(d / "f0.pgm"))
        assert main(["simulate", str(d), "--threshold", "0.2",
                     "-o", str(tmp_path / "e.evt")]) == 2

    def test_timestamps_path(self, tmp_path, capsys):
        d = write_clip(tmp_path, make_ramp_clip(h=8, w=8, n_frames=4))
        a, b = tmp_path / "a.evt", tmp_path / "b.evt"
        assert main(["simulate", str(d), "--threshold", "0.1", "-o", str(a)]) == 0
        stamps = (d / "timestamps.txt").rename(tmp_path / "stamps.txt")
        assert main(["simulate", str(d), "--timestamps", str(stamps),
                     "--threshold", "0.1", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        # the default file is no longer there, and a named path is not
        # looked for anywhere else
        capsys.readouterr()
        for argv in ([], ["--timestamps", str(tmp_path / "nope.txt")]):
            assert main(["simulate", str(d), *argv, "--threshold", "0.1",
                         "-o", str(b)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "usage error: missing timestamps file %s" % (d / "timestamps.txt"),
            "usage error: missing timestamps file %s" % (tmp_path / "nope.txt")]


class TestRepresentations:
    @pytest.fixture
    def events_file(self, tmp_path):
        frames = make_ramp_clip(h=8, w=8, n_frames=6)
        d = write_clip(tmp_path, frames)
        out = tmp_path / "events.evt"
        main(["simulate", str(d), "--threshold", "0.1", "-o", str(out)])
        return out

    def test_voxelize_dims(self, events_file, tmp_path):
        out = tmp_path / "grid.tns"
        assert main(["voxelize", str(events_file), "--bins", "5",
                     "-o", str(out)]) == 0
        assert read_tensor(str(out)).shape == (5, 8, 8)

    def test_voxelize_empty_stream(self, tmp_path):
        from evtpr import EventStream
        from evtpr.io_formats import write_events
        empty = tmp_path / "empty.evt"
        write_events(EventStream(sensor_width=4, sensor_height=4,
                                 t_begin=0, t_end=100), str(empty))
        out = tmp_path / "grid.tns"
        assert main(["voxelize", str(empty), "--bins", "3", "-o", str(out)]) == 0
        assert np.all(read_tensor(str(out)) == 0)

    def test_voxelize_window_past_the_stream(self, events_file, tmp_path):
        # a window reaching past the stream clamps to its events: every
        # tau lies below bin 0's centre, so bin 0 holds the whole sum
        out = tmp_path / "grid.tns"
        assert main(["voxelize", str(events_file), "--bins", "3",
                     "--t1", str(2 ** 70), "-o", str(out)]) == 0
        grid, stream = read_tensor(str(out)), read_events(str(events_file))
        assert len(stream) > 0 and grid[0].sum() == stream.p.sum()
        assert not grid[1:].any()

    def test_tpr_granularity_table6(self, capsys):
        assert main(["tpr", "--L", "7", "--Mp", "9", "--r", "3",
                     "--half-window", "0.5s", "--print-granularity"]) == 0
        assert capsys.readouterr().out.strip() == "1/19683 s"

    @pytest.mark.parametrize("half_window", ["1", "1s"])
    def test_tpr_half_window_is_seconds(self, half_window, capsys):
        # a bare integer is seconds here, not microseconds
        assert main(["tpr", "--L", "3", "--Mp", "2", "--r", "3",
                     "--half-window", half_window, "--print-granularity"]) == 0
        assert capsys.readouterr().out.strip() == "1/27 s"

    def test_tpr_dims(self, events_file, tmp_path, capsys):
        out = tmp_path / "tpr.tns"
        assert main(["tpr", str(events_file), "--L", "7", "--Mp", "2",
                     "--r", "3", "--half-window", "0.002s",
                     "-o", str(out)]) == 0
        assert read_tensor(str(out)).shape == (7, 2, 8, 8)


class TestReconstruct:
    def test_at_frame_time_is_identity(self, tmp_path):
        frames = make_ramp_clip(h=8, w=8, n_frames=4)
        d = write_clip(tmp_path, frames)
        events = tmp_path / "events.evt"
        main(["simulate", str(d), "--threshold", "0.2", "-o", str(events)])
        out = tmp_path / "recon.pgm"
        assert main(["reconstruct", str(d / "frame_000.pgm"), str(events),
                     "--frame-time", "0", "--at", "0", "--threshold", "0.2",
                     "-o", str(out)]) == 0
        assert out.read_bytes() == (d / "frame_000.pgm").read_bytes()

    def test_round_trip_error_bound(self, tmp_path):
        C = 0.2
        frames = make_ramp_clip(h=8, w=8, n_frames=6)
        frames = [IntensityFrame(timestamp=f.timestamp,
                                 pixels=np.rint(f.pixels * 255) / 255.0)
                  for f in frames]
        d = write_clip(tmp_path, frames)
        events = tmp_path / "events.evt"
        main(["simulate", str(d), "--threshold", str(C), "-o", str(events)])
        out = tmp_path / "recon.pgm"
        last_t = frames[-1].timestamp
        assert main(["reconstruct", str(d / "frame_000.pgm"), str(events),
                     "--frame-time", "0", "--at", str(last_t),
                     "--threshold", str(C), "-o", str(out)]) == 0
        recon = read_frame(str(out))
        eps = 1e-3
        log_err = np.abs(np.log(recon + eps) - np.log(frames[-1].pixels + eps))
        # quantization to 8 bits adds a little on top of the C bound
        assert log_err.max() <= C + 0.05

    def test_uncovered_interval_fails(self, tmp_path):
        frames = make_ramp_clip(h=8, w=8, n_frames=4)
        d = write_clip(tmp_path, frames)
        events = tmp_path / "events.evt"
        main(["simulate", str(d), "--threshold", "0.2", "-o", str(events)])
        code = main(["reconstruct", str(d / "frame_000.pgm"), str(events),
                     "--frame-time", "0", "--at", "999999",
                     "--threshold", "0.2", "-o", str(tmp_path / "x.pgm")])
        assert code == 4


@pytest.fixture
def rgb_clip(tmp_path):
    """A 16x16 RGB clip directory and its events file."""
    d = write_clip(tmp_path, rgb_ramp_clip(n=4, h=16, w=16))
    events = tmp_path / "events.evt"
    assert main(["simulate", str(d), "--threshold", "0.2",
                 "-o", str(events)]) == 0
    return d, events


class TestPipelineCmd:
    def test_single_time_identity_scale(self, rgb_clip, tmp_path):
        d, events = rgb_clip
        out = tmp_path / "out"
        assert main(["pipeline", str(d), str(events), "--scale", "1",
                     "--times", "0.0", "-o", str(out)]) == 0
        frame = read_frame(str(out / "out_000.ppm"))
        assert frame.shape == (16, 16, 3)
        report = (out / "report.txt").read_text()
        assert "holistic_extractor_calls: 1" in report

    def test_byte_identical_runs(self, rgb_clip, tmp_path):
        d, events = rgb_clip
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["pipeline", str(d), str(events), "--scale", "2",
                "--times", "0.0,0.5,1.0", "--seed", "3"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(["--threads", "4"] + args + ["-o", str(b)]) == 0
        for name in ("out_000.ppm", "out_001.ppm", "out_002.ppm", "report.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_threads_from_env(self, rgb_clip, tmp_path, monkeypatch):
        d, events = rgb_clip
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["pipeline", str(d), str(events), "--scale", "2",
                "--times", "0.5", "--seed", "3"]
        assert main(["--threads", "1"] + args + ["-o", str(a)]) == 0
        monkeypatch.setenv("EVTPR_THREADS", "3")
        assert main(args + ["-o", str(b)]) == 0
        assert (a / "out_000.ppm").read_bytes() == (b / "out_000.ppm").read_bytes()

    def test_timestamps_path(self, rgb_clip, tmp_path):
        d, events = rgb_clip
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["pipeline", str(d), str(events), "--scale", "2", "--times", "0.5"]
        assert main(args + ["-o", str(a)]) == 0
        stamps = (d / "timestamps.txt").rename(tmp_path / "stamps.txt")
        assert main(args + ["--timestamps", str(stamps), "-o", str(b)]) == 0
        assert (a / "out_000.ppm").read_bytes() == (b / "out_000.ppm").read_bytes()


class TestMetricsCmd:
    def test_identical_dirs(self, tmp_path):
        rng = np.random.default_rng(0)
        d = tmp_path / "frames"
        d.mkdir()
        for i in range(3):
            write_frame(rng.integers(0, 256, (16, 16, 3)) / 255.0,
                        str(d / ("f%d.ppm" % i)))
        out = tmp_path / "report.csv"
        assert main(["metrics", str(d), str(d), "--y-only", "-o", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "index,time,psnr,ssim"
        for row in rows[1:]:
            _, _, p, s = row.split(",")
            assert p == "inf"
            assert float(s) == pytest.approx(1.0, abs=1e-9)

    def test_uniform_offset_closed_form(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        a_dir.mkdir()
        b_dir.mkdir()
        base = np.full((16, 16), 100 / 255.0)
        write_frame(base, str(a_dir / "f.pgm"))
        write_frame(base + 1 / 255.0, str(b_dir / "f.pgm"))
        out = tmp_path / "report.csv"
        assert main(["metrics", str(a_dir), str(b_dir), "-o", str(out)]) == 0
        p = float(out.read_text().strip().splitlines()[1].split(",")[2])
        assert p == pytest.approx(20 * math.log10(255), abs=1e-3)

    def test_mismatched_counts_usage_error(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        a_dir.mkdir()
        b_dir.mkdir()
        write_frame(np.full((16, 16), 0.5), str(a_dir / "f.pgm"))
        assert main(["metrics", str(a_dir), str(b_dir),
                     "-o", str(tmp_path / "r.csv")]) == 2


class TestErrorCodes:
    def test_format_error(self, tmp_path):
        bad = tmp_path / "bad.evt"
        bad.write_bytes(b"NOPE" + b"\0" * 40)
        assert main(["voxelize", str(bad), "--bins", "3",
                     "-o", str(tmp_path / "g.tns")]) == 3

    def test_huge_event_count_is_format_error(self, tmp_path):
        from evtpr.io_formats import EVENT_HEADER, EVENT_MAGIC, EVENT_VERSION
        bad = tmp_path / "huge.evt"
        bad.write_bytes(EVENT_HEADER.pack(EVENT_MAGIC, EVENT_VERSION, 4, 4,
                                          2 ** 62, 0, 10))
        assert main(["voxelize", str(bad), "--bins", "3",
                     "-o", str(tmp_path / "g.tns")]) == 3

    def test_failed_write_is_usage_error(self, rgb_clip, capsys):
        # the OSError of a full device, raised by the output's flush
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full to write to")
        _, events = rgb_clip
        capsys.readouterr()
        assert main(["voxelize", str(events), "--bins", "4", "-o", "/dev/full"]) == 2
        assert_one_line_error(capsys, "usage error: ")

    def test_contract_error(self, tmp_path):
        frames = make_ramp_clip(h=8, w=8, n_frames=4)
        d = write_clip(tmp_path, frames)
        events = tmp_path / "events.evt"
        main(["simulate", str(d), "--threshold", "0.2", "-o", str(events)])
        # degenerate TPR window: granularity below the microsecond clock
        assert main(["tpr", str(events), "--L", "7", "--Mp", "2", "--r", "3",
                     "--half-window", "1/1000000",
                     "-o", str(tmp_path / "t.tns")]) == 4


class TestOutputDigest:
    """SHA-256 of the CLI's output bytes for one fixed config.

    Any intended change to simulated events or to pipeline output values
    must update these digests in the same change and say so. The same
    bytes come out under each of OpenBLAS's five distinct sgemm kernels
    tried with OPENBLAS_CORETYPE: Haswell, SkylakeX, Sandybridge, Nehalem
    and Katmai (other names, such as Zen or Prescott, run one of these).
    CI runs this test under all of them but SkylakeX, which needs AVX-512.
    report.txt holds only what the inputs fix: calls, counts and shapes.
    """

    EVENTS = "2fdab55685e25597a6becd630b6bb68976a2646661c6af6315dd02394581f8cf"
    PIPELINE = {
        "out_000.ppm": "68c9b706688a3655530c40ee5b773568ccd977ceb4cdff7303dea7cdfe064f30",
        "out_001.ppm": "76ad62b5c0bfbe46eb64916d92064ac6f0a232c12205091b3f97920c0be3e7f3",
        "out_002.ppm": "f03d0ac3eb6764af69dd80990ec6fae40efb68bcddf23bf7b09a5431d0198aed",
        "report.txt": "0957c573699c898c6a3cc73682ffdff429120ce4b8757d023c16eace5b0721ee",
    }

    def test_simulate_and_pipeline_bytes(self, tmp_path):
        def sha(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        d = write_clip(tmp_path, rgb_ramp_clip(n=4, h=16, w=16))
        events = tmp_path / "events.evt"
        assert main(["simulate", str(d), "--threshold", "0.1",
                     "-o", str(events)]) == 0
        out = tmp_path / "out"
        assert main(["pipeline", str(d), str(events), "--scale", "2.5",
                     "--times", "0,0.3,1", "--seed", "4",
                     "-o", str(out)]) == 0
        assert sha(events) == self.EVENTS
        assert {p.name: sha(p) for p in out.iterdir()} == self.PIPELINE


class TestMoreErrorCodes:
    # a subcommand that reads and writes no file
    TPR_GRANULARITY = ["tpr", "--L", "3", "--Mp", "2", "--r", "3",
                       "--half-window", "0.5s", "--print-granularity"]

    @pytest.mark.parametrize("ratio", ["abc", "1/0", ""])
    def test_unparseable_ratio_is_usage_error(self, ratio, capsys):
        assert main(["tpr", "--L", "3", "--Mp", "2", "--r", ratio,
                     "--half-window", "0.5s", "--print-granularity"]) == 2
        assert "--r" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-1", "abc"])
    def test_bad_threads_flag_is_usage_error(self, threads, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--threads", threads, *self.TPR_GRANULARITY])
        assert info.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("env", ["0", "-2", "abc"])
    def test_bad_threads_env_is_usage_error(self, env, monkeypatch, capsys):
        monkeypatch.setenv("EVTPR_THREADS", env)
        with pytest.raises(SystemExit) as info:
            main(self.TPR_GRANULARITY)
        assert info.value.code == 2
        assert "EVTPR_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--window", "--bins", "--levels", "--moments",
                                      "--ratio", "--cr", "--ct", "--cts",
                                      "--encoder-depth"])
    def test_fixed_pipeline_sizes_are_not_flags(self, flag, rgb_clip, tmp_path, capsys):
        d, events = rgb_clip
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["pipeline", str(d), str(events), "--scale", "2", "--times", "0.5",
                  flag, "3", "-o", str(out)])
        assert info.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "{clip}", "--threshold", "0.2"],
        ["reconstruct", "{frame}", "{events}", "--frame-time", "0", "--at", "2000",
         "--threshold", "0.2"],
    ], ids=["simulate", "reconstruct"])
    def test_log_offset_is_not_a_flag(self, argv, rgb_clip, tmp_path, capsys):
        d, events = rgb_clip
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main([a.format(clip=d, events=events, frame=d / "frame_000.ppm")
                  for a in argv] + ["--eps", "0.01", "-o", str(out)])
        assert info.value.code == 2
        assert "--eps" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("EVTPR_THREADS", "abc")
        assert main(["--threads", "2", *self.TPR_GRANULARITY]) == 0

    def test_directory_as_event_file_is_usage_error(self, tmp_path):
        assert main(["voxelize", str(tmp_path), "--bins", "3",
                     "-o", str(tmp_path / "g.tns")]) == 2

    def test_reconstruct_frame_smaller_than_sensor(self, tmp_path):
        d = write_clip(tmp_path, make_ramp_clip(h=8, w=8, n_frames=4))
        events = tmp_path / "events.evt"
        assert main(["simulate", str(d), "--threshold", "0.2",
                     "-o", str(events)]) == 0
        small = tmp_path / "small.pgm"
        write_frame(np.full((4, 4), 0.5), str(small))
        assert main(["reconstruct", str(small), str(events),
                     "--frame-time", "0", "--at", "2000", "--threshold", "0.2",
                     "-o", str(tmp_path / "r.pgm")]) == 4

    def test_pipeline_frames_smaller_than_sensor(self, tmp_path):
        big = write_clip(tmp_path, rgb_ramp_clip(n=4, h=32, w=32), name="big")
        small = write_clip(tmp_path, rgb_ramp_clip(n=4, h=16, w=16), name="small")
        events = tmp_path / "events.evt"
        assert main(["simulate", str(big), "--threshold", "0.2",
                     "-o", str(events)]) == 0
        assert main(["pipeline", str(small), str(events), "--scale", "1",
                     "--times", "0.5", "-o", str(tmp_path / "out")]) == 4

    @pytest.mark.parametrize("fault,message", [
        ("luma", "pipeline inputs must be RGB frames"),
        ("sizes", "all frames must share dimensions"),
        ("timestamps", "frame timestamps must be strictly increasing"),
    ], ids=["luma", "sizes", "timestamps"])
    def test_pipeline_clip_contract(self, rgb_clip, tmp_path, capsys, fault, message):
        # events from the 16^2 RGB clip; the clip handed to pipeline breaks
        # one of its frame checks
        _, events = rgb_clip
        frames = rgb_ramp_clip(n=4, h=16, w=16)
        if fault == "luma":
            frames = [IntensityFrame(timestamp=f.timestamp, pixels=f.pixels[..., 0])
                      for f in frames]
        elif fault == "sizes":
            frames[2] = rgb_ramp_clip(n=4, h=32, w=32)[2]
        else:
            frames[2] = IntensityFrame(timestamp=frames[1].timestamp,
                                       pixels=frames[2].pixels)
        d = write_clip(tmp_path, frames, name="bad")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["pipeline", str(d), str(events), "--scale", "1",
                     "--times", "0.5", "-o", str(out)]) == 4
        assert_one_line_error(capsys, "contract violation: " + message)
        assert not out.exists()


def assert_one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert "Traceback" not in err


class TestNonFiniteFlags:
    @pytest.mark.parametrize("argv", [
        ["pipeline", "{clip}", "{events}", "--scale", "nan", "--times", "0.5"],
        ["pipeline", "{clip}", "{events}", "--scale", "inf", "--times", "0.5"],
        ["pipeline", "{clip}", "{events}", "--scale", "1e308", "--times", "0.5"],
        # finite output sizes whose query array numpy cannot size
        ["pipeline", "{clip}", "{events}", "--scale", "1e300", "--times", "0.5"],
        ["pipeline", "{clip}", "{events}", "--scale", "1e8", "--times", "0.5"],
        # a query array numpy can size but not allocate
        ["pipeline", "{clip}", "{events}", "--scale", "1e6", "--times", "0.5"],
        ["simulate", "{clip}", "--threshold", "nan"],
        ["reconstruct", "{frame}", "{events}", "--frame-time", "0", "--at",
         "2000", "--threshold", "nan"],
        ["reconstruct", "{frame}", "{events}", "--frame-time", "0", "--at",
         "2000", "--threshold", "inf"],
        ["metrics", "{clip}", "{clip}", "--border-crop", "-1"],
    ], ids=["pipeline-scale-nan", "pipeline-scale-inf", "pipeline-scale-1e308",
            "pipeline-scale-1e300", "pipeline-scale-1e8", "pipeline-scale-1e6",
            "simulate-threshold-nan", "reconstruct-threshold-nan",
            "reconstruct-threshold-inf",
            "metrics-border-crop-negative"])
    def test_exits_4_without_output(self, rgb_clip, tmp_path, capsys, argv):
        d, events = rgb_clip
        out = tmp_path / "out"
        argv = [a.format(clip=d, events=events, frame=d / "frame_000.ppm")
                for a in argv] + ["-o", str(out)]
        capsys.readouterr()
        assert main(argv) == 4
        assert_one_line_error(capsys, "contract violation: ")
        assert not out.exists()


class TestTooLargeFlags:
    # flag values whose arrays no machine could hold
    @pytest.mark.parametrize("argv", [
        ["voxelize", "{events}", "--bins", "100000000000"],
        ["tpr", "{events}", "--L", "3", "--Mp", "100000000000", "--r", "3",
         "--half-window", "0.001s"],
        ["simulate", "{clip}", "--threshold", "1e-12"],
    ], ids=["voxelize-bins", "tpr-moments", "simulate-threshold"])
    def test_out_of_memory_exits_4(self, rgb_clip, tmp_path, argv):
        d, events = rgb_clip
        out = tmp_path / "out"
        run = run_main_limited([a.format(clip=d, events=events) for a in argv]
                               + ["-o", str(out)])
        assert run.returncode == 4, run.stderr
        assert run.stderr.startswith("contract violation: the input needs more "
                                     "memory than is available")
        assert run.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags,bins", [
        (["voxelize", "--bins"], "10000000000000000"),
        (["voxelize", "--bins"], "100000000000000000000"),
        (["tpr", "--L", "3", "--r", "3", "--half-window", "0.001s", "--Mp"],
         "100000000000000000000"),
    ], ids=["voxelize-bins-1e16", "voxelize-bins-1e20", "tpr-moments-1e20"])
    def test_voxel_grid_numpy_cannot_size(self, rgb_clip, tmp_path, capsys, flags, bins):
        _, events = rgb_clip
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([flags[0], str(events), *flags[1:], bins, "-o", str(out)]) == 4
        assert_one_line_error(capsys, "contract violation: %s bins of a 16x16 sensor"
                              % bins)
        assert not out.exists()

    def test_simulate_crossings_beyond_int64(self, rgb_clip, tmp_path, capsys):
        d, _ = rgb_clip
        out = tmp_path / "e.evt"
        capsys.readouterr()
        assert main(["simulate", str(d), "--threshold", "1e-300", "-o", str(out)]) == 4
        assert_one_line_error(capsys, "contract violation: threshold 1e-300 gives ")
        assert not out.exists()

    def test_granularity_of_huge_levels(self, capsys):
        # r^L has 47,713 digits, beyond str(int)'s limit
        assert main(["tpr", "--L", "100000", "--Mp", "2", "--r", "3",
                     "--half-window", "0.001s", "--print-granularity"]) == 4
        assert_one_line_error(capsys, "contract violation: finest level window")

    def test_granularity_of_huge_levels_is_refused_at_once(self):
        # the exact 3^(10^9) would take far longer than the timeout
        run = run_main_limited(["tpr", "--L", "1000000000", "--Mp", "2", "--r", "3",
                                "--half-window", "0.001s", "--print-granularity"],
                               timeout=30)
        assert run.returncode == 4, run.stderr
        assert run.stderr.startswith("contract violation: finest level window")
        assert run.stderr.count("\n") == 1

    def test_granularity_of_r_near_one(self, capsys):
        # r^L passes the finest-window rule, but the exact r^L has 24,083
        # digits, beyond str(int)'s limit
        assert main(["tpr", "--L", "2000", "--Mp", "2", "--r", "1.000000000001",
                     "--half-window", "1000s", "--print-granularity"]) == 4
        assert_one_line_error(capsys, "contract violation: --L 2000 and --r give "
                              "an exact r^L of up to 24083 digits")

    def test_granularity_of_r_near_one_is_refused_at_once(self):
        # r^L is about 1.0001, but the exact r^L would have 1.2 billion digits
        run = run_main_limited(["tpr", "--L", "100000000", "--Mp", "2",
                                "--r", "1.000000000001", "--half-window", "1000s",
                                "--print-granularity"], timeout=30)
        assert run.returncode == 4, run.stderr
        assert run.stderr.startswith("contract violation: --L 100000000 and --r ")
        assert run.stderr.count("\n") == 1

    def test_granularity_of_long_half_window(self, capsys):
        # r^L alone has at most 3998 digits, but the half window's 478-digit
        # numerator and denominator carry the exact result past the bound
        half_window = "%d/%d" % (3 ** 1000 + 1, 3 ** 1000)
        assert main(["tpr", "--L", "332", "--Mp", "2", "--r", "1.000000000001",
                     "--half-window", half_window, "--print-granularity"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("contract violation: --L 332 and --r ")
        assert "--half-window" in err and err.count("\n") == 1

    def test_granularity_just_inside_the_digit_bound(self, capsys):
        # 332 * 40 bits of r^L, 1 + 2 of the half window, 3 of M_p and 1 of
        # the factor 2: 13287 bits, at most 4000 digits
        assert main(["tpr", "--L", "332", "--Mp", "4", "--r", "1.000000000001",
                     "--half-window", "0.5s", "--print-granularity"]) == 0
        expected = Fraction(1, 4) / Fraction("1.000000000001") ** 332
        assert capsys.readouterr().out == "%s s\n" % expected


class TestUsageErrors:
    def test_tpr_output_without_events_file(self, tmp_path, capsys):
        out = tmp_path / "t.tns"
        assert main(["tpr", "--L", "3", "--Mp", "2", "--r", "3",
                     "--half-window", "0.001s", "-o", str(out)]) == 2
        assert_one_line_error(capsys, "usage error: ")
        assert not out.exists()

    def test_missing_frames_directory(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope"), "--threshold", "0.2",
                     "-o", str(tmp_path / "e.evt")]) == 2
        assert_one_line_error(capsys, "usage error: ")

    def test_directory_without_frames(self, tmp_path, capsys):
        d = tmp_path / "clip"
        d.mkdir()
        (d / "timestamps.txt").write_text("0\n")
        (d / "notes.txt").write_text("not a frame\n")
        assert main(["simulate", str(d), "--threshold", "0.2",
                     "-o", str(tmp_path / "e.evt")]) == 2
        assert_one_line_error(capsys, "usage error: ")

    @pytest.mark.parametrize("stamps", ["0\n1000\n2000\n",
                                        "0\n1000\n2000\n3000\n4000\n",
                                        "0\n1000\n2000.5\n3000\n",
                                        "0\n1000\nabc\n3000\n"],
                             ids=["short", "long", "decimal", "text"])
    def test_bad_timestamps_file(self, tmp_path, capsys, stamps):
        d = write_clip(tmp_path, make_ramp_clip(h=8, w=8, n_frames=4))
        (d / "timestamps.txt").write_text(stamps)
        assert main(["simulate", str(d), "--threshold", "0.2",
                     "-o", str(tmp_path / "e.evt")]) == 2
        assert_one_line_error(capsys, "usage error: ")

    def test_empty_times_list(self, rgb_clip, tmp_path, capsys):
        d, events = rgb_clip
        capsys.readouterr()
        assert main(["pipeline", str(d), str(events), "--scale", "1",
                     "--times", ",", "-o", str(tmp_path / "out")]) == 2
        assert_one_line_error(capsys, "usage error: ")

    @pytest.mark.parametrize("times", [["--half-window", "1e400"],
                                       ["--half-window", "0.001s", "--center", "1e400"]],
                             ids=["half-window", "center"])
    def test_time_value_beyond_float_range(self, rgb_clip, tmp_path, capsys, times):
        _, events = rgb_clip
        out = tmp_path / "t.tns"
        capsys.readouterr()
        assert main(["tpr", str(events), "--L", "3", "--Mp", "2", "--r", "3",
                     *times, "-o", str(out)]) == 2
        assert_one_line_error(capsys, "usage error: ")
        assert not out.exists()

    def test_negative_seed(self, rgb_clip, tmp_path, capsys):
        d, events = rgb_clip
        out = tmp_path / "out"
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            main(["pipeline", str(d), str(events), "--scale", "1", "--times", "0.5",
                  "--seed", "-1", "-o", str(out)])
        assert info.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["pred", "gt"])
    def test_metrics_missing_directory(self, tmp_path, capsys, missing):
        present = tmp_path / "present"
        present.mkdir()
        write_frame(np.full((4, 4), 0.5), str(present / "f.pgm"))
        dirs = {"pred": str(present), "gt": str(present)}
        dirs[missing] = str(tmp_path / "nope")
        assert main(["metrics", dirs["pred"], dirs["gt"],
                     "-o", str(tmp_path / "r.csv")]) == 2
        assert_one_line_error(capsys, "usage error: ")

    @pytest.mark.parametrize("empty", [["pred"], ["gt"], ["pred", "gt"]],
                             ids=["pred", "gt", "both"])
    def test_metrics_directory_without_frames(self, tmp_path, capsys, empty):
        dirs = {}
        for name in ("pred", "gt"):
            dirs[name] = tmp_path / name
            dirs[name].mkdir()
            if name not in empty:
                write_frame(np.full((4, 4), 0.5), str(dirs[name] / "f.pgm"))
        out = tmp_path / "r.csv"
        assert main(["metrics", str(dirs["pred"]), str(dirs["gt"]), "-o", str(out)]) == 2
        assert capsys.readouterr().err == \
            "usage error: no .pgm/.ppm frames in %s\n" % dirs[empty[0]]
        assert not out.exists()

    def test_metrics_frame_counts_differ(self, tmp_path, capsys):
        dirs = {name: tmp_path / name for name in ("pred", "gt")}
        for name, n in (("pred", 2), ("gt", 1)):
            dirs[name].mkdir()
            for i in range(n):
                write_frame(np.full((4, 4), 0.5), str(dirs[name] / ("f%d.pgm" % i)))
        assert main(["metrics", str(dirs["pred"]), str(dirs["gt"]),
                     "-o", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err == \
            "usage error: prediction and ground-truth frame counts differ\n"


def test_readme_usage_lists_exactly_the_subcommands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    usage = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    listed = re.findall(r"\bevtpr (\S+)", usage)
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(listed) == set(subparsers.choices)
