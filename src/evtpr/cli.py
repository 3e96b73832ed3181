"""Batch command-line surface: simulate, voxelize, tpr, reconstruct,
pipeline, metrics.

Exit codes: 0 success, 2 usage error, 3 format error, 4 numeric/contract
violation. All randomness flows from --seed; outputs are reproducible from
(subcommand, flags, seed). EVTPR_THREADS provides the --threads default;
without either, the pipeline uses the cores this process may run on.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import io_formats, metrics, representations
from .errors import FormatError, InvalidInputError, NumericError
from .events import (
    LOG_EPS,
    IntensityFrame,
    reconstruct_log_intensity,
    simulate_events,
)
from .kernels import PipelineConfig
from .pipeline import init_pipeline_params, pipeline_forward

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_CONTRACT = 4


class UsageError(Exception):
    pass


def _parse_fraction(text: str, what: str) -> Fraction:
    """A decimal ('0.5') or exact rational ('1/3')."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError("cannot parse %s %r" % (what, text)) from exc


def _parse_rational(text: str) -> Fraction:
    """Seconds as a decimal ('0.5', '0.5s') or exact rational ('1/3'), within
    the float range."""
    text = text.strip()
    value = _parse_fraction(text[:-1] if text.endswith("s") else text, "time value")
    try:
        float(value)
    except OverflowError:
        raise UsageError("time value %r does not fit a float" % text) from None
    return value


def _int_at_least(low: int, expected: str):
    """An argparse type: an integer >= low, else exit 2 at parse time."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError("must be %s, got %r" % (expected, text))
        return value
    return parse


def _frame_paths(directory: str) -> list[Path]:
    """The sorted .pgm/.ppm files of a directory; a missing one is a usage error."""
    d = Path(directory)
    if not d.is_dir():
        raise UsageError("frames directory %s does not exist" % directory)
    return sorted(p for p in d.iterdir() if p.suffix.lower() in (".pgm", ".ppm"))


def _load_clip(frames_dir: str, timestamps: str | None) -> list[IntensityFrame]:
    paths = _frame_paths(frames_dir)
    if not paths:
        raise UsageError("no .pgm/.ppm frames in %s" % frames_dir)
    ts_path = Path(timestamps) if timestamps else Path(frames_dir) / "timestamps.txt"
    if not ts_path.is_file():
        raise UsageError("missing timestamps file %s" % ts_path)
    lines = [ln.strip() for ln in ts_path.read_text().splitlines() if ln.strip()]
    if len(lines) != len(paths):
        raise UsageError("timestamps file has %d entries for %d frames"
                         % (len(lines), len(paths)))
    try:
        stamps = [int(ln) for ln in lines]
    except ValueError as exc:
        raise UsageError("timestamps must be integer microseconds") from exc
    return [IntensityFrame(timestamp=t, pixels=io_formats.read_frame(str(p)))
            for p, t in zip(paths, stamps)]


def cmd_simulate(args) -> int:
    frames = _load_clip(args.frames_dir, args.timestamps)
    stream = simulate_events(frames, C=args.threshold)
    io_formats.write_events(stream, args.output)
    print("wrote %d events to %s" % (len(stream), args.output))
    return EXIT_OK


def cmd_voxelize(args) -> int:
    stream = io_formats.read_events(args.events)
    t0 = args.t0 if args.t0 is not None else stream.t_begin
    t1 = args.t1 if args.t1 is not None else stream.t_end
    grid = representations.build_voxel_grid(stream, args.bins, t0, t1)
    io_formats.write_tensor(grid.data, args.output)
    print("voxel grid dims %s -> %s" % (list(grid.data.shape), args.output))
    return EXIT_OK


def cmd_tpr(args) -> int:
    half_window_s = _parse_rational(args.half_window)
    ratio = _parse_fraction(args.ratio, "--r")
    spec = representations.tpr_granularity(half_window_s, args.levels,
                                           args.moments, ratio)
    if args.print_granularity:
        print("%s s" % spec.delta_t)
    if args.output:
        if args.events is None:
            raise UsageError("tpr -o needs an events file")
        stream = io_formats.read_events(args.events)
        if args.center is not None:
            center = stream.t_begin + float(_parse_rational(args.center)) * 1e6
        else:
            center = (stream.t_begin + stream.t_end) / 2.0
        pyramid = representations.build_tpr(
            stream, center, float(half_window_s) * 1e6,
            args.levels, args.moments, float(ratio))
        io_formats.write_tensor(pyramid.data, args.output)
        print("tpr dims %s -> %s" % (list(pyramid.data.shape), args.output))
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    pixels = io_formats.read_frame(args.frame)
    frame = IntensityFrame(timestamp=args.frame_time, pixels=pixels)
    stream = io_formats.read_events(args.events)
    if args.at > stream.t_end or args.frame_time < stream.t_begin:
        raise InvalidInputError("event stream does not cover (frame time, t]")
    log_field = reconstruct_log_intensity(frame, stream, args.at, C=args.threshold)
    intensity = np.clip(np.exp(log_field) - LOG_EPS, 0.0, 1.0)
    io_formats.write_frame(intensity, args.output)
    print("reconstructed frame at t=%d -> %s" % (args.at, args.output))
    return EXIT_OK


def cmd_pipeline(args) -> int:
    frames = _load_clip(args.frames_dir, args.timestamps)
    stream = io_formats.read_events(args.events)
    times = [float(_parse_rational(tok)) for tok in args.times.split(",") if tok]
    if not times:
        raise UsageError("--times must list at least one timestamp")
    # one fixed model: its 4x4 windows and depth 2 need H and W divisible by 16
    config = PipelineConfig(n_in=len(frames), c_r=8, c_t=16, c_ts=8, encoder_depth=2)
    params = init_pipeline_params(config, args.seed)
    outputs, report = pipeline_forward(frames, stream, args.scale, times,
                                       config, params, threads=args.threads)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(outputs):
        io_formats.write_frame(frame, str(out_dir / ("out_%03d.ppm" % i)))
    lines = [
        "holistic_extractor_calls: %d" % report.holistic_calls,
        "output_frames: %d" % len(outputs),
        "output_size: %dx%d" % (outputs[0].shape[0], outputs[0].shape[1]),
    ]
    for name, shape in sorted(report.stage_shapes.items()):
        lines.append("shape %s: %s" % (name, "x".join(str(v) for v in shape)))
    (out_dir / "report.txt").write_text("".join(l + "\n" for l in lines))
    print("wrote %d frames and report.txt to %s" % (len(outputs), out_dir))
    return EXIT_OK


def cmd_metrics(args) -> int:
    preds = [io_formats.read_frame(str(p)) for p in _frame_paths(args.pred_dir)]
    gts = [io_formats.read_frame(str(p)) for p in _frame_paths(args.gt_dir)]
    if len(preds) != len(gts) or not preds:
        raise UsageError("prediction and ground-truth frame counts differ")
    rows = ["index,time,psnr,ssim"]
    n = len(preds)
    for i, (p, g) in enumerate(zip(preds, gts)):
        rep = metrics.evaluate(p, g, y_only=args.y_only,
                               border_crop=args.border_crop)
        t = i / (n - 1) if n > 1 else 0.0
        psnr_text = "inf" if math.isinf(rep.psnr) else "%.4f" % rep.psnr
        rows.append("%d,%.6f,%s,%.6f" % (i, t, psnr_text, rep.ssim))
    Path(args.output).write_text("".join(r + "\n" for r in rows))
    print("wrote %d metric rows to %s" % (n, args.output))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evtpr",
        description="Event-stream representations and forward decoding pipeline")
    # argparse converts a string default with `type` too, so a bad
    # EVTPR_THREADS is a usage error exactly like a bad --threads
    parser.add_argument("--threads", type=_int_at_least(
                            1, "a positive integer (from --threads or EVTPR_THREADS)"),
                        default=os.environ.get("EVTPR_THREADS") or None,
                        help="threads for the pipeline's attention and decoder "
                             "blocks (default: EVTPR_THREADS, else the usable "
                             "cores); blocks are fixed, so outputs are "
                             "byte-identical for any value; OpenBLAS runs "
                             "one thread inside the pipeline (process-wide; "
                             "not under another BLAS), restored after")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate events from a frame clip")
    p.add_argument("frames_dir")
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--timestamps", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("voxelize", help="accumulate events into a voxel grid")
    p.add_argument("events")
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--t0", type=int, default=None)
    p.add_argument("--t1", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_voxelize)

    p = sub.add_parser("tpr", help="build a temporal pyramid representation")
    p.add_argument("events", nargs="?", default=None)
    p.add_argument("--L", dest="levels", type=int, required=True)
    p.add_argument("--Mp", dest="moments", type=int, required=True)
    p.add_argument("--r", dest="ratio", required=True)
    p.add_argument("--half-window", required=True,
                   help="seconds, decimal ('0.5s') or rational ('1/2')")
    p.add_argument("--center", default=None,
                   help="seconds after stream start (default: stream midpoint)")
    p.add_argument("--print-granularity", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_tpr)

    p = sub.add_parser("reconstruct", help="integrate events onto a keyframe")
    p.add_argument("frame")
    p.add_argument("events")
    p.add_argument("--frame-time", type=int, required=True)
    p.add_argument("--at", type=int, required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("pipeline", help="run the forward decoding pipeline")
    p.add_argument("frames_dir")
    p.add_argument("events")
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--times", required=True,
                   help="comma-separated normalized timestamps in [0,1]")
    p.add_argument("--seed", type=_int_at_least(0, "a non-negative integer"), default=0)
    p.add_argument("--timestamps", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("metrics", help="PSNR/SSIM per frame as CSV")
    p.add_argument("pred_dir")
    p.add_argument("gt_dir")
    p.add_argument("--y-only", action="store_true")
    p.add_argument("--border-crop", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print("format error: %s" % exc, file=sys.stderr)
        return EXIT_FORMAT
    except (InvalidInputError, NumericError) as exc:
        print("contract violation: %s" % exc, file=sys.stderr)
        return EXIT_CONTRACT
    except MemoryError as exc:
        # numpy's says how much it asked for; a bare MemoryError says nothing
        print("contract violation: the input needs more memory than is available%s"
              % (" (%s)" % exc if str(exc) else ""), file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
