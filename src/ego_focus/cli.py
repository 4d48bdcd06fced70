"""Command-line entry point: ego-focus run | sim | bench."""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from typing import Optional, Sequence

import numpy as np

from .benchmark import DEFAULT_RESOLUTIONS, DEFAULT_STREAM_SIZES, bench
from .errors import EgoFocusError
from .geometry import PoseBatch
from .motion import DEFAULT_FOCUS_N
from .pipeline import RunConfig, run_stream
from .simulate import SCENARIOS, ScenarioSpec, iter_trajectory
from . import streams


def _add_run_parser(sub: argparse._SubParsersAction) -> None:
    # Omitted settings stay out of the namespace, so RunConfig's defaults apply.
    p = sub.add_parser("run", help="process a pose stream into focus maps",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--poses", required=True, help="JSONL pose stream, or '-' for stdin")
    p.add_argument("--intrinsics", required=True, help="pinhole intrinsics JSON")
    p.add_argument("--out-dir", required=True, help="directory for per-frame outputs")
    p.add_argument("--window-size", type=int)
    p.add_argument("--overlap", type=int)
    p.add_argument("--focus-n", type=int, help="trailing frames aggregated per map")
    p.add_argument("--sigma-px", type=float, help="kernel sigma in pixels (default: 0.04 * width)")
    p.add_argument("--smooth-positions", action="store_true",
                   help="moving-average centers (width 3) before differencing")
    p.add_argument("--anchor-mode", choices=["first", "last"])
    p.add_argument("--scale-correction", action="store_true",
                   help="estimate a per-boundary scale from overlap segments")
    p.add_argument("--residuals", default=None, metavar="PATH",
                   help="write boundary residual CSV here")
    p.add_argument("--map-scale", type=int, metavar="K",
                   help="integer downscale divisor for rendered maps")
    p.add_argument("--depth-dir", default=None, metavar="PATH",
                   help="directory of depth_<frame>.mfd inputs to modulate")
    p.add_argument("--emit-float-maps", action="store_true",
                   help="also write raw float32 .mfm maps")
    p.add_argument("--threads", type=int,
                   help="render workers (default: EGO_FOCUS_THREADS, 0 = auto)")


def _add_sim_parser(sub: argparse._SubParsersAction) -> None:
    # Omitted flags stay out of the namespace, so ScenarioSpec's defaults apply.
    p = sub.add_parser("sim", help="generate a synthetic pose stream with ground truth",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--scenario", dest="kind", metavar="SCENARIO", required=True,
                   help=f"one of {', '.join(SCENARIOS)} (aliases: arc, head-yaw)")
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output JSONL path, or '-' for stdout")
    p.add_argument("--speed", type=float,
                   help="path speed per frame for constant_velocity, brake and climb; "
                        "arc and head-yaw move at radius * omega and ignore it")
    p.add_argument("--radius", type=float)
    p.add_argument("--omega", type=float)
    p.add_argument("--decel", type=float)
    p.add_argument("--climb-rate", type=float)
    p.add_argument("--head-yaw-amplitude", type=float)
    p.add_argument("--head-yaw-frequency", type=float)
    p.add_argument("--bob-amplitude", type=float)
    p.add_argument("--jitter-amplitude", dest="jitter_amplitude_rad", type=float,
                   metavar="JITTER_AMPLITUDE")
    p.add_argument("--noise-kind", choices=["bob", "white"])


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _sizes(text: str) -> list[int]:
    return [_positive_int(s) for s in text.split(",") if s]


def _resolutions(text: str) -> list[tuple[int, int]]:
    dims = [token.lower().split("x") for token in text.split(",") if token]
    if any(len(wh) != 2 for wh in dims):
        raise argparse.ArgumentTypeError(f"expected comma-separated WxH, got {text!r}")
    return [(_positive_int(w), _positive_int(h)) for w, h in dims]


def _add_bench_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("bench", help="measure math/render throughput and memory")
    p.add_argument("--out", default=None, metavar="PATH", help="write report CSV here")
    p.add_argument("--stream-sizes", type=_sizes, default=DEFAULT_STREAM_SIZES,
                   help="comma-separated pose-stream lengths for the math stage")
    p.add_argument("--resolutions", type=_resolutions, default=DEFAULT_RESOLUTIONS,
                   help="comma-separated WxH render resolutions")
    p.add_argument("--maps", type=_positive_int, default=40, help="maps rendered per resolution")
    p.add_argument("--points", type=_positive_int, default=DEFAULT_FOCUS_N,
                   help="points per map")


def _config(cls, args: argparse.Namespace):
    """``cls`` built from the parsed options named like its fields."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{key: value for key, value in vars(args).items() if key in names})


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _config(RunConfig, args)
    intrinsics = streams.load_intrinsics(args.intrinsics)
    summary = run_stream(streams.load_pose_batches(args.poses), intrinsics, cfg, args.out_dir,
                         residuals_path=args.residuals, depth_dir=args.depth_dir)
    print("\n".join(summary.lines()))
    return 0


def _cmd_sim(args: argparse.Namespace) -> int:
    spec = _config(ScenarioSpec, args)

    def _records():
        # The simulator wraps its rows unchecked; validate each chunk before
        # it is written, so a parameter that overflows them (a huge speed)
        # fails cleanly, with the error alone and no overflow warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            for poses, truth in iter_trajectory(spec):
                poses = PoseBatch(poses.first_frame, poses.rotations, poses.translations)
                yield from streams.records_from_poses(poses, truth)

    count = streams.write_pose_stream(args.out, _records())
    if args.out != "-":
        print(f"wrote {count} frames to {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    with streams._text_file(args.out or sys.stdout, "w") as out:  # fails before any probe
        rows = bench(stream_sizes=args.stream_sizes, resolutions=args.resolutions,
                     maps_per_resolution=args.maps, points_per_map=args.points)
        streams.write_bench_csv(rows, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ego-focus",
        description="Motion-focus maps from streamed world-to-camera poses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(sub)
    _add_sim_parser(sub)
    _add_bench_parser(sub)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "sim": _cmd_sim, "bench": _cmd_bench}
    try:
        return handlers[args.command](args)
    except (EgoFocusError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
