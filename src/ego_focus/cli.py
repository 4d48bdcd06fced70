"""Command-line entry point: ego-focus run | sim | bench."""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Optional, Sequence

from .benchmark import DEFAULT_RESOLUTIONS, DEFAULT_STREAM_SIZES, bench
from .errors import EgoFocusError
from .geometry import DEFAULT_EPS_Z, PoseBatch
from .motion import DEFAULT_FOCUS_N
from .pipeline import RunConfig, run_stream
from .simulate import SCENARIOS, ScenarioSpec, iter_trajectory
from .stitching import DEFAULT_OVERLAP, DEFAULT_WINDOW_SIZE
from . import streams


def _add_run_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("run", help="process a pose stream into focus maps")
    p.add_argument("--poses", required=True, help="JSONL pose stream, or '-' for stdin")
    p.add_argument("--intrinsics", required=True, help="pinhole intrinsics JSON")
    p.add_argument("--out-dir", required=True, help="directory for per-frame outputs")
    p.add_argument("--window-size", type=int, default=DEFAULT_WINDOW_SIZE)
    p.add_argument("--overlap", type=int, default=DEFAULT_OVERLAP)
    p.add_argument("--focus-n", type=int, default=DEFAULT_FOCUS_N,
                   help="trailing frames aggregated per map")
    p.add_argument("--sigma-px", type=float, default=None,
                   help="kernel sigma in pixels (default: 0.04 * width)")
    p.add_argument("--eps-z", type=float, default=DEFAULT_EPS_Z)
    p.add_argument("--normalize", choices=["peak", "sum"], default="peak")
    p.add_argument("--project-negative", choices=["skip", "mirror"], default="skip")
    p.add_argument("--smooth-positions", action="store_true",
                   help="moving-average centers (width 3) before differencing")
    p.add_argument("--anchor-mode", choices=["first", "last"], default="last")
    p.add_argument("--scale-correction", action="store_true",
                   help="estimate a per-boundary scale from overlap segments")
    p.add_argument("--residuals", default=None, metavar="PATH",
                   help="write boundary residual CSV here")
    p.add_argument("--map-scale", type=int, default=1, metavar="K",
                   help="integer downscale divisor for rendered maps")
    p.add_argument("--depth-dir", default=None, metavar="PATH",
                   help="directory of depth_<frame>.mfd inputs to modulate")
    p.add_argument("--emit-float-maps", action="store_true",
                   help="also write raw float32 .mfm maps")
    p.add_argument("--threads", type=int, default=None,
                   help="render workers (default: EGO_FOCUS_THREADS, 0 = auto)")


def _add_sim_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("sim", help="generate a synthetic pose stream with ground truth")
    p.add_argument("--scenario", required=True,
                   help=f"one of {', '.join(SCENARIOS)} (aliases: arc, head-yaw)")
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output JSONL path, or '-' for stdout")
    p.add_argument("--speed", type=float, default=0.1)
    p.add_argument("--radius", type=float, default=2.0)
    p.add_argument("--omega", type=float, default=0.05)
    p.add_argument("--decel", type=float, default=0.01)
    p.add_argument("--climb-rate", type=float, default=0.05)
    p.add_argument("--head-yaw-amplitude", type=float, default=0.3)
    p.add_argument("--head-yaw-frequency", type=float, default=0.02)
    p.add_argument("--bob-amplitude", type=float, default=0.0)
    p.add_argument("--jitter-amplitude", type=float, default=0.0)
    p.add_argument("--noise-kind", choices=["bob", "white"], default="bob")


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


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = RunConfig(
        window_size=args.window_size,
        overlap=args.overlap,
        focus_n=args.focus_n,
        sigma_px=args.sigma_px,
        eps_z=args.eps_z,
        normalize=args.normalize,
        project_negative=args.project_negative,
        smooth_positions=args.smooth_positions,
        anchor_mode=args.anchor_mode,
        scale_correction=args.scale_correction,
        map_scale=args.map_scale,
        emit_float_maps=args.emit_float_maps,
        threads=args.threads,
    )
    intrinsics = streams.load_intrinsics(args.intrinsics)
    summary = run_stream(streams.load_pose_batches(args.poses), intrinsics, cfg, args.out_dir,
                         residuals_path=args.residuals, depth_dir=args.depth_dir)
    print("\n".join(summary.lines()))
    return 0


def _cmd_sim(args: argparse.Namespace) -> int:
    spec = ScenarioSpec(
        kind=args.scenario,
        frames=args.frames,
        seed=args.seed,
        speed=args.speed,
        radius=args.radius,
        omega=args.omega,
        decel=args.decel,
        climb_rate=args.climb_rate,
        head_yaw_amplitude=args.head_yaw_amplitude,
        head_yaw_frequency=args.head_yaw_frequency,
        bob_amplitude=args.bob_amplitude,
        jitter_amplitude_rad=args.jitter_amplitude,
        noise_kind=args.noise_kind,
    )

    def _records():
        for poses, truth in iter_trajectory(spec):
            # The simulator wraps its rows unchecked; validate each chunk
            # before it is written, so a parameter that overflows them (a
            # huge speed) fails cleanly.
            poses = PoseBatch(poses.first_frame, poses.rotations, poses.translations)
            yield from streams.records_from_poses(poses, truth)

    count = streams.write_pose_stream(args.out, _records())
    if args.out != "-":
        print(f"wrote {count} frames to {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    rows = bench(stream_sizes=args.stream_sizes, resolutions=args.resolutions,
                 maps_per_resolution=args.maps, points_per_map=args.points)
    streams.write_bench_csv(rows, args.out if args.out else sys.stdout)
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


if __name__ == "__main__":
    sys.exit(main())
