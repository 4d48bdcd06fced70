"""Throughput and memory probes for the math and render stages.

Two stages are measured separately: "pose_math" drives windowing,
stitching and focus-point extraction (no rendering, no files) and
reports poses per second; "render" draws full focus maps at a given
resolution and reports maps per second. Peak memory is the peak of
Python-level allocations (tracemalloc) during a dedicated, untimed
pass, so timing numbers are never taken under instrumentation.

The math stage is the run's own math loop: the stitch_step ->
MotionStream.push generator that run_stream_batches drives, fed from
the arc simulator as PoseBatch chunks through iter_windows. For the
smallest stream size the poses are pre-built so the figure is pure
pipeline math; for larger sizes the stream is generated on the fly in
bounded memory, which makes the reported rate a lower bound on the math
rate but lets the memory probe demonstrate length-independent footprint.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from collections import deque
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError
from .geometry import Intrinsics, PoseBatch
from .motion import FocusConfig, FocusPoint, render_focus_map
from .pipeline import RunConfig, _stitched_blocks, iter_windows
from .simulate import ScenarioSpec, generate_trajectory, iter_trajectory
from .stitching import StitchState

_PREBUILD_LIMIT = 200_000

DEFAULT_STREAM_SIZES = (100_000, 1_000_000)
DEFAULT_RESOLUTIONS = ((1920, 1080), (640, 480))

_BENCH_INTRINSICS = Intrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


def _bench_spec(frames: int) -> ScenarioSpec:
    return ScenarioSpec(kind="circular_arc", frames=frames, radius=50.0, omega=0.01, seed=3)


def _consume_math(poses: Iterable[PoseBatch], cfg: RunConfig) -> int:
    """The run's stitch + focus math over a pose stream; returns frames processed."""
    state = StitchState()
    windows = iter_windows(poses, cfg.window_size, cfg.overlap)
    deque(_stitched_blocks(windows, _BENCH_INTRINSICS, cfg, state), maxlen=0)
    return state.emitted_count


def _math_row(size: int, cfg: RunConfig) -> dict:
    spec = _bench_spec(size)

    # Timed pass, no instrumentation.
    chunk_size = cfg.window_size * 8
    if size <= _PREBUILD_LIMIT:
        poses, _ = generate_trajectory(spec)
        t0 = time.perf_counter()
        frames = _consume_math([poses], cfg)
        dt = time.perf_counter() - t0
        del poses
    else:
        t0 = time.perf_counter()
        frames = _consume_math((poses for poses, _ in iter_trajectory(spec, chunk_size)), cfg)
        dt = time.perf_counter() - t0

    # Memory pass, generator-fed so footprint cannot scale with length.
    gc.collect()
    tracemalloc.start()
    _consume_math((poses for poses, _ in iter_trajectory(spec, chunk_size)), cfg)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    return {
        "stage": "pose_math",
        "resolution": f"n={size}",
        "throughput": frames / dt if dt > 0 else float("inf"),
        "peak_mem_bytes": peak,
    }


def _render_points(k: Intrinsics, n_points: int, shift: float = 0.0) -> list[FocusPoint]:
    golden = 2.399963229728653
    radius = 0.25 * min(k.width, k.height)
    points = []
    for i in range(n_points):
        r = radius * (i + 1) / n_points
        points.append(
            FocusPoint(
                frame_index=i,
                u=k.cx + shift + r * np.cos(golden * i),
                v=k.cy + r * np.sin(golden * i),
                magnitude=0.5 + 1.5 * i / max(1, n_points - 1),
                projectable=True,
            )
        )
    return points


def _render_row(k: Intrinsics, n_maps: int, n_points: int) -> dict:
    cfg = FocusConfig()
    t0 = time.perf_counter()
    for i in range(n_maps):
        render_focus_map(_render_points(k, n_points, shift=0.37 * i), k, cfg)
    dt = time.perf_counter() - t0

    gc.collect()
    tracemalloc.start()
    render_focus_map(_render_points(k, n_points), k, cfg)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    return {
        "stage": "render",
        "resolution": f"{k.width}x{k.height}",
        "throughput": n_maps / dt if dt > 0 else float("inf"),
        "peak_mem_bytes": peak,
    }


def bench(stream_sizes: Sequence[int] = DEFAULT_STREAM_SIZES,
          resolutions: Sequence[tuple[int, int]] = DEFAULT_RESOLUTIONS,
          maps_per_resolution: int = 40,
          points_per_map: int = 15) -> list[dict]:
    """Run all probes, pose math at the default RunConfig; returns rows for the bench CSV.

    A resolution the render probe's kernels miss raises ConfigError before any probe runs."""
    sizes = [Intrinsics(fx=0.6 * w, fy=0.6 * w, cx=w / 2.0, cy=h / 2.0, width=w, height=h)
             for w, h in resolutions]
    for k in sizes:  # also the render probe's warm-up
        fmap = render_focus_map(_render_points(k, points_per_map), k, FocusConfig())
        if fmap.contributing_points < points_per_map:
            raise ConfigError("resolutions", f"{k.width}x{k.height}: the {points_per_map} probe "
                                             "kernels do not all reach a pixel centre")
    rows = [_math_row(size, RunConfig()) for size in stream_sizes]
    rows += [_render_row(k, maps_per_resolution, points_per_map) for k in sizes]
    return rows
