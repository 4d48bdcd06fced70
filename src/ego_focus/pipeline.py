"""End-to-end streaming pipeline: poses in, focus maps out.

The stream is windowed, stitched into one global trajectory, converted
to focus points, and rendered frame by frame. State is bounded by the
window size, the trailing point window and the map resolution, never
by stream length; outputs are written per frame through atomic
temp-file renames, so an interrupted run leaves only complete files.
An output with the same bytes as the previous frame's output of the same
kind is a hard link to the file last written with those bytes, so editing
one in place edits them all; a link is complete when it appears, so it
goes straight onto a name no file has yet. A frame whose window did not
change (its new sample is not projectable and neither is the one it
evicts) is not rendered again: it takes the previous frame's payloads.
With a depth directory every frame renders, as its depth output reads
its own depth map.

Rendering and encoding (and only those) can fan out over a small thread
pool, sized by the EGO_FOCUS_THREADS environment variable (0 = auto, at
most 8). Each frame's map is computed by exactly one worker with a fixed
internal order, so results are byte-identical for any thread count.
A worker keeps its map buffer all zero between maps: it adds the kernels,
finds the peak, divides, encodes the PGM and clears again only over the
footprint, the union of the map's kernel windows.
Workers hand back encoded bytes; the calling thread creates or links
every file, in frame order, so an interrupted run leaves a contiguous
prefix of frames and no directory has two threads creating files in it.
"""

from __future__ import annotations

import contextlib
import os
import resource
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import ConfigError, StreamFormatError
from .geometry import Intrinsics, PoseBatch, require_bool, require_integer
from .motion import (
    DEFAULT_FOCUS_N,
    SIGMA_WIDTH_FRACTION,
    MotionBlock,
    MotionStream,
    _render_arrays,
    modulate_depth,
)
from .stitching import (
    DEFAULT_OVERLAP,
    DEFAULT_WINDOW_SIZE,
    BoundaryEvent,
    StitchState,
    WindowPlan,
    stitch_step,
)
from . import streams

THREADS_ENV_VAR = "EGO_FOCUS_THREADS"
_MAX_AUTO_THREADS = 8


def resolve_threads(value: Optional[int]) -> int:
    """Worker count: explicit value, else EGO_FOCUS_THREADS, else 1.

    At most _MAX_AUTO_THREADS: each worker holds two map-sized buffers
    and up to two frames in flight.
    """
    key = "threads"
    if value is None:
        key = THREADS_ENV_VAR
        raw = os.environ.get(THREADS_ENV_VAR, "")
        if raw == "":
            value = 1
        else:
            try:
                value = int(raw)
            except ValueError:
                raise ConfigError(THREADS_ENV_VAR, f"must be an integer, got {raw!r}")
    if not 0 <= value <= _MAX_AUTO_THREADS:
        raise ConfigError(key, f"must be between 0 and {_MAX_AUTO_THREADS}, got {value}")
    if value == 0:
        return min(_MAX_AUTO_THREADS, os.cpu_count() or 1)
    return value


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Pipeline configuration; defaults match the module constants."""

    window_size: int = DEFAULT_WINDOW_SIZE
    overlap: int = DEFAULT_OVERLAP
    focus_n: int = DEFAULT_FOCUS_N
    smooth_positions: bool = False
    anchor_mode: str = "last"
    scale_correction: bool = False
    map_scale: int = 1
    emit_float_maps: bool = False
    threads: Optional[int] = None

    def __post_init__(self):
        require_integer("focus_n", self.focus_n)
        if self.focus_n < 1:
            raise ConfigError("focus_n", f"must be >= 1, got {self.focus_n}")
        require_integer("map_scale", self.map_scale)
        if self.map_scale < 1:
            raise ConfigError("map_scale", f"must be >= 1, got {self.map_scale}")
        if self.anchor_mode not in ("first", "last"):
            raise ConfigError("anchor_mode", f"must be 'first' or 'last', got {self.anchor_mode!r}")
        require_bool("scale_correction", self.scale_correction)
        require_bool("emit_float_maps", self.emit_float_maps)
        # Window constraints are validated by WindowPlan, a thread count by
        # resolve_threads; run both eagerly so bad values fail here.
        self.plan()
        require_bool("smooth_positions", self.smooth_positions)
        if self.threads is not None:
            require_integer("threads", self.threads)
            resolve_threads(self.threads)

    def plan(self) -> WindowPlan:
        return WindowPlan(self.window_size, self.overlap)


@dataclass(slots=True)
class RunSummary:
    """Counters and rates reported after a run."""

    frames_in: int = 0
    windows: int = 0
    samples: int = 0
    points_projected: int = 0
    points_skipped: int = 0
    maps_written: int = 0
    zero_maps: int = 0
    boundaries: int = 0
    max_center_residual: float = 0.0
    max_rotation_residual_rad: float = 0.0
    wall_seconds: float = 0.0
    poses_per_second: float = 0.0
    maps_per_second: float = 0.0
    peak_rss_bytes: int = 0

    def lines(self) -> list[str]:
        """One key=value line per field, in declaration order."""
        return [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]


def iter_windows(poses: Iterable[PoseBatch],
                 window_size: int = DEFAULT_WINDOW_SIZE,
                 overlap: int = DEFAULT_OVERLAP) -> Iterator[PoseBatch]:
    """Chunk a flat pose stream into the planned overlapping windows.

    The stream hands over PoseBatch runs of consecutive frames, of any
    length (a CameraPose is a batch of one); the windows are the same
    however it is chunked. Matches WindowPlan enumeration: full windows
    share `overlap` frames; a final partial window is emitted only if it
    carries new frames beyond the shared ones. A frame that does not
    follow the previous one raises PlanError.
    """
    stride = WindowPlan(window_size, overlap).stride  # validates the pair
    pieces: list[PoseBatch] = []   # the current buffer, in frame order
    held = 0                        # frames in pieces
    yielded = False
    for item in poses:
        pieces.append(item)
        held += len(item)
        if held < window_size:
            continue
        buf = PoseBatch.concat(pieces)
        start = 0
        while held - start >= window_size:
            yield buf[start:start + window_size]
            yielded = True
            start += stride
        pieces, held = [buf[start:]], held - start
    if held > (overlap if yielded else 0):
        yield PoseBatch.concat(pieces)


class _FrameWriter:
    """Renders one frame's window of points and encodes its outputs.

    A call returns the map's contributing-point count and the frame's
    payloads, in the order of the file names paths(frame) gives.
    """

    def __init__(self, out_dir: str, map_k: Intrinsics, sigma: float,
                 emit_float: bool, depth_dir: Optional[str]):
        self.out_dir = out_dir
        self.map_k = map_k
        self.sigma = sigma
        self.emit_float = emit_float
        self.depth_dir = depth_dir
        self._buffers = threading.local()

    def paths(self, frame: int) -> list[str]:
        """The frame's output files: the PGM, then the .mfm, then the depth .mfd."""
        names = [streams.focus_map_name(frame)]
        if self.emit_float:
            names.append(streams.focus_map_name(frame, "mfm"))
        if self.depth_dir is not None:
            names.append(streams.depth_output_name(frame))
        return [os.path.join(self.out_dir, name) for name in names]

    def __call__(self, frame: int, us: np.ndarray, vs: np.ndarray,
                 mags: np.ndarray) -> tuple[int, list[bytes]]:
        # Each thread renders and encodes in its own two map-sized arrays,
        # reused frame after frame instead of allocated afresh per map; the
        # first is all zero between calls. A call that raises drops them.
        shape = (self.map_k.height, self.map_k.width)
        acc, scratch = getattr(self._buffers, "maps", None) or (np.zeros(shape), np.empty(shape))
        self._buffers.maps = None
        fmap = _render_arrays(us, vs, mags, self.map_k.width, self.map_k.height,
                              self.sigma, out=acc, scratch=scratch)
        payloads = [streams.pgm_bytes(fmap.values, scratch, fmap.footprint)]
        if self.emit_float:
            payloads.append(streams.raw_map_bytes(fmap.values, streams.FOCUS_MAP_MAGIC))
        if self.depth_dir is not None:
            depth_path = os.path.join(self.depth_dir, streams.depth_input_name(frame))
            depth = streams.read_depth_map(depth_path)
            if depth.shape != fmap.values.shape:
                raise StreamFormatError(
                    f"{depth_path}: depth map is {depth.shape[1]}x{depth.shape[0]}, "
                    f"the focus map {self.map_k.width}x{self.map_k.height}"
                )
            out = modulate_depth(depth, fmap)
            payloads.append(streams.raw_map_bytes(out, streams.DEPTH_MAP_MAGIC))
        acc[fmap.footprint] = 0.0
        self._buffers.maps = acc, scratch
        return fmap.contributing_points, payloads


def _stitched_blocks(batches: Iterable[PoseBatch], intrinsics: Intrinsics, cfg: RunConfig,
                     state: StitchState) -> Iterator[tuple[list[BoundaryEvent], MotionBlock]]:
    """The run's math loop: yields each window's boundary events and motion block.

    Every window goes through this module's stitch_step, then MotionStream.push."""
    plan = cfg.plan()
    motion = MotionStream(intrinsics, cfg.smooth_positions)
    for batch in batches:
        state, emitted = stitch_step(state, batch, plan, anchor_mode=cfg.anchor_mode,
                                     scale_correction=cfg.scale_correction)
        events, state.boundary_log = state.boundary_log, []
        yield events, motion.push(emitted)


def run_stream(poses: Iterable[PoseBatch], intrinsics: Intrinsics,
               cfg: RunConfig, out_dir: str, residuals_path: Optional[str] = None,
               depth_dir: Optional[str] = None) -> RunSummary:
    """Run the full pipeline on a flat, contiguous pose stream.

    The stream hands over PoseBatch runs of any length (see iter_windows).
    """
    return run_stream_batches(iter_windows(poses, cfg.window_size, cfg.overlap), intrinsics,
                              cfg, out_dir, residuals_path=residuals_path, depth_dir=depth_dir)


def run_stream_batches(batches: Iterable[PoseBatch], intrinsics: Intrinsics,
                       cfg: RunConfig, out_dir: str,
                       residuals_path: Optional[str] = None,
                       depth_dir: Optional[str] = None) -> RunSummary:
    """Run the pipeline on pre-built windows (one per upstream inference).

    Windows must follow the plan implied by cfg (stride and overlap);
    this is the entry point when each window arrives in its own local
    frame, e.g. from independent per-batch estimators.
    """
    t_start = time.perf_counter()
    n_threads = resolve_threads(cfg.threads)
    map_k = intrinsics.scaled(cfg.map_scale)
    if map_k.width * map_k.height * 8 >= 2**63:  # numpy's limit on an array's bytes
        raise ConfigError("map_scale", f"{map_k.width}x{map_k.height} float64 maps are too big "
                                       "for an array; use a larger value")
    os.makedirs(out_dir, exist_ok=True)
    sigma = SIGMA_WIDTH_FRACTION * intrinsics.width / cfg.map_scale
    writer = _FrameWriter(out_dir, map_k, sigma, cfg.emit_float_maps, depth_dir)

    state = StitchState()
    # The last focus_n samples, carried as MotionStream carries its rows:
    # u and v at map scale and magnitude, and whether each is projectable.
    tail_pts, tail_ok = np.empty((0, 3)), np.empty(0, dtype=bool)
    summary = RunSummary()
    # Each frame, in frame order: its frame number and its writer result or
    # the pool's Future for one (a repeat frame's is the previous frame's).
    pending: deque[tuple[int, object]] = deque()
    max_inflight = 2 * n_threads if n_threads > 1 else 1

    # Per output kind (pgm, mfm, depth mfd), the previous frame's payload and
    # the file last written with it. An output with the same bytes links to
    # that file; any other, or one that cannot be linked, is written and
    # becomes the source.
    sources: list[tuple[Optional[bytes], str]] = [(None, "")] * 3

    def _finish(frame: int, job) -> None:
        contributing, payloads = job.result() if isinstance(job, Future) else job
        for kind, (path, data) in enumerate(zip(writer.paths(frame), payloads)):
            held, source = sources[kind]
            with contextlib.suppress(OSError):  # EMLINK, EPERM, ENOTSUP: written instead
                if held == data:
                    streams.link_replacing(source, path)
                    continue
            streams.atomic_write_bytes(path, data)
            sources[kind] = (data, path)
        summary.maps_written += 1
        if contributing == 0:
            summary.zero_maps += 1

    # On an exception the CSV writers drop their partial files; the pool
    # is shut down first, so no worker is still running by then.
    with contextlib.ExitStack() as stack:
        points_writer = stack.enter_context(
            streams.FocusPointCsvWriter(os.path.join(out_dir, "focus_points.csv")))
        residual_writer = stack.enter_context(streams.ResidualCsvWriter(residuals_path)) \
            if residuals_path else None
        executor = stack.enter_context(ThreadPoolExecutor(max_workers=n_threads)) \
            if n_threads > 1 else None
        for events, block in _stitched_blocks(batches, intrinsics, cfg, state):
            for event in events:
                summary.boundaries += 1
                summary.max_center_residual = max(
                    summary.max_center_residual, float(event.residual.center_dist.max())
                )
                summary.max_rotation_residual_rad = max(
                    summary.max_rotation_residual_rad, float(event.residual.rot_angle_rad.max())
                )
                if residual_writer is not None:
                    residual_writer.write_residual(event.residual)

            summary.samples += len(block)
            summary.points_projected += int(np.count_nonzero(block.projectable))
            points_writer.write_block(block)

            rows = np.column_stack([block.uv / cfg.map_scale, block.magnitude])
            pts, ok = np.concatenate([tail_pts, rows]), np.concatenate([tail_ok, block.projectable])
            for e, frame in enumerate(block.frames.tolist(), len(tail_ok)):
                lo = max(0, e + 1 - cfg.focus_n)  # the frame's window is rows lo to e
                # A repeat frame: its sample is not projectable, and neither is
                # the one it evicts (row lo - 1), if any, so its map has the
                # previous frame's projectable points and bytes. A depth output
                # reads the frame's own depth map, so with one every frame renders.
                repeat = depth_dir is None and e > 0 and not (ok[e] or lo and ok[lo - 1])
                if not repeat:
                    snap = pts[lo:e + 1][ok[lo:e + 1]]
                    args = (frame, snap[:, 0], snap[:, 1], snap[:, 2])
                    job = writer(*args) if executor is None else executor.submit(writer, *args)
                pending.append((frame, job))
                while len(pending) >= max_inflight:
                    _finish(*pending.popleft())
            # The next frame evicts the first of these rows.
            tail_pts, tail_ok = pts[-cfg.focus_n:].copy(), ok[-cfg.focus_n:].copy()
        while pending:
            _finish(*pending.popleft())

    # A completed run emits every frame it was given exactly once.
    summary.windows = state.window_count
    summary.frames_in = state.emitted_count
    summary.points_skipped = summary.samples - summary.points_projected
    summary.wall_seconds = time.perf_counter() - t_start
    if summary.wall_seconds > 0:
        summary.poses_per_second = summary.frames_in / summary.wall_seconds
        summary.maps_per_second = summary.maps_written / summary.wall_seconds
    summary.peak_rss_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return summary
