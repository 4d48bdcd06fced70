"""End-to-end streaming pipeline: poses in, focus maps out.

The stream is windowed, stitched into one global trajectory, converted
to focus points, and rendered frame by frame. State is bounded by the
window size, the trailing point window and the map resolution, never
by stream length; outputs are written per frame through atomic
temp-file renames, so an interrupted run leaves only complete files.

Rendering and encoding (and only those) can fan out over a small thread
pool, sized by the EGO_FOCUS_THREADS environment variable (0 = auto).
Each frame's map is computed by exactly one worker with a fixed internal
order, so results are byte-identical for any thread count. Workers hand
back encoded bytes; the calling thread writes every file, in frame
order, so an interrupted run leaves a contiguous prefix of frames and
no directory has two threads creating files in it at once.
"""

from __future__ import annotations

import contextlib
import os
import resource
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, StreamFormatError
from .geometry import DEFAULT_EPS_Z, CameraPose, Intrinsics, PoseBatch
from .motion import (
    DEFAULT_DEPTH_ALPHA,
    DEFAULT_FOCUS_N,
    FocusConfig,
    MotionStream,
    _render_arrays,
    modulate_depth,
)
from .stitching import (
    DEFAULT_OVERLAP,
    DEFAULT_WINDOW_SIZE,
    StitchState,
    WindowPlan,
    stitch_step,
)
from . import streams

THREADS_ENV_VAR = "EGO_FOCUS_THREADS"
_MAX_AUTO_THREADS = 8


def resolve_threads(value: Optional[int]) -> int:
    """Worker count: explicit value, else EGO_FOCUS_THREADS, else 1."""
    if value is None:
        raw = os.environ.get(THREADS_ENV_VAR, "")
        if raw == "":
            value = 1
        else:
            try:
                value = int(raw)
            except ValueError:
                raise ConfigError(THREADS_ENV_VAR, f"must be an integer, got {raw!r}")
    if value < 0:
        raise ConfigError("threads", f"must be >= 0, got {value}")
    if value == 0:
        return min(_MAX_AUTO_THREADS, os.cpu_count() or 1)
    return value


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Pipeline configuration; defaults match the module constants."""

    window_size: int = DEFAULT_WINDOW_SIZE
    overlap: int = DEFAULT_OVERLAP
    focus_n: int = DEFAULT_FOCUS_N
    sigma_px: Optional[float] = None
    eps_z: float = DEFAULT_EPS_Z
    normalize: str = "peak"
    project_negative: str = "skip"
    smooth_positions: bool = False
    anchor_mode: str = "last"
    scale_correction: bool = False
    map_scale: int = 1
    emit_float_maps: bool = False
    depth_alpha: float = DEFAULT_DEPTH_ALPHA
    threads: Optional[int] = None

    def __post_init__(self):
        if self.map_scale < 1:
            raise ConfigError("map_scale", f"must be >= 1, got {self.map_scale}")
        if self.anchor_mode not in ("first", "last"):
            raise ConfigError("anchor_mode", f"must be 'first' or 'last', got {self.anchor_mode!r}")
        # Window constraints are validated by WindowPlan, focus knobs by
        # FocusConfig; build both eagerly so bad values fail here.
        self.plan()
        self.focus_config()

    def plan(self, total_frames: Optional[int] = None) -> WindowPlan:
        return WindowPlan(self.window_size, self.overlap, total_frames)

    def focus_config(self) -> FocusConfig:
        return FocusConfig(
            n_points=self.focus_n,
            sigma_px=self.sigma_px,
            eps_z=self.eps_z,
            normalize=self.normalize,
            project_negative=self.project_negative,
            smooth_positions=self.smooth_positions,
        )


@dataclass(slots=True)
class RunSummary:
    """Counters and rates reported after a run."""

    frames_in: int = 0
    windows: int = 0
    frames_emitted: int = 0
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
        return [f"{key}={getattr(self, key)}" for key in (
            "frames_in", "windows", "frames_emitted", "samples", "points_projected",
            "points_skipped", "maps_written", "zero_maps", "boundaries",
            "max_center_residual", "max_rotation_residual_rad", "wall_seconds",
            "poses_per_second", "maps_per_second", "peak_rss_bytes",
        )]


def iter_windows(poses: Iterable[Union[CameraPose, PoseBatch]],
                 window_size: int = DEFAULT_WINDOW_SIZE,
                 overlap: int = DEFAULT_OVERLAP) -> Iterator[PoseBatch]:
    """Chunk a flat pose stream into the planned overlapping windows.

    The stream may hand over single poses, PoseBatch runs of
    consecutive frames, or a mix; the windows are the same either way.
    Matches WindowPlan enumeration: full windows share `overlap`
    frames; a final partial window is emitted only if it carries new
    frames beyond the shared ones. A frame that does not follow the
    previous one raises PlanError.
    """
    stride = WindowPlan(window_size, overlap).stride  # validates the pair
    pieces: list[PoseBatch] = []   # the current buffer, in frame order
    singles: list[CameraPose] = []  # single poses not yet stacked
    held = 0                        # frames in pieces + singles
    yielded = False
    for item in poses:
        if isinstance(item, PoseBatch):
            if singles:
                pieces.append(PoseBatch.from_poses(singles))
                singles = []
            pieces.append(item)
            held += len(item)
        else:
            singles.append(item)
            held += 1
        if held < window_size:
            continue
        if singles:
            pieces.append(PoseBatch.from_poses(singles))
            singles = []
        buf = PoseBatch.concat(pieces)
        start = 0
        while held - start >= window_size:
            yield buf[start:start + window_size]
            yielded = True
            start += stride
        pieces, held = [buf[start:]], held - start
    if singles:
        pieces.append(PoseBatch.from_poses(singles))
    carried = overlap if yielded else 0
    if held > carried or (held and not yielded):
        yield PoseBatch.concat(pieces)


class _FrameWriter:
    """Renders one frame's window of points and encodes its files.

    A call returns the map's contributing-point count and the frame's
    outputs as (path, bytes) pairs, for the caller to write.
    """

    def __init__(self, out_dir: str, map_k: Intrinsics, sigma: float, cfg: FocusConfig,
                 emit_float: bool, depth_dir: Optional[str], depth_alpha: float):
        self.out_dir = out_dir
        self.map_k = map_k
        self.sigma = sigma
        self.cfg = cfg
        self.emit_float = emit_float
        self.depth_dir = depth_dir
        self.depth_alpha = depth_alpha
        self._buffers = threading.local()
        # Every map of a run has one size, so every map without a
        # contributing kernel has these bytes.
        self.zero_pgm = streams.pgm_bytes(np.zeros((map_k.height, map_k.width)))

    def __call__(self, frame: int, us: np.ndarray, vs: np.ndarray,
                 mags: np.ndarray) -> tuple[int, list[tuple[str, bytes]]]:
        # Each thread renders and encodes in its own two map-sized arrays,
        # reused frame after frame instead of allocated afresh per map.
        buffers = getattr(self._buffers, "maps", None)
        if buffers is None:
            shape = (self.map_k.height, self.map_k.width)
            buffers = self._buffers.maps = (np.empty(shape), np.empty(shape))
        acc, scratch = buffers
        fmap = _render_arrays(us, vs, mags, self.map_k.width, self.map_k.height,
                              self.sigma, self.cfg, out=acc, scratch=scratch)
        pgm = self.zero_pgm if fmap.contributing_points == 0 \
            else streams.pgm_bytes(fmap.values, scratch)
        outputs = [(os.path.join(self.out_dir, streams.focus_map_name(frame)), pgm)]
        if self.emit_float:
            outputs.append((os.path.join(self.out_dir, streams.focus_map_name(frame, "mfm")),
                            streams.raw_map_bytes(fmap.values, streams.FOCUS_MAP_MAGIC)))
        if self.depth_dir is not None:
            depth_path = os.path.join(self.depth_dir, streams.depth_input_name(frame))
            depth = streams.read_depth_map(depth_path)
            if depth.shape != fmap.values.shape:
                raise StreamFormatError(
                    f"{depth_path}: depth map is {depth.shape[1]}x{depth.shape[0]}, "
                    f"the focus map {fmap.width}x{fmap.height}"
                )
            out = modulate_depth(depth.astype(np.float64), fmap, self.depth_alpha)
            outputs.append((os.path.join(self.out_dir, streams.depth_output_name(frame)),
                            streams.raw_map_bytes(out.astype(np.float32),
                                                  streams.DEPTH_MAP_MAGIC)))
        return fmap.contributing_points, outputs


def run_stream(poses: Iterable[Union[CameraPose, PoseBatch]], intrinsics: Intrinsics,
               cfg: RunConfig, out_dir: str, residuals_path: Optional[str] = None,
               depth_dir: Optional[str] = None) -> RunSummary:
    """Run the full pipeline on a flat, contiguous pose stream.

    The stream may hand over single poses or PoseBatch runs (see
    iter_windows).
    """
    return run_stream_batches(iter_windows(poses, cfg.window_size, cfg.overlap), intrinsics,
                              cfg, out_dir, residuals_path=residuals_path, depth_dir=depth_dir)


def run_stream_batches(batches: Iterable[Sequence[CameraPose]], intrinsics: Intrinsics,
                       cfg: RunConfig, out_dir: str,
                       residuals_path: Optional[str] = None,
                       depth_dir: Optional[str] = None) -> RunSummary:
    """Run the pipeline on pre-built windows (one per upstream inference).

    Windows must follow the plan implied by cfg (stride and overlap);
    this is the entry point when each window arrives in its own local
    frame, e.g. from independent per-batch estimators.
    """
    t_start = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    fcfg = cfg.focus_config()
    plan = cfg.plan()
    map_k = intrinsics.scaled(cfg.map_scale)
    sigma = fcfg.resolved_sigma(intrinsics.width) / cfg.map_scale
    writer = _FrameWriter(out_dir, map_k, sigma, fcfg, cfg.emit_float_maps,
                          depth_dir, cfg.depth_alpha)
    n_threads = resolve_threads(cfg.threads)

    state = StitchState()
    motion = MotionStream(intrinsics, fcfg)
    window: deque[tuple[float, float, float, bool]] = deque(maxlen=cfg.focus_n)
    summary = RunSummary()
    pending: deque[Future] = deque()
    max_inflight = 2 * n_threads

    def _finish(rendered: tuple[int, list[tuple[str, bytes]]]) -> None:
        contributing, outputs = rendered
        for path, data in outputs:
            streams.atomic_write_bytes(path, data)
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
        for batch in batches:
            state, emitted = stitch_step(state, batch, plan,
                                         anchor_mode=cfg.anchor_mode,
                                         scale_correction=cfg.scale_correction)
            summary.windows += 1
            summary.frames_emitted += len(emitted)
            for event in state.boundary_log:
                summary.boundaries += 1
                if event.residual.center_dist.size:
                    summary.max_center_residual = max(
                        summary.max_center_residual, float(event.residual.center_dist.max())
                    )
                    summary.max_rotation_residual_rad = max(
                        summary.max_rotation_residual_rad,
                        float(event.residual.rot_angle_rad.max()),
                    )
                if residual_writer is not None:
                    residual_writer.write_residual(event.residual)
            state.boundary_log.clear()

            block = motion.push(emitted)
            summary.samples += len(block)
            n_ok = int(np.count_nonzero(block.projectable))
            summary.points_projected += n_ok
            summary.points_skipped += len(block) - n_ok
            points_writer.write_block(block)

            scale = float(cfg.map_scale)
            for i in range(len(block)):
                ok = bool(block.projectable[i])
                window.append((
                    block.uv[i, 0] / scale if ok else 0.0,
                    block.uv[i, 1] / scale if ok else 0.0,
                    float(block.magnitude[i]),
                    ok,
                ))
                snap = [w for w in window if w[3]]
                us = np.array([w[0] for w in snap])
                vs = np.array([w[1] for w in snap])
                mags = np.array([w[2] for w in snap])
                frame = int(block.frames[i])
                if executor is None:
                    _finish(writer(frame, us, vs, mags))
                else:
                    pending.append(executor.submit(writer, frame, us, vs, mags))
                    while len(pending) >= max_inflight:
                        _finish(pending.popleft().result())
        while pending:
            _finish(pending.popleft().result())

    # A completed run emits every frame it was given exactly once.
    summary.frames_in = summary.frames_emitted
    summary.wall_seconds = time.perf_counter() - t_start
    if summary.wall_seconds > 0:
        summary.poses_per_second = summary.frames_emitted / summary.wall_seconds
        summary.maps_per_second = summary.maps_written / summary.wall_seconds
    summary.peak_rss_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return summary
