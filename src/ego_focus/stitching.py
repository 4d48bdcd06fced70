"""Chaining of independently estimated pose batches into one stream.

Upstream estimators process overlapping windows of L frames (adjacent
windows share O frames) and each window arrives in its own arbitrary
local frame. The stitcher locks gravity (pitch and roll stay whatever
each window estimated) and carries only a yaw + translation correction
across each boundary, anchored at a single shared frame, so that the
anchor's camera center is kept up to rounding. The first window defines
the global frame; every later window emits only its new (non-overlap)
frames, which keeps emitted indices contiguous and gap-free.

Windows travel as PoseBatch: the corrections, residuals and scale
estimates are computed on whole arrays, never per frame. State kept
between calls is bounded: the trailing O emitted poses plus counters,
never the full history. Residuals over all O shared frames
are appended to ``StitchState.boundary_log``; long-running consumers
are expected to drain that list as they go.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import PlanError
from .geometry import (
    ORTHONORMAL_TOL,
    GravityYpr,
    PoseBatch,
    RigidTransform,
    _gravity_ypr,
    compose_world_map,
    orthonormalize,
    require_integer,
    rotation_about_gravity,
    rotation_angle,
    rotation_drift,
    window_median,
)

logger = logging.getLogger(__name__)

DEFAULT_WINDOW_SIZE = 60
DEFAULT_OVERLAP = 5

# Segment lengths below this are ignored by the scale estimator.
_SCALE_SEGMENT_FLOOR = 1e-12


@dataclass(frozen=True, slots=True)
class WindowPlan:
    """Window layout: size L, overlap O, optionally the stream length.

    Window k spans ``[k*(L-O), min(k*(L-O) + L, total))``; the last
    window may be short but never empty, and a window only exists if
    the previous one did not already reach ``total``.
    """

    window_size: int = DEFAULT_WINDOW_SIZE
    overlap: int = DEFAULT_OVERLAP
    total_frames: Optional[int] = None

    def __post_init__(self):
        require_integer("window_size", self.window_size)
        require_integer("overlap", self.overlap)
        if self.window_size < 1:
            raise PlanError(f"window_size must be >= 1, got {self.window_size}")
        if not 0 <= self.overlap < self.window_size:
            raise PlanError(
                f"overlap must satisfy 0 <= O < L, got O={self.overlap} L={self.window_size}"
            )
        if self.total_frames is not None:
            require_integer("total_frames", self.total_frames)
            if self.total_frames < 1:
                raise PlanError(f"total_frames must be >= 1, got {self.total_frames}")

    @property
    def stride(self) -> int:
        return self.window_size - self.overlap

    def windows(self) -> list[tuple[int, int]]:
        """Half-open frame-offset range of every window of a known-length plan."""
        if self.total_frames is None:
            raise PlanError("windows() is undefined for an open-ended plan")
        return [(start, min(start + self.window_size, self.total_frames))
                for start in range(0, max(1, self.total_frames - self.overlap), self.stride)]


def plan_windows(total_frames: int, window_size: int = DEFAULT_WINDOW_SIZE,
                 overlap: int = DEFAULT_OVERLAP) -> WindowPlan:
    """Plan for a stream of known length."""
    return WindowPlan(window_size=window_size, overlap=overlap, total_frames=total_frames)


@dataclass(frozen=True, slots=True)
class BoundaryResidual:
    """Per-frame disagreement over one boundary's shared frames.

    Compares the previously emitted poses against the freshly corrected
    batch at the same frames: euclidean center distance and geodesic
    rotation angle. A zero-overlap boundary yields empty arrays.
    """

    boundary_index: int
    frames: tuple[int, ...]
    center_dist: np.ndarray
    rot_angle_rad: np.ndarray


@dataclass(frozen=True, slots=True)
class BoundaryEvent:
    """Correction applied at one boundary, as gravity yaw/pitch/roll, plus its residuals."""

    boundary_index: int
    correction_ypr: GravityYpr
    scale: float
    residual: BoundaryResidual


@dataclass
class StitchState:
    """Mutable per-stream state threaded through stitch_step calls."""

    window_count: int = 0
    first_frame: Optional[int] = None
    emitted_count: int = 0
    done: bool = False
    tail: PoseBatch = field(default_factory=lambda: PoseBatch.concat([]))
    boundary_log: list[BoundaryEvent] = field(default_factory=list)


def anchor_correction(frame: int, prev_rotation: np.ndarray, prev_center: np.ndarray,
                      cur_rotation: np.ndarray, cur_center: np.ndarray) -> RigidTransform:
    """Yaw + translation map from the new batch's frame to the global frame.

    Both sides describe the same physical frame (``frame``, named in the
    warning for a degenerate correction): the previously emitted pose
    (``prev_*``) and the new batch's local one (``cur_*``), each as its
    rotation and camera center. Let S_full be the full rigid
    local-to-global map implied by the anchor pair; the returned
    correction keeps only S_full's yaw (pitch and roll stay locked to
    each batch's own gravity estimate) and picks the translation that
    maps the local anchor center exactly onto the previously emitted one.
    """
    s_full_rotation = prev_rotation.T @ cur_rotation
    # Both factors passed the drift policy, so the product is finite with
    # det > 0: of the drift policy only the repair can apply. Doing just
    # that takes about 7 us per boundary, the full check 24 us.
    if rotation_drift(s_full_rotation) > ORTHONORMAL_TOL:
        s_full_rotation = orthonormalize(s_full_rotation)
    ypr = _gravity_ypr(s_full_rotation)
    if abs(ypr.pitch) == math.pi / 2.0:
        logger.warning(
            "boundary at frame %d: correction pitch is degenerate; "
            "using yaw under the roll=0 convention",
            frame,
        )
    r_yaw = rotation_about_gravity(ypr.yaw)
    return RigidTransform(r_yaw, prev_center - r_yaw @ cur_center)


def overlap_residual(boundary_index: int, first_frame: int,
                     prev_rotations: np.ndarray, prev_centers: np.ndarray,
                     cur_rotations: np.ndarray, cur_centers: np.ndarray) -> BoundaryResidual:
    """Residuals between previously emitted poses and the corrected batch.

    Both sides cover the same frames, from ``first_frame`` on, as
    rotations (n, 3, 3) and camera centers (n, 3); every shared frame
    contributes one row.
    """
    if prev_centers.shape != cur_centers.shape:
        raise PlanError(f"overlap length mismatch: {len(prev_centers)} vs {len(cur_centers)}")
    center_dist = np.linalg.norm(prev_centers - cur_centers, axis=1)
    frames = tuple(range(first_frame, first_frame + len(center_dist)))
    return BoundaryResidual(boundary_index, frames, center_dist,
                            rotation_angle(prev_rotations, cur_rotations))


def _check_batch(state: StitchState, batch: PoseBatch, plan: WindowPlan) -> int:
    if len(batch) == 0:
        raise PlanError("empty batch")
    if state.done:
        raise PlanError("plan already completed; no further batches expected")
    start = 0 if state.first_frame is None else batch.first_frame - state.first_frame
    if start != state.window_count * plan.stride:
        raise PlanError(
            f"batch starts at offset {start}, plan expects {state.window_count * plan.stride}"
        )
    expected_end = start + plan.window_size
    if plan.total_frames is not None:
        expected_end = min(expected_end, plan.total_frames)
        if start + len(batch) != expected_end:
            raise PlanError(
                f"window at offset {start}: got {len(batch)} frames, plan expects "
                f"{expected_end - start}"
            )
    elif len(batch) > plan.window_size:
        raise PlanError(
            f"window at offset {start}: got {len(batch)} frames, plan allows at most "
            f"{plan.window_size}"
        )
    if state.window_count and len(batch) < plan.overlap:
        raise PlanError(
            f"window at offset {start}: got {len(batch)} frames, fewer than the "
            f"overlap of {plan.overlap}"
        )
    return start


def _estimate_scale(prev_centers: np.ndarray, local_centers: np.ndarray) -> float:
    """Median ratio of consecutive-center segment lengths over the overlap."""
    prev_seg = np.linalg.norm(np.diff(prev_centers, axis=0), axis=1)
    local_seg = np.linalg.norm(np.diff(local_centers, axis=0), axis=1)
    usable = local_seg > _SCALE_SEGMENT_FLOOR
    if not np.any(usable):
        return 1.0
    return window_median(prev_seg[usable] / local_seg[usable])


def stitch_step(state: StitchState, batch: PoseBatch, plan: WindowPlan,
                anchor_mode: str = "last",
                scale_correction: bool = False) -> tuple[StitchState, PoseBatch]:
    """Fold one window into the global stream.

    The window is a PoseBatch of consecutive frames. The first window is
    emitted verbatim and defines the global frame. Every later window is
    aligned through its anchor (the last shared frame by default, the
    first with anchor_mode="first") and emits only the frames past the
    overlap. Returns the updated state and the newly emitted, globally
    aligned poses.
    """
    if anchor_mode not in ("first", "last"):
        raise PlanError(f"anchor_mode must be 'first' or 'last', got {anchor_mode!r}")
    start = _check_batch(state, batch, plan)
    overlap = plan.overlap

    if state.window_count == 0:
        state.first_frame = batch.first_frame
        emitted = batch
    elif overlap == 0:
        if state.window_count == 1:  # the first boundary, once per stream
            logger.warning(
                "overlap is 0: windows are emitted as-is, inter-batch drift "
                "cannot be corrected"
            )
        emitted = batch
    else:
        a = overlap - 1 if anchor_mode == "last" else 0
        tail = state.tail
        tail_centers = tail.centers
        local_centers = batch[:overlap].centers
        scale = _estimate_scale(tail_centers, local_centers) if scale_correction else 1.0
        # The anchor centre at the scale the translations get below, so that it
        # lands on the emitted one up to rounding.
        correction = anchor_correction(batch.first_frame + a, tail.rotations[a], tail_centers[a],
                                       batch.rotations[a], scale * local_centers[a])
        inv = correction.rotation.T  # T_global = T_local o correction^-1
        corrected = PoseBatch._wrap(batch.first_frame, *compose_world_map(
            batch, RigidTransform(inv, -(inv @ correction.translation)), scale))
        shared = corrected[:overlap]
        residual = overlap_residual(state.window_count - 1, tail.first_frame, tail.rotations,
                                    tail_centers, shared.rotations, shared.centers)
        state.boundary_log.append(
            BoundaryEvent(
                boundary_index=state.window_count - 1,
                correction_ypr=_gravity_ypr(correction.rotation),
                scale=scale,
                residual=residual,
            )
        )
        emitted = corrected[overlap:]

    if overlap > 0:
        state.tail = PoseBatch.concat([state.tail, emitted])[-overlap:]
    state.window_count += 1
    state.emitted_count += len(emitted)
    if plan.total_frames is not None and start + len(batch) >= plan.total_frames:
        state.done = True
    elif plan.total_frames is None and len(batch) < plan.window_size:
        # A short window can only be the final one.
        state.done = True
    return state, emitted
