"""Acceleration-derived focus points and Gaussian focus maps.

The discrete world acceleration at frame t is the second difference of
camera centers, a_w = p_t - 2 p_{t-1} + p_{t-2}; rotating it into the
current camera frame (a_c = R_t a_w) and projecting through the
pinhole model (u = cx + fx * ax / az, v = cy + fy * ay / az) gives the
pixel the ego-motion is currently "aimed" at. A map aggregates the
trailing window of N focus points as a sum of Gaussian kernels whose
widths scale with each sample's acceleration magnitude relative to the
window median.

Everything here is causal: the map for frame t depends only on frames
<= t. The first two frames of a stream produce no sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .geometry import (
    Intrinsics,
    PoseBatch,
    project_pinhole_many,
    require_bool,
    require_integer,
    require_number,
    window_median,
)

DEFAULT_FOCUS_N = 15
SIGMA_WIDTH_FRACTION = 0.04
# Kernel width multipliers (magnitude over window median) are clamped to
# this range, and each kernel is cut off at this many of its sigmas.
DEFAULT_S_CLAMP = (0.25, 4.0)
DEFAULT_TRUNCATION_RADIUS = 3.0
# Depth kept in unfocused regions by modulate_depth.
DEFAULT_DEPTH_ALPHA = 0.15

# Floors the median normalizer against an all-zero window. A floor
# (not an additive term) so that scaling every magnitude by a common
# factor leaves the ratios, and hence the rendered maps, unchanged.
_MEDIAN_GUARD = 1e-12

# Rows and columns of a rectangle of a map, as index slices.
Footprint = tuple[slice, slice]
_EMPTY: Footprint = (slice(0, 0), slice(0, 0))


@dataclass(frozen=True, slots=True)
class FocusConfig:
    """Samples per map and kernel width of a focus map.

    n_points is the trailing-window length (a run takes RunConfig.focus_n).
    sigma_px = None resolves to SIGMA_WIDTH_FRACTION * image width at
    render time.
    """

    n_points: int = DEFAULT_FOCUS_N
    sigma_px: Optional[float] = None

    def __post_init__(self):
        require_integer("n_points", self.n_points)
        if self.n_points < 1:
            raise ConfigError("n_points", f"must be >= 1, got {self.n_points}")
        if self.sigma_px is not None:
            require_number("sigma_px", self.sigma_px)
            if self.sigma_px <= 0:
                raise ConfigError("sigma_px", f"must be > 0, got {self.sigma_px}")

    def resolved_sigma(self, width: int) -> float:
        return self.sigma_px if self.sigma_px is not None else SIGMA_WIDTH_FRACTION * width


@dataclass(frozen=True, slots=True)
class FocusPoint:
    """Projected acceleration of one frame.

    u and v are None when the sample was not projectable; magnitude is
    kept either way so kernel scaling stays defined for the window.
    """

    frame_index: int
    u: Optional[float]
    v: Optional[float]
    magnitude: float
    projectable: bool


@dataclass(frozen=True, slots=True)
class FocusMap:
    """Rendered focus map.

    values is (height, width) float64 in [0, 1], divided by its peak:
    the maximum is 1 whenever contributing_points >= 1.
    contributing_points counts projectable points whose truncated
    kernel actually intersected the image. footprint, the rows and the
    columns of values as two slices, holds every non-zero value, so
    zeroing a render buffer over it clears the map; by default it is the
    whole map.
    """

    values: np.ndarray
    contributing_points: int
    footprint: Footprint = (slice(None), slice(None))


# The accumulator is filled in bands of rows that stay in a core's cache
# while every kernel reaching them is added; a map this size or smaller
# is one band. Each pixel still takes its kernels in point order, so the
# bands change no value.
_BAND_BYTES = 1 << 21
# numpy's default ufunc buffer (8192 elements) makes an add into a 2-D
# window of the accumulator go through the buffer, a copy in and out; a
# small one lets the add run on the accumulator rows themselves. A map
# no larger than the default buffer gains less than the switch costs.
_UFUNC_BUFSIZE = 256
_DEFAULT_UFUNC_BUFSIZE = 8192


def _gaussians(grid: np.ndarray, centres: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """exp(-(grid - c)^2 / denom) for each centre c: one row per centre."""
    d = np.subtract(grid, centres[:, None])
    np.multiply(d, d, out=d)
    np.negative(d, out=d)
    np.divide(d, denom, out=d)
    return np.exp(d, out=d)


def _render_arrays(us: np.ndarray, vs: np.ndarray, mags: np.ndarray,
                   width: int, height: int, sigma: float, out: Optional[np.ndarray] = None,
                   scratch: Optional[np.ndarray] = None) -> FocusMap:
    """Accumulate truncated separable Gaussian kernels and divide by the peak.

    Each kernel is evaluated on the axis-aligned window
    |du|, |dv| <= DEFAULT_TRUNCATION_RADIUS * sigma * s_i and is exactly
    zero outside it; the largest neglected value is exp(-3^2 / 2), about
    0.011, before the division. Only the map's footprint, the union of
    the kernel windows, is divided.

    ``out`` and ``scratch`` are optional writable float64 arrays of
    shape (height, width) that a caller rendering map after map reuses:
    the map is accumulated in ``out``, which must be all zero, and the
    kernel products go through ``scratch``. The returned values are then
    a read-only view of ``out``, valid until it is used again; zeroing
    ``out`` over the returned footprint makes it all zero again.
    """
    kernels = []
    footprint = _EMPTY
    if len(us):
        # Window bounds of every kernel, clipped to the image, in Python
        # floats. The float comparisons come first, so a far-off centre
        # (|u| near 1e300 when a_z is close to DEFAULT_EPS_Z), an infinite or a NaN
        # one is dropped before any int cast.
        median = max(window_median(mags), _MEDIAN_GUARD)
        s_lo, s_hi = DEFAULT_S_CLAMP
        kept = []
        for u, v, m in zip(us.tolist(), vs.tolist(), mags.tolist()):
            sd = sigma * min(max(m / median, s_lo), s_hi)
            half = DEFAULT_TRUNCATION_RADIUS * sd
            u0, u1, v0, v1 = u - half, u + half, v - half, v + half
            if u0 <= width - 1 and u1 >= 0.0 and v0 <= height - 1 and v1 >= 0.0:
                x0, x1 = math.ceil(max(u0, 0.0)), math.floor(min(u1, width - 1)) + 1
                y0, y1 = math.ceil(max(v0, 0.0)), math.floor(min(v1, height - 1)) + 1
                if x0 < x1 and y0 < y1:
                    kept.append((u, v, 2.0 * sd * sd, x0, x1, y0, y1))
        if kept:
            ku, kv, kd, x0s, x1s, y0s, y1s = zip(*kept)
            left, right, top, bottom = min(x0s), max(x1s), min(y0s), max(y1s)
            footprint = (slice(top, bottom), slice(left, right))
            # Rows over the footprint's columns and columns over its rows;
            # per kernel (window ends exclusive) its own stretch of each.
            denom = np.array(kd)[:, None]
            rows = _gaussians(np.arange(left, right, dtype=np.float64), np.array(ku), denom)
            cols = _gaussians(np.arange(top, bottom, dtype=np.float64), np.array(kv), denom)
            kernels = [(x0, x1, y0, y1, rows[k, x0 - left:x1 - left], cols[k, y0 - top:y1 - top])
                       for k, (x0, x1, y0, y1) in enumerate(zip(x0s, x1s, y0s, y1s))]
    acc = np.zeros((height, width)) if out is None else out
    band = max(1, _BAND_BYTES // acc[0].nbytes)
    products = np.empty(min(band, height) * width) if scratch is None else scratch.reshape(-1)
    old_bufsize = None if acc.size <= _DEFAULT_UFUNC_BUFSIZE else np.setbufsize(_UFUNC_BUFSIZE)
    try:
        for b0 in range(footprint[0].start, footprint[0].stop, band):
            b1 = b0 + band
            for x0, x1, y0, y1, row, col in kernels:
                top, bottom = max(y0, b0), min(y1, b1)
                if top < bottom:
                    product = products[:(bottom - top) * (x1 - x0)].reshape(bottom - top, x1 - x0)
                    np.multiply(col[top - y0:bottom - y0, None], row, out=product)
                    window = acc[top:bottom, x0:x1]
                    np.add(window, product, out=window)
    finally:
        if old_bufsize is not None:
            np.setbufsize(old_bufsize)
    if kernels:
        # Outside the footprint every value is 0: it changes neither the
        # peak nor, divided, itself.
        window = acc[footprint]
        z = float(window.max())
        if z > 0.0:
            np.divide(window, z, out=window)
    values = acc if out is None else acc.view()
    values.flags.writeable = False
    return FocusMap(values=values, contributing_points=len(kernels), footprint=footprint)


def render_focus_map(points: Sequence[FocusPoint], k: Intrinsics, cfg: FocusConfig) -> FocusMap:
    """Render every point it is passed at the intrinsics' size.

    Non-projectable points are ignored (their magnitudes do not enter
    the median either); zero projectable points yield an all-zero map.
    """
    proj = [p for p in points if p.projectable]
    us = np.array([p.u for p in proj], dtype=np.float64)
    vs = np.array([p.v for p in proj], dtype=np.float64)
    mags = np.array([p.magnitude for p in proj], dtype=np.float64)
    sigma = cfg.resolved_sigma(k.width)
    return _render_arrays(us, vs, mags, k.width, k.height, sigma)


def modulate_depth(depth: np.ndarray, fmap: FocusMap) -> np.ndarray:
    """Attenuate by focus: depth * (DEFAULT_DEPTH_ALPHA + (1 - DEFAULT_DEPTH_ALPHA) * M)."""
    d = np.asarray(depth, dtype=np.float64)
    if d.shape != fmap.values.shape:
        raise ValueError(f"depth shape {d.shape} does not match map {fmap.values.shape}")
    return d * (DEFAULT_DEPTH_ALPHA + (1.0 - DEFAULT_DEPTH_ALPHA) * fmap.values)


@dataclass(slots=True)
class MotionBlock:
    """Vectorized batch of motion samples (one row per frame)."""

    frames: np.ndarray
    a_world: np.ndarray
    a_camera: np.ndarray
    magnitude: np.ndarray
    uv: np.ndarray
    projectable: np.ndarray

    def __len__(self) -> int:
        return len(self.frames)

    def focus_points(self) -> list[FocusPoint]:
        out = []
        for i in range(len(self.frames)):
            ok = bool(self.projectable[i])
            out.append(
                FocusPoint(
                    frame_index=int(self.frames[i]),
                    u=float(self.uv[i, 0]) if ok else None,
                    v=float(self.uv[i, 1]) if ok else None,
                    magnitude=float(self.magnitude[i]),
                    projectable=ok,
                )
            )
        return out


class MotionStream:
    """Second differences, camera-frame rotation and projection of a pose stream.

    Feed pose chunks in frame order, of any length (zero too); each call
    returns the samples that became complete, possibly none. Every chunk
    takes one array path over the rows carried from earlier calls, so
    results are bit-identical however the stream is chunked.
    """

    def __init__(self, k: Intrinsics, smooth_positions: bool = False):
        require_bool("smooth_positions", smooth_positions)
        self.k = k
        self.smooth_positions = smooth_positions
        self._raw = np.empty((0, 3))          # last <= 2 raw centers
        self._seq = np.empty((0, 3))          # last <= 2 differencing inputs

    def push(self, batch: PoseBatch) -> MotionBlock:
        """Feed the poses of the next consecutive frames."""
        centers = batch.centers
        if self.smooth_positions:
            # Causal moving average of width 3, partial at the stream head.
            # Fewer than two carried rows means raw starts at the stream
            # head; otherwise rows 0 and 1 are carried and dropped.
            r = np.concatenate([self._raw, centers])
            smoothed = np.concatenate([r[:1], (r[1:2] + r[:1]) / 2.0,
                                       ((r[2:] + r[1:-1]) + r[:-2]) / 3.0])
            seq_new = smoothed[len(self._raw):]
            self._raw = r[-2:].copy()
        else:
            seq_new = centers
        n_ctx = len(self._seq)
        seq = np.concatenate([self._seq, seq_new])

        # Sample for chunk row i uses seq rows (i+n_ctx) down to (i+n_ctx-2):
        # (p_t - p_{t-1}) - (p_{t-1} - p_{t-2}) from each sample's own three
        # centers, whatever rows came in the same chunk, so every sample has
        # the same bits however the stream is chunked. Fewer than three rows
        # give empty arrays.
        step = seq[1:] - seq[:-1]
        a_w = step[1:] - step[:-1]
        skip = 2 - n_ctx  # leading chunk rows without two predecessors
        frames = np.arange(batch.first_frame + skip, batch.end_frame, dtype=np.int64)
        a_c = np.einsum("nij,nj->ni", batch.rotations[skip:], a_w)
        mag = np.linalg.norm(a_c, axis=1)
        uv, valid = project_pinhole_many(a_c, self.k)
        self._seq = seq[-2:].copy()
        return MotionBlock(frames, a_w, a_c, mag, uv, valid)
