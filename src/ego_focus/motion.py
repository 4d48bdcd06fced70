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

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .geometry import (
    DEFAULT_EPS_Z,
    Intrinsics,
    PoseBatch,
    project_pinhole_many,
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


@dataclass(frozen=True, slots=True)
class FocusConfig:
    """Knobs for focus-point extraction and map rendering.

    sigma_px = None resolves to SIGMA_WIDTH_FRACTION * image width at
    render time. project_negative chooses what happens to samples whose
    camera-frame acceleration points backward: "skip" drops them,
    "mirror" projects through the principal point instead.
    """

    n_points: int = DEFAULT_FOCUS_N
    sigma_px: Optional[float] = None
    eps_z: float = DEFAULT_EPS_Z
    normalize: str = "peak"
    project_negative: str = "skip"
    smooth_positions: bool = False

    def __post_init__(self):
        if self.n_points < 1:
            raise ConfigError("n_points", f"must be >= 1, got {self.n_points}")
        if self.sigma_px is not None and not 0 < self.sigma_px < np.inf:
            raise ConfigError("sigma_px", f"must be finite and > 0, got {self.sigma_px}")
        if not 0 <= self.eps_z < np.inf:
            raise ConfigError("eps_z", f"must be finite and >= 0, got {self.eps_z}")
        if self.normalize not in ("peak", "sum"):
            raise ConfigError("normalize", f"must be 'peak' or 'sum', got {self.normalize!r}")
        if self.project_negative not in ("skip", "mirror"):
            raise ConfigError(
                "project_negative", f"must be 'skip' or 'mirror', got {self.project_negative!r}"
            )

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

    values is (height, width) float64 in [0, 1]; with peak
    normalization the maximum is 1 whenever contributing_points >= 1.
    contributing_points counts projectable points whose truncated
    kernel actually intersected the image.
    """

    values: np.ndarray
    contributing_points: int

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


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
                   width: int, height: int, sigma: float, cfg: FocusConfig,
                   out: Optional[np.ndarray] = None,
                   scratch: Optional[np.ndarray] = None) -> FocusMap:
    """Accumulate truncated separable Gaussian kernels and normalize.

    Each kernel is evaluated on the axis-aligned window
    |du|, |dv| <= DEFAULT_TRUNCATION_RADIUS * sigma * s_i and is exactly
    zero outside it; the largest neglected value is exp(-3^2 / 2), about
    0.011, pre-normalization.

    ``out`` and ``scratch`` are optional writable float64 arrays of
    shape (height, width) that a caller rendering map after map reuses:
    the map is accumulated in ``out`` and the kernel products go through
    ``scratch``. The returned values are then a read-only view of
    ``out``, valid until it is used again.
    """
    kernels = []
    if us.size:
        # The window median (the middle value, or the mean of the middle
        # two) from one sort: np.median costs about 20 us a call on 15
        # values against 2 us, added to every map. Then the clamped widths.
        ranked = np.sort(mags)
        mid = ranked.size // 2
        median = ranked[mid] if ranked.size % 2 else (ranked[mid - 1] + ranked[mid]) / 2.0
        scales = mags / max(float(median), _MEDIAN_GUARD)
        np.maximum(scales, DEFAULT_S_CLAMP[0], out=scales)
        np.minimum(scales, DEFAULT_S_CLAMP[1], out=scales)
        sd = sigma * scales
        half = DEFAULT_TRUNCATION_RADIUS * sd
        # Window bounds of every kernel, rows (u, x) and (v, y), clipped
        # to the image. They stay floats until the kernels that miss the
        # image are dropped, so a far-off centre (|u| near 1e300 when a_z
        # is close to eps_z) is never cast to an int.
        centres = np.stack((us, vs))
        lo = np.ceil(centres - half)
        hi = np.floor(centres + half)
        np.maximum(lo, 0.0, out=lo)
        np.minimum(hi, [[width - 1], [height - 1]], out=hi)
        hit = (lo <= hi).all(axis=0)
        if hit.any():
            us, vs, sd = us[hit], vs[hit], sd[hit]
            lo = lo[:, hit].astype(np.intp)
            hi = hi[:, hit].astype(np.intp) + 1
            denom = (2.0 * sd * sd)[:, None]
            rows = _gaussians(np.arange(width, dtype=np.float64), us, denom)
            cols = _gaussians(np.arange(height, dtype=np.float64), vs, denom)
            # Per kernel: x0, x1, y0, y1 (ends exclusive), its row over
            # x0:x1 and its column over the whole map height.
            kernels = [(x0, x1, y0, y1, rows[k, x0:x1], cols[k])
                       for k, (x0, y0, x1, y1) in enumerate(zip(*lo.tolist(), *hi.tolist()))]
    acc = np.empty((height, width)) if out is None else out
    band = max(1, _BAND_BYTES // acc[0].nbytes)
    products = np.empty(min(band, height) * width) if scratch is None else scratch.reshape(-1)
    old_bufsize = None if acc.size <= _DEFAULT_UFUNC_BUFSIZE else np.setbufsize(_UFUNC_BUFSIZE)
    try:
        for b0 in range(0, height, band):
            b1 = b0 + band
            acc[b0:b1] = 0.0
            for x0, x1, y0, y1, row, col in kernels:
                top, bottom = max(y0, b0), min(y1, b1)
                if top < bottom:
                    product = products[:(bottom - top) * (x1 - x0)].reshape(bottom - top, x1 - x0)
                    np.multiply(col[top:bottom, None], row, out=product)
                    window = acc[top:bottom, x0:x1]
                    np.add(window, product, out=window)
    finally:
        if old_bufsize is not None:
            np.setbufsize(old_bufsize)
    if kernels:
        z = float(acc.max()) if cfg.normalize == "peak" else float(acc.sum())
        if z > 0.0:
            acc /= z
    values = acc if out is None else acc.view()
    values.flags.writeable = False
    return FocusMap(values=values, contributing_points=len(kernels))


def render_focus_map(points: Sequence[FocusPoint], k: Intrinsics, cfg: FocusConfig) -> FocusMap:
    """Render the trailing window of focus points at the intrinsics' size.

    Non-projectable points are ignored (their magnitudes do not enter
    the median either); zero projectable points yield an all-zero map.
    """
    proj = [p for p in points if p.projectable]
    us = np.array([p.u for p in proj], dtype=np.float64)
    vs = np.array([p.v for p in proj], dtype=np.float64)
    mags = np.array([p.magnitude for p in proj], dtype=np.float64)
    sigma = cfg.resolved_sigma(k.width)
    return _render_arrays(us, vs, mags, k.width, k.height, sigma, cfg)


def modulate_depth(depth: np.ndarray, fmap: FocusMap,
                   alpha: float = DEFAULT_DEPTH_ALPHA) -> np.ndarray:
    """Attenuate depth by focus: out = depth * (alpha + (1 - alpha) * M).

    alpha is the floor kept in unfocused regions; 1 returns the input.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError("depth_alpha", f"must be in [0, 1], got {alpha}")
    d = np.asarray(depth, dtype=np.float64)
    if d.shape != fmap.values.shape:
        raise ValueError(f"depth shape {d.shape} does not match map {fmap.values.shape}")
    return d * (alpha + (1.0 - alpha) * fmap.values)


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

    def __init__(self, k: Intrinsics, cfg: FocusConfig):
        self.k = k
        self.cfg = cfg
        self._raw = np.empty((0, 3))          # last <= 2 raw centers
        self._seq = np.empty((0, 3))          # last <= 2 differencing inputs

    def push(self, poses: PoseBatch) -> MotionBlock:
        """Feed the next poses (a PoseBatch, or poses of consecutive frames)."""
        batch = PoseBatch.from_poses(poses)
        centers = batch.centers
        if self.cfg.smooth_positions:
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
        uv, valid = project_pinhole_many(
            a_c, self.k, eps_z=self.cfg.eps_z,
            allow_negative=(self.cfg.project_negative == "mirror"),
        )
        self._seq = seq[-2:].copy()
        return MotionBlock(frames, a_w, a_c, mag, uv, valid)
