"""Pose and projection primitives.

Conventions used throughout the package:

- World frame: right-handed, +Y is the gravity axis and points down
  (so the image v axis and world gravity agree for an upright camera).
- Camera frame: +X right, +Y down, +Z forward (optical axis).
- A pose stores the world-to-camera map: ``x_cam = R @ x_world + t``.
  The camera center in world coordinates is ``p = -R.T @ t``.
- Homogeneous matrices are 4x4 row-major with last row (0, 0, 0, 1).
- Yaw is the rotation about the gravity axis. For a camera pose it is
  the azimuth of the forward axis f (camera +Z expressed in world):
  ``yaw = atan2(f_x, f_z)``. Pitch is in [-pi/2, pi/2], yaw and roll
  in (-pi, pi]. The factorization order is yaw o pitch o roll, i.e.
  ``R = R_Y(yaw) @ R_X(pitch) @ R_Z(roll)``; for a camera pose, pass
  the camera-to-world rotation so yaw follows the forward axis.

All arithmetic is float64. Rotations within ``ORTHONORMAL_TOL`` of
orthonormal are accepted as-is (bit-preserving); drift up to
``REORTHONORMALIZE_LIMIT`` (float32 upstream estimators land here) is
repaired by polar projection; anything worse, and any reflection, is
rejected.

Streams of poses travel as PoseBatch, one structure of arrays per run
of consecutive frames, validated once per batch; CameraPose is a
batch of one row.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvalidPoseError, PlanError

# Orthonormality drift thresholds, measured as max |R^T R - I|.
ORTHONORMAL_TOL = 1e-9
REORTHONORMALIZE_LIMIT = 1e-4

# Largest deviation of a 4x4 pose matrix's last row from (0, 0, 0, 1).
POSE_ROW_TOL = 1e-9

# Frames are numbered in int64 (MotionBlock.frames), so every frame
# index is below this.
FRAME_LIMIT = 2**63

# |pitch| within this of pi/2 makes yaw/roll inseparable.
GIMBAL_TOL = 1e-6

# Minimum forward component for a projectable camera-frame vector.
DEFAULT_EPS_Z = 1e-6

_EYE3 = np.eye(3)


def rotation_drift(rotation: np.ndarray) -> float | np.ndarray:
    """Max-abs deviation of R^T R from the identity, of one matrix or of each of a stack."""
    return np.abs(np.swapaxes(rotation, -1, -2) @ rotation - _EYE3).max(axis=(-2, -1), initial=0.0)


def orthonormalize(rotation: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix (Frobenius) via polar projection.

    Works on one matrix or on a stack of shape (n, 3, 3).
    """
    u, _, vt = np.linalg.svd(rotation)
    u[..., -1] *= np.where(np.linalg.det(u) * np.linalg.det(vt) < 0.0, -1.0, 1.0)[..., None]
    return u @ vt


def _checked_poses(first_frame: int, rotations: np.ndarray,
                   translations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply the drift policy to a stack of poses, once for all rows.

    rotations is (n, 3, 3), translations (n, 3). Drift and det are
    computed for every row at once; rows with drift at most
    ORTHONORMAL_TOL are kept bit for bit and only the rows above it are
    repaired by polar projection. The first row that fails raises
    InvalidPoseError naming its frame ``first_frame + i``, with the
    checks in this order: non-finite rotation, drift over
    REORTHONORMALIZE_LIMIT, det <= 0, non-finite translation.
    Returns float64 arrays, the input ones where no row was repaired.
    """
    r = np.asarray(rotations, dtype=np.float64)
    t = np.asarray(translations, dtype=np.float64)
    if r.ndim != 3 or r.shape[1:] != (3, 3) or t.shape != (r.shape[0], 3):
        raise ValueError(f"expected rotations (n, 3, 3) and translations (n, 3), "
                         f"got {r.shape} and {t.shape}")
    # NaN or inf for a row with a non-finite entry, so such a row is never fine.
    drift = rotation_drift(r)
    if ((drift <= REORTHONORMALIZE_LIMIT).all() and np.isfinite(t).all()
            and not (np.linalg.det(r) <= 0.0).any()):
        repair = drift > ORTHONORMAL_TOL
        if repair.any():
            r = r.copy()
            r[repair] = orthonormalize(r[repair])
        return r, t
    finite = np.isfinite(r).all(axis=(1, 2))
    reflected = np.linalg.det(np.where(finite[:, None, None], r, _EYE3)) <= 0.0
    bad = ~(drift <= REORTHONORMALIZE_LIMIT) | reflected | ~np.isfinite(t).all(axis=1)
    i = int(np.argmax(bad))
    what = f"frame {first_frame + i}"
    if not finite[i]:
        raise InvalidPoseError(f"{what}: rotation has non-finite entries")
    if drift[i] > REORTHONORMALIZE_LIMIT:
        raise InvalidPoseError(
            f"{what}: rotation drift {drift[i]:.3e} exceeds limit {REORTHONORMALIZE_LIMIT:.0e}"
        )
    if reflected[i]:
        raise InvalidPoseError(f"{what}: rotation is a reflection (det <= 0)")
    raise InvalidPoseError(f"{what}: non-finite translation")


def _is_last_row(a: float, b: float, c: float, d: float) -> bool:
    """Whether (a, b, c, d), the last row of a 4x4 pose matrix, is (0, 0, 0, 1).

    Written with "<=" so that a row with a NaN entry is not.
    """
    return (abs(a) <= POSE_ROW_TOL and abs(b) <= POSE_ROW_TOL and abs(c) <= POSE_ROW_TOL
            and abs(d - 1.0) <= POSE_ROW_TOL)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


def _require_frame(key: str, value) -> None:
    # int() would truncate a float (1.5 to frame 1) and turn True into frame 1.
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{key} must be an integer, got {value!r}")


class PoseBatch:
    """World-to-camera poses of consecutive frames, as one structure of arrays.

    Row i is frame ``first_frame + i``: ``rotations[i]`` (3x3) and
    ``translations[i]`` (3,). The constructor applies the drift policy
    to all rows at once and stores read-only copies. A batch is also a
    read-only sequence of CameraPose: ``batch[i]`` is a one-row view of
    row i (a fresh object each time, equal by value) and a slice is a
    PoseBatch sharing the same arrays. A slice needs step 1, so that its
    rows stay consecutive frames.
    """

    __slots__ = ("first_frame", "rotations", "translations")

    def __init__(self, first_frame: int, rotations: np.ndarray, translations: np.ndarray):
        _require_frame("first_frame", first_frame)
        n = len(rotations)
        if not 0 <= first_frame <= FRAME_LIMIT - n:
            raise ValueError(f"first_frame must be >= 0 and first_frame + rows <= 2**63, "
                             f"got {first_frame} + {n}")
        r, t = _checked_poses(first_frame, rotations, translations)
        self.first_frame = int(first_frame)
        self.rotations = _frozen(r)
        self.translations = _frozen(t)

    @classmethod
    def _wrap(cls, first_frame: int, rotations: np.ndarray,
              translations: np.ndarray) -> "PoseBatch":
        # For arrays the package built from rows that passed the drift
        # policy (products of rotations, slices, stacks). Freezes them.
        rotations.flags.writeable = False
        translations.flags.writeable = False
        self = object.__new__(cls)
        self.first_frame = first_frame
        self.rotations = rotations
        self.translations = translations
        return self

    @staticmethod
    def concat(batches: Sequence["PoseBatch"]) -> "PoseBatch":
        """Join batches whose frames follow one another into one batch."""
        parts = [b for b in batches if len(b)]
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return batches[0] if batches else \
                PoseBatch._wrap(0, np.empty((0, 3, 3)), np.empty((0, 3)))
        for prev, cur in zip(parts, parts[1:]):
            if cur.first_frame != prev.end_frame:
                raise PlanError(f"batch frames not contiguous: {prev.end_frame - 1} "
                                f"followed by {cur.first_frame}")
        return PoseBatch._wrap(parts[0].first_frame,
                               np.concatenate([b.rotations for b in parts]),
                               np.concatenate([b.translations for b in parts]))

    @property
    def end_frame(self) -> int:
        """One past the last frame."""
        return self.first_frame + len(self)

    @property
    def centers(self) -> np.ndarray:
        """Camera centers ``-R.T @ t`` in world coordinates, (n, 3), summed over j in order."""
        return -np.einsum("nji,nj->ni", self.rotations, self.translations)

    def __len__(self) -> int:
        return self.rotations.shape[0]

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step != 1:
                raise ValueError(f"slice step must be 1 (consecutive frames), got {step}")
            stop = max(start, stop)
            return PoseBatch._wrap(self.first_frame + start, self.rotations[start:stop],
                                   self.translations[start:stop])
        i = range(len(self))[key]
        return CameraPose._wrap(self.first_frame + i, self.rotations[i:i + 1],
                                self.translations[i:i + 1])

    def __iter__(self):
        first, r, t = self.first_frame, self.rotations[:, None], self.translations[:, None]
        return (CameraPose._wrap(first + i, *rt) for i, rt in enumerate(zip(r, t)))

    def __eq__(self, other):
        if isinstance(other, PoseBatch):
            return (len(self) == len(other)
                    and (not len(self) or self.first_frame == other.first_frame)
                    and np.array_equal(self.rotations, other.rotations)
                    and np.array_equal(self.translations, other.translations))
        return NotImplemented

    __hash__ = None

    def __reduce__(self):
        return (PoseBatch, (self.first_frame, np.array(self.rotations),
                            np.array(self.translations)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(frames {self.first_frame}..{self.end_frame - 1})"


class CameraPose(PoseBatch):
    """World-to-camera pose of one frame: ``x_cam = R @ x_world + t``.

    A PoseBatch of exactly one row, so it validates, compares and stacks
    like any batch.
    """

    __slots__ = ()

    def __init__(self, frame_index: int, rotation: np.ndarray, translation: np.ndarray):
        _require_frame("frame_index", frame_index)
        if not 0 <= frame_index < FRAME_LIMIT:
            raise ValueError(f"frame_index must be >= 0 and < 2**63, got {frame_index}")
        r = np.asarray(rotation, dtype=np.float64)
        if r.shape != (3, 3):
            raise ValueError(f"frame {frame_index}: rotation must be 3x3, got {r.shape}")
        t = np.asarray(translation, dtype=np.float64).reshape(3)
        PoseBatch.__init__(self, frame_index, r[None], t[None])

    @classmethod
    def from_matrix(cls, frame_index: int, matrix: np.ndarray) -> "CameraPose":
        """Build from a 4x4 world-to-camera matrix; checks the last row."""
        m = np.asarray(matrix, dtype=np.float64)
        if m.shape != (4, 4):
            raise ValueError(f"expected 4x4 matrix, got {m.shape}")
        if not _is_last_row(*m[3].tolist()):
            raise InvalidPoseError(
                f"frame {frame_index}: last row {m[3].tolist()} is not (0, 0, 0, 1)"
            )
        return cls(frame_index, m[:3, :3], m[:3, 3])

    @property
    def frame_index(self) -> int:
        return self.first_frame

    @property
    def rotation(self) -> np.ndarray:
        return self.rotations[0]

    @property
    def translation(self) -> np.ndarray:
        return self.translations[0]

    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates, ``-R.T @ t``."""
        return self.centers[0]

    def __reduce__(self):
        return (CameraPose, (self.first_frame, np.array(self.rotation),
                             np.array(self.translation)))


@dataclass(frozen=True, slots=True)
class RigidTransform:
    """A rigid map on world points: ``y = R @ x + t``.

    A plain value: the package builds it from rotations it made itself
    (a yaw about gravity, a gravity yaw/pitch/roll), so it checks nothing.
    """

    rotation: np.ndarray
    translation: np.ndarray


def compose_world_map(batch: PoseBatch, world_map: RigidTransform,
                      scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Rotations and translations of the poses T o D for a world-side rigid map D.

    Row i maps a world point x to ``R_i @ (R_D @ x + t_D) + scale * t_i``:
    the translations are scaled first, Sim(3)-style, so rotations stay
    orthonormal.
    """
    return (batch.rotations @ world_map.rotation,
            scale * batch.translations + batch.rotations @ world_map.translation)


@dataclass(frozen=True, slots=True)
class GravityYpr:
    """Gravity-referenced yaw/pitch/roll, order yaw o pitch o roll."""

    yaw: float
    pitch: float
    roll: float


def _wrap_pi(angle: float) -> float:
    # atan2 lands in [-pi, pi]; fold the single excluded endpoint.
    if angle == -math.pi:
        return math.pi
    return angle


def rotation_about_gravity(yaw: float) -> np.ndarray:
    """Rotation by ``yaw`` about the gravity (+Y) axis."""
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def compose_gravity_ypr(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """R_Y(yaw) @ R_X(pitch) @ R_Z(roll)."""
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    rx_rz = np.array(
        [
            [cr, -sr, 0.0],
            [cp * sr, cp * cr, -sp],
            [sp * sr, sp * cr, cp],
        ]
    )
    return rotation_about_gravity(yaw) @ rx_rz


def _gravity_ypr(m: np.ndarray) -> GravityYpr:
    # Factors a rotation that passed the drift check as R_Y(yaw) @ R_X(pitch) @ R_Z(roll).
    # Within GIMBAL_TOL of |pitch| = pi/2 rotation about Y and about Z collapse
    # onto each other: pitch is then exactly +-pi/2, roll 0 and yaw takes it all.
    (m00, m01, m02), (m10, m11, m12), (_, _, m22) = m.tolist()
    sp = min(1.0, max(-1.0, -m12))
    pitch = math.asin(sp)
    if math.pi / 2.0 - abs(pitch) <= GIMBAL_TOL:
        sign = 1.0 if sp > 0.0 else -1.0
        return GravityYpr(_wrap_pi(math.atan2(sign * m01, m00)), sign * math.pi / 2.0, 0.0)
    yaw = math.atan2(m02, m22)
    roll = math.atan2(m10, m11)
    return GravityYpr(_wrap_pi(yaw), pitch, _wrap_pi(roll))


def window_median(values: np.ndarray) -> float:
    """np.median of a short non-empty 1-d array, from one sort.

    The middle value, or the mean of the middle two; NaN if any value is
    NaN (a sort puts NaN last). np.median costs about 20 us a call on 15
    values against 2 us.
    """
    ranked = np.sort(values).tolist()
    mid = len(ranked) // 2
    if ranked[-1] != ranked[-1]:
        return math.nan
    return ranked[mid] if len(ranked) % 2 else (ranked[mid - 1] + ranked[mid]) / 2.0


def rotation_angle(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Geodesic angle in radians between two rotation matrices, or row by row between two stacks."""
    cos_theta = (np.trace(a @ np.swapaxes(b, -1, -2), axis1=-2, axis2=-1) - 1.0) / 2.0
    return np.arccos(np.clip(cos_theta, -1.0, 1.0))


def require_integer(key: str, value) -> None:
    # bool is an int subclass, but True is not a size or a count.
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigError(key, f"must be an integer, got {value!r}")


def require_count(key: str, value) -> None:
    require_integer(key, value)
    if value < 1:
        raise ConfigError(key, f"must be >= 1, got {value}")


def require_number(key: str, value) -> None:
    # Compared exactly, so an int too large for float64 fails, as NaN and inf do.
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(key, f"must be a finite number, got {value!r}")


def require_bool(key: str, value) -> None:
    # A truthy string or 1 is not an on/off setting.
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigError(key, f"must be True or False, got {value!r}")


@dataclass(frozen=True, slots=True)
class Intrinsics:
    """Pinhole intrinsics; width/height in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        for key in ("fx", "fy", "cx", "cy"):
            require_number(key, getattr(self, key))
        if self.fx <= 0 or self.fy <= 0:
            raise ConfigError("fx" if self.fx <= 0 else "fy", "focal length must be > 0")
        for key in ("width", "height"):
            require_integer(key, getattr(self, key))
            # Map sidecar headers store both as uint32.
            if not 1 <= getattr(self, key) < 2**32:
                raise ConfigError(key, f"must be >= 1 and < 2**32, got {getattr(self, key)}")

    @property
    def K(self) -> np.ndarray:
        """3x3 intrinsic matrix."""
        return np.array(
            [
                [self.fx, 0.0, self.cx],
                [0.0, self.fy, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )

    def scaled(self, divisor: int) -> "Intrinsics":
        """Intrinsics of the same camera rendered at 1/divisor scale."""
        require_count("map_scale", divisor)
        return Intrinsics(
            fx=self.fx / divisor,
            fy=self.fy / divisor,
            cx=self.cx / divisor,
            cy=self.cy / divisor,
            width=max(1, self.width // divisor),
            height=max(1, self.height // divisor),
        )


def project_pinhole_many(vs: np.ndarray, k: Intrinsics):
    """Project camera-frame vectors (n, 3) to pixel coordinates.

    Row i maps to (cx + fx * (x / z), cy + fy * (y / z)), not clipped to
    the image bounds. A row projects only when z > DEFAULT_EPS_Z. Returns
    (uv, valid): uv is (n, 2) with NaN rows where valid is False.
    """
    v = np.asarray(vs, dtype=np.float64).reshape(-1, 3)
    vz = v[:, 2:]
    valid = vz > DEFAULT_EPS_Z
    # Divide only the valid rows; the others stay NaN through the affine step.
    uv = np.full((v.shape[0], 2), np.nan)
    np.divide(v[:, :2], vz, out=uv, where=valid)
    uv *= (k.fx, k.fy)
    uv += (k.cx, k.cy)
    return uv, valid[:, 0]
