"""Synthetic pose streams with analytic ground truth.

Five closed-form scenarios (constant velocity, circular arc, braking,
climbing, and an arc ridden with a diverging head yaw) produce
world-to-camera pose streams plus the exact continuous-time position,
velocity and acceleration sampled per frame. The camera is
heading-locked: its forward axis tracks the velocity direction, its
down axis stays as close to gravity (+Y) as the path allows. Optional
head-bob / jitter noise perturbs the poses only; the embedded truth is
always the clean path, so noise-robustness tests compare against it.
Poses come out as PoseBatch chunks checked by the drift policy where
they are made, each with a TrajectoryTruth of one row per frame.

Everything is deterministic under the seed, independently of how the
stream is chunked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, PlanError
from .geometry import (
    DEFAULT_EPS_Z,
    CameraPose,
    Intrinsics,
    PoseBatch,
    RigidTransform,
    compose_gravity_ypr,
    require_integer,
    require_number,
    rotation_about_gravity,
)

SCENARIOS = (
    "constant_velocity",
    "circular_arc",
    "brake",
    "climb",
    "head_yaw_divergence",
)

# CLI-friendly aliases.
_SCENARIO_ALIASES = {
    "constant-velocity": "constant_velocity",
    "arc": "circular_arc",
    "head-yaw": "head_yaw_divergence",
    "head_yaw": "head_yaw_divergence",
}

_ZERO_SPEED = 1e-12


def canonical_scenario(name: str) -> str:
    kind = _SCENARIO_ALIASES.get(name, name)
    if kind not in SCENARIOS:
        raise ConfigError("scenario", f"unknown scenario {name!r}; choose from {SCENARIOS}")
    return kind


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """Parameters of one synthetic run.

    Only the parameters relevant to `kind` are read: speed
    (constant_velocity, brake, climb), radius/omega (circular_arc,
    head_yaw_divergence, which move at radius * omega), decel (brake),
    climb_rate (climb), head_yaw_* (head_yaw_divergence). Noise applies
    to every kind. Every float parameter must be finite.
    """

    kind: str
    frames: int
    seed: int = 0
    speed: float = 0.1
    radius: float = 2.0
    omega: float = 0.05
    decel: float = 0.01
    climb_rate: float = 0.05
    head_yaw_amplitude: float = 0.3
    head_yaw_frequency: float = 0.02
    bob_amplitude: float = 0.0
    jitter_amplitude_rad: float = 0.0
    noise_kind: str = "bob"

    def __post_init__(self):
        object.__setattr__(self, "kind", canonical_scenario(self.kind))
        require_integer("frames", self.frames)
        require_integer("seed", self.seed)
        if self.frames < 1:
            raise ConfigError("frames", f"must be >= 1, got {self.frames}")
        if self.seed < 0:
            raise ConfigError("seed", f"must be >= 0, got {self.seed}")
        for f in fields(self):
            if f.type == "float":
                require_number(f.name, getattr(self, f.name))
        if self.kind in ("circular_arc", "head_yaw_divergence"):
            if self.radius <= 0 or self.omega == 0.0:
                raise ConfigError("radius" if self.radius <= 0 else "omega",
                                  "arc needs radius > 0 and omega != 0")
        if self.kind == "brake" and self.decel <= 0:
            raise ConfigError("decel", f"must be > 0, got {self.decel}")
        if self.noise_kind not in ("bob", "white"):
            raise ConfigError("noise_kind", f"must be 'bob' or 'white', got {self.noise_kind!r}")
        for key in ("bob_amplitude", "jitter_amplitude_rad"):
            if getattr(self, key) < 0:
                raise ConfigError(key, "noise amplitudes must be >= 0")


@dataclass(frozen=True, slots=True)
class TrajectoryTruth:
    """Clean analytic kinematics: position, velocity and acceleration, one (3,) row per frame."""

    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray


def _splitmix_unit(seed: int, frames: np.ndarray, lane: int) -> np.ndarray:
    """Hash-based uniform in [-1, 1), chunk-independent by construction."""
    x = frames.astype(np.uint64)
    x = x * np.uint64(0x9E3779B97F4A7C15)
    x ^= np.uint64((int(seed) * 0xBF58476D1CE4E5B9 + lane * 0x94D049BB133111EB) % 2**64)
    x ^= x >> np.uint64(30)
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x = x * np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x.astype(np.float64) / 2.0**63 - 1.0


def _noise_draws(seed: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Bob phases, jitter axis and jitter phase: shared by every chunk of one stream."""
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=3)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return phases, axis, float(rng.uniform(0.0, 2.0 * math.pi))


_BOB_FREQS = np.array([0.11, 0.23, 0.11])
_JITTER_FREQ = 0.17
# Component weights keep the bob displacement norm strictly below the
# amplitude: sqrt(0.3^2 + 0.9^2 + 0.3^2) < 1.
_BOB_WEIGHTS = np.array([0.3, 0.9, 0.3])


def _bob_offsets(spec: ScenarioSpec, phases: np.ndarray, t: np.ndarray) -> np.ndarray:
    if spec.bob_amplitude == 0.0:
        return np.zeros((t.shape[0], 3))
    if spec.noise_kind == "white":
        lanes = [_splitmix_unit(spec.seed, t.astype(np.int64), lane) for lane in range(3)]
        unit = np.stack(lanes, axis=1) / math.sqrt(3.0)
    else:
        args = 2.0 * math.pi * _BOB_FREQS[None, :] * t[:, None] + phases[None, :]
        unit = _BOB_WEIGHTS[None, :] * np.sin(args)
    return spec.bob_amplitude * unit


def _rotvec_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + s * k + (1.0 - c) * (k @ k)


def _kinematics(spec: ScenarioSpec, t: np.ndarray):
    """Closed-form clean position/velocity/acceleration at frame times t."""
    n = t.shape[0]
    pos = np.zeros((n, 3))
    vel = np.zeros((n, 3))
    acc = np.zeros((n, 3))
    if spec.kind == "constant_velocity":
        pos[:, 2] = spec.speed * t
        vel[:, 2] = spec.speed
    elif spec.kind in ("circular_arc", "head_yaw_divergence"):
        r, w = spec.radius, spec.omega
        pos[:, 0] = r * np.sin(w * t)
        pos[:, 2] = r * np.cos(w * t)
        vel[:, 0] = r * w * np.cos(w * t)
        vel[:, 2] = -r * w * np.sin(w * t)
        acc[:, 0] = -r * w * w * np.sin(w * t)
        acc[:, 2] = -r * w * w * np.cos(w * t)
    elif spec.kind == "brake":
        t_stop = spec.speed / spec.decel
        moving = t < t_stop
        tc = np.minimum(t, t_stop)
        pos[:, 2] = spec.speed * tc - 0.5 * spec.decel * tc * tc
        vel[:, 2] = np.where(moving, spec.speed - spec.decel * t, 0.0)
        acc[:, 2] = np.where(moving, -spec.decel, 0.0)
    elif spec.kind == "climb":
        # Level first third, constant upward acceleration in the middle
        # third, steady climb after. World +Y points down.
        f1 = spec.frames // 3
        f2 = max(f1 + 1, (2 * spec.frames) // 3)
        a_up = spec.climb_rate / (f2 - f1)
        tr = np.clip(t - f1, 0.0, f2 - f1)
        vy_up = np.minimum(a_up * tr, spec.climb_rate)
        y_up = 0.5 * a_up * tr * tr + spec.climb_rate * np.maximum(t - f2, 0.0)
        pos[:, 2] = spec.speed * t
        pos[:, 1] = -y_up
        vel[:, 2] = spec.speed
        vel[:, 1] = -vy_up
        acc[:, 1] = np.where((t >= f1) & (t < f2), -a_up, 0.0)
    else:  # pragma: no cover - guarded by ScenarioSpec
        raise ConfigError("scenario", f"unhandled kind {spec.kind!r}")
    return pos, vel, acc


def _heading_frames(vel: np.ndarray) -> np.ndarray:
    """Camera-to-world rotations with forward = velocity direction.

    Zero-velocity rows fall back to +Z (only the braked-to-rest tail
    hits this, where the path is straight anyway).
    """
    n = vel.shape[0]
    norms = np.linalg.norm(vel, axis=1)
    fwd = np.where(norms[:, None] > _ZERO_SPEED, vel / np.maximum(norms, _ZERO_SPEED)[:, None],
                   np.array([0.0, 0.0, 1.0]))
    gy = fwd[:, 1]
    down = -gy[:, None] * fwd
    down[:, 1] += 1.0
    dn = np.linalg.norm(down, axis=1)
    if np.any(dn < 1e-9):
        raise PlanError("heading is vertical; gravity-locked camera frame undefined")
    down /= dn[:, None]
    # np.cross's own arithmetic, component by component: its generic
    # axis handling leaves small objects behind per call, which made the
    # footprint of a long chunked stream creep up with its length.
    right = np.empty_like(fwd)
    right[:, 0] = down[:, 1] * fwd[:, 2] - down[:, 2] * fwd[:, 1]
    right[:, 1] = down[:, 2] * fwd[:, 0] - down[:, 0] * fwd[:, 2]
    right[:, 2] = down[:, 0] * fwd[:, 1] - down[:, 1] * fwd[:, 0]
    r_c2w = np.empty((n, 3, 3))
    r_c2w[:, :, 0] = right
    r_c2w[:, :, 1] = down
    r_c2w[:, :, 2] = fwd
    return r_c2w


def _poses_for_range(spec: ScenarioSpec, noise: tuple, start: int, stop: int):
    """Frames start to stop - 1 as a PoseBatch checked by the drift policy, and their truth."""
    # A parameter that overflows the poses (a huge speed) fails the check with
    # no numpy warning. numpy's error state is a context variable, so it is set
    # here and not around a yield, where it would hold in the caller.
    with np.errstate(over="ignore", invalid="ignore"):
        phases, axis, phase = noise
        t = np.arange(start, stop, dtype=np.float64)
        pos, vel, acc = _kinematics(spec, t)
        r_c2w = _heading_frames(vel)

        if spec.kind == "head_yaw_divergence":
            phi = spec.head_yaw_amplitude * np.sin(2.0 * math.pi * spec.head_yaw_frequency * t)
            ry = np.stack([rotation_about_gravity(a) for a in phi])
            r_c2w = np.einsum("nij,njk->nik", ry, r_c2w)

        centers = pos + _bob_offsets(spec, phases, t)

        if spec.jitter_amplitude_rad > 0.0:
            if spec.noise_kind == "white":
                unit = _splitmix_unit(spec.seed, t.astype(np.int64), 3)
            else:
                unit = np.sin(2.0 * math.pi * _JITTER_FREQ * t + phase)
            angles = spec.jitter_amplitude_rad * unit
            jitter = np.stack([_rotvec_matrix(axis, a) for a in angles])
            r_c2w = np.einsum("nij,njk->nik", r_c2w, jitter)

        r_w2c = np.ascontiguousarray(np.transpose(r_c2w, (0, 2, 1)))
        t_w2c = -np.einsum("nij,nj->ni", r_w2c, centers)
        return PoseBatch(start, r_w2c, t_w2c), TrajectoryTruth(pos, vel, acc)


def generate_trajectory(spec: ScenarioSpec) -> tuple[PoseBatch, TrajectoryTruth]:
    """All frames at once, as one checked PoseBatch. Use iter_trajectory for long streams."""
    return _poses_for_range(spec, _noise_draws(spec.seed), 0, spec.frames)


def iter_trajectory(spec: ScenarioSpec, chunk_size: int = 512
                    ) -> Iterator[tuple[PoseBatch, TrajectoryTruth]]:
    """Checked chunks with bounded memory; chunking never changes values."""
    require_integer("chunk_size", chunk_size)
    if chunk_size < 1:
        raise ConfigError("chunk_size", f"must be >= 1, got {chunk_size}")
    noise = _noise_draws(spec.seed)
    for start in range(0, spec.frames, chunk_size):
        yield _poses_for_range(spec, noise, start, min(start + chunk_size, spec.frames))


def oracle_focus_point(a_world: np.ndarray, pose: CameraPose, k: Intrinsics):
    """Project a ground-truth world acceleration through a pose.

    Rotation-multiply, then dehomogenisation of K @ a_c through the
    intrinsic matrix; no second differences involved. The discrete
    pipeline's second difference at frame t is centered on frame t-1,
    so to predict its output pass the truth acceleration of frame t-1
    together with the pose of frame t. Returns (u, v), or None when the
    depth a_c[2] is at most DEFAULT_EPS_Z.
    """
    a_c = pose.rotation @ np.asarray(a_world, dtype=np.float64).reshape(3)
    if a_c[2] <= DEFAULT_EPS_Z:
        return None
    h = k.K @ a_c
    return float(h[0] / h[2]), float(h[1] / h[2])


def perturb_batches(batches: Sequence[PoseBatch],
                    yaw_range: float,
                    translation_range: float,
                    pitch_range: float = 0.0,
                    roll_range: float = 0.0,
                    seed: int = 0
                    ) -> tuple[list[PoseBatch], list[RigidTransform]]:
    """Give each window its own world frame, like independent inferences.

    Window k's poses become T o D_k for a random world-side disturbance
    D_k (yaw about gravity, optional pitch/roll, then translation);
    recovering D_k is exactly the stitcher's job. The first window is
    left untouched so the stitched result stays in the ground-truth
    frame.
    """
    rng = np.random.default_rng(seed)
    out_batches: list[PoseBatch] = []
    disturbances: list[RigidTransform] = []
    for idx, batch in enumerate(batches):
        yaw = float(rng.uniform(-yaw_range, yaw_range))
        pitch = float(rng.uniform(-pitch_range, pitch_range)) if pitch_range else 0.0
        roll = float(rng.uniform(-roll_range, roll_range)) if roll_range else 0.0
        trans = rng.uniform(-translation_range, translation_range, size=3)
        if idx == 0:
            # untouched, not merely composed with identity: same batch out
            disturbances.append(RigidTransform(np.eye(3), np.zeros(3)))
            out_batches.append(batch)
            continue
        d = RigidTransform(compose_gravity_ypr(yaw, pitch, roll), trans)
        disturbances.append(d)
        out_batches.append(_compose_batch_world(batch, d))
    return out_batches, disturbances


def _compose_batch_world(batch: PoseBatch, d: RigidTransform) -> PoseBatch:
    """World-to-camera poses composed with a world-side map: T o D."""
    return PoseBatch(batch.first_frame, np.matmul(batch.rotations, d.rotation),
                     np.matmul(batch.rotations, d.translation) + batch.translations)
