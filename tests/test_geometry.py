import math
import re

import numpy as np
import pytest

from ego_focus import (
    CameraPose,
    ConfigError,
    GravityYpr,
    Intrinsics,
    InvalidPoseError,
    PlanError,
    PoseBatch,
    compose_gravity_ypr,
    project_pinhole_many,
    rotation_about_gravity,
    rotation_angle,
)
from ego_focus.geometry import _gravity_ypr, orthonormalize, rotation_drift, window_median


def random_rotation(rng):
    """Uniform-ish rotation via QR of a Gaussian matrix, det fixed to +1."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def random_pose(rng, frame_index=0):
    return CameraPose(
        frame_index=frame_index,
        rotation=random_rotation(rng),
        translation=rng.standard_normal(3),
    )


def pose_matrix(pose):
    """4x4 homogeneous world-to-camera matrix of a pose."""
    m = np.eye(4)
    m[:3, :3] = pose.rotation
    m[:3, 3] = pose.translation
    return m


class TestCameraPose:
    def test_frames_must_fit_int64(self):
        last = 2**63 - 1
        two = (np.stack([np.eye(3)] * 2), np.zeros((2, 3)))
        assert CameraPose(last, np.eye(3), np.zeros(3)).frame_index == last
        assert PoseBatch(last - 1, *two).end_frame == 2**63
        for frame in (-1, 2**63):
            with pytest.raises(ValueError, match="frame_index must be >= 0 and < 2"):
                CameraPose(frame, np.eye(3), np.zeros(3))
        for first in (-1, last):
            with pytest.raises(ValueError, match="first_frame must be >= 0"):
                PoseBatch(first, *two)
        # a float or a bool is not a frame number, even where int() takes it
        for frame in (2.7, 2.0, True):
            with pytest.raises(ValueError, match=f"^frame_index must be an integer, got {frame}$"):
                CameraPose(frame, np.eye(3), np.zeros(3))
        for first in (1.5, np.float64(1.0), False):
            with pytest.raises(ValueError, match="^first_frame must be an integer, got"):
                PoseBatch(first, *two)
        assert PoseBatch(np.int64(3), *two).first_frame == 3

    def test_rejects_non_orthonormal(self):
        bad = np.eye(3)
        bad[0, 0] = 1.1
        with pytest.raises(InvalidPoseError):
            CameraPose(frame_index=0, rotation=bad, translation=np.zeros(3))

    def test_rejects_reflection(self):
        flip = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(InvalidPoseError):
            CameraPose(frame_index=0, rotation=flip, translation=np.zeros(3))

    def test_small_drift_kept_bit_for_bit(self):
        # drift below 1e-9 must be stored untouched
        r = np.eye(3)
        r[0, 1] = 1e-11
        pose = CameraPose(frame_index=0, rotation=r, translation=np.zeros(3))
        assert pose.rotation[0, 1] == 1e-11

    def test_moderate_drift_reorthonormalized(self):
        rng = np.random.default_rng(3)
        r = random_rotation(rng)
        noisy = r + 1e-6 * rng.standard_normal((3, 3))
        pose = CameraPose(frame_index=0, rotation=noisy, translation=np.zeros(3))
        assert rotation_drift(pose.rotation) <= 1e-9
        # repaired matrix stays close to the uncorrupted one
        assert np.abs(pose.rotation - r).max() < 1e-5

    def test_large_drift_rejected(self):
        r = np.eye(3) + 1e-3
        with pytest.raises(InvalidPoseError):
            CameraPose(frame_index=0, rotation=r, translation=np.zeros(3))

    def test_arrays_are_readonly(self):
        pose = CameraPose(frame_index=0, rotation=np.eye(3), translation=np.zeros(3))
        with pytest.raises(ValueError):
            pose.rotation[0, 0] = 2.0
        with pytest.raises(ValueError):
            pose.translation[0] = 1.0

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(11)
        pose = random_pose(rng, frame_index=7)
        back = CameraPose.from_matrix(7, pose_matrix(pose))
        np.testing.assert_allclose(back.rotation, pose.rotation, rtol=0, atol=1e-15)
        np.testing.assert_allclose(back.translation, pose.translation, rtol=0, atol=1e-15)

    def test_from_matrix_rejects_bad_last_row(self):
        m = np.eye(4)
        m[3, 1] = 1e-6
        with pytest.raises(InvalidPoseError):
            CameraPose.from_matrix(0, m)

    def test_from_matrix_rejects_nan_last_row(self):
        m = np.eye(4)
        m[3] = np.nan
        with pytest.raises(InvalidPoseError, match="last row"):
            CameraPose.from_matrix(0, m)


def drifted(rotation, size, seed):
    """rotation plus a symmetric perturbation whose drift is about `size`."""
    e = np.random.default_rng(seed).standard_normal((3, 3))
    return rotation + 0.25 * size * (e + e.T) / np.abs(e + e.T).max()


def validation_cases():
    """(label, rotation, translation, accepted) rows for each drift-policy case."""
    rng = np.random.default_rng(21)
    base = [random_rotation(rng) for _ in range(5)]
    nan_t = np.array([0.0, np.nan, 1.0])
    inf_r = base[4].copy()
    inf_r[1, 2] = np.inf
    return [
        ("exact", base[0], rng.standard_normal(3), True),
        ("drift <= 1e-9", drifted(base[1], 1e-10, 1), rng.standard_normal(3), True),
        ("drift in (1e-9, 1e-4]", drifted(base[2], 1e-6, 2), rng.standard_normal(3), True),
        ("drift > 1e-4", drifted(base[3], 1e-2, 3), rng.standard_normal(3), False),
        ("det <= 0", -base[3], rng.standard_normal(3), False),
        ("non-finite rotation", inf_r, rng.standard_normal(3), False),
        ("non-finite translation", base[4], nan_t, False),
    ]


class TestPoseBatchValidation:
    """Batched validation must give, row by row, what CameraPose gives."""

    def test_cases_cover_each_drift_band(self):
        drifts = {label: rotation_drift(r) for label, r, _, _ in validation_cases()[:4]}
        assert drifts["drift <= 1e-9"] <= 1e-9
        assert 1e-9 < drifts["drift in (1e-9, 1e-4]"] <= 1e-4
        assert drifts["drift > 1e-4"] > 1e-4

    def test_accepted_rows_match_camera_pose_bitwise(self):
        rows = [(r, t) for _, r, t, ok in validation_cases() if ok]
        batch = PoseBatch(40, np.stack([r for r, _ in rows]), np.stack([t for _, t in rows]))
        for i, (r, t) in enumerate(rows):
            single = CameraPose(40 + i, r, t)
            assert batch.rotations[i].tobytes() == single.rotation.tobytes()
            assert batch.translations[i].tobytes() == single.translation.tobytes()
        # below the tolerance the input is stored untouched, above it repaired
        assert batch.rotations[1].tobytes() == rows[1][0].tobytes()
        assert batch.rotations[2].tobytes() != rows[2][0].tobytes()
        assert rotation_drift(batch.rotations[2]) <= 1e-9

    def test_rejected_rows_raise_what_camera_pose_raises(self):
        good = [(r, t) for _, r, t, ok in validation_cases() if ok]
        for label, r, t, ok in validation_cases():
            if ok:
                continue
            with pytest.raises(InvalidPoseError) as single:
                CameraPose(72, r, t)
            # the bad row sits at position 2, frame 70 + 2
            rows = good[:2] + [(r, t)] + good[2:]
            with pytest.raises(InvalidPoseError) as batched:
                PoseBatch(70, np.stack([x for x, _ in rows]), np.stack([y for _, y in rows]))
            assert str(batched.value) == str(single.value), label
            assert str(batched.value).startswith("frame 72:"), label

    def test_first_offending_frame_is_named(self):
        r = np.stack([np.eye(3)] * 4)
        r[1] = np.diag([1.0, 1.0, -1.0])
        r[3, 0, 0] = np.nan
        with pytest.raises(InvalidPoseError, match="^frame 6: rotation is a reflection"):
            PoseBatch(5, r, np.zeros((4, 3)))


class TestPoseBatchSequence:
    def batch(self, n=6, first=10):
        rng = np.random.default_rng(5)
        return PoseBatch(first, np.stack([random_rotation(rng) for _ in range(n)]),
                         rng.standard_normal((n, 3)))

    def test_rows_are_camera_poses(self):
        b = self.batch()
        assert len(b) == 6 and b.end_frame == 16
        assert [p.frame_index for p in b] == list(range(10, 16))
        assert b[2] == b[2]
        assert b[-1].frame_index == 15
        np.testing.assert_array_equal(b.centers, np.stack([p.center for p in b]))
        with pytest.raises(ValueError):
            b.rotations[0, 0, 0] = 2.0

    def test_slices(self):
        b = self.batch()
        part = b[2:5]
        assert isinstance(part, PoseBatch)
        assert (part.first_frame, len(part)) == (12, 3)
        assert list(part) == [b[2], b[3], b[4]]
        for step in (2, -1):  # the rows would not be consecutive frames
            with pytest.raises(ValueError, match=f"slice step must be 1 .*, got {step}$"):
                b[::step]
        assert len(b[7:9]) == 0

    def test_from_poses_and_concat_need_consecutive_frames(self):
        b = self.batch()
        assert PoseBatch.concat(list(b)) == b
        assert PoseBatch.concat([b[:2], b[2:]]) == b
        with pytest.raises(PlanError, match="11 followed by 13"):
            PoseBatch.concat([b[0], b[1], b[3]])
        with pytest.raises(PlanError):
            PoseBatch.concat([b[:2], b[3:]])

    def test_pickle_round_trip(self):
        import pickle

        b = self.batch()
        back = pickle.loads(pickle.dumps(b))
        assert back == b
        assert back.rotations.tobytes() == b.rotations.tobytes()

    def test_row_is_a_one_row_batch_view(self):
        b = self.batch()
        row = b[3]
        assert isinstance(row, CameraPose) and isinstance(row, PoseBatch)
        assert len(row) == 1 and row.first_frame == row.frame_index == 13
        assert np.shares_memory(row.rotations, b.rotations)
        assert row == CameraPose(13, b.rotations[3], b.translations[3])
        assert row == b[3:4] and list(row) == [row]

    def test_pickled_camera_pose_stays_a_camera_pose(self):
        import pickle

        pose = self.batch()[4]
        back = pickle.loads(pickle.dumps(pose))
        assert type(back) is CameraPose
        assert back == pose and back.frame_index == 14
        assert back.rotation.tobytes() == pose.rotation.tobytes()

    def test_center_is_centers_row_bit_for_bit(self):
        b = self.batch(n=50)
        for i, pose in enumerate(b):
            assert pose.center.tobytes() == pose.centers[0].tobytes()
            assert pose.center.tobytes() == b.centers[i].tobytes()


class TestInversionAndCenters:
    def test_center_matches_inverse_matrix(self):
        rng = np.random.default_rng(7)
        for i in range(50):
            pose = random_pose(rng, frame_index=i)
            expected = np.linalg.inv(pose_matrix(pose))[:3, 3]
            np.testing.assert_allclose(pose.center, expected, rtol=0, atol=1e-12)

    def test_center_maps_to_origin(self):
        rng = np.random.default_rng(8)
        pose = random_pose(rng)
        mapped = pose.rotation @ pose.center + pose.translation
        np.testing.assert_allclose(mapped, np.zeros(3), rtol=0, atol=1e-14)


class TestGravityYpr:
    # [DERIVED] entries of R_Y(0.3) @ R_X(-0.2) @ R_Z(0.1) from an
    # independent plain-math composition.
    YPR_MATRIX = np.array(
        [
            [0.9447024859948943, -0.1537919979889642, 0.28962947762551555],
            [0.09784339500725571, 0.975170327201816, 0.19866933079506122],
            [-0.31299182578546797, -0.1593450793079779, 0.9362933635841992],
        ]
    )

    def test_compose_worked_example(self):
        m = compose_gravity_ypr(0.3, -0.2, 0.1)
        np.testing.assert_allclose(m, self.YPR_MATRIX, rtol=0, atol=1e-15)

    def test_decompose_worked_example(self):
        ypr = _gravity_ypr(self.YPR_MATRIX)
        assert ypr.yaw == pytest.approx(0.3, abs=1e-12)
        assert ypr.pitch == pytest.approx(-0.2, abs=1e-12)
        assert ypr.roll == pytest.approx(0.1, abs=1e-12)

    def test_round_trip_random_angles(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            yaw = rng.uniform(-math.pi, math.pi)
            pitch = rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3)
            roll = rng.uniform(-math.pi, math.pi)
            m = compose_gravity_ypr(yaw, pitch, roll)
            back = _gravity_ypr(m)
            np.testing.assert_allclose(
                compose_gravity_ypr(back.yaw, back.pitch, back.roll), m, rtol=0, atol=1e-9
            )
            assert back.pitch == pytest.approx(pitch, abs=1e-9)

    def test_pure_yaw_recovered_exactly(self):
        ypr = _gravity_ypr(rotation_about_gravity(0.3))
        assert ypr.yaw == 0.3
        assert ypr.pitch == pytest.approx(0.0, abs=0.0)
        assert ypr.roll == 0.0

    def test_angles_wrap_into_half_open_pi(self):
        m = compose_gravity_ypr(math.pi, 0.0, 0.0)
        ypr = _gravity_ypr(m)
        assert -math.pi < ypr.yaw <= math.pi

    def test_gimbal_lock_returns_roll_zero_factorization(self):
        # pitch at +90deg collapses yaw/roll into one degree of freedom
        m = compose_gravity_ypr(0.4, math.pi / 2, 0.0)
        ypr = _gravity_ypr(m)
        assert ypr.roll == 0.0
        assert ypr.yaw == pytest.approx(0.4, abs=1e-9)
        assert ypr.pitch == math.pi / 2

    def test_near_gimbal_inside_tolerance_snaps_to_gimbal_lock(self):
        m = compose_gravity_ypr(0.0, math.pi / 2 - 1e-8, 0.0)
        assert _gravity_ypr(m) == GravityYpr(0.0, math.pi / 2, 0.0)

    def test_just_outside_gimbal_tolerance_decomposes(self):
        pitch = math.pi / 2 - 1e-4
        m = compose_gravity_ypr(0.2, pitch, -0.3)
        back = _gravity_ypr(m)
        np.testing.assert_allclose(compose_gravity_ypr(back.yaw, back.pitch, back.roll), m, rtol=0, atol=1e-9)


class TestRotationHelpers:
    def test_rotation_angle_identity(self):
        assert rotation_angle(np.eye(3), np.eye(3)) == 0.0

    def test_rotation_angle_known_value(self):
        a = rotation_about_gravity(0.0)
        b = rotation_about_gravity(0.7)
        assert rotation_angle(a, b) == pytest.approx(0.7, abs=1e-12)

    def test_rotation_angle_of_stacks_matches_each_pair(self):
        rng = np.random.default_rng(21)
        a = np.stack([random_rotation(rng) for _ in range(200)])
        b = orthonormalize(a + rng.uniform(0.0, 1.0, (200, 1, 1)) * rng.standard_normal(a.shape))
        b[:3] = a[:3]  # angle 0 ...
        b[3] = a[3] @ compose_gravity_ypr(math.pi, 0.0, 0.0)  # ... and near pi
        angles = rotation_angle(a, b)
        assert angles.shape == (200,)
        np.testing.assert_array_equal(angles, [rotation_angle(x, y) for x, y in zip(a, b)])
        assert rotation_angle(a[:0], b[:0]).shape == (0,)

    def test_rotation_drift_of_a_stack_matches_each_matrix(self):
        rng = np.random.default_rng(22)
        r = np.stack([random_rotation(rng) for _ in range(200)])
        r += 10.0 ** rng.uniform(-16, 0, (200, 1, 1)) * rng.standard_normal(r.shape)
        r[5, 1, 2] = np.nan
        r[6, 0, 0] = np.inf
        drift = rotation_drift(r)
        assert drift.shape == (200,)
        np.testing.assert_array_equal(drift, [rotation_drift(m) for m in r])
        assert np.isnan(drift[5]) and not drift[6] <= 1.0
        assert rotation_drift(r[:0]).shape == (0,)

    @pytest.mark.parametrize("count", [1, 2, 5, 6, 15])
    def test_window_median_equals_numpy(self, count):
        rng = np.random.default_rng(count)
        for _ in range(50):
            values = rng.lognormal(0.0, 2.0, count) * rng.choice([-1.0, 1.0], count)
            want = np.median(values)
            assert window_median(values) == want and type(window_median(values)) is float
        special = rng.lognormal(0.0, 1.0, count)
        special[0] = np.inf
        assert window_median(special) == np.median(special)
        special[-1] = np.nan
        assert math.isnan(window_median(special))
        if count % 2 == 0:  # the mean of the middle two may overflow, as np.median's does
            big = np.full(count, 1e308)
            with np.errstate(over="ignore"):
                assert window_median(big) == np.median(big) == np.inf

    def test_orthonormalize_projects_back(self):
        rng = np.random.default_rng(13)
        r = random_rotation(rng)
        noisy = r + 1e-5 * rng.standard_normal((3, 3))
        fixed = orthonormalize(noisy)
        assert rotation_drift(fixed) < 1e-12
        assert np.linalg.det(fixed) > 0.0


class TestIntrinsics:
    def test_k_matrix_layout(self):
        k = Intrinsics(fx=600.0, fy=600.0, cx=480.0, cy=270.0, width=960, height=540)
        expected = np.array([[600.0, 0.0, 480.0], [0.0, 600.0, 270.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(k.K, expected, rtol=0, atol=0)

    def test_validation_names_offending_key(self):
        from ego_focus import ConfigError

        with pytest.raises(ConfigError, match="fx"):
            Intrinsics(fx=-1.0, fy=600.0, cx=480.0, cy=270.0, width=960, height=540)
        with pytest.raises(ConfigError, match="width"):
            Intrinsics(fx=600.0, fy=600.0, cx=480.0, cy=270.0, width=0, height=540)
        # sizes are integers, 2.0 and True included; numpy integers pass
        base = dict(fx=10.0, fy=10.0, cx=40.0, cy=30.0, width=80, height=60)
        for key, value in (("width", 80.5), ("height", 2.0), ("width", "80"), ("width", True),
                           ("height", True)):
            with pytest.raises(ConfigError, match=f"^{key}: must be an integer, got {value!r}$"):
                Intrinsics(**dict(base, **{key: value}))
        assert Intrinsics(**dict(base, width=np.int64(80), height=np.uint16(60))).width == 80
        # the focal lengths and the principal point are finite numbers, not True
        for key, value in (("fx", "a"), ("cx", None), ("fx", True), ("fy", math.nan),
                           ("fx", 10**400)):
            with pytest.raises(ConfigError, match=f"^{key}: must be a finite number, got "
                                                  f"{re.escape(repr(value))}$"):
                Intrinsics(**dict(base, **{key: value}))

    def test_scaled_divides_everything(self):
        k = Intrinsics(fx=600.0, fy=500.0, cx=480.0, cy=270.0, width=960, height=540)
        half = k.scaled(2)
        assert half.fx == 300.0 and half.fy == 250.0
        assert half.cx == 240.0 and half.cy == 135.0
        assert half.width == 480 and half.height == 270

    def test_scaled_divisor_is_an_integer_named_map_scale(self):
        k = Intrinsics(fx=600.0, fy=500.0, cx=480.0, cy=270.0, width=960, height=540)
        for divisor in (2.0, 1.5, True, "2"):
            with pytest.raises(ConfigError, match=f"^map_scale: must be an integer, got "
                                                  f"{re.escape(repr(divisor))}$"):
                k.scaled(divisor)
        with pytest.raises(ConfigError, match="^map_scale: must be >= 1, got 0$"):
            k.scaled(0)
        assert k.scaled(np.int64(2)) == k.scaled(2)


class TestProjection:
    K = Intrinsics(fx=600.0, fy=600.0, cx=480.0, cy=270.0, width=960, height=540)

    def project(self, v):
        """(u, v) of one vector, or None when it does not project."""
        uv, valid = project_pinhole_many(np.asarray(v, dtype=np.float64)[None], self.K)
        return (uv[0, 0], uv[0, 1]) if valid[0] else None

    def test_worked_example(self):
        # [TRIVIAL] u = 480 + 600*0.2/0.5, v = 270 + 600*(-0.1)/0.5
        uv = self.project([0.2, -0.1, 0.5])
        assert uv == (720.0, 150.0)

    def test_matches_homogeneous_dehomogenization(self):
        rng = np.random.default_rng(31)
        vs = rng.uniform(-1.0, 1.0, size=(500, 3))
        vs[:, 2] = rng.uniform(0.05, 3.0, size=500)
        uv, valid = project_pinhole_many(vs, self.K)
        assert valid.all()
        h = vs @ self.K.K.T
        np.testing.assert_allclose(uv, h[:, :2] / h[:, 2:], rtol=0, atol=1e-9)

    def test_scale_invariance(self):
        v = np.array([0.3, 0.2, 1.4])
        a = np.array(self.project(v))
        for lam in (1e-3, 0.1, 10.0, 1e3):
            b = np.array(self.project(lam * v))
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)

    def test_small_depth_rejected(self):
        assert self.project([0.1, 0.1, 1e-7]) is None
        assert self.project([0.1, 0.1, 0.0]) is None
        assert self.project([0.1, 0.1, -0.5]) is None

    def test_vectorized_matches_scalar_bitwise(self):
        # row by row in Python floats: cx + fx * (x / z), kept when z > DEFAULT_EPS_Z
        rng = np.random.default_rng(33)
        vs = rng.uniform(-1.0, 1.0, size=(200, 3))
        vs[::3, 2] = -vs[::3, 2]  # mix of signs, some rejected
        uv, valid = project_pinhole_many(vs, self.K)
        for i, (x, y, z) in enumerate(vs.tolist()):
            if z <= 1e-6:
                assert not valid[i]
                assert np.isnan(uv[i]).all()
            else:
                assert valid[i]
                assert (uv[i, 0], uv[i, 1]) == (480.0 + 600.0 * (x / z), 270.0 + 600.0 * (y / z))
