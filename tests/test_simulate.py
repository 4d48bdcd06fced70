import math
import re

import numpy as np
import pytest

from ego_focus import (
    ConfigError,
    Intrinsics,
    InvalidPoseError,
    ScenarioSpec,
    generate_trajectory,
    iter_trajectory,
    oracle_focus_point,
)
from ego_focus.errors import PlanError
from ego_focus.geometry import rotation_angle, rotation_drift
from ego_focus.simulate import canonical_scenario

K = Intrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
WIDE = Intrinsics(fx=10.0, fy=10.0, cx=320.0, cy=240.0, width=640, height=480)


class TestScenarioSpec:
    def test_aliases_resolve(self):
        assert canonical_scenario("arc") == "circular_arc"
        assert canonical_scenario("head-yaw") == "head_yaw_divergence"
        assert ScenarioSpec(kind="arc", frames=10).kind == "circular_arc"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="scenario"):
            ScenarioSpec(kind="teleport", frames=10)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError, match="frames"):
            ScenarioSpec(kind="arc", frames=0)
        # frames and seed are integers, 2.0 and True included
        for key, value in (("frames", 10.5), ("frames", 10.0), ("frames", True),
                           ("seed", 1.5), ("seed", True)):
            with pytest.raises(ConfigError, match=f"^{key}: must be an integer, got {value!r}$"):
                ScenarioSpec(**{"kind": "arc", "frames": 10, key: value})
        # numpy integers pass, and a numpy seed draws what the same int seed draws
        white = dict(kind="arc", frames=10, noise_kind="white", bob_amplitude=0.1)
        assert generate_trajectory(ScenarioSpec(**white, seed=np.uint8(3)))[0] == \
            generate_trajectory(ScenarioSpec(**white, seed=3))[0]
        assert ScenarioSpec(kind="arc", frames=np.int64(10)).frames == 10
        with pytest.raises(ConfigError, match="radius"):
            ScenarioSpec(kind="arc", frames=10, radius=0.0)
        with pytest.raises(ConfigError, match="omega"):
            ScenarioSpec(kind="arc", frames=10, omega=0.0)
        with pytest.raises(ConfigError, match="decel"):
            ScenarioSpec(kind="brake", frames=10, decel=0.0)
        with pytest.raises(ConfigError, match="noise_kind"):
            ScenarioSpec(kind="brake", frames=10, noise_kind="pink")
        with pytest.raises(ConfigError):
            ScenarioSpec(kind="brake", frames=10, bob_amplitude=-0.1)
        # each parameter is reported under its own key; floats are finite numbers, not True
        for key, value, message in (
                ("bob_amplitude", -0.1, "noise amplitudes must be >= 0"),
                ("jitter_amplitude_rad", -1.0, "noise amplitudes must be >= 0"),
                ("speed", "a", "must be a finite number, got 'a'"),
                ("radius", True, "must be a finite number, got True"),
                ("omega", 10**400, f"must be a finite number, got {10**400}")):
            with pytest.raises(ConfigError, match=f"^{key}: {re.escape(message)}$"):
                ScenarioSpec(**{"kind": "arc", "frames": 10, key: value})


class TestConstantVelocity:
    def test_closed_form_centers_and_truth(self):
        spec = ScenarioSpec(kind="constant_velocity", frames=100, speed=0.1)
        poses, truth = generate_trajectory(spec)
        t = np.arange(100.0)
        np.testing.assert_allclose(truth.position[:, 2], 0.1 * t, rtol=0, atol=0)
        assert not truth.position[:, :2].any()
        np.testing.assert_array_equal(truth.acceleration, np.zeros((100, 3)))
        centers = np.stack([p.center for p in poses])
        np.testing.assert_allclose(centers, truth.position, rtol=0, atol=1e-15)

    def test_heading_locked_camera_is_axis_aligned(self):
        spec = ScenarioSpec(kind="constant_velocity", frames=5, speed=0.1)
        poses, _ = generate_trajectory(spec)
        for p in poses:
            np.testing.assert_allclose(p.rotation, np.eye(3), rtol=0, atol=1e-15)


class TestCircularArc:
    def test_centers_on_circle_with_centripetal_truth(self):
        spec = ScenarioSpec(kind="arc", frames=200, radius=2.0, omega=0.05)
        poses, truth = generate_trajectory(spec)
        radii = np.linalg.norm(truth.position, axis=1)
        np.testing.assert_allclose(radii, 2.0, rtol=1e-14)
        mags = np.linalg.norm(truth.acceleration, axis=1)
        np.testing.assert_allclose(mags, 2.0 * 0.05 ** 2, rtol=1e-12)
        # acceleration points at the circle's center
        np.testing.assert_allclose(
            truth.acceleration, -(0.05 ** 2) * truth.position, rtol=1e-12
        )
        centers = np.stack([p.center for p in poses])
        np.testing.assert_allclose(centers, truth.position, rtol=0, atol=1e-14)

    def test_camera_forward_tracks_velocity(self):
        spec = ScenarioSpec(kind="arc", frames=50, radius=2.0, omega=0.05)
        poses, truth = generate_trajectory(spec)
        for p, v in zip(poses, truth.velocity):
            fwd = p.rotation[2]  # world forward axis, third row of world-to-camera
            np.testing.assert_allclose(fwd, v / np.linalg.norm(v), rtol=0, atol=1e-12)
            # camera down axis has a positive world-Y (gravity) component
            assert p.rotation[1, 1] > 0.9

    def test_turn_direction_sign(self):
        # positive omega curves toward camera +X: the discrete focus points
        # lie right of the principal point, and left for negative omega
        from ego_focus import MotionStream

        for omega, side in ((0.05, 1.0), (-0.05, -1.0)):
            poses, _ = generate_trajectory(ScenarioSpec(kind="arc", frames=50, omega=omega))
            block = MotionStream(WIDE).push(poses)
            assert block.projectable.all()
            assert ((block.uv[:, 0] - WIDE.cx) * side > 0.0).all()


class TestBrake:
    def test_piecewise_kinematics(self):
        spec = ScenarioSpec(kind="brake", frames=40, speed=0.2, decel=0.01)
        _, truth = generate_trajectory(spec)
        t_stop = 20
        np.testing.assert_array_equal(
            truth.acceleration[:t_stop, 2], np.full(t_stop, -0.01)
        )
        np.testing.assert_array_equal(truth.acceleration[t_stop:], np.zeros((20, 3)))
        np.testing.assert_array_equal(truth.velocity[t_stop:], np.zeros((20, 3)))
        # stop distance v0^2 / (2 d) and frozen position afterwards
        np.testing.assert_allclose(truth.position[t_stop:, 2], 2.0, rtol=0, atol=1e-12)
        assert truth.velocity[0, 2] == 0.2

    def test_at_rest_heading_falls_back_to_forward(self):
        spec = ScenarioSpec(kind="brake", frames=40, speed=0.2, decel=0.01)
        poses, _ = generate_trajectory(spec)
        np.testing.assert_allclose(poses[-1].rotation, np.eye(3), rtol=0, atol=1e-15)

    def test_backward_acceleration_skipped_or_mirrored(self):
        spec = ScenarioSpec(kind="brake", frames=10, speed=0.2, decel=0.01)
        poses, truth = generate_trajectory(spec)
        assert oracle_focus_point(truth.acceleration[4], poses[5], K) is None


class TestClimb:
    def test_three_phase_profile(self):
        spec = ScenarioSpec(kind="climb", frames=90, speed=0.1, climb_rate=0.05)
        _, truth = generate_trajectory(spec)
        f1, f2 = 30, 60
        np.testing.assert_array_equal(truth.acceleration[:f1], np.zeros((f1, 3)))
        a_up = 0.05 / 30.0
        np.testing.assert_allclose(
            truth.acceleration[f1:f2, 1], np.full(30, -a_up), rtol=0, atol=0
        )
        np.testing.assert_array_equal(truth.acceleration[f2:], np.zeros((30, 3)))
        # steady climb after the ramp: vertical velocity equals the climb rate
        np.testing.assert_allclose(truth.velocity[f2:, 1], -0.05, rtol=0, atol=1e-15)
        assert truth.velocity[f1 - 1, 1] == 0.0
        # world +Y is down, so climbing means increasingly negative Y
        assert truth.position[-1, 1] < truth.position[f1, 1]

    def test_upward_acceleration_projects_above_center(self):
        spec = ScenarioSpec(kind="climb", frames=90, speed=0.1, climb_rate=0.05)
        poses, truth = generate_trajectory(spec)
        seen = 0
        for t in range(35, 60):
            uv = oracle_focus_point(truth.acceleration[t], poses[t], K)
            if uv is None:
                continue
            seen += 1
            assert uv[1] < K.cy  # image v axis points down
        assert seen > 10


class TestHeadYawDivergence:
    def test_gaze_diverges_from_heading_by_the_commanded_yaw(self):
        base = ScenarioSpec(kind="arc", frames=100, radius=2.0, omega=0.05)
        div = ScenarioSpec(
            kind="head_yaw_divergence", frames=100, radius=2.0, omega=0.05,
            head_yaw_amplitude=0.3, head_yaw_frequency=0.02,
        )
        arc_poses_, arc_truth = generate_trajectory(base)
        hy_poses, hy_truth = generate_trajectory(div)
        # same body path, different gaze
        np.testing.assert_array_equal(hy_truth.position, arc_truth.position)
        t = np.arange(100.0)
        phi = 0.3 * np.sin(2.0 * math.pi * 0.02 * t)
        for a, b, want in zip(arc_poses_, hy_poses, phi):
            assert rotation_angle(a.rotation, b.rotation) == pytest.approx(
                abs(want), abs=1e-9
            )

    def test_focus_column_wanders_with_gaze(self):
        div = ScenarioSpec(
            kind="head_yaw_divergence", frames=100, radius=2.0, omega=0.05,
            head_yaw_amplitude=0.3, head_yaw_frequency=0.02,
        )
        poses, truth = generate_trajectory(div)
        us = []
        for t in range(1, 100):
            uv = oracle_focus_point(truth.acceleration[t - 1], poses[t], WIDE)
            if uv is not None:
                us.append(uv[0])
        assert len(us) > 50
        assert np.ptp(us) > 10.0  # the pure arc pins u to one column


class TestDeterminismAndChunking:
    def test_same_seed_bitwise_identical(self):
        spec = ScenarioSpec(kind="arc", frames=64, bob_amplitude=0.02,
                            jitter_amplitude_rad=0.01, seed=9)
        a_poses, a_truth = generate_trajectory(spec)
        b_poses, b_truth = generate_trajectory(spec)
        for a, b in zip(a_poses, b_poses):
            assert a.rotation.tobytes() == b.rotation.tobytes()
            assert a.translation.tobytes() == b.translation.tobytes()
        assert a_truth.position.tobytes() == b_truth.position.tobytes()

    def test_different_seed_changes_noise(self):
        base = dict(kind="arc", frames=64, bob_amplitude=0.02)
        a, _ = generate_trajectory(ScenarioSpec(seed=1, **base))
        b, _ = generate_trajectory(ScenarioSpec(seed=2, **base))
        assert any(
            x.translation.tobytes() != y.translation.tobytes() for x, y in zip(a, b)
        )

    def test_chunking_never_changes_values(self):
        spec = ScenarioSpec(kind="head_yaw_divergence", frames=100, bob_amplitude=0.02,
                            jitter_amplitude_rad=0.01, seed=5)
        whole, whole_truth = generate_trajectory(spec)
        for chunk in (1, 7, 33):
            got_poses = []
            got_pos = []
            for poses, truth in iter_trajectory(spec, chunk_size=chunk):
                got_poses.extend(poses)
                got_pos.append(truth.position)
            assert [p.frame_index for p in got_poses] == list(range(100))
            for a, b in zip(got_poses, whole):
                assert a.rotation.tobytes() == b.rotation.tobytes()
                assert a.translation.tobytes() == b.translation.tobytes()
            assert np.concatenate(got_pos).tobytes() == whole_truth.position.tobytes()

    def test_bad_chunk_size_rejected(self):
        spec = ScenarioSpec(kind="arc", frames=20)
        with pytest.raises(ConfigError):
            next(iter_trajectory(spec, chunk_size=0))
        for value in (2.5, True):
            with pytest.raises(ConfigError, match=f"^chunk_size: must be an integer, got {value}$"):
                next(iter_trajectory(spec, chunk_size=value))


class TestNoise:
    def test_bob_displacement_bounded_by_amplitude(self):
        amp = 0.02
        spec = ScenarioSpec(kind="arc", frames=600, bob_amplitude=amp, seed=3)
        poses, truth = generate_trajectory(spec)
        centers = np.stack([p.center for p in poses])
        disp = np.linalg.norm(centers - truth.position, axis=1)
        assert disp.max() <= amp
        assert disp.max() > 0.0

    def test_noisy_rotations_stay_orthonormal(self):
        spec = ScenarioSpec(kind="arc", frames=200, bob_amplitude=0.02,
                            jitter_amplitude_rad=0.05, seed=3)
        poses, _ = generate_trajectory(spec)
        assert rotation_drift(poses.rotations).max() <= 1e-9

    def test_white_noise_is_chunk_independent(self):
        spec = ScenarioSpec(kind="constant_velocity", frames=50, bob_amplitude=0.01,
                            noise_kind="white", seed=11)
        whole, _ = generate_trajectory(spec)
        chunked = [p for poses, _ in iter_trajectory(spec, chunk_size=7) for p in poses]
        for a, b in zip(chunked, whole):
            assert a.translation.tobytes() == b.translation.tobytes()


class TestOracleAgainstDiscretePipeline:
    def test_arc_focus_sits_on_the_turn_side(self):
        for omega, side in ((0.05, 1.0), (-0.05, -1.0)):
            spec = ScenarioSpec(kind="arc", frames=100, radius=2.0, omega=omega)
            poses, truth = generate_trajectory(spec)
            for t in range(1, 100):
                uv = oracle_focus_point(truth.acceleration[t - 1], poses[t], WIDE)
                assert uv is not None
                assert (uv[0] - WIDE.cx) * side > 0.0

    def test_oracle_predicts_discrete_projection(self):
        # the discrete second difference at frame t is centered on t-1;
        # pairing truth acceleration t-1 with pose t reproduces it
        from ego_focus import MotionStream

        spec = ScenarioSpec(kind="arc", frames=100, radius=2.0, omega=0.05)
        poses, truth = generate_trajectory(spec)
        block = MotionStream(WIDE).push(poses)
        for i, t in enumerate(block.frames):
            uv = oracle_focus_point(truth.acceleration[t - 1], poses[t], WIDE)
            assert abs(block.uv[i, 0] - uv[0]) < 1e-6
            assert abs(block.uv[i, 1] - uv[1]) < 1e-6

    def test_constant_velocity_never_projectable(self):
        spec = ScenarioSpec(kind="constant_velocity", frames=50)
        poses, truth = generate_trajectory(spec)
        for t in range(50):
            assert oracle_focus_point(truth.acceleration[t], poses[t], K) is None


class TestHeadingEdgeCases:
    def test_vertical_heading_rejected(self):
        from ego_focus.simulate import _heading_frames

        with pytest.raises(PlanError):
            _heading_frames(np.array([[0.0, 1.0, 0.0]]))


class TestOverflowingSpec:
    SPEC = ScenarioSpec(kind="constant_velocity", frames=100, speed=1e308)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("generate", [generate_trajectory,
                                          lambda spec: next(iter_trajectory(spec))])
    def test_rejected_where_the_poses_are_made(self, generate):
        # The poses overflow to non-finite rows; the batch is checked as it
        # is made, so the drift policy's error comes out and no numpy warning.
        with pytest.raises(InvalidPoseError, match=r"^frame 0: "):
            generate(self.SPEC)

    def test_error_state_is_not_left_to_the_caller(self):
        # numpy's error state is a context variable: one set around a yield
        # would hold in the caller between chunks.
        before = np.geterr()
        chunks = iter_trajectory(ScenarioSpec(kind="arc", frames=20), chunk_size=5)
        next(chunks)
        assert np.geterr() == before
