import math

import numpy as np
import pytest

from ego_focus import (
    CameraPose,
    ConfigError,
    FocusConfig,
    FocusPoint,
    Intrinsics,
    MotionStream,
    ScenarioSpec,
    acceleration_camera,
    acceleration_world,
    default_sigma_px,
    focus_point,
    generate_trajectory,
    modulate_depth,
    render_focus_map,
    rotation_about_gravity,
)
from ego_focus.motion import FocusMap, _render_arrays

K = Intrinsics(fx=500.0, fy=500.0, cx=200.0, cy=150.0, width=400, height=300)


def identity_pose(frame_index=0):
    return CameraPose(frame_index=frame_index, rotation=np.eye(3), translation=np.zeros(3))


def point(u, v, mag=1.0, frame=0):
    return FocusPoint(frame_index=frame, u=u, v=v, magnitude=mag, projectable=True)


class TestAccelerationWorld:
    def test_constant_velocity_is_zero(self):
        s = acceleration_world(
            np.array([2.0, 0.0, 0.0]),
            np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 0.0]),
            frame_index=2,
        )
        np.testing.assert_array_equal(s.a_world, np.zeros(3))

    def test_simple_arithmetic(self):
        s = acceleration_world(
            np.array([3.0, 0.0, 0.0]),
            np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 0.0]),
            frame_index=2,
        )
        np.testing.assert_array_equal(s.a_world, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(s.v_cur, np.array([2.0, 0.0, 0.0]))
        np.testing.assert_array_equal(s.v_prev, np.array([1.0, 0.0, 0.0]))

    def test_displacement_identity_is_bitwise(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            p2, p1, p0 = rng.standard_normal((3, 3))
            s = acceleration_world(p2, p1, p0, frame_index=5)
            assert s.a_world.tobytes() == (s.v_cur - s.v_prev).tobytes()

    def test_circular_arc_matches_closed_form(self):
        # p(t) = (r sin wt, 0, r cos wt): the discrete second difference is
        # exactly -2(1 - cos w) * p_{t-1}, magnitude 2r(1 - cos w)
        r, w = 2.0, 0.1
        centers = [
            np.array([r * math.sin(w * t), 0.0, r * math.cos(w * t)]) for t in range(3)
        ]
        s = acceleration_world(centers[2], centers[1], centers[0], frame_index=2)
        np.testing.assert_allclose(
            s.a_world, -2.0 * (1.0 - math.cos(w)) * centers[1], rtol=0, atol=1e-15
        )
        mag = float(np.linalg.norm(s.a_world))
        assert mag == pytest.approx(2.0 * r * (1.0 - math.cos(w)), rel=1e-12)
        # within 0.5% of the continuous centripetal magnitude r w^2
        assert mag == pytest.approx(r * w * w, rel=5e-3)


class TestAccelerationCamera:
    def test_identity_rotation(self):
        s = acceleration_world(
            np.array([3.0, 2.0, 4.0]), np.array([1.0, 0.0, 1.0]), np.zeros(3), 2
        )
        done = acceleration_camera(s, identity_pose(2))
        np.testing.assert_array_equal(done.a_camera, s.a_world)

    def test_quarter_turn_about_gravity(self):
        # R_Y(90 deg) sends +x to -z
        pose = CameraPose(
            frame_index=0,
            rotation=rotation_about_gravity(math.pi / 2),
            translation=np.zeros(3),
        )
        from ego_focus.motion import MotionSample

        s = MotionSample(frame_index=0, a_world=np.array([1.0, 0.0, 0.0]))
        done = acceleration_camera(s, pose)
        np.testing.assert_allclose(done.a_camera, [0.0, 0.0, -1.0], rtol=0, atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(19)
        from tests.test_geometry import random_pose

        for i in range(50):
            pose = random_pose(rng, frame_index=i)
            from ego_focus.motion import MotionSample

            a_w = rng.standard_normal(3)
            done = acceleration_camera(MotionSample(i, a_w), pose)
            assert done.magnitude == pytest.approx(float(np.linalg.norm(a_w)), rel=1e-12)

    def test_frame_mismatch_rejected(self):
        from ego_focus.motion import MotionSample

        with pytest.raises(ValueError):
            acceleration_camera(MotionSample(3, np.zeros(3)), identity_pose(4))


class TestFocusPoint:
    CFG = FocusConfig()

    def sample(self, a_c):
        from ego_focus.motion import MotionSample

        a_c = np.asarray(a_c, dtype=np.float64)
        return MotionSample(
            frame_index=0,
            a_world=a_c,
            a_camera=a_c,
            magnitude=float(np.linalg.norm(a_c)),
        )

    def test_straight_ahead_hits_principal_point(self):
        k = Intrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
        fp = focus_point(self.sample([0.0, 0.0, 1.0]), k, self.CFG)
        assert fp.projectable
        assert (fp.u, fp.v) == (320.0, 240.0)

    def test_backward_acceleration_not_projectable(self):
        fp = focus_point(self.sample([0.0, 0.0, -1.0]), K, self.CFG)
        assert not fp.projectable
        assert fp.u is None and fp.v is None
        assert fp.magnitude == 1.0  # magnitude kept for kernel statistics

    def test_worked_example(self):
        k = Intrinsics(fx=600.0, fy=600.0, cx=480.0, cy=270.0, width=960, height=540)
        fp = focus_point(self.sample([0.2, -0.1, 0.5]), k, self.CFG)
        assert (fp.u, fp.v) == (720.0, 150.0)

    def test_mirror_mode_projects_through_principal_point(self):
        cfg = FocusConfig(project_negative="mirror")
        fp = focus_point(self.sample([0.2, -0.1, -0.5]), K, cfg)
        assert fp.projectable
        assert fp.u == 200.0 + 500.0 * 0.2 / -0.5
        assert fp.v == 150.0 + 500.0 * -0.1 / -0.5

    def test_mirror_mode_still_rejects_tiny_depth(self):
        cfg = FocusConfig(project_negative="mirror")
        fp = focus_point(self.sample([0.2, -0.1, 1e-9]), K, cfg)
        assert not fp.projectable

    def test_incomplete_sample_rejected(self):
        from ego_focus.motion import MotionSample

        with pytest.raises(ValueError):
            focus_point(MotionSample(0, np.ones(3)), K, self.CFG)


class TestRenderFocusMap:
    def test_single_point_peak_and_sigma_value(self):
        cfg = FocusConfig(sigma_px=16.0)
        fmap = render_focus_map([point(200.0, 150.0)], K, cfg)
        assert fmap.contributing_points == 1
        assert fmap.values[150, 200] == 1.0
        assert fmap.values.max() == 1.0
        # one sigma away from the center, inside the truncation window
        expected = math.exp(-0.5)
        assert fmap.values[150, 216] == pytest.approx(expected, abs=1e-6)
        assert fmap.values[166, 200] == pytest.approx(expected, abs=1e-6)

    def test_zero_projectable_points_give_zero_map(self):
        nothing = FocusPoint(frame_index=0, u=None, v=None, magnitude=2.0, projectable=False)
        fmap = render_focus_map([nothing], K, FocusConfig())
        assert fmap.contributing_points == 0
        np.testing.assert_array_equal(fmap.values, np.zeros((300, 400)))

    def test_coincident_points_normalize_away(self):
        cfg = FocusConfig(sigma_px=16.0)
        one = render_focus_map([point(123.0, 77.0)], K, cfg)
        two = render_focus_map([point(123.0, 77.0)] * 2, K, cfg)
        assert two.contributing_points == 2
        np.testing.assert_allclose(two.values, one.values, rtol=0, atol=1e-12)

    def test_kernel_exactly_zero_outside_truncation(self):
        cfg = FocusConfig(sigma_px=16.0, truncation_radius=3.0)
        fmap = render_focus_map([point(200.0, 150.0)], K, cfg)
        # cutoff is 3 * sigma * s = 48 pixels from the center
        assert fmap.values[150, 200 + 47] > 0.0
        assert fmap.values[150, 200 + 49] == 0.0
        assert fmap.values[150 + 49, 200] == 0.0
        assert fmap.values[150 + 49, 200 + 49] == 0.0

    def test_sum_normalization(self):
        cfg = FocusConfig(sigma_px=16.0, normalize="sum")
        fmap = render_focus_map([point(200.0, 150.0), point(100.0, 80.0, mag=2.0)], K, cfg)
        assert fmap.values.sum() == pytest.approx(1.0, rel=1e-12)
        assert fmap.values.max() < 1.0

    def test_magnitude_widens_kernel(self):
        # [DERIVED] two far-apart points, magnitudes 1 and 100: the window
        # median is 50.5, so scales clamp to 0.25 and reach 100/50.5
        cfg = FocusConfig(sigma_px=16.0)
        fmap = render_focus_map(
            [point(80.0, 150.0, mag=1.0), point(320.0, 150.0, mag=100.0)], K, cfg
        )
        s_small = 0.25  # 1/50.5 clamps up to the lower bound
        s_big = 100.0 / 50.5
        val_small = fmap.values[150, 88]
        val_big = fmap.values[150, 328]
        assert val_small == pytest.approx(
            math.exp(-64.0 / (2.0 * (16.0 * s_small) ** 2)), abs=1e-9
        )
        assert val_big == pytest.approx(
            math.exp(-64.0 / (2.0 * (16.0 * s_big) ** 2)), abs=1e-9
        )
        assert val_big > val_small

    def test_upper_clamp_bounds_kernel_width(self):
        cfg = FocusConfig(sigma_px=16.0, s_clamp=(0.25, 4.0))
        # three unit magnitudes pin the median at 1, so the huge outlier
        # clamps to s=4 and its cutoff is 3 * 16 * 4 = 192 pixels
        small = [point(10.0, 10.0 * i, mag=1.0) for i in range(1, 4)]
        fmap = render_focus_map(small + [point(200.0, 150.0, mag=1e9)], K, cfg)
        assert fmap.values[150, 200 + 193] == 0.0
        assert fmap.values[150, 200 + 191] > 0.0

    def test_far_offscreen_point_does_not_contribute(self):
        cfg = FocusConfig(sigma_px=16.0)
        fmap = render_focus_map([point(-400.0, 150.0)], K, cfg)
        assert fmap.contributing_points == 0
        assert fmap.values.max() == 0.0

    def test_offscreen_point_with_overlapping_kernel_contributes(self):
        cfg = FocusConfig(sigma_px=16.0)
        fmap = render_focus_map([point(-20.0, 150.0)], K, cfg)
        assert fmap.contributing_points == 1
        assert fmap.values[150, 0] == 1.0  # peak of the visible slice

    def test_values_are_readonly(self):
        fmap = render_focus_map([point(200.0, 150.0)], K, FocusConfig())
        with pytest.raises(ValueError):
            fmap.values[0, 0] = 1.0

    def test_default_sigma_rule(self):
        assert default_sigma_px(400) == 16.0
        assert FocusConfig().resolved_sigma(400) == 16.0
        assert FocusConfig(sigma_px=5.0).resolved_sigma(400) == 5.0


def oracle_render(us, vs, mags, width, height, sigma, cfg):
    """The per-kernel loop, one kernel window at a time in point order."""
    acc = np.zeros((height, width))
    contributing = 0
    if len(us):
        median = float(np.median(mags))
        scales = np.clip(mags / max(median, 1e-12), cfg.s_clamp[0], cfg.s_clamp[1])
        for u, v, s in zip(us, vs, scales):
            sd = sigma * s
            half = cfg.truncation_radius * sd
            x0 = max(0, math.ceil(u - half))
            x1 = min(width - 1, math.floor(u + half))
            y0 = max(0, math.ceil(v - half))
            y1 = min(height - 1, math.floor(v + half))
            if x0 > x1 or y0 > y1:
                continue
            dx = np.arange(x0, x1 + 1, dtype=np.float64) - u
            dy = np.arange(y0, y1 + 1, dtype=np.float64) - v
            denom = 2.0 * sd * sd
            row = np.exp(-(dx * dx) / denom)
            col = np.exp(-(dy * dy) / denom)
            window = acc[y0:y1 + 1, x0:x1 + 1]
            window += col[:, None] * row
            contributing += 1
    if contributing:
        z = acc.max() if cfg.normalize == "peak" else acc.sum()
        if z > 0.0:
            acc /= z
    return acc, contributing


class TestRenderAgainstOracle:
    """_render_arrays equals the per-kernel loop bit for bit."""

    @staticmethod
    def check(us, vs, mags, width, height, sigma, cfg):
        us, vs, mags = (np.asarray(a, dtype=np.float64) for a in (us, vs, mags))
        want, n = oracle_render(us, vs, mags, width, height, sigma, cfg)
        fmap = _render_arrays(us, vs, mags, width, height, sigma, cfg)
        assert fmap.contributing_points == n
        np.testing.assert_array_equal(fmap.values, want)
        # again through reused buffers holding stale values
        out = np.full((height, width), 7.0)
        scratch = np.full((height, width), -3.0)
        reused = _render_arrays(us, vs, mags, width, height, sigma, cfg,
                                out=out, scratch=scratch)
        assert reused.contributing_points == n
        np.testing.assert_array_equal(reused.values, want)
        return n

    @pytest.mark.parametrize("count", [1, 2, 3, 8, 15])
    @pytest.mark.parametrize("normalize", ["peak", "sum"])
    def test_random_windows(self, count, normalize):
        rng = np.random.default_rng(count)
        cfg = FocusConfig(normalize=normalize)
        for width, height in ((80, 60), (97, 41)):
            for _ in range(20):
                # centres spread well past the edges: kernels land on the
                # image, partly off it and wholly off it
                us = rng.uniform(-0.5 * width, 1.5 * width, count)
                vs = rng.uniform(-0.5 * height, 1.5 * height, count)
                mags = rng.lognormal(0.0, 1.5, count)
                self.check(us, vs, mags, width, height, 0.04 * width, cfg)

    def test_several_row_bands(self):
        # 2 MiB bands of 1000-pixel rows hold 262 rows: three bands here
        rng = np.random.default_rng(5)
        us = rng.uniform(-100, 1100, 12)
        vs = rng.uniform(-100, 700, 12)
        mags = rng.lognormal(0.0, 1.0, 12)
        assert self.check(us, vs, mags, 1000, 600, 40.0, FocusConfig()) > 1

    def test_far_off_centres(self):
        cfg = FocusConfig()
        us = [1e300, -1e300, 40.0, 40.0, 1e300]
        vs = [30.0, 30.0, 1e300, -1e300, -1e300]
        assert self.check(us, vs, [1.0] * 5, 80, 60, 3.2, cfg) == 0
        assert self.check(us + [41.5], vs + [29.25], [1.0] * 6, 80, 60, 3.2, cfg) == 1
        assert self.check([1e300, 40.0], [30.0, 30.0], [1.0, 1.0], 80, 60, 3.2,
                          FocusConfig(normalize="sum")) == 1

    def test_wholly_off_image(self):
        assert self.check([-50.0, 200.0], [30.0, 30.0], [1.0, 2.0], 80, 60, 3.2,
                          FocusConfig()) == 0

    @pytest.mark.parametrize("normalize", ["peak", "sum"])
    def test_one_pixel_map(self, normalize):
        cfg = FocusConfig(normalize=normalize)
        assert self.check([0.0], [0.0], [1.0], 1, 1, 0.04, cfg) == 1
        assert self.check([0.3, -0.2], [0.4, 0.1], [1.0, 3.0], 1, 1, 0.5, cfg) == 2
        assert self.check([2.0], [0.0], [1.0], 1, 1, 0.04, cfg) == 0

    def test_no_points(self):
        assert self.check([], [], [], 80, 60, 3.2, FocusConfig()) == 0


class TestModulateDepth:
    def test_full_focus_returns_input(self):
        ones = np.ones((300, 400))
        ones.flags.writeable = False
        fmap = FocusMap(values=ones, contributing_points=1)
        depth = np.full((300, 400), 7.0)
        np.testing.assert_array_equal(modulate_depth(depth, fmap, alpha=0.15), depth)

    def test_zero_focus_keeps_alpha_floor(self):
        zeros = np.zeros((300, 400))
        zeros.flags.writeable = False
        fmap = FocusMap(values=zeros, contributing_points=0)
        depth = np.full((300, 400), 10.0)
        np.testing.assert_allclose(
            modulate_depth(depth, fmap, alpha=0.15), np.full((300, 400), 1.5),
            rtol=0, atol=1e-15,
        )

    def test_single_kernel_worked_example(self):
        fmap = render_focus_map([point(200.0, 150.0)], K, FocusConfig(sigma_px=16.0))
        out = modulate_depth(np.full((300, 400), 10.0), fmap, alpha=0.15)
        assert out[150, 200] == pytest.approx(10.0, rel=1e-12)
        assert out[0, 0] == pytest.approx(1.5, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        fmap = render_focus_map([point(200.0, 150.0)], K, FocusConfig())
        with pytest.raises(ValueError):
            modulate_depth(np.zeros((10, 10)), fmap)

    def test_alpha_out_of_range_rejected(self):
        fmap = render_focus_map([], K, FocusConfig())
        with pytest.raises(ConfigError):
            modulate_depth(np.zeros((300, 400)), fmap, alpha=1.5)


class TestFocusConfigValidation:
    def test_bad_values_rejected_with_key(self):
        with pytest.raises(ConfigError, match="n_points"):
            FocusConfig(n_points=0)
        with pytest.raises(ConfigError, match="sigma_px"):
            FocusConfig(sigma_px=0.0)
        with pytest.raises(ConfigError, match="eps_z"):
            FocusConfig(eps_z=-1.0)
        with pytest.raises(ConfigError, match="s_clamp"):
            FocusConfig(s_clamp=(0.5, 0.25))
        with pytest.raises(ConfigError, match="truncation_radius"):
            FocusConfig(truncation_radius=0.0)
        with pytest.raises(ConfigError, match="normalize"):
            FocusConfig(normalize="max")
        with pytest.raises(ConfigError, match="project_negative"):
            FocusConfig(project_negative="drop")


def arc_poses(frames, omega=0.05, seed=7):
    spec = ScenarioSpec(kind="arc", frames=frames, radius=2.0, omega=omega, seed=seed)
    poses, _ = generate_trajectory(spec)
    return poses


WIDE = Intrinsics(fx=10.0, fy=10.0, cx=320.0, cy=240.0, width=640, height=480)


class TestMotionStream:
    def test_first_two_frames_produce_nothing(self):
        stream = MotionStream(WIDE, FocusConfig())
        poses = arc_poses(5)
        assert len(stream.push(poses[:1])) == 0
        assert len(stream.push(poses[1:2])) == 0
        block = stream.push(poses[2:3])
        assert block.frames.tolist() == [2]

    def test_matches_scalar_path_bitwise(self):
        poses = arc_poses(60)
        stream = MotionStream(WIDE, FocusConfig())
        block = stream.push(poses)
        assert block.frames.tolist() == list(range(2, 60))
        centers = [p.center for p in poses]
        for i, t in enumerate(block.frames):
            s = acceleration_world(centers[t], centers[t - 1], centers[t - 2], int(t))
            s = acceleration_camera(s, poses[t])
            assert block.a_world[i].tobytes() == s.a_world.tobytes()
            assert block.a_camera[i].tobytes() == s.a_camera.tobytes()
            assert block.magnitude[i] == s.magnitude
            fp = focus_point(s, WIDE, FocusConfig())
            if fp.projectable:
                assert (block.uv[i, 0], block.uv[i, 1]) == (fp.u, fp.v)
            else:
                assert not block.projectable[i]

    def test_chunking_is_bit_invariant(self):
        poses = arc_poses(200)
        whole = MotionStream(WIDE, FocusConfig()).push(poses)
        for step in (1, 7, 64):
            stream = MotionStream(WIDE, FocusConfig())
            blocks = [stream.push(poses[i:i + step]) for i in range(0, 200, step)]
            frames = np.concatenate([b.frames for b in blocks if len(b)])
            a_w = np.concatenate([b.a_world for b in blocks if len(b)])
            uv = np.concatenate([b.uv for b in blocks if len(b)])
            np.testing.assert_array_equal(frames, whole.frames)
            assert a_w.tobytes() == whole.a_world.tobytes()
            np.testing.assert_array_equal(uv, whole.uv)

    def test_focus_points_accessor(self):
        poses = arc_poses(10)
        block = MotionStream(WIDE, FocusConfig()).push(poses)
        pts = block.focus_points()
        assert [p.frame_index for p in pts] == list(range(2, 10))
        assert all(p.projectable for p in pts)

    def test_smoothing_changes_output_and_is_chunk_invariant(self):
        poses = arc_poses(120)
        rough = MotionStream(WIDE, FocusConfig()).push(poses)
        cfg = FocusConfig(smooth_positions=True)
        smooth_whole = MotionStream(WIDE, cfg).push(poses)
        assert smooth_whole.a_world.tobytes() != rough.a_world.tobytes()
        stream = MotionStream(WIDE, cfg)
        blocks = [stream.push(poses[i:i + 13]) for i in range(0, 120, 13)]
        a_w = np.concatenate([b.a_world for b in blocks if len(b)])
        assert a_w.tobytes() == smooth_whole.a_world.tobytes()

    def test_smoothed_arc_still_points_inward(self):
        poses = arc_poses(60)
        block = MotionStream(WIDE, FocusConfig(smooth_positions=True)).push(poses)
        assert bool(block.projectable.all())


class TestMotionInvariants:
    def offset_poses(self, poses, offset):
        out = []
        for p in poses:
            c = p.center + offset
            out.append(
                CameraPose(
                    frame_index=p.frame_index,
                    rotation=p.rotation.copy(),
                    translation=-p.rotation @ c,
                )
            )
        return out

    def test_translation_invariance(self):
        poses = arc_poses(80)
        shifted = self.offset_poses(poses, np.array([12.5, -3.0, 40.0]))
        a = MotionStream(WIDE, FocusConfig()).push(poses)
        b = MotionStream(WIDE, FocusConfig()).push(shifted)
        np.testing.assert_allclose(b.a_world, a.a_world, rtol=0, atol=1e-12)
        # the 40-unit offset costs ~1e-14 absolute in a_w, which the small
        # a_z of this arc amplifies to ~1e-8 px; anything structural would
        # move the point by whole pixels
        np.testing.assert_allclose(b.uv, a.uv, rtol=0, atol=1e-6)

    def test_global_scale_covariance(self):
        poses = arc_poses(80)
        lam = 10.0
        scaled = []
        for p in poses:
            scaled.append(
                CameraPose(
                    frame_index=p.frame_index,
                    rotation=p.rotation.copy(),
                    translation=-p.rotation @ (lam * p.center),
                )
            )
        a = MotionStream(WIDE, FocusConfig()).push(poses)
        b = MotionStream(WIDE, FocusConfig()).push(scaled)
        np.testing.assert_allclose(
            b.magnitude, lam * a.magnitude, rtol=1e-9
        )
        np.testing.assert_allclose(b.uv, a.uv, rtol=0, atol=1e-9)
        map_a = render_focus_map(a.focus_points()[-15:], WIDE, FocusConfig())
        map_b = render_focus_map(b.focus_points()[-15:], WIDE, FocusConfig())
        np.testing.assert_allclose(map_b.values, map_a.values, rtol=0, atol=1e-9)

    def test_uniform_velocity_gives_no_projectable_points(self):
        spec = ScenarioSpec(kind="constant_velocity", frames=100, speed=0.1, seed=1)
        poses, _ = generate_trajectory(spec)
        block = MotionStream(K, FocusConfig()).push(poses)
        assert np.abs(block.a_world).max() <= 1e-12
        assert not block.projectable.any()
        fmap = render_focus_map(block.focus_points(), K, FocusConfig())
        assert fmap.contributing_points == 0
        assert fmap.values.max() == 0.0
