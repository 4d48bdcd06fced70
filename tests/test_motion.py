import math
import re

import numpy as np
import pytest

from ego_focus import (
    CameraPose,
    ConfigError,
    FocusConfig,
    FocusPoint,
    Intrinsics,
    MotionStream,
    PoseBatch,
    ScenarioSpec,
    StreamDiscontinuityError,
    generate_trajectory,
    modulate_depth,
    render_focus_map,
    rotation_about_gravity,
)
from ego_focus.geometry import DEFAULT_EPS_Z
from ego_focus.motion import (
    DEFAULT_S_CLAMP,
    DEFAULT_TRUNCATION_RADIUS,
    FocusMap,
    _render_arrays,
)
from ego_focus.pipeline import _FrameWriter
from ego_focus.streams import FOCUS_MAP_MAGIC, pgm_bytes, raw_map_bytes

K = Intrinsics(fx=500.0, fy=500.0, cx=200.0, cy=150.0, width=400, height=300)


def point(u, v, mag=1.0, frame=0):
    return FocusPoint(frame_index=frame, u=u, v=v, magnitude=mag, projectable=True)


def poses_at(centers, rotation=np.eye(3)):
    """Poses of frames 0, 1, ... with the given camera centers."""
    return PoseBatch.concat([CameraPose(i, rotation, -rotation @ np.asarray(c, dtype=np.float64))
                             for i, c in enumerate(centers)])


def oracle_samples(poses, k, smooth=False):
    """MotionStream's math one frame at a time, in plain Python floats.

    Centers -R^T t are summed left to right, the order of the stream's
    kernel, so a_world compares bit for bit; a_camera = R @ a_world goes
    through numpy's matmul and compares within rounding. One row
    (frame, a_world, a_camera, magnitude, (u, v) or None) per frame
    from the third on.
    """
    c = [np.array([-((r[0][i] * t[0] + r[1][i] * t[1]) + r[2][i] * t[2]) for i in range(3)])
         for r, t in ((p.rotation.tolist(), p.translation.tolist()) for p in poses)]
    if smooth:  # causal moving average of width 3, partial at the head
        c = c[:1] + [(c[1] + c[0]) / 2.0] + [((c[t] + c[t - 1]) + c[t - 2]) / 3.0
                                             for t in range(2, len(c))]
    rows = []
    for t in range(2, len(c)):
        a_w = (c[t] - c[t - 1]) - (c[t - 1] - c[t - 2])
        a_c = poses[t].rotation @ a_w
        x, y, z = a_c.tolist()
        ok = z > DEFAULT_EPS_Z
        uv = (k.cx + k.fx * (x / z), k.cy + k.fy * (y / z)) if ok else None
        rows.append((poses[t].frame_index, a_w, a_c, math.sqrt(x * x + y * y + z * z), uv))
    return rows


def pushed(poses, k, smooth=False, chunk=None):
    """One MotionBlock-like tuple of arrays from pushing poses in chunks."""
    stream = MotionStream(k, smooth)
    step = chunk or len(poses)
    blocks = [stream.push(poses[i:i + step]) for i in range(0, len(poses), step)]
    return [np.concatenate([getattr(b, key) for b in blocks])
            for key in ("frames", "a_world", "a_camera", "magnitude", "uv", "projectable")]


def check_against_oracle(poses, k, smooth=False, chunk=None):
    """a_world bit for bit; a_camera and magnitude within 1e-14 of |a|, uv within 1e-9 px."""
    frames, a_w, a_c, mag, uv, ok = pushed(poses, k, smooth, chunk)
    want = oracle_samples(poses, k, smooth)
    assert frames.tolist() == [row[0] for row in want]
    assert a_w.tobytes() == np.stack([row[1] for row in want]).tobytes()
    scale = np.linalg.norm(a_w, axis=1)
    assert (np.abs(a_c - np.stack([row[2] for row in want])).max(axis=1) <= 1e-14 * scale).all()
    assert (np.abs(mag - [row[3] for row in want]) <= 1e-14 * scale).all()
    assert ok.tolist() == [row[4] is not None for row in want]
    assert np.isnan(uv[~ok]).all()
    want_uv = np.array([row[4] for row in want if row[4] is not None]).reshape(-1, 2)
    assert np.abs(uv[ok] - want_uv).max(initial=0.0) <= 1e-9
    return ok, uv


class TestAccelerationWorld:
    def test_constant_velocity_is_zero(self):
        block = MotionStream(K).push(poses_at([[0.0] * 3, [1.0, 0, 0], [2.0, 0, 0]]))
        np.testing.assert_array_equal(block.a_world, np.zeros((1, 3)))

    def test_simple_arithmetic(self):
        block = MotionStream(K).push(poses_at([[0.0] * 3, [1.0, 0, 0], [3.0, 0, 0]]))
        assert block.frames.tolist() == [2]
        np.testing.assert_array_equal(block.a_world, [[1.0, 0.0, 0.0]])

    def test_displacement_identity_is_bitwise(self):
        # a_world is (p_t - p_{t-1}) - (p_{t-1} - p_{t-2}) of the centers,
        # bit for bit, under random rotations
        from tests.test_geometry import random_pose

        rng = np.random.default_rng(12)
        poses = PoseBatch.concat([random_pose(rng, frame_index=i) for i in range(100)])
        check_against_oracle(poses, K)

    def test_circular_arc_matches_closed_form(self):
        # p(t) = (r sin wt, 0, r cos wt): the discrete second difference is
        # exactly -2(1 - cos w) * p_{t-1}, magnitude 2r(1 - cos w)
        r, w = 2.0, 0.1
        centers = [
            np.array([r * math.sin(w * t), 0.0, r * math.cos(w * t)]) for t in range(3)
        ]
        a_w = MotionStream(K).push(poses_at(centers)).a_world[0]
        np.testing.assert_allclose(
            a_w, -2.0 * (1.0 - math.cos(w)) * centers[1], rtol=0, atol=1e-15
        )
        mag = float(np.linalg.norm(a_w))
        assert mag == pytest.approx(2.0 * r * (1.0 - math.cos(w)), rel=1e-12)
        # within 0.5% of the continuous centripetal magnitude r w^2
        assert mag == pytest.approx(r * w * w, rel=5e-3)


class TestAccelerationCamera:
    def test_identity_rotation(self):
        block = MotionStream(K).push(
            poses_at([np.zeros(3), [1.0, 0.0, 1.0], [3.0, 2.0, 4.0]]))
        np.testing.assert_array_equal(block.a_camera, block.a_world)

    def test_quarter_turn_about_gravity(self):
        # R_Y(90 deg) sends +x to -z
        poses = poses_at([np.zeros(3), np.zeros(3), [1.0, 0.0, 0.0]],
                         rotation_about_gravity(math.pi / 2))
        block = MotionStream(K).push(poses)
        np.testing.assert_allclose(block.a_camera, [[0.0, 0.0, -1.0]], rtol=0, atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(19)
        from tests.test_geometry import random_pose

        poses = PoseBatch.concat([random_pose(rng, frame_index=i) for i in range(52)])
        block = MotionStream(K).push(poses)
        np.testing.assert_allclose(block.magnitude, np.linalg.norm(block.a_world, axis=1),
                                   rtol=1e-12, atol=0)


class TestFocusPoint:
    @staticmethod
    def point(a_c, k=K):
        """The focus point of one sample whose camera-frame acceleration is a_c."""
        block = MotionStream(k).push(poses_at([np.zeros(3), np.zeros(3), a_c]))
        return block.focus_points()[0]

    def test_straight_ahead_hits_principal_point(self):
        k = Intrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
        fp = self.point([0.0, 0.0, 1.0], k)
        assert fp.projectable
        assert (fp.u, fp.v) == (320.0, 240.0)

    def test_backward_acceleration_not_projectable(self):
        fp = self.point([0.0, 0.0, -1.0])
        assert not fp.projectable
        assert fp.u is None and fp.v is None
        assert fp.magnitude == 1.0  # magnitude kept for kernel statistics

    def test_worked_example(self):
        k = Intrinsics(fx=600.0, fy=600.0, cx=480.0, cy=270.0, width=960, height=540)
        fp = self.point([0.2, -0.1, 0.5], k)
        assert (fp.u, fp.v) == (720.0, 150.0)


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
        cfg = FocusConfig(sigma_px=16.0)
        fmap = render_focus_map([point(200.0, 150.0)], K, cfg)
        # cutoff is 3 * sigma * s = 48 pixels from the center
        assert fmap.values[150, 200 + 47] > 0.0
        assert fmap.values[150, 200 + 49] == 0.0
        assert fmap.values[150 + 49, 200] == 0.0
        assert fmap.values[150 + 49, 200 + 49] == 0.0

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
        cfg = FocusConfig(sigma_px=16.0)
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
        assert FocusConfig().resolved_sigma(400) == 16.0
        assert FocusConfig(sigma_px=5.0).resolved_sigma(400) == 5.0


def oracle_render(us, vs, mags, width, height, sigma):
    """The per-kernel loop, one kernel window at a time in point order."""
    acc = np.zeros((height, width))
    contributing = 0
    if len(us):
        median = float(np.median(mags))
        scales = np.clip(mags / max(median, 1e-12), *DEFAULT_S_CLAMP)
        for u, v, s in zip(us, vs, scales):
            if not (math.isfinite(u) and math.isfinite(v)):
                continue  # an infinite or NaN centre reaches no pixel
            sd = sigma * s
            half = DEFAULT_TRUNCATION_RADIUS * sd
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
        z = acc.max()
        if z > 0.0:
            acc /= z
    return acc, contributing


class TestRenderAgainstOracle:
    """_render_arrays equals the per-kernel loop bit for bit."""

    @staticmethod
    def check(us, vs, mags, width, height, sigma):
        us, vs, mags = (np.asarray(a, dtype=np.float64) for a in (us, vs, mags))
        want, n = oracle_render(us, vs, mags, width, height, sigma)
        fmap = _render_arrays(us, vs, mags, width, height, sigma)
        assert fmap.contributing_points == n
        np.testing.assert_array_equal(fmap.values, want)
        # again through a caller's all-zero buffer and a scratch holding
        # stale values; zeroing the footprint makes the buffer all zero again
        out = np.zeros((height, width))
        scratch = np.full((height, width), -3.0)
        reused = _render_arrays(us, vs, mags, width, height, sigma, out=out, scratch=scratch)
        assert reused.contributing_points == n
        np.testing.assert_array_equal(reused.values, want)
        out[reused.footprint] = 0.0
        assert not out.any()
        return n

    @pytest.mark.parametrize("count", [1, 2, 3, 8, 15])
    def test_random_windows(self, count):
        rng = np.random.default_rng(count)
        for width, height in ((80, 60), (97, 41)):
            for _ in range(20):
                # centres spread well past the edges: kernels land on the
                # image, partly off it and wholly off it
                us = rng.uniform(-0.5 * width, 1.5 * width, count)
                vs = rng.uniform(-0.5 * height, 1.5 * height, count)
                mags = rng.lognormal(0.0, 1.5, count)
                self.check(us, vs, mags, width, height, 0.04 * width)

    def test_several_row_bands(self):
        # 2 MiB bands of 1000-pixel rows hold 262 rows: three bands here
        rng = np.random.default_rng(5)
        us = rng.uniform(-100, 1100, 12)
        vs = rng.uniform(-100, 700, 12)
        mags = rng.lognormal(0.0, 1.0, 12)
        assert self.check(us, vs, mags, 1000, 600, 40.0) > 1

    def test_far_off_centres(self):
        us = [1e300, -1e300, 40.0, 40.0, 1e300]
        vs = [30.0, 30.0, 1e300, -1e300, -1e300]
        assert self.check(us, vs, [1.0] * 5, 80, 60, 3.2) == 0
        assert self.check(us + [41.5], vs + [29.25], [1.0] * 6, 80, 60, 3.2) == 1

    def test_wholly_off_image(self):
        assert self.check([-50.0, 200.0], [30.0, 30.0], [1.0, 2.0], 80, 60, 3.2) == 0

    def test_one_pixel_map(self):
        assert self.check([0.0], [0.0], [1.0], 1, 1, 0.04) == 1
        assert self.check([0.3, -0.2], [0.4, 0.1], [1.0, 3.0], 1, 1, 0.5) == 2
        assert self.check([2.0], [0.0], [1.0], 1, 1, 0.04) == 0

    def test_no_points(self):
        assert self.check([], [], [], 80, 60, 3.2) == 0

    def test_partly_off_image(self):
        # one kernel over each edge and corner, one inside
        us = [-4.0, 83.0, 40.0, 40.0, -3.0, 82.5, 40.0]
        vs = [30.0, 30.0, -4.0, 62.0, -2.5, 63.0, 30.0]
        assert self.check(us, vs, [1.0, 2.0, 0.5, 1.0, 3.0, 1.0, 1.5], 80, 60, 3.2) == 7

    def test_infinite_and_nan_centres(self):
        inf, nan = math.inf, math.nan
        us = [inf, -inf, nan, 40.0, 40.0, 40.0, 20.5]
        vs = [30.0, 30.0, 30.0, inf, -inf, nan, 10.25]
        assert self.check(us, vs, [1.0] * 7, 80, 60, 3.2) == 1
        assert self.check(us[:6], vs[:6], [1.0] * 6, 80, 60, 3.2) == 0

    @staticmethod
    def expected_pgm(values):
        height, width = values.shape
        return (b"P5\n%d %d\n255\n" % (width, height)
                + np.rint(255.0 * values).astype(np.uint8).tobytes())

    @staticmethod
    def footprint_windows(rng, width, height):
        """Windows of kernels with large, small and empty footprints, in turn."""
        while True:
            count = int(rng.integers(8, 16))
            yield (rng.uniform(0, width, count), rng.uniform(0, height, count),
                   rng.lognormal(0.0, 1.0, count))
            u, v = rng.uniform(0, width), rng.uniform(0, height)
            yield [u, u + 1.5], [v, v - 0.5], [0.05, 0.06]
            yield [-50.0 * width], [v], [1.0]

    @pytest.mark.parametrize("size", [(80, 60), (1000, 600), (1, 1)])
    def test_map_sequence_through_reused_buffers(self, size):
        """After each map only its footprint is zeroed, as _FrameWriter does;
        every map, and its footprint PGM, equals the oracle's."""
        width, height = size
        sigma = max(0.04 * width, 0.5)
        rng = np.random.default_rng(width)
        out, scratch = np.zeros((height, width)), np.full((height, width), -3.0)
        kinds = set()
        windows = self.footprint_windows(rng, width, height)
        for _ in range(6 if width == 1000 else 12):
            us, vs, mags = (np.asarray(a, dtype=np.float64) for a in next(windows))
            want, n = oracle_render(us, vs, mags, width, height, sigma)
            fmap = _render_arrays(us, vs, mags, width, height, sigma, out=out, scratch=scratch)
            assert fmap.contributing_points == n
            np.testing.assert_array_equal(fmap.values, want)
            assert pgm_bytes(fmap.values, scratch, fmap.footprint) == self.expected_pgm(want)
            out[fmap.footprint] = 0.0
            share = fmap.values[fmap.footprint].size / (width * height)
            kinds.add("empty" if share == 0 else "small" if share < 0.1 else
                      "large" if share > 0.25 else "middle")
        assert kinds >= ({"empty", "large"} if width == 1 else {"empty", "small", "large"})

    def test_render_that_raises_leaves_the_buffer_cleared_whole_next(self, monkeypatch):
        width, height = 80, 60
        rng = np.random.default_rng(3)
        # a small footprint top left, one over the whole map, one bottom right
        windows = [(np.array([u]), np.array([v]), np.ones(1))
                   for u, v in ((8.0, 6.0), (72.0, 54.0))]
        windows.insert(1, (rng.uniform(0, width, 12), rng.uniform(0, height, 12),
                           rng.lognormal(0.0, 1.0, 12)))
        k = Intrinsics(fx=10.0, fy=10.0, cx=40.0, cy=30.0, width=width, height=height)
        # the .mfm sidecar encodes the whole map, not only its footprint
        writer = _FrameWriter("out", k, 3.2, True, None)
        writer(2, *windows[0])
        real_add, calls = np.add, []

        def failing_add(*args, **kwargs):
            calls.append(1)
            if len(calls) == 5:
                raise MemoryError
            return real_add(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np, "add", failing_add)
            with pytest.raises(MemoryError):
                writer(3, *windows[1])
        # the failed render's additions reach past the first footprint; the
        # writer drops the buffer they are in, and the next call on this
        # thread renders into a fresh all-zero one
        want, n = oracle_render(*windows[2], width, height, 3.2)
        contributing, payloads = writer(4, *windows[2])
        assert contributing == n
        assert payloads == [self.expected_pgm(want), raw_map_bytes(want, FOCUS_MAP_MAGIC)]

    def test_footprint_holds_every_nonzero_value(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            us, vs = rng.uniform(-40, 120, 6), rng.uniform(-30, 90, 6)
            fmap = _render_arrays(us, vs, rng.lognormal(0.0, 1.0, 6), 80, 60, 3.2)
            outside = fmap.values.copy()
            outside[fmap.footprint] = 0.0
            assert not outside.any()
            assert pgm_bytes(fmap.values, None, fmap.footprint) == self.expected_pgm(fmap.values)


class TestModulateDepth:
    def test_full_focus_returns_input(self):
        ones = np.ones((300, 400))
        ones.flags.writeable = False
        fmap = FocusMap(values=ones, contributing_points=1)
        depth = np.full((300, 400), 7.0)
        np.testing.assert_array_equal(modulate_depth(depth, fmap), depth)

    def test_zero_focus_keeps_alpha_floor(self):
        zeros = np.zeros((300, 400))
        zeros.flags.writeable = False
        fmap = FocusMap(values=zeros, contributing_points=0)
        depth = np.full((300, 400), 10.0)
        np.testing.assert_allclose(
            modulate_depth(depth, fmap), np.full((300, 400), 1.5),
            rtol=0, atol=1e-15,
        )

    def test_single_kernel_worked_example(self):
        fmap = render_focus_map([point(200.0, 150.0)], K, FocusConfig(sigma_px=16.0))
        out = modulate_depth(np.full((300, 400), 10.0), fmap)
        assert out[150, 200] == pytest.approx(10.0, rel=1e-12)
        assert out[0, 0] == pytest.approx(1.5, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        fmap = render_focus_map([point(200.0, 150.0)], K, FocusConfig())
        with pytest.raises(ValueError):
            modulate_depth(np.zeros((10, 10)), fmap)


class TestFocusConfigValidation:
    def test_bad_values_rejected_with_key(self):
        for value in (2.5, 2.0, True):
            with pytest.raises(ConfigError, match=f"^n_points: must be an integer, got {value}$"):
                FocusConfig(n_points=value)
        assert FocusConfig(n_points=np.int32(3)).n_points == 3
        with pytest.raises(ConfigError, match="sigma_px"):
            FocusConfig(sigma_px=0.0)
        # a number setting is a finite number, not True
        for key, value, message in (
                ("sigma_px", True, "must be a finite number, got True"),
                ("sigma_px", math.inf, "must be a finite number, got inf")):
            with pytest.raises(ConfigError, match=f"^{key}: {re.escape(message)}$"):
                FocusConfig(**{key: value})


def arc_poses(frames, omega=0.05, seed=7):
    spec = ScenarioSpec(kind="arc", frames=frames, radius=2.0, omega=omega, seed=seed)
    poses, _ = generate_trajectory(spec)
    return poses


WIDE = Intrinsics(fx=10.0, fy=10.0, cx=320.0, cy=240.0, width=640, height=480)


class TestMotionStream:
    def test_first_two_frames_produce_nothing(self):
        stream = MotionStream(WIDE)
        poses = arc_poses(5)
        assert len(stream.push(poses[:1])) == 0
        assert len(stream.push(poses[1:2])) == 0
        block = stream.push(poses[2:3])
        assert block.frames.tolist() == [2]

    def test_matches_scalar_path_bitwise(self):
        # the per-frame oracle is the scalar path
        check_against_oracle(arc_poses(60), WIDE)

    def test_chunking_is_bit_invariant(self):
        poses = arc_poses(200)
        whole = MotionStream(WIDE).push(poses)
        for step in (1, 7, 64):
            stream = MotionStream(WIDE)
            blocks = [stream.push(poses[i:i + step]) for i in range(0, 200, step)]
            frames = np.concatenate([b.frames for b in blocks if len(b)])
            a_w = np.concatenate([b.a_world for b in blocks if len(b)])
            uv = np.concatenate([b.uv for b in blocks if len(b)])
            np.testing.assert_array_equal(frames, whole.frames)
            assert a_w.tobytes() == whole.a_world.tobytes()
            np.testing.assert_array_equal(uv, whole.uv)

    @pytest.mark.parametrize("smooth", [False, True])
    def test_a_gap_or_repeat_raises_and_changes_nothing(self, smooth):
        poses = arc_poses(40)
        whole = MotionStream(WIDE, smooth).push(poses[:20])
        stream = MotionStream(WIDE, smooth)
        stream.push(poses[:10])
        for start in (20, 5, 9, 11):
            with pytest.raises(StreamDiscontinuityError,
                               match=f"^frame {start} follows 9; expected 10$"):
                stream.push(poses[start:start + 10])
        assert len(stream.push(poses[30:30])) == 0  # an empty chunk is not checked
        block = stream.push(poses[10:20])
        assert block.frames.tolist() == list(range(10, 20))
        assert block.a_world.tobytes() == whole.a_world[8:].tobytes()

    def test_focus_points_accessor(self):
        poses = arc_poses(10)
        block = MotionStream(WIDE).push(poses)
        pts = block.focus_points()
        assert [p.frame_index for p in pts] == list(range(2, 10))
        assert all(p.projectable for p in pts)

    def test_smoothing_changes_output_and_is_chunk_invariant(self):
        poses = arc_poses(120)
        rough = MotionStream(WIDE).push(poses)
        smooth_whole = MotionStream(WIDE, True).push(poses)
        assert smooth_whole.a_world.tobytes() != rough.a_world.tobytes()
        stream = MotionStream(WIDE, True)
        blocks = [stream.push(poses[i:i + 13]) for i in range(0, 120, 13)]
        a_w = np.concatenate([b.a_world for b in blocks if len(b)])
        assert a_w.tobytes() == smooth_whole.a_world.tobytes()

    def test_smooth_positions_must_be_a_bool(self):
        # an on/off setting is a bool, so a FocusConfig passed in its place
        # fails instead of running unsmoothed
        for value in ("no", 1, FocusConfig()):
            message = f"smooth_positions: must be True or False, got {value!r}"
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                MotionStream(WIDE, value)
        assert MotionStream(WIDE, np.True_).smooth_positions

    def test_smoothed_arc_still_points_inward(self):
        poses = arc_poses(60)
        block = MotionStream(WIDE, True).push(poses)
        assert bool(block.projectable.all())


class TestStreamAgainstOracle:
    """Every mode of MotionStream, whole and chunked, against oracle_samples."""

    @pytest.mark.parametrize("smooth", [False, True])
    def test_noisy_head_yaw(self, smooth):
        spec = ScenarioSpec(kind="head_yaw_divergence", frames=150, seed=4,
                            bob_amplitude=0.002, jitter_amplitude_rad=0.003)
        poses, _ = generate_trajectory(spec)
        for chunk in (None, 1, 7):
            ok, _ = check_against_oracle(poses, WIDE, smooth, chunk)
            assert ok.any()
        assert not ok.all()

    def test_depths_about_eps_z(self):
        # camera-frame depths of a few DEFAULT_EPS_Z either side of zero,
        # some of them inside the cut-off band
        rng = np.random.default_rng(3)
        accelerations = rng.standard_normal((300, 3)) * [1.0, 1.0, 3e-6]
        poses = poses_at(np.cumsum(np.cumsum(accelerations, axis=0), axis=0))
        ok, _ = check_against_oracle(poses, WIDE, chunk=11)
        depth = MotionStream(WIDE).push(poses).a_camera[:, 2]
        near = np.abs(depth) <= DEFAULT_EPS_Z
        assert near.any() and not ok[near].any()
        assert ok[depth > DEFAULT_EPS_Z].all()
        assert not ok[depth < -DEFAULT_EPS_Z].any()

    def test_pure_backward_acceleration(self):
        # braking straight ahead: a_camera is (0, 0, -decel) until the stop
        spec = ScenarioSpec(kind="brake", frames=30, speed=0.2, decel=0.01)
        poses, _ = generate_trajectory(spec)
        ok, _ = check_against_oracle(poses, K)
        assert not ok.any()

    @pytest.mark.parametrize("smooth", [False, True])
    def test_empty_and_short_chunks(self, smooth):
        # chunks of 0, 1 and 2 poses at the stream head and mid-stream,
        # an empty batch among them, then the rest and an empty tail
        spec = ScenarioSpec(kind="head_yaw_divergence", frames=40, seed=4,
                            bob_amplitude=0.002, jitter_amplitude_rad=0.003)
        poses, _ = generate_trajectory(spec)
        check_against_oracle(poses, WIDE, smooth)
        whole = MotionStream(WIDE, smooth).push(poses)
        keys = ("frames", "a_world", "a_camera", "magnitude", "uv", "projectable")
        for sizes in ([0, 1, 0, 1, 2, 0, 1, 5, 0, 2, 1], [2, 0, 2, 0, 0, 1, 3, 1],
                      [1, 1, 1, 0, 2, 2, 1, 0], [0, 0, 3, 0, 2, 2]):
            stream = MotionStream(WIDE, smooth)
            blocks, start = [stream.push(PoseBatch.concat([]))], 0
            for size in sizes + [len(poses)]:
                blocks.append(stream.push(poses[start:start + size]))
                start += size
                blocks.append(stream.push(PoseBatch.concat([])))
            blocks.append(stream.push(poses[start:]))
            for block in blocks:
                if not len(block):
                    assert block.frames.dtype == np.int64
                    assert block.uv.shape == (0, 2)
                    assert block.projectable.dtype == bool
                    assert block.a_world.shape == block.a_camera.shape == (0, 3)
                    assert block.magnitude.shape == (0,)
            for key in keys:
                got = np.concatenate([getattr(b, key) for b in blocks])
                want = getattr(whole, key)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), key


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
        return PoseBatch.concat(out)

    def test_translation_invariance(self):
        poses = arc_poses(80)
        shifted = self.offset_poses(poses, np.array([12.5, -3.0, 40.0]))
        a = MotionStream(WIDE).push(poses)
        b = MotionStream(WIDE).push(shifted)
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
        a = MotionStream(WIDE).push(poses)
        b = MotionStream(WIDE).push(PoseBatch.concat(scaled))
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
        block = MotionStream(K).push(poses)
        assert np.abs(block.a_world).max() <= 1e-12
        assert not block.projectable.any()
        fmap = render_focus_map(block.focus_points(), K, FocusConfig())
        assert fmap.contributing_points == 0
        assert fmap.values.max() == 0.0
