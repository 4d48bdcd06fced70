import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ego_focus import (
    SCENARIOS,
    CameraPose,
    PlanError,
    PoseBatch,
    ScenarioSpec,
    StitchState,
    WindowPlan,
    anchor_correction,
    generate_trajectory,
    overlap_residual,
    perturb_batches,
    plan_windows,
    rotation_about_gravity,
    rotation_angle,
    stitch_step,
)
from ego_focus.geometry import compose_gravity_ypr


def arc_poses(frames, seed=7):
    spec = ScenarioSpec(kind="arc", frames=frames, radius=2.0, omega=0.05, seed=seed)
    poses, _ = generate_trajectory(spec)
    return poses


def pose_with_center(template, center):
    """Same rotation as template, camera center moved to the given point."""
    r = template.rotation
    return CameraPose(
        frame_index=template.frame_index,
        rotation=r.copy(),
        translation=-r @ np.asarray(center, dtype=np.float64),
    )


def disturb_world(pose, rotation, translation):
    """Apply a world-side map D: stored pose becomes T o D."""
    return CameraPose(
        frame_index=pose.frame_index,
        rotation=pose.rotation @ rotation,
        translation=pose.rotation @ translation + pose.translation,
    )


def split_batches(poses, plan):
    return [poses[s:e] for s, e in plan.windows()]


def run_plan(batches, plan, **kwargs):
    state = StitchState()
    out = []
    for batch in batches:
        state, emitted = stitch_step(state, batch, plan, **kwargs)
        out.extend(emitted)
    return state, out


class TestWindowPlan:
    def test_default_stream_enumeration(self):
        plan = plan_windows(600, 60, 5)
        ws = plan.windows()
        assert plan.n_windows == 11
        assert ws[0] == (0, 60)
        assert ws[1] == (55, 115)
        assert ws[2] == (110, 170)
        assert ws[-1] == (550, 600)

    def test_two_window_stream(self):
        assert plan_windows(115, 60, 5).windows() == [(0, 60), (55, 115)]

    def test_no_overlap_stream(self):
        assert plan_windows(100, 60, 0).windows() == [(0, 60), (60, 100)]

    def test_single_window_when_stream_fits(self):
        assert plan_windows(60, 60, 5).windows() == [(0, 60)]
        assert plan_windows(12, 60, 5).windows() == [(0, 12)]

    def test_one_extra_frame_spawns_short_window(self):
        assert plan_windows(61, 60, 5).windows() == [(0, 60), (55, 61)]

    def test_windows_cover_stream_without_gaps(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            total = int(rng.integers(1, 500))
            size = int(rng.integers(1, 80))
            overlap = int(rng.integers(0, size))
            ws = plan_windows(total, size, overlap).windows()
            assert ws[0][0] == 0
            assert ws[-1][1] == total
            for (s0, e0), (s1, e1) in zip(ws, ws[1:]):
                assert s1 == e0 - overlap  # consecutive windows share O frames
                assert e1 > e0  # every window adds new frames

    def test_invalid_parameters(self):
        with pytest.raises(PlanError):
            WindowPlan(window_size=0, overlap=0)
        with pytest.raises(PlanError):
            WindowPlan(window_size=10, overlap=10)
        with pytest.raises(PlanError):
            WindowPlan(window_size=10, overlap=-1)
        with pytest.raises(PlanError):
            plan_windows(0, 10, 2)

    def test_open_ended_plan_has_no_count(self):
        plan = WindowPlan(window_size=10, overlap=2)
        with pytest.raises(PlanError):
            plan.n_windows


class TestAnchorCorrection:
    def test_recovers_constructed_yaw_and_shift(self):
        # local frame = global rotated by yaw 90deg and shifted by (5,0,0)
        poses = arc_poses(10)
        truth = poses[4]
        d_rot = rotation_about_gravity(math.pi / 2)
        d_t = np.array([5.0, 0.0, 0.0])
        local = disturb_world(truth, d_rot, d_t)
        corr = anchor_correction(4, truth.rotation, truth.center, local.rotation, local.center)
        np.testing.assert_allclose(corr.rotation, d_rot, rtol=0, atol=1e-12)
        np.testing.assert_allclose(corr.translation, d_t, rtol=0, atol=1e-12)

    def test_pitch_disturbance_keeps_gravity_lock(self):
        poses = arc_poses(10)
        truth = poses[4]
        d_rot = compose_gravity_ypr(0.3, 0.1, 0.0)  # yaw + pitch
        d_t = np.array([0.4, 0.0, -1.1])
        local = disturb_world(truth, d_rot, d_t)
        corr = anchor_correction(4, truth.rotation, truth.center, local.rotation, local.center)
        from ego_focus import decompose_gravity_ypr

        ypr = decompose_gravity_ypr(corr.rotation)
        assert ypr.pitch == 0.0
        assert ypr.roll == 0.0
        # anchor centers must still coincide after correcting the local pose
        corrected_center = corr.rotation @ local.center + corr.translation
        np.testing.assert_allclose(corrected_center, truth.center, rtol=0, atol=1e-12)

    def test_frame_mismatch_rejected(self):
        # stitch_step pairs each anchor with the emitted pose of the same
        # frame; a window one frame late has a different frame there.
        poses = arc_poses(12)
        plan = WindowPlan(window_size=6, overlap=2)
        state, _ = stitch_step(StitchState(), poses[:6], plan)
        with pytest.raises(PlanError):
            stitch_step(state, poses[5:11], plan)
        assert state.boundary_log == []


class TestOverlapResidual:
    def test_identical_sequences_zero(self):
        poses = arc_poses(6)
        r, c = poses.rotations, poses.centers
        res = overlap_residual(3, 0, r, c, r, c)
        assert res.boundary_index == 3
        assert res.frames == (0, 1, 2, 3, 4, 5)
        np.testing.assert_array_equal(res.center_dist, np.zeros(6))
        np.testing.assert_array_equal(res.rot_angle_rad, np.zeros(6))

    def test_rows_match_the_per_frame_forms(self):
        prev = arc_poses(40)
        rng = np.random.default_rng(5)
        cur = PoseBatch(0, [r @ compose_gravity_ypr(*rng.normal(0.0, 1e-3, 3)) for r in
                            prev.rotations], prev.translations + rng.normal(0.0, 1e-3, (40, 3)))
        res = overlap_residual(2, 17, prev.rotations, prev.centers, cur.rotations, cur.centers)
        assert res.frames == tuple(range(17, 57))
        np.testing.assert_array_equal(res.rot_angle_rad, [
            rotation_angle(p, c) for p, c in zip(prev.rotations, cur.rotations)])
        # The per-vector norm over the row's axis; the axis-less 1-D form goes
        # through a dot product and may round differently.
        np.testing.assert_array_equal(res.center_dist, [
            np.linalg.norm(p - c, axis=-1) for p, c in zip(prev.centers, cur.centers)])
        assert res.center_dist.min() > 0.0 and res.rot_angle_rad.min() > 0.0

    def test_length_mismatch_rejected(self):
        poses = arc_poses(6)
        r, c = poses.rotations, poses.centers
        with pytest.raises(PlanError):
            overlap_residual(0, 0, r[:3], c[:3], r[:2], c[:2])

    def test_frame_mismatch_rejected(self):
        # The residual compares the emitted tail with the new window's
        # first frames; stitch_step refuses a window whose frames differ.
        poses = arc_poses(12)
        plan = plan_windows(12, 6, 3)
        state, _ = stitch_step(StitchState(), poses[:6], plan)
        with pytest.raises(PlanError):
            stitch_step(state, poses[4:10], plan)
        assert state.boundary_log == []


class TestStitchStep:
    def test_single_batch_emitted_verbatim(self):
        poses = arc_poses(40)
        plan = plan_windows(40, 60, 5)
        state, out = run_plan([poses], plan)
        assert out == poses
        assert state.done
        assert state.boundary_log == []

    def test_undisturbed_split_equals_input(self):
        poses = arc_poses(150)
        plan = plan_windows(150, 60, 5)
        state, out = run_plan(split_batches(poses, plan), plan)
        assert [p.frame_index for p in out] == list(range(150))
        for got, want in zip(out, poses):
            np.testing.assert_allclose(got.center, want.center, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.rotation, want.rotation, rtol=0, atol=1e-12)

    def test_disturbed_batches_recover_truth(self):
        poses = arc_poses(600)
        plan = plan_windows(600, 60, 5)
        batches = split_batches(poses, plan)
        disturbed, dists = perturb_batches(
            batches, yaw_range=0.8, translation_range=2.0, seed=11
        )
        # first batch untouched by default so the global frame is the truth frame
        assert disturbed[0] == batches[0]
        state, out = run_plan(disturbed, plan)
        assert [p.frame_index for p in out] == list(range(600))
        err = np.stack([got.center - want.center for got, want in zip(out, poses)])
        rmse = float(np.sqrt(np.mean(np.sum(err * err, axis=1))))
        assert rmse <= 1e-9
        assert len(state.boundary_log) == 10
        for event in state.boundary_log:
            assert event.correction_ypr.pitch == 0.0
            assert event.correction_ypr.roll == 0.0
            assert event.residual.center_dist.max() <= 1e-9

    def test_emitted_frames_gap_free_and_unique(self):
        poses = arc_poses(230)
        plan = plan_windows(230, 50, 7)
        batches = split_batches(poses, plan)
        disturbed, _ = perturb_batches(batches, yaw_range=0.5, translation_range=1.0, seed=4)
        _, out = run_plan(disturbed, plan)
        frames = [p.frame_index for p in out]
        assert frames == list(range(230))

    def test_shifted_batch_residual_pattern(self):
        # shift one non-anchor overlap frame by 0.1 in world x: the anchor
        # still matches exactly, the moved frame shows up in the residual
        poses = arc_poses(20)
        plan = plan_windows(20, 12, 4)
        batches = split_batches(poses, plan)
        assert plan.windows() == [(0, 12), (8, 20)]
        second = list(batches[1])
        moved = 1  # overlap positions 0..3 hold frames 8..11; anchor is 11
        second[moved] = pose_with_center(
            second[moved], second[moved].center + np.array([0.1, 0.0, 0.0])
        )
        state, out = run_plan([batches[0], second], plan)
        res = state.boundary_log[0].residual
        assert res.frames == (8, 9, 10, 11)
        np.testing.assert_allclose(res.center_dist[moved], 0.1, rtol=0, atol=1e-12)
        for i in (0, 2, 3):
            assert res.center_dist[i] <= 1e-12
        # emitted frames (12..19) are unaffected by the overlap-only edit
        for got, want in zip(out[12:], poses[12:]):
            np.testing.assert_allclose(got.center, want.center, rtol=0, atol=1e-12)

    def test_anchor_mode_first_pins_first_shared_frame(self):
        poses = arc_poses(20)
        plan = plan_windows(20, 12, 4)
        batches = split_batches(poses, plan)
        second = [
            pose_with_center(p, p.center + np.array([0.0, 0.0, 0.05]))
            for p in batches[1]
        ]
        # uniform shift: recovery is exact for either anchor, so differentiate
        # with a non-uniform one: shift grows linearly along the batch
        second = [
            pose_with_center(p, p.center + np.array([0.01 * i, 0.0, 0.0]))
            for i, p in enumerate(batches[1])
        ]
        state_last, _ = run_plan([batches[0], second], plan, anchor_mode="last")
        state_first, _ = run_plan([batches[0], second], plan, anchor_mode="first")
        res_last = state_last.boundary_log[0].residual
        res_first = state_first.boundary_log[0].residual
        assert res_last.center_dist[3] <= 1e-12  # last shared frame pinned
        assert res_first.center_dist[0] <= 1e-12  # first shared frame pinned
        assert res_last.center_dist[0] > 1e-3
        assert res_first.center_dist[3] > 1e-3

    def test_pitch_disturbance_reported_not_corrected(self):
        poses = arc_poses(20)
        plan = plan_windows(20, 12, 4)
        batches = split_batches(poses, plan)
        pitch = 0.05
        d_rot = compose_gravity_ypr(0.0, pitch, 0.0)
        second = [disturb_world(p, d_rot, np.zeros(3)) for p in batches[1]]
        state, out = run_plan([batches[0], second], plan)
        event = state.boundary_log[0]
        assert event.correction_ypr.pitch == 0.0
        assert event.correction_ypr.roll == 0.0
        # anchor center continuity is exact even though rotation cannot match
        assert event.residual.center_dist[-1] <= 1e-12
        assert event.residual.rot_angle_rad[-1] == pytest.approx(pitch, rel=1e-6)

    def test_zero_overlap_warns_once_and_passes_through(self, caplog):
        poses = arc_poses(100)
        plan = plan_windows(100, 60, 0)
        batches = split_batches(poses, plan)
        with caplog.at_level(logging.WARNING, logger="ego_focus.stitching"):
            state, out = run_plan(batches, plan)
        warnings = [r for r in caplog.records if "overlap is 0" in r.getMessage()]
        assert len(warnings) == 1
        assert out == poses
        assert state.boundary_log == []

    def test_scale_correction_restores_step_length(self):
        poses = arc_poses(20)
        plan = plan_windows(20, 12, 4)
        batches = split_batches(poses, plan)
        # monocular-style scale drift: second batch's centers shrink by 2x
        second = [pose_with_center(p, 0.5 * p.center) for p in batches[1]]
        state, out = run_plan([batches[0], second], plan, scale_correction=True)
        assert state.boundary_log[0].scale == pytest.approx(2.0, rel=1e-9)
        # emitted step lengths return to the truth step length
        emitted = out[12:]
        steps = np.linalg.norm(
            np.diff(np.stack([p.center for p in emitted]), axis=0), axis=1
        )
        truth_steps = np.linalg.norm(
            np.diff(np.stack([p.center for p in poses[12:]]), axis=0), axis=1
        )
        np.testing.assert_allclose(steps, truth_steps, rtol=1e-9)

    def test_scale_defaults_to_one_when_disabled(self):
        poses = arc_poses(20)
        plan = plan_windows(20, 12, 4)
        batches = split_batches(poses, plan)
        second = [pose_with_center(p, 0.5 * p.center) for p in batches[1]]
        state, _ = run_plan([batches[0], second], plan, scale_correction=False)
        assert state.boundary_log[0].scale == 1.0

    def test_bounded_state_keeps_only_tail(self):
        poses = arc_poses(600)
        plan = plan_windows(600, 60, 5)
        state, _ = run_plan(split_batches(poses, plan), plan)
        assert len(state.tail) == 5
        assert state.emitted_count == 600

    def test_wrong_start_rejected(self):
        poses = arc_poses(120)
        plan = plan_windows(120, 60, 5)
        state = StitchState()
        state, _ = stitch_step(state, poses[:60], plan)
        with pytest.raises(PlanError):
            stitch_step(state, poses[60:115], plan)  # should start at 55

    def test_non_contiguous_batch_rejected(self):
        poses = arc_poses(60)
        plan = plan_windows(120, 60, 5)
        batch = poses[:30] + poses[31:61] if len(poses) > 60 else poses[:30] + poses[31:]
        with pytest.raises(PlanError):
            stitch_step(StitchState(), batch, plan)

    def test_wrong_length_rejected_when_total_known(self):
        poses = arc_poses(120)
        plan = plan_windows(120, 60, 5)
        with pytest.raises(PlanError):
            stitch_step(StitchState(), poses[:59], plan)

    def test_batch_after_completion_rejected(self):
        poses = arc_poses(60)
        plan = plan_windows(60, 60, 5)
        state, _ = stitch_step(StitchState(), poses, plan)
        assert state.done
        with pytest.raises(PlanError):
            stitch_step(state, poses, plan)

    def test_empty_batch_rejected(self):
        plan = plan_windows(60, 60, 5)
        with pytest.raises(PlanError):
            stitch_step(StitchState(), [], plan)

    @pytest.mark.parametrize("anchor_mode", ["first", "last"])
    def test_window_shorter_than_the_overlap_rejected(self, anchor_mode):
        poses = arc_poses(60)
        plan = WindowPlan(window_size=60, overlap=5)
        state, _ = stitch_step(StitchState(), poses, plan, anchor_mode=anchor_mode)
        with pytest.raises(PlanError, match="window at offset 55: got 3 frames, "
                                            "fewer than the overlap of 5"):
            stitch_step(state, poses[55:58], plan, anchor_mode=anchor_mode)

    def test_open_ended_plan_short_window_finishes(self):
        poses = arc_poses(75)
        plan = WindowPlan(window_size=60, overlap=5)
        state = StitchState()
        state, first = stitch_step(state, poses[:60], plan)
        state, second = stitch_step(state, poses[55:75], plan)
        assert state.done
        assert [p.frame_index for p in first + second] == list(range(75))

    def test_stitching_deterministic(self):
        poses = arc_poses(230)
        plan = plan_windows(230, 50, 7)
        batches = split_batches(poses, plan)
        disturbed, _ = perturb_batches(batches, yaw_range=0.5, translation_range=1.0, seed=4)
        _, out_a = run_plan(disturbed, plan)
        _, out_b = run_plan(disturbed, plan)
        for a, b in zip(out_a, out_b):
            assert a.rotation.tobytes() == b.rotation.tobytes()
            assert a.translation.tobytes() == b.translation.tobytes()


class TestPerturbBatches:
    def test_first_batch_untouched_by_default(self):
        poses = arc_poses(120)
        plan = plan_windows(120, 60, 5)
        batches = split_batches(poses, plan)
        disturbed, dists = perturb_batches(batches, yaw_range=0.5, translation_range=1.0, seed=2)
        assert disturbed[0] == batches[0]
        assert len(dists) == len(batches)

    def test_disturbance_is_exactly_what_correction_sees(self):
        poses = arc_poses(120)
        plan = plan_windows(120, 60, 5)
        batches = split_batches(poses, plan)
        disturbed, dists = perturb_batches(
            batches, yaw_range=0.5, translation_range=1.0, seed=2
        )
        # stored pose must be exactly T o D for every frame of the batch
        d = dists[1]
        for want, got in zip(batches[1], disturbed[1]):
            np.testing.assert_allclose(
                got.rotation, want.rotation @ d.rotation, rtol=0, atol=1e-15
            )
            np.testing.assert_allclose(
                got.translation,
                want.rotation @ d.translation + want.translation,
                rtol=0,
                atol=1e-15,
            )

    def test_seed_changes_disturbances(self):
        poses = arc_poses(120)
        plan = plan_windows(120, 60, 5)
        batches = split_batches(poses, plan)
        _, a = perturb_batches(batches, yaw_range=0.5, translation_range=1.0, seed=2)
        _, b = perturb_batches(batches, yaw_range=0.5, translation_range=1.0, seed=3)
        assert not np.allclose(a[1].translation, b[1].translation)


class TestStitchRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(SCENARIOS), seed=st.integers(0, 2 ** 32 - 1),
           window=st.integers(2, 40), data=st.data(),
           anchor_mode=st.sampled_from(["first", "last"]),
           yaw_range=st.floats(0.0, math.pi), translation_range=st.floats(0.0, 50.0))
    def test_yaw_translation_disturbance_is_undone(self, kind, seed, window, data, anchor_mode,
                                                   yaw_range, translation_range):
        overlap = data.draw(st.integers(1, window - 1), label="overlap")
        frames = data.draw(st.integers(window, 200), label="frames")
        spec = ScenarioSpec(kind=kind, frames=frames, seed=seed, bob_amplitude=0.01,
                            jitter_amplitude_rad=0.004)
        poses, _ = generate_trajectory(spec)
        plan = plan_windows(frames, window, overlap)
        disturbed, _ = perturb_batches(split_batches(poses, plan), yaw_range=yaw_range,
                                       translation_range=translation_range, seed=seed)
        state, emitted = StitchState(), []
        for batch in disturbed:
            state, out = stitch_step(state, batch, plan, anchor_mode=anchor_mode)
            emitted.append(out)
        stitched = PoseBatch.concat(emitted)
        assert stitched.first_frame == 0 and len(stitched) == frames
        assert np.abs(stitched.rotations - poses.rotations).max() <= 1e-9
        assert np.abs(stitched.centers - poses.centers).max() <= 1e-9
