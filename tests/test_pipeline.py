import os
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ego_focus import (
    ConfigError,
    FocusConfig,
    Intrinsics,
    PlanError,
    RunConfig,
    ScenarioSpec,
    generate_trajectory,
    iter_windows,
    perturb_batches,
    plan_windows,
    read_depth_map,
    read_focus_map_float,
    read_pgm,
    run_stream,
    run_stream_batches,
    write_depth_map,
)
from ego_focus import streams
from ego_focus.errors import StreamFormatError
from ego_focus.pipeline import THREADS_ENV_VAR, _FrameWriter, resolve_threads

WIDE = Intrinsics(fx=10.0, fy=10.0, cx=320.0, cy=240.0, width=640, height=480)
NARROW = Intrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


def arc_poses(frames, seed=7):
    spec = ScenarioSpec(kind="arc", frames=frames, radius=2.0, omega=0.05, seed=seed)
    poses, _ = generate_trajectory(spec)
    return poses


def frame_ranges(windows):
    return [(w[0].frame_index, w[-1].frame_index + 1) for w in windows]


class TestIterWindows:
    def test_matches_plan_enumeration(self):
        poses = arc_poses(143)
        got = frame_ranges(list(iter_windows(iter(poses), 60, 5)))
        assert got == plan_windows(143, 60, 5).windows()

    def test_exact_fit_has_no_trailing_window(self):
        poses = arc_poses(60)
        got = frame_ranges(list(iter_windows(iter(poses), 60, 5)))
        assert got == [(0, 60)]

    def test_short_stream_single_window(self):
        poses = arc_poses(10)
        got = frame_ranges(list(iter_windows(iter(poses), 60, 5)))
        assert got == [(0, 10)]

    def test_empty_stream_yields_nothing(self):
        assert list(iter_windows(iter([]), 60, 5)) == []

    def test_batches_and_single_poses_give_the_same_windows(self):
        poses = arc_poses(143)
        singles = list(iter_windows(iter(poses), 60, 5))
        whole = list(iter_windows([poses], 60, 5))
        chunks = list(iter_windows((poses[i:i + 7] for i in range(0, 143, 7)), 60, 5))
        mixed = list(iter_windows([poses[:30], *poses[30:40], poses[40:]], 60, 5))
        assert frame_ranges(singles) == plan_windows(143, 60, 5).windows()
        for got in (whole, chunks, mixed):
            assert len(got) == len(singles)
            for a, b in zip(got, singles):
                assert a == b

    def test_gap_in_the_stream_is_rejected(self):
        poses = arc_poses(80)
        with pytest.raises(PlanError, match="29 followed by 31"):
            list(iter_windows([poses[:30], poses[31:]], 60, 5))

    def test_property_sweep_against_plan(self):
        rng = np.random.default_rng(23)
        poses = arc_poses(300)
        for _ in range(60):
            total = int(rng.integers(1, 300))
            size = int(rng.integers(1, 80))
            overlap = int(rng.integers(0, size))
            got = frame_ranges(list(iter_windows(iter(poses[:total]), size, overlap)))
            assert got == plan_windows(total, size, overlap).windows()


POOL = arc_poses(48)
TINY = Intrinsics(fx=4.0, fy=4.0, cx=4.0, cy=3.0, width=8, height=6)


@st.composite
def chunked_streams(draw):
    """(n, L, O, items): the first n frames of POOL as singles, batches or a mix."""
    n = draw(st.integers(0, len(POOL)))
    size = draw(st.integers(1, 20))
    overlap = draw(st.integers(0, size - 1))
    form = draw(st.sampled_from(["singles", "batches", "mixed"]))
    items, start = [], 0
    while start < n:
        stop = min(n, start + draw(st.integers(1, 12)))
        as_batch = form == "batches" or (form == "mixed" and draw(st.booleans()))
        items.extend([POOL[start:stop]] if as_batch else list(POOL[start:stop]))
        start = stop
    return n, size, overlap, items


class TestIterWindowsProperties:
    @settings(max_examples=200, deadline=None)
    @given(chunked_streams())
    def test_windows_are_the_plan_slices(self, case):
        n, size, overlap, items = case
        got = list(iter_windows(iter(items), size, overlap))
        want = plan_windows(n, size, overlap).windows() if n else []
        assert [(w.first_frame, w.end_frame) for w in got] == want
        for window, (start, stop) in zip(got, want):
            assert window == POOL[start:stop]

    @settings(max_examples=25, deadline=None)
    @given(chunked_streams())
    def test_run_counts_every_frame_once(self, case):
        n, size, overlap, items = case
        cfg = RunConfig(window_size=size, overlap=overlap, threads=1)
        with tempfile.TemporaryDirectory() as out_dir:
            summary = run_stream(iter(items), TINY, cfg, out_dir)
        assert summary.frames_in == n
        assert summary.maps_written == max(0, n - 2)


class TestRunConfig:
    def test_defaults_mirror_module_constants(self):
        cfg = RunConfig()
        assert cfg.window_size == 60
        assert cfg.overlap == 5
        assert cfg.focus_n == 15
        assert cfg.plan(600).n_windows == 11
        assert cfg.focus_config().n_points == 15

    def test_bad_values_rejected_eagerly(self):
        with pytest.raises(ConfigError):
            RunConfig(map_scale=0)
        with pytest.raises(ConfigError):
            RunConfig(anchor_mode="middle")
        with pytest.raises(ConfigError):
            RunConfig(normalize="max")
        with pytest.raises(Exception):
            RunConfig(window_size=10, overlap=10)


class TestResolveThreads:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "5")
        assert resolve_threads(3) == 3

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "4")
        assert resolve_threads(None) == 4

    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        assert resolve_threads(None) == 1

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        auto = resolve_threads(0)
        assert 1 <= auto <= 8

    def test_bad_values_rejected(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "lots")
        with pytest.raises(ConfigError):
            resolve_threads(None)
        with pytest.raises(ConfigError):
            resolve_threads(-1)


class TestRunStream:
    def test_arc_run_counts_and_outputs(self, tmp_path):
        poses = arc_poses(130)
        out = tmp_path / "out"
        summary = run_stream(iter(poses), WIDE, RunConfig(), str(out))
        assert summary.frames_in == 130
        assert summary.frames_emitted == 130
        assert summary.windows == plan_windows(130, 60, 5).n_windows
        assert summary.samples == 128  # first two frames have no acceleration
        assert summary.maps_written == 128
        assert summary.points_projected == 128
        assert summary.zero_maps == 0
        assert summary.boundaries == summary.windows - 1
        pgms = sorted(f for f in os.listdir(out) if f.endswith(".pgm"))
        assert len(pgms) == 128
        assert pgms[0] == "focus_000002.pgm"
        assert pgms[-1] == "focus_000129.pgm"
        values = read_pgm(out / pgms[-1])
        assert values.shape == (480, 640)
        assert values.max() == 255
        csv_lines = (out / "focus_points.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + 128

    def test_constant_velocity_run_is_all_zero(self, tmp_path):
        spec = ScenarioSpec(kind="constant_velocity", frames=80, speed=0.1)
        poses, _ = generate_trajectory(spec)
        summary = run_stream(iter(poses), NARROW, RunConfig(), str(tmp_path / "o"))
        assert summary.points_projected == 0
        assert summary.points_skipped == 78
        assert summary.zero_maps == summary.maps_written == 78
        values = read_pgm(tmp_path / "o" / "focus_000041.pgm")
        assert values.max() == 0

    def test_no_temp_files_left(self, tmp_path):
        poses = arc_poses(70)
        run_stream(iter(poses), WIDE, RunConfig(), str(tmp_path / "o"))
        leftovers = [f for f in os.listdir(tmp_path / "o") if f.startswith(".tmp-")]
        assert leftovers == []

    def test_map_scale_shrinks_output(self, tmp_path):
        poses = arc_poses(70)
        summary = run_stream(iter(poses), WIDE, RunConfig(map_scale=2), str(tmp_path / "o"))
        values = read_pgm(tmp_path / "o" / "focus_000050.pgm")
        assert values.shape == (240, 320)
        assert summary.maps_written == 68
        # impact column scales with the divisor
        full = run_stream(iter(poses), WIDE, RunConfig(), str(tmp_path / "f"))
        big = read_pgm(tmp_path / "f" / "focus_000050.pgm")
        u_full = int(np.unravel_index(np.argmax(big), big.shape)[1])
        u_half = int(np.unravel_index(np.argmax(values), values.shape)[1])
        assert abs(u_half - u_full / 2) <= 1.0

    def test_float_maps_emitted_on_request(self, tmp_path):
        poses = arc_poses(70)
        run_stream(iter(poses), WIDE, RunConfig(emit_float_maps=True), str(tmp_path / "o"))
        fmap = read_focus_map_float(tmp_path / "o" / "focus_000050.mfm")
        assert fmap.shape == (480, 640)
        assert fmap.max() == np.float32(1.0)
        # PGM is the quantized view of the same map
        pgm = read_pgm(tmp_path / "o" / "focus_000050.pgm")
        np.testing.assert_allclose(
            pgm.astype(np.float64),
            np.rint(fmap.astype(np.float64) * 255.0),
            rtol=0, atol=1.0,
        )

    def test_depth_modulation_outputs(self, tmp_path):
        poses = arc_poses(40)
        depth_dir = tmp_path / "depth"
        depth_dir.mkdir()
        for frame in range(2, 40):
            write_depth_map(
                np.full((480, 640), 10.0), depth_dir / f"depth_{frame:06d}.mfd"
            )
        out = tmp_path / "o"
        run_stream(
            iter(poses), WIDE, RunConfig(), str(out), depth_dir=str(depth_dir)
        )
        mod = read_depth_map(out / "depth_mod_000030.mfd").astype(np.float64)
        assert mod.shape == (480, 640)
        assert mod.max() == pytest.approx(10.0, rel=1e-6)  # alpha + (1-alpha) at peak
        assert mod.min() == pytest.approx(1.5, rel=1e-6)  # 0.15 * 10 in flat regions

    def test_residual_csv_written(self, tmp_path):
        poses = arc_poses(600)
        plan = plan_windows(600, 60, 5)
        batches = [poses[s:e] for s, e in plan.windows()]
        disturbed, _ = perturb_batches(batches, yaw_range=0.8, translation_range=2.0, seed=11)
        res_path = tmp_path / "residuals.csv"
        summary = run_stream_batches(
            disturbed, WIDE, RunConfig(), str(tmp_path / "o"),
            residuals_path=str(res_path),
        )
        assert summary.boundaries == 10
        assert summary.max_center_residual <= 1e-9
        lines = res_path.read_text().splitlines()
        assert lines[0] == "boundary_index,frame,center_dist,rot_angle_rad"
        assert len(lines) == 1 + 10 * 5

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        poses = arc_poses(90)
        serial = tmp_path / "serial"
        pooled = tmp_path / "pooled"
        run_stream(iter(poses), WIDE, RunConfig(threads=1), str(serial))
        run_stream(iter(poses), WIDE, RunConfig(threads=4), str(pooled))
        names = sorted(os.listdir(serial))
        assert names == sorted(os.listdir(pooled))
        for name in names:
            assert (serial / name).read_bytes() == (pooled / name).read_bytes()

    def test_summary_lines_are_printable(self, tmp_path):
        poses = arc_poses(12)
        summary = run_stream(iter(poses), WIDE, RunConfig(), str(tmp_path / "o"))
        lines = summary.lines()
        assert any(line.startswith("frames_in=12") for line in lines)
        assert any(line.startswith("peak_rss_bytes=") for line in lines)

    def test_smooth_positions_flag_changes_maps(self, tmp_path):
        spec = ScenarioSpec(kind="arc", frames=80, radius=2.0, omega=0.05,
                            bob_amplitude=0.01, seed=3)
        poses, _ = generate_trajectory(spec)
        run_stream(iter(poses), WIDE, RunConfig(), str(tmp_path / "rough"))
        run_stream(
            iter(poses), WIDE, RunConfig(smooth_positions=True), str(tmp_path / "smooth")
        )
        a = (tmp_path / "rough" / "focus_000050.pgm").read_bytes()
        b = (tmp_path / "smooth" / "focus_000050.pgm").read_bytes()
        assert a != b


class TestOutputWrites:
    def test_calling_thread_writes_every_file_in_frame_order(self, monkeypatch, tmp_path):
        calls = []
        real = streams.atomic_write_bytes

        def recording(path, data):
            calls.append((threading.get_ident(), os.path.basename(path), data))
            real(path, data)

        monkeypatch.setattr(streams, "atomic_write_bytes", recording)
        runs = {}
        for threads in (1, 2, 4):
            cfg = RunConfig(threads=threads, emit_float_maps=True, window_size=20, overlap=5)
            run_stream(iter(arc_poses(90)), WIDE, cfg, str(tmp_path / f"t{threads}"))
            runs[threads], calls[:] = list(calls), []
        caller = threading.get_ident()
        expected = [name for frame in range(2, 90)
                    for name in (f"focus_{frame:06d}.pgm", f"focus_{frame:06d}.mfm")]
        for recorded in runs.values():
            assert {thread for thread, _, _ in recorded} == {caller}
            assert [name for _, name, _ in recorded] == expected
        assert runs[2] == runs[1]
        assert runs[4] == runs[1]

    def test_zero_maps_reuse_one_encoding(self):
        k = Intrinsics(fx=10.0, fy=10.0, cx=40.0, cy=30.0, width=80, height=60)
        writer = _FrameWriter("out", k, 3.2, FocusConfig(), False, None, 0.15)
        assert writer.zero_pgm == streams.pgm_bytes(np.zeros((60, 80)))
        empty = np.empty(0)
        contributing, outputs = writer(7, empty, empty, empty)
        assert contributing == 0
        assert outputs == [(os.path.join("out", "focus_000007.pgm"), writer.zero_pgm)]
        # a kernel wholly off the image is also a zero map
        far = np.array([1e300])
        assert writer(8, far, far, np.ones(1))[1][0][1] is writer.zero_pgm

    def test_wrong_size_depth_map_names_file_and_shapes(self, tmp_path):
        depth_dir = tmp_path / "depth"
        depth_dir.mkdir()
        write_depth_map(np.ones((24, 32)), depth_dir / "depth_000002.mfd")
        with pytest.raises(StreamFormatError, match=r"depth_000002\.mfd.* 32x24.* 640x480"):
            run_stream(iter(arc_poses(20)), WIDE, RunConfig(), str(tmp_path / "o"),
                       depth_dir=str(depth_dir))

    def test_files_follow_the_umask(self, tmp_path):
        out = tmp_path / "o"
        old = os.umask(0o022)
        try:
            run_stream(iter(arc_poses(30)), WIDE, RunConfig(emit_float_maps=True), str(out),
                       residuals_path=str(out / "residuals.csv"))
        finally:
            os.umask(old)
        modes = {name: os.stat(out / name).st_mode & 0o777 for name in os.listdir(out)}
        assert {"focus_points.csv", "residuals.csv", "focus_000002.pgm",
                "focus_000002.mfm"} <= set(modes)
        assert set(modes.values()) == {0o644}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_run_leaves_no_partial_csv(self, tmp_path, threads):
        # depth maps run out at frame 40, so the run fails mid-stream
        depth_dir = tmp_path / "depth"
        depth_dir.mkdir()
        for frame in range(2, 40):
            write_depth_map(np.full((480, 640), 10.0), depth_dir / f"depth_{frame:06d}.mfd")
        out = tmp_path / "o"
        cfg = RunConfig(threads=threads, window_size=20, overlap=5)
        with pytest.raises(FileNotFoundError, match="depth_000040"):
            run_stream(iter(arc_poses(90)), WIDE, cfg, str(out),
                       residuals_path=str(out / "residuals.csv"), depth_dir=str(depth_dir))
        names = sorted(os.listdir(out))
        assert not [n for n in names if n.startswith(".tmp-") or n.endswith(".csv")]
        # the files written are those of a contiguous run of frames, 2 to 39
        assert names == sorted(f"{kind}_{frame:06d}.{ext}" for frame in range(2, 40)
                               for kind, ext in (("focus", "pgm"), ("depth_mod", "mfd")))
