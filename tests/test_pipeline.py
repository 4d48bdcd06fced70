import dataclasses
import errno
import os
import re
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ego_focus import (
    ConfigError,
    FocusConfig,
    Intrinsics,
    MotionStream,
    PlanError,
    RunConfig,
    ScenarioSpec,
    generate_trajectory,
    iter_windows,
    load_pose_batches,
    modulate_depth,
    perturb_batches,
    plan_windows,
    read_depth_map,
    read_focus_map_float,
    read_pgm,
    render_focus_map,
    run_stream,
    run_stream_batches,
    write_depth_map,
    write_pose_stream,
)
from ego_focus import streams
from ego_focus.errors import StreamFormatError
from ego_focus.motion import DEFAULT_FOCUS_N
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
        assert summary.windows == (len(plan_windows(n, size, overlap).windows()) if n else 0)
        assert summary.boundaries == (max(0, summary.windows - 1) if overlap else 0)


class TestRunConfig:
    def test_defaults_mirror_module_constants(self):
        cfg = RunConfig()
        assert cfg.window_size == 60
        assert cfg.overlap == 5
        assert cfg.focus_n == 15
        assert cfg.plan().stride == 55
        assert len(plan_windows(600, cfg.window_size, cfg.overlap).windows()) == 11
        assert cfg.focus_config().n_points == 15

    def test_bad_values_rejected_eagerly(self):
        with pytest.raises(ConfigError):
            RunConfig(map_scale=0)
        with pytest.raises(ConfigError):
            RunConfig(anchor_mode="middle")
        with pytest.raises(Exception):
            RunConfig(window_size=10, overlap=10)
        with pytest.raises(ConfigError, match="^focus_n: must be >= 1, got 0$"):
            RunConfig(focus_n=0)
        # counts and sizes are integers, 2.0 and True included
        for key, value in (("map_scale", 2.0), ("focus_n", 2.5), ("window_size", 60.0),
                           ("overlap", 5.0), ("threads", 2.5), ("threads", "2"),
                           ("map_scale", True), ("focus_n", True), ("threads", True)):
            with pytest.raises(ConfigError, match=f"^{key}: must be an integer, got {value!r}$"):
                RunConfig(**{key: value})
        assert RunConfig(map_scale=np.int64(2), focus_n=np.int32(3), threads=np.uint8(2))
        # on/off settings are bools, not truthy values; sigma_px is a number
        for key, value, message in (
                ("scale_correction", "no", "must be True or False, got 'no'"),
                ("smooth_positions", "no", "must be True or False, got 'no'"),
                ("emit_float_maps", 1, "must be True or False, got 1"),
                ("sigma_px", "a", "must be a finite number, got 'a'")):
            with pytest.raises(ConfigError, match=f"^{key}: {re.escape(message)}$"):
                RunConfig(**{key: value})
        assert RunConfig(scale_correction=np.True_, emit_float_maps=np.False_)


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

    def test_more_than_eight_threads_rejected(self, monkeypatch):
        with pytest.raises(ConfigError, match="threads: must be between 0 and 8, got 9"):
            RunConfig(threads=9)
        with pytest.raises(ConfigError, match="threads: must be between 0 and 8, got -1"):
            RunConfig(threads=-1)
        monkeypatch.setenv(THREADS_ENV_VAR, "9")
        with pytest.raises(ConfigError, match=f"{THREADS_ENV_VAR}: must be between 0 and 8"):
            resolve_threads(None)

    @pytest.mark.parametrize("value", ["9", "-1"])
    def test_bad_environment_value_fails_before_the_output_directory(self, monkeypatch,
                                                                      tmp_path, value):
        def unread():
            raise AssertionError("the stream was read")
            yield

        monkeypatch.setenv(THREADS_ENV_VAR, value)
        with pytest.raises(ConfigError, match=THREADS_ENV_VAR):
            run_stream(unread(), WIDE, RunConfig(), str(tmp_path / "o"))
        assert not (tmp_path / "o").exists()


class TestRunStream:
    @pytest.mark.parametrize("anchor_mode", ["first", "last"])
    def test_window_shorter_than_the_overlap_rejected(self, tmp_path, anchor_mode):
        poses = arc_poses(60)
        with pytest.raises(PlanError, match="window at offset 55: got 3 frames, "
                                            "fewer than the overlap of 5"):
            run_stream_batches([poses, poses[55:58]], WIDE, RunConfig(anchor_mode=anchor_mode),
                               str(tmp_path / "o"))

    def test_arc_run_counts_and_outputs(self, tmp_path):
        poses = arc_poses(130)
        out = tmp_path / "out"
        summary = run_stream(iter(poses), WIDE, RunConfig(), str(out))
        assert summary.frames_in == 130
        assert summary.frames_emitted == 130
        assert summary.windows == len(plan_windows(130, 60, 5).windows())
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
        # The noise-free arc has runs of identical maps, so some files are
        # links: record each write with its bytes and each link with its source.
        calls = []
        real_write, real_link = streams.atomic_write_bytes, streams.link_replacing

        def write(path, data):
            calls.append((threading.get_ident(), os.path.basename(path), data))
            real_write(path, data)

        def link(source, path):
            calls.append((threading.get_ident(), os.path.basename(path), os.path.basename(source)))
            real_link(source, path)

        monkeypatch.setattr(streams, "atomic_write_bytes", write)
        monkeypatch.setattr(streams, "link_replacing", link)
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
        # a write's payload is bytes or bytearray, a link's source a file name
        assert {bytes if type(what) is bytearray else type(what)
                for _, _, what in runs[1]} == {bytes, str}
        assert runs[2] == runs[1]
        assert runs[4] == runs[1]

    def test_zero_maps_encode_to_zero_bytes(self):
        k = Intrinsics(fx=10.0, fy=10.0, cx=40.0, cy=30.0, width=80, height=60)
        writer = _FrameWriter("out", k, 3.2, False, None)
        zero_pgm = streams.pgm_bytes(np.zeros((60, 80)))
        empty = np.empty(0)
        contributing, payloads = writer(7, empty, empty, empty)
        assert contributing == 0
        assert writer.paths(7) == [os.path.join("out", "focus_000007.pgm")]
        assert payloads == [zero_pgm]
        # a kernel wholly off the image is also a zero map, after a map
        # whose footprint the writer zeroed
        assert writer(8, np.array([40.0]), np.array([30.0]), np.ones(1))[1] != [zero_pgm]
        far = np.array([1e300])
        assert writer(9, far, far, np.ones(1)) == (0, [zero_pgm])

    def test_render_that_raises_does_not_leak_into_the_next_map(self, monkeypatch):
        k = Intrinsics(fx=10.0, fy=10.0, cx=40.0, cy=30.0, width=80, height=60)
        # the .mfm sidecar encodes the whole map, not only its footprint
        writer = _FrameWriter("out", k, 3.2, True, None)
        fresh = _FrameWriter("out", k, 3.2, True, None)
        rng = np.random.default_rng(4)
        spread = (rng.uniform(0, 80, 12), rng.uniform(0, 60, 12), rng.lognormal(0.0, 1.0, 12))
        corner = (np.array([8.0]), np.array([6.0]), np.ones(1))
        writer(2, *corner)
        real_add, calls = np.add, []

        def failing_add(*args, **kwargs):
            calls.append(1)
            if len(calls) == 5:
                raise MemoryError
            return real_add(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np, "add", failing_add)
            with pytest.raises(MemoryError):
                writer(3, *spread)
        assert writer(4, *corner) == fresh(4, *corner)

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


def climb_poses():
    # On WIDE at map scale 4, 44 of the 88 maps have no kernel on the image.
    poses, _ = generate_trajectory(ScenarioSpec(kind="climb", frames=90, seed=3))
    return poses


def copied_run(monkeypatch, out, cfg):
    """A run with every output written as its own file, no hard links."""
    def no_link(source, path):
        raise OSError(errno.EPERM, "no links here")

    with monkeypatch.context() as m:
        m.setattr(streams, "link_replacing", no_link)
        return run_stream(iter(climb_poses()), WIDE, cfg, str(out))


def contents(out):
    return {name: (out / name).read_bytes() for name in os.listdir(out)}


class TestZeroMapLinks:
    ZERO_PGM = streams.pgm_bytes(np.zeros((120, 160)))
    ZERO_MFM = streams.raw_map_bytes(np.zeros((120, 160)), streams.FOCUS_MAP_MAGIC)

    @pytest.mark.parametrize("emit_float", [False, True])
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_zero_maps_are_links_to_one_file(self, monkeypatch, tmp_path, threads, emit_float):
        """A file shares the previous frame's inode if and only if it has the
        previous frame's bytes, so each run of zero maps is one file."""
        cfg = RunConfig(threads=threads, emit_float_maps=emit_float, map_scale=4,
                        window_size=20, overlap=5)
        out = tmp_path / "linked"
        summary = run_stream(iter(climb_poses()), WIDE, cfg, str(out))
        copied_run(monkeypatch, tmp_path / "copied", cfg)
        assert summary.zero_maps == 44 and summary.maps_written == 88
        linked = contents(out)
        assert linked == contents(tmp_path / "copied")
        kinds = [("pgm", self.ZERO_PGM)] + [("mfm", self.ZERO_MFM)] * emit_float
        assert len(linked) == 1 + 88 * len(kinds)
        for ext, zero in kinds:
            names = [f"focus_{frame:06d}.{ext}" for frame in range(2, 90)]
            stats = [os.stat(out / n) for n in names]
            for j in range(1, len(names)):
                same_bytes = linked[names[j]] == linked[names[j - 1]]
                assert (stats[j].st_ino == stats[j - 1].st_ino) == same_bytes, names[j]
            for st in stats:
                assert st.st_nlink == sum(s.st_ino == st.st_ino for s in stats)
            # the climb's 44 zero maps come in two runs, of 30 and of 14 frames
            zeros = [st.st_ino for n, st in zip(names, stats) if linked[n] == zero]
            assert sorted(zeros.count(ino) for ino in set(zeros)) == [14, 30]

    @pytest.mark.parametrize("failure", [errno.EMLINK, errno.EPERM, errno.ENOTSUP])
    def test_a_link_that_fails_is_written_instead(self, monkeypatch, tmp_path, failure):
        cfg = RunConfig(emit_float_maps=True, map_scale=4, window_size=20, overlap=5)
        copied_run(monkeypatch, tmp_path / "copied", cfg)
        real_link, links, refused = os.link, {}, []

        def limited_link(source, target):
            # EMLINK once a file has three links; the other errors always
            if failure != errno.EMLINK or links.get(source, 0) == 3:
                refused.append(source)
                raise OSError(failure, os.strerror(failure), source, target)
            links[source] = links.get(source, 0) + 1
            real_link(source, target)

        monkeypatch.setattr(os, "link", limited_link)
        out = tmp_path / "o"
        run_stream(iter(climb_poses()), WIDE, cfg, str(out))
        assert contents(out) == contents(tmp_path / "copied")
        assert refused and not [n for n in os.listdir(out) if n.startswith(".tmp-")]
        # the file written in place of a refused link is the next link's source
        assert len(set(refused)) == len(refused)
        nlinks = [os.stat(out / n).st_nlink for n in os.listdir(out)]
        assert max(nlinks) == (4 if failure == errno.EMLINK else 1)

    def test_rerun_links_onto_existing_names(self, monkeypatch, tmp_path):
        """A link onto a name left by an earlier run replaces it by a link; it is
        not refused and written instead."""
        cfg = RunConfig(map_scale=4, window_size=20, overlap=5)
        out, real_write, written = tmp_path / "o", streams.atomic_write_bytes, []

        def write(path, data):
            written.append(os.path.basename(path))
            real_write(path, data)

        monkeypatch.setattr(streams, "atomic_write_bytes", write)
        runs = []
        for _ in range(2):
            run_stream(iter(climb_poses()), WIDE, cfg, str(out))
            inodes = {n: os.stat(out / n).st_ino for n in os.listdir(out)}
            runs.append((list(written), contents(out), len(set(inodes.values()))))
            written.clear()
        assert runs[1] == runs[0] and runs[0][2] < len(runs[0][1]) - 1
        assert not [n for n in os.listdir(out) if n.startswith(".tmp-")]

    def test_run_failing_mid_stream_leaves_a_prefix(self, tmp_path):
        # depth maps run out at frame 40
        depth_dir = tmp_path / "depth"
        depth_dir.mkdir()
        for frame in range(2, 40):
            write_depth_map(np.full((120, 160), 10.0), depth_dir / f"depth_{frame:06d}.mfd")
        out = tmp_path / "o"
        cfg = RunConfig(threads=2, map_scale=4, window_size=20, overlap=5)
        with pytest.raises(FileNotFoundError, match="depth_000040"):
            run_stream(iter(climb_poses()), WIDE, cfg, str(out), depth_dir=str(depth_dir))
        assert sorted(os.listdir(out)) == sorted(
            f"{kind}_{frame:06d}.{ext}" for frame in range(2, 40)
            for kind, ext in (("focus", "pgm"), ("depth_mod", "mfd")))
        assert len({os.stat(out / f"focus_{f:06d}.pgm").st_ino for f in range(2, 40)}) < 38

    def test_run_interrupted_in_a_link_leaves_no_temp_file(self, monkeypatch, tmp_path):
        real_link, links = os.link, []

        def interrupted(source, target):
            links.append(target)
            if len(links) == 5:
                raise KeyboardInterrupt
            real_link(source, target)

        monkeypatch.setattr(os, "link", interrupted)
        out = tmp_path / "o"
        cfg = RunConfig(map_scale=4, window_size=20, overlap=5)
        with pytest.raises(KeyboardInterrupt):
            run_stream(iter(climb_poses()), WIDE, cfg, str(out))
        names = sorted(os.listdir(out))
        assert not [n for n in names if n.startswith(".tmp-")]
        assert names == [f"focus_{frame:06d}.pgm" for frame in range(2, 2 + len(names))]
        assert os.path.basename(links[-1]) == f"focus_{2 + len(names):06d}.pgm"

    def test_second_run_leaves_a_file_linked_from_outside_alone(self, tmp_path):
        out, keep = tmp_path / "o", tmp_path / "keep.pgm"
        cfg = RunConfig(map_scale=4, window_size=20, overlap=5)
        run_stream(iter(climb_poses()), WIDE, cfg, str(out))
        zeros = [n for n in sorted(os.listdir(out)) if (out / n).read_bytes() == self.ZERO_PGM]
        keep.write_bytes(b"kept")
        for name in zeros[:2]:  # the run's first zero map, written, and a linked one
            os.unlink(out / name)
            os.link(keep, out / name)
        inode = os.stat(keep).st_ino
        run_stream(iter(climb_poses()), WIDE, cfg, str(out))
        assert keep.read_bytes() == b"kept"
        assert os.stat(keep).st_ino == inode and os.stat(keep).st_nlink == 1
        for name in zeros[:2]:
            assert (out / name).read_bytes() == self.ZERO_PGM


LONG = Intrinsics(fx=40.0, fy=40.0, cx=320.0, cy=240.0, width=640, height=480)


def long_arc_poses(frames=150):
    # long_stream's arc; at map scale 8 (80x60 maps) about half of its
    # samples are not projectable, and 39 of its 148 maps are repeats
    spec = ScenarioSpec(kind="arc", frames=frames, radius=50.0, omega=0.01, bob_amplitude=0.002,
                        jitter_amplitude_rad=0.001, noise_kind="white")
    poses, _ = generate_trajectory(spec)
    return poses


class TestRepeatFrames:
    """A frame whose new sample and evicted sample are both not projectable
    (a repeat) is not rendered: its maps link the previous frame's."""

    def run(self, monkeypatch, out, depth_dir=None, **cfg):
        """A run's summary, focus points and the frames _FrameWriter rendered."""
        blocks, rendered = [], []
        real_push, real_call = MotionStream.push, _FrameWriter.__call__

        def push(stream, poses):
            blocks.append(real_push(stream, poses))
            return blocks[-1]

        def call(writer, frame, *arrays):
            rendered.append(frame)
            return real_call(writer, frame, *arrays)

        with monkeypatch.context() as m:
            m.setattr(MotionStream, "push", push)
            m.setattr(_FrameWriter, "__call__", call)
            cfg = RunConfig(**{"map_scale": 8, "window_size": 60, "overlap": 5, **cfg})
            summary = run_stream(iter(long_arc_poses()), LONG, cfg, str(out), depth_dir=depth_dir)
        return summary, [p for block in blocks for p in block.focus_points()], sorted(rendered)

    @staticmethod
    def repeats(points, n=DEFAULT_FOCUS_N):
        return [j for j in range(1, len(points)) if not points[j].projectable
                and (j < n or not points[j - n].projectable)]

    @staticmethod
    def fresh_maps(points, n=DEFAULT_FOCUS_N):
        """Each frame's map, rendered anew from its trailing focus window."""
        k = LONG.scaled(8)
        scaled = [dataclasses.replace(p, u=p.u / 8, v=p.v / 8) if p.projectable else p
                  for p in points]
        return [render_focus_map(scaled[max(0, j - n + 1):j + 1], k, FocusConfig())
                for j in range(len(points))]

    @pytest.mark.parametrize("emit_float", [False, True])
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_every_map_equals_a_fresh_render(self, monkeypatch, tmp_path, threads, emit_float):
        out = tmp_path / "o"
        summary, points, rendered = self.run(monkeypatch, out, threads=threads,
                                             emit_float_maps=emit_float)
        repeats = self.repeats(points)
        assert len(points) == summary.maps_written == 148 and len(repeats) == 39
        fmaps = self.check_outputs(out, summary, points, rendered, emit_float)
        assert sum(fmaps[j].contributing_points > 0 for j in repeats) == 39

    @pytest.mark.parametrize("focus_n", [1, 15, 40])
    def test_windows_across_two_sample_blocks(self, monkeypatch, tmp_path, focus_n):
        """batched_stitch's 8/6 plan: the stitcher hands over 2-sample blocks,
        so a window spans up to 20 of them and the sample a block's first
        frame evicts came in an earlier block."""
        out = tmp_path / "o"
        summary, points, rendered = self.run(monkeypatch, out, window_size=8, overlap=6,
                                             focus_n=focus_n, threads=2, emit_float_maps=True)
        assert summary.windows == 72 and len(points) == summary.maps_written == 148
        assert sum(not p.projectable for p in points) > 60
        assert len(self.repeats(points, focus_n)) > 10
        self.check_outputs(out, summary, points, rendered, True, focus_n)

    def check_outputs(self, out, summary, points, rendered, emit_float, n=DEFAULT_FOCUS_N):
        """Every map equals a fresh render; repeats link the previous frame's
        files and are not rendered. Returns the fresh renders."""
        repeats, fmaps = self.repeats(points, n), self.fresh_maps(points, n)
        assert summary.zero_maps == sum(f.contributing_points == 0 for f in fmaps)
        files = contents(out)
        del files["focus_points.csv"]
        exts = ["pgm", "mfm"] if emit_float else ["pgm"]
        expected = {}
        for p, fmap in zip(points, fmaps):
            expected[f"focus_{p.frame_index:06d}.pgm"] = streams.pgm_bytes(fmap.values)
            if emit_float:
                expected[f"focus_{p.frame_index:06d}.mfm"] = streams.raw_map_bytes(
                    fmap.values, streams.FOCUS_MAP_MAGIC)
        assert files == expected
        for j in repeats:
            for ext in exts:
                this, previous = (os.stat(out / f"focus_{points[i].frame_index:06d}.{ext}")
                                  for i in (j, j - 1))
                assert this.st_ino == previous.st_ino
        assert rendered == [p.frame_index for j, p in enumerate(points) if j not in repeats]
        return fmaps

    def test_with_depth_maps_every_frame_renders(self, monkeypatch, tmp_path):
        depth_dir, out = tmp_path / "depth", tmp_path / "o"
        depth_dir.mkdir()
        for frame in range(2, 150):
            write_depth_map(np.full((60, 80), float(frame)), depth_dir / f"depth_{frame:06d}.mfd")
        summary, points, rendered = self.run(monkeypatch, out, depth_dir=str(depth_dir),
                                             threads=2)
        assert rendered == [p.frame_index for p in points] and len(self.repeats(points)) == 39
        for p, fmap in zip(points, self.fresh_maps(points)):
            depth = read_depth_map(depth_dir / f"depth_{p.frame_index:06d}.mfd")
            name = out / f"depth_mod_{p.frame_index:06d}.mfd"
            assert name.read_bytes() == streams.raw_map_bytes(
                modulate_depth(depth.astype(np.float64), fmap).astype(np.float32),
                streams.DEPTH_MAP_MAGIC)
            assert os.stat(name).st_nlink == 1
            assert (out / f"focus_{p.frame_index:06d}.pgm").read_bytes() == \
                streams.pgm_bytes(fmap.values)

    @pytest.mark.parametrize("failure", [errno.EMLINK, errno.EPERM])
    def test_a_link_that_fails_is_written_instead(self, monkeypatch, tmp_path, failure):
        cfg = dict(threads=2, emit_float_maps=True)
        def no_link(source, path):
            raise OSError(errno.EPERM, "no links here")

        with monkeypatch.context() as m:  # every output written as its own file
            m.setattr(streams, "link_replacing", no_link)
            self.run(monkeypatch, tmp_path / "copied", **cfg)
        real_link, links, refused = os.link, {}, []

        def limited_link(source, target):
            # EMLINK once a file has one link (no map of this stream is on
            # more than three frames in a row); EPERM always
            if failure != errno.EMLINK or links.get(source, 0) == 1:
                refused.append(source)
                raise OSError(failure, os.strerror(failure), source, target)
            links[source] = links.get(source, 0) + 1
            real_link(source, target)

        monkeypatch.setattr(os, "link", limited_link)
        out = tmp_path / "o"
        self.run(monkeypatch, out, **cfg)
        assert contents(out) == contents(tmp_path / "copied")
        assert refused and not [n for n in os.listdir(out) if n.startswith(".tmp-")]
        # the file written in place of a refused link is the next link's source
        assert len(set(refused)) == len(refused)
        nlinks = [os.stat(out / n).st_nlink for n in os.listdir(out)]
        assert max(nlinks) == (2 if failure == errno.EMLINK else 1)

    @pytest.mark.parametrize("threads", [1, 4])
    def test_run_failing_mid_stream_leaves_a_prefix(self, monkeypatch, tmp_path, threads):
        real_call, failed = _FrameWriter.__call__, []

        def failing(writer, frame, *arrays):
            if frame >= 80:
                failed.append(frame)
                raise RuntimeError(f"frame {frame}")
            return real_call(writer, frame, *arrays)

        monkeypatch.setattr(_FrameWriter, "__call__", failing)
        out = tmp_path / "o"
        with pytest.raises(RuntimeError, match="frame"):
            run_stream(iter(long_arc_poses()), LONG,
                       RunConfig(threads=threads, map_scale=8, window_size=60, overlap=5),
                       str(out))
        stop = min(failed)
        names = sorted(os.listdir(out))
        assert names == [f"focus_{frame:06d}.pgm" for frame in range(2, stop)]
        assert len({os.stat(out / n).st_ino for n in names}) < len(names)


class TestRunMemory:
    def test_peak_does_not_grow_with_the_stream(self, tmp_path):
        """The paper's "manageable memory", on the whole run path: the
        traced peaks of 200 and of 1,600 frames agree within 10%."""
        poses = long_arc_poses(1600)
        # 160x120 maps: their buffers keep the peak well above the 15-20 KB
        # by which parse and CSV buffers move it from window to window.
        cfg = RunConfig(map_scale=4, window_size=60, overlap=5)
        peaks = []
        for frames in (200, 1600):
            path = tmp_path / f"poses{frames}.jsonl"
            write_pose_stream(path, streams.records_from_poses(poses[:frames]))
            tracemalloc.start()
            try:
                run_stream(load_pose_batches(path), LONG, cfg, str(tmp_path / f"o{frames}"))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks
