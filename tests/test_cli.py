import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import ego_focus
from ego_focus import benchmark, cli, pipeline
from ego_focus.cli import build_parser, main
from ego_focus.pipeline import RunSummary
from ego_focus.streams import (
    focus_map_name, read_pgm, records_from_poses, write_depth_map, write_intrinsics,
    write_pose_stream)
from ego_focus import (
    SCENARIOS, FocusConfig, Intrinsics, RunConfig, ScenarioSpec, generate_trajectory)

WIDE = Intrinsics(fx=10.0, fy=10.0, cx=320.0, cy=240.0, width=640, height=480)


def sim(tmp_path, *extra):
    out = tmp_path / "poses.jsonl"
    rc = main([
        "sim", "--scenario", "arc", "--frames", "90", "--seed", "7",
        "--radius", "2", "--omega", "0.05", "--out", str(out), *extra,
    ])
    assert rc == 0
    return out


class TestSim:
    def test_writes_stream_with_truth(self, tmp_path, capsys):
        out = sim(tmp_path)
        lines = out.read_text().splitlines()
        assert len(lines) == 90
        first = json.loads(lines[0])
        assert first["frame"] == 0
        assert len(first["T_wc"]) == 16
        assert set(first["truth"]) == {"position", "velocity", "acceleration"}
        assert "wrote 90 frames" in capsys.readouterr().out

    def test_constant_velocity_stream_bytes(self, capsys):
        # No trigonometry, so the same bytes on every platform: -0.0 entries
        # stay signed and the last row of T_wc is written as floats.
        assert main(["sim", "--scenario", "constant_velocity", "--frames", "3",
                     "--out", "-"]) == 0
        assert capsys.readouterr().out == (
            '{"frame":0,"T_wc":'
            '[1.0,0.0,-0.0,-0.0,-0.0,1.0,-0.0,-0.0,0.0,0.0,1.0,-0.0,0.0,0.0,0.0,1.0]'
            ',"truth":{"position":[0.0,0.0,0.0]'
            ',"velocity":[0.0,0.0,0.1],"acceleration":[0.0,0.0,0.0]}}\n'
            '{"frame":1,"T_wc":'
            '[1.0,0.0,-0.0,-0.0,-0.0,1.0,-0.0,-0.0,0.0,0.0,1.0,-0.1,0.0,0.0,0.0,1.0]'
            ',"truth":{"position":[0.0,0.0,0.1]'
            ',"velocity":[0.0,0.0,0.1],"acceleration":[0.0,0.0,0.0]}}\n'
            '{"frame":2,"T_wc":'
            '[1.0,0.0,-0.0,-0.0,-0.0,1.0,-0.0,-0.0,0.0,0.0,1.0,-0.2,0.0,0.0,0.0,1.0]'
            ',"truth":{"position":[0.0,0.0,0.2]'
            ',"velocity":[0.0,0.0,0.1],"acceleration":[0.0,0.0,0.0]}}\n'
        )

    def test_negative_seed_fails_cleanly(self, tmp_path, capsys):
        rc = main([
            "sim", "--scenario", "arc", "--frames", "10", "--seed", "-1",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: seed: must be >= 0")
        assert os.listdir(tmp_path) == []

    def test_negative_jitter_amplitude_names_its_own_key(self, tmp_path, capsys):
        rc = main([
            "sim", "--scenario", "arc", "--frames", "10", "--jitter-amplitude", "-1",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: jitter_amplitude_rad: noise amplitudes must be >= 0\n"
        assert os.listdir(tmp_path) == []

    def test_unknown_scenario_fails_cleanly(self, tmp_path, capsys):
        rc = main([
            "sim", "--scenario", "warp", "--frames", "10",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", [
        "--speed", "--radius", "--omega", "--decel", "--climb-rate", "--head-yaw-amplitude",
        "--head-yaw-frequency", "--bob-amplitude", "--jitter-amplitude",
    ])
    def test_non_finite_parameter_fails_cleanly(self, tmp_path, capsys, flag, value):
        rc = main([
            "sim", "--scenario", "head-yaw", "--frames", "10", f"{flag}={value}",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert rc == 2
        key = "jitter_amplitude_rad" if flag == "--jitter-amplitude" else flag[2:].replace("-", "_")
        assert capsys.readouterr().err.startswith(f"error: {key}: must be a finite number, got ")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("scenario", ["constant_velocity", "brake", "climb"])
    def test_overflowing_speed_fails_before_writing(self, tmp_path, capsys, scenario):
        with np.errstate(all="ignore"):
            rc = main([
                "sim", "--scenario", scenario, "--frames", "3", "--speed", "1e308",
                "--out", str(tmp_path / "x.jsonl"),
            ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: frame ")
        assert os.listdir(tmp_path) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scenario", ["constant_velocity", "brake", "climb"])
    def test_overflowing_speed_prints_only_the_error(self, tmp_path, capsys, scenario):
        rc = main([
            "sim", "--scenario", scenario, "--frames", "3", "--speed", "1e308",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: frame ") and err.count("\n") == 1

    @pytest.mark.parametrize("scenario", ["arc", "head-yaw"])
    def test_speed_is_ignored_by_the_arc_kinds(self, tmp_path, scenario):
        outputs = []
        for speed in ("0.1", "5", "1e308"):
            out = tmp_path / f"{speed}.jsonl"
            args = ["sim", "--scenario", scenario, "--frames", "40", "--bob-amplitude", "0.01"]
            assert main([*args, "--speed", speed, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_omitted_flags_take_the_scenario_spec_defaults(self, tmp_path, scenario):
        out, expected = tmp_path / "cli.jsonl", tmp_path / "spec.jsonl"
        argv = ["sim", "--scenario", scenario, "--frames", "50", "--out", str(out)]
        assert vars(build_parser().parse_args(argv)) == {
            "command": "sim", "kind": scenario, "frames": 50, "out": str(out)}
        assert main(argv) == 0
        write_pose_stream(expected, records_from_poses(*generate_trajectory(
            ScenarioSpec(scenario, 50))))
        assert out.read_bytes() == expected.read_bytes()

    def test_interrupted_sim_leaves_no_file(self, tmp_path, monkeypatch):
        import ego_focus.cli

        real = ego_focus.cli.iter_trajectory

        def interrupted(spec):
            yield from real(spec)
            raise KeyboardInterrupt

        monkeypatch.setattr(ego_focus.cli, "iter_trajectory", interrupted)
        with pytest.raises(KeyboardInterrupt):
            sim(tmp_path)
        assert os.listdir(tmp_path) == []

    def test_new_stream_follows_the_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            out = sim(tmp_path)
        finally:
            os.umask(old)
        assert os.stat(out).st_mode & 0o777 == 0o644


class TestRun:
    def test_sim_then_run(self, tmp_path, capsys):
        poses = sim(tmp_path)
        k_path = tmp_path / "k.json"
        write_intrinsics(WIDE, k_path)
        out_dir = tmp_path / "maps"
        rc = main([
            "run", "--poses", str(poses), "--intrinsics", str(k_path),
            "--out-dir", str(out_dir),
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "frames_in=90" in printed
        assert "maps_written=88" in printed
        pgms = sorted(f for f in os.listdir(out_dir) if f.endswith(".pgm"))
        assert len(pgms) == 88
        assert read_pgm(out_dir / pgms[0]).shape == (480, 640)
        assert (out_dir / "focus_points.csv").exists()

    def test_focus_points_csv_holds_plain_numbers(self, tmp_path):
        poses = sim(tmp_path, "--bob-amplitude", "0.01", "--jitter-amplitude", "0.004")
        k_path = tmp_path / "k.json"
        write_intrinsics(WIDE, k_path)
        out_dir = tmp_path / "maps"
        assert main(["run", "--poses", str(poses), "--intrinsics", str(k_path),
                     "--out-dir", str(out_dir)]) == 0
        lines = (out_dir / "focus_points.csv").read_text().splitlines()
        assert lines[0] == "frame,u,v,ax,ay,az,mag,projectable" and len(lines) == 89
        flags = []
        for line in lines[1:]:
            frame, u, v, *numbers, flag = line.split(",")
            assert int(frame) >= 2 and flag in ("0", "1")
            assert np.isfinite([float(x) for x in numbers]).all()
            flags.append(flag)
            if flag == "1":
                assert np.isfinite([float(u), float(v)]).all()
            else:
                assert u == v == ""
        assert set(flags) == {"0", "1"}

    def test_flags_reach_the_pipeline(self, tmp_path):
        poses = sim(tmp_path)
        k_path = tmp_path / "k.json"
        write_intrinsics(WIDE, k_path)
        out_dir = tmp_path / "maps"
        rc = main([
            "run", "--poses", str(poses), "--intrinsics", str(k_path),
            "--out-dir", str(out_dir), "--map-scale", "2",
            "--emit-float-maps", "--residuals", str(tmp_path / "res.csv"),
            "--window-size", "30", "--overlap", "4", "--threads", "2",
        ])
        assert rc == 0
        assert read_pgm(out_dir / "focus_000050.pgm").shape == (240, 320)
        assert (out_dir / "focus_000050.mfm").exists()
        res_lines = (tmp_path / "res.csv").read_text().splitlines()
        assert res_lines[0] == "boundary_index,frame,center_dist,rot_angle_rad"
        assert len(res_lines) > 1

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        k_path = tmp_path / "k.json"
        write_intrinsics(WIDE, k_path)
        rc = main([
            "run", "--poses", str(tmp_path / "nope.jsonl"),
            "--intrinsics", str(k_path), "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_intrinsics_fails_cleanly(self, tmp_path, capsys):
        poses = sim(tmp_path)
        k_path = tmp_path / "k.json"
        k_path.write_text('{"fx": 10, "fy": ')
        rc = main([
            "run", "--poses", str(poses), "--intrinsics", str(k_path),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: intrinsics: invalid JSON")

    def test_intrinsics_nested_too_deep_fails_cleanly(self, tmp_path, capsys):
        poses = sim(tmp_path)
        k_path = tmp_path / "k.json"
        k_path.write_text("[" * 200_000)
        rc = main([
            "run", "--poses", str(poses), "--intrinsics", str(k_path),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: intrinsics: invalid JSON: ")

    def test_non_utf8_pose_stream_fails_cleanly(self, tmp_path, capsys):
        poses = tmp_path / "poses.jsonl"
        poses.write_bytes(b"\xff\xfe")
        k_path = tmp_path / "k.json"
        write_intrinsics(WIDE, k_path)
        rc = main([
            "run", "--poses", str(poses), "--intrinsics", str(k_path),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: line 1: not UTF-8")

    def test_wrong_size_depth_map_fails_cleanly(self, tmp_path, capsys):
        poses = sim(tmp_path)
        k_path = tmp_path / "k.json"
        write_intrinsics(WIDE, k_path)
        depth_dir = tmp_path / "depth"
        depth_dir.mkdir()
        for frame in range(90):
            write_depth_map(np.ones((48, 64)), depth_dir / f"depth_{frame:06d}.mfd")
        rc = main([
            "run", "--poses", str(poses), "--intrinsics", str(k_path),
            "--out-dir", str(tmp_path / "o"), "--depth-dir", str(depth_dir),
            "--threads", "2",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "depth_000002.mfd" in err and "64x48" in err and "640x480" in err


    def test_nan_last_row_fails_cleanly(self, tmp_path, capsys):
        k_path = tmp_path / "k.json"
        write_intrinsics(WIDE, k_path)
        poses = tmp_path / "poses.jsonl"
        poses.write_text('{"frame":0,"T_wc":[1,0,0,0,0,1,0,0,0,0,1,0,NaN,NaN,NaN,NaN]}\n')
        rc = main([
            "run", "--poses", str(poses), "--intrinsics", str(k_path),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "last row" in err

    @pytest.mark.parametrize("first, bad_line", [(2**63 - 5, 6), (2**63, 1)])
    def test_frames_from_2_to_the_63_fail_cleanly(self, tmp_path, capsys, first, bad_line):
        k_path = tmp_path / "k.json"
        write_intrinsics(Intrinsics(10.0, 10.0, 2.0, 2.0, 4, 4), k_path)
        poses = tmp_path / "poses.jsonl"
        rows = [[1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, i * i, 0, 0, 0, 1] for i in range(10)]
        poses.write_text("".join(json.dumps({"frame": first + i, "T_wc": row}) + "\n"
                                 for i, row in enumerate(rows)))
        out_dir = tmp_path / "o"
        rc = main([
            "run", "--poses", str(poses), "--intrinsics", str(k_path),
            "--out-dir", str(out_dir), "--window-size", "4", "--overlap", "1",
        ])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"error: line {bad_line}: frame {2**63} is not below 2**63\n"
        # Only maps of frames below 2**63, and no CSV, as after any failed run.
        names = sorted(os.listdir(out_dir))
        assert names == [f"focus_{f}.pgm" for f in range(first + 2, 2**63 - 1)]

    def test_intrinsics_int_beyond_float64_fails_cleanly(self, tmp_path, capsys):
        poses = sim(tmp_path)
        k_path = tmp_path / "k.json"
        k_path.write_text('{"fx": 1%s, "fy": 10, "cx": 1, "cy": 1, "width": 4, "height": 4}'
                          % ("0" * 400))
        rc = main([
            "run", "--poses", str(poses), "--intrinsics", str(k_path),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: fx: must be a finite number, got 1000")

    def test_oversized_depth_header_fails_cleanly(self, tmp_path, capsys):
        poses = sim(tmp_path)
        k_path = tmp_path / "k.json"
        write_intrinsics(WIDE, k_path)
        depth_dir = tmp_path / "depth"
        depth_dir.mkdir()
        for frame in range(3):  # frame 2 is the first one rendered
            path = depth_dir / f"depth_{frame:06d}.mfd"
            write_depth_map(np.ones((1, 1)), path)
            with open(path, "r+b") as fh:
                fh.seek(8)
                fh.write(b"\xff" * 8)  # claims 0xFFFFFFFF x 0xFFFFFFFF pixels
        rc = main([
            "run", "--poses", str(poses), "--intrinsics", str(k_path),
            "--out-dir", str(tmp_path / "o"), "--depth-dir", str(depth_dir),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "depth_000002.mfd" in err


    def test_run_builds_no_single_pose(self, tmp_path, monkeypatch):
        from ego_focus import CameraPose

        poses = sim(tmp_path)
        k_path = tmp_path / "k.json"
        write_intrinsics(WIDE, k_path)
        built = []
        real = CameraPose.__init__

        def counted(self, frame_index, *args):
            built.append(frame_index)
            real(self, frame_index, *args)

        monkeypatch.setattr(CameraPose, "__init__", counted)
        rc = main([
            "run", "--poses", str(poses), "--intrinsics", str(k_path),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 0
        assert built == []

    def test_bad_rotation_mid_stream_fails_after_earlier_maps(self, tmp_path, capsys):
        poses = sim(tmp_path)
        lines = poses.read_text().splitlines()
        obj = json.loads(lines[70])
        obj["T_wc"][0] = 1.5
        lines[70] = json.dumps(obj)
        poses.write_text("\n".join(lines) + "\n")
        k_path = tmp_path / "k.json"
        write_intrinsics(WIDE, k_path)
        out_dir = tmp_path / "o"
        rc = main([
            "run", "--poses", str(poses), "--intrinsics", str(k_path),
            "--out-dir", str(out_dir), "--window-size", "30", "--overlap", "5",
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: frame 70: rotation drift")
        # windows 0..29 and 25..54 were complete before frame 70 was reached
        assert (out_dir / "focus_000054.pgm").exists()

    @pytest.mark.parametrize("bad_line", [
        lambda line: "[" * 200_000,
        lambda line: line.replace("[", "[" + "9" * 5000 + ", ", 1),
    ], ids=["nested_too_deep", "integer_past_digit_limit"])
    def test_json_the_decoder_rejects_fails_after_earlier_maps(self, tmp_path, capsys,
                                                               bad_line):
        poses = sim(tmp_path)
        lines = poses.read_text().splitlines()
        lines[70] = bad_line(lines[70])
        poses.write_text("\n".join(lines) + "\n")
        k_path = tmp_path / "k.json"
        write_intrinsics(WIDE, k_path)
        out_dir = tmp_path / "o"
        rc = main([
            "run", "--poses", str(poses), "--intrinsics", str(k_path),
            "--out-dir", str(out_dir), "--window-size", "30", "--overlap", "5",
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: line 71: invalid JSON: ")
        assert (out_dir / "focus_000054.pgm").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--normalize", "sum"), ("--eps-z", "1e-3"), ("--project-negative", "mirror"),
        ("--sigma-px", "8"),
    ])
    def test_normalize_is_not_an_option(self, tmp_path, capsys, flag, value):
        # a map is always divided by its peak (a distribution is an .mfm map
        # divided by its sum), a sample projects only when its depth exceeds
        # DEFAULT_EPS_Z, and the run's kernel width is SIGMA_WIDTH_FRACTION
        # of the image width
        poses = sim(tmp_path)
        k_path = tmp_path / "k.json"
        write_intrinsics(WIDE, k_path)
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--poses", str(poses), "--intrinsics", str(k_path),
                  "--out-dir", str(tmp_path / "o"), flag, value])
        assert exc_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_thread_count_beyond_the_bound_fails_cleanly(self, tmp_path, capsys):
        # two frames give no map, so nothing would be rendered if the
        # bound were missing
        poses = sim(tmp_path, "--frames", "2")
        k_path = tmp_path / "k.json"
        write_intrinsics(WIDE, k_path)
        rc = main([
            "run", "--poses", str(poses), "--intrinsics", str(k_path),
            "--out-dir", str(tmp_path / "o"), "--threads", "1000000",
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: threads: must be between 0 and 8, ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("size", [2 ** 32, 10 ** 12])
    def test_map_size_beyond_the_sidecar_header_fails_cleanly(self, tmp_path, capsys, size):
        poses = sim(tmp_path)
        k_path = tmp_path / "k.json"
        k_path.write_text(json.dumps({"fx": 10.0, "fy": 10.0, "cx": 0.0, "cy": 0.0,
                                      "width": float(size), "height": size}))
        rc = main([
            "run", "--poses", str(poses), "--intrinsics", str(k_path),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: width: must be >= 1 and < 2**32")

    def test_map_too_big_for_an_array_fails_before_the_output_directory(self, tmp_path, capsys):
        # 2**31 x 2**31 float64 pixels are 2**65 bytes, more than numpy can size
        poses = sim(tmp_path)
        k_path = tmp_path / "k.json"
        write_intrinsics(Intrinsics(fx=10.0, fy=10.0, cx=0.0, cy=0.0,
                                    width=2 ** 31, height=2 ** 31), k_path)
        rc = main([
            "run", "--poses", str(poses), "--intrinsics", str(k_path),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: map_scale: 2147483648x2147483648 float64 maps are too big for an array; "
            "use a larger value\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_map_allocation_fails_cleanly(self, tmp_path, capsys, monkeypatch, threads):
        def allocation_fails(writer, frame, *arrays):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(pipeline._FrameWriter, "__call__", allocation_fails)
        poses = sim(tmp_path)
        k_path = tmp_path / "k.json"
        write_intrinsics(WIDE, k_path)
        rc = main([
            "run", "--poses", str(poses), "--intrinsics", str(k_path),
            "--out-dir", str(tmp_path / "o"), "--threads", threads,
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate 7.28 TiB for an array\n")
        assert os.listdir(tmp_path / "o") == []

    def test_omitted_flags_take_the_run_config_defaults(self, tmp_path, monkeypatch):
        seen = []

        def recording(poses, intrinsics, cfg, out_dir, **kwargs):
            seen.append(cfg)
            return RunSummary()

        monkeypatch.setattr(cli, "run_stream", recording)
        k_path = tmp_path / "k.json"
        write_intrinsics(WIDE, k_path)
        assert main(["run", "--poses", str(tmp_path / "p.jsonl"), "--intrinsics", str(k_path),
                     "--out-dir", str(tmp_path / "o")]) == 0
        assert seen == [RunConfig()]

    def test_missing_residuals_directory_names_the_target(self, tmp_path, capsys, monkeypatch):
        poses = sim(tmp_path)
        k_path = tmp_path / "k.json"
        write_intrinsics(WIDE, k_path)
        monkeypatch.chdir(tmp_path)
        rc = main(["run", "--poses", str(poses), "--intrinsics", str(k_path),
                   "--out-dir", "o", "--residuals", "nodir/r.csv"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nodir/r.csv" in err
        assert ".tmp-" not in err

    def test_failed_rename_onto_a_directory_names_the_target(self, tmp_path, capsys):
        poses = sim(tmp_path)
        k_path = tmp_path / "k.json"
        write_intrinsics(WIDE, k_path)
        out = tmp_path / "o"
        (out / "focus_000002.pgm").mkdir(parents=True)
        rc = main(["run", "--poses", str(poses), "--intrinsics", str(k_path),
                   "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "focus_000002.pgm" in err
        assert ".tmp-" not in err
        assert not [n for n in os.listdir(out) if n.startswith(".tmp-")]


class TestRunFromPipe:
    def test_a_windows_last_map_leaves_with_its_last_line(self, tmp_path):
        # A pipe's lines are parsed as they arrive, so a window's last map is
        # written once its last line is in, not when 64 lines have come.
        poses, _ = generate_trajectory(ScenarioSpec(kind="arc", frames=200))
        text = tmp_path / "poses.jsonl"
        write_pose_stream(text, records_from_poses(poses))
        lines = text.read_text().splitlines(keepends=True)
        k_path, out_dir = tmp_path / "k.json", tmp_path / "maps"
        write_intrinsics(WIDE, k_path)
        proc = subprocess.Popen(
            [sys.executable, "-m", "ego_focus.cli", "run", "--poses", "-",
             "--intrinsics", str(k_path), "--out-dir", str(out_dir),
             "--window-size", "60", "--overlap", "5", "--threads", "1"],
            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ego_focus.__file__))})
        try:
            sent = 0
            for last in (59, 114, 169):  # the last frames of windows 0 to 2 (stride 55)
                proc.stdin.write("".join(lines[sent:last + 1]))
                proc.stdin.flush()
                sent = last + 1
                deadline = time.monotonic() + 30.0
                while not (out_dir / focus_map_name(last)).exists():
                    assert proc.poll() is None, proc.stderr.read()
                    assert time.monotonic() < deadline, f"no map of frame {last} after 30 s"
                    time.sleep(0.005)
            proc.stdin.write("".join(lines[sent:]))
            proc.stdin.close()
            assert proc.wait(60) == 0, proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()
        assert len([f for f in os.listdir(out_dir) if f.endswith(".pgm")]) == 198


class TestBench:
    def test_tiny_bench_writes_csv(self, tmp_path):
        report = tmp_path / "report.csv"
        rc = main([
            "bench", "--stream-sizes", "2000", "--resolutions", "64x48",
            "--maps", "3", "--points", "5", "--out", str(report),
        ])
        assert rc == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "stage,resolution,throughput,peak_mem_bytes"
        stages = [line.split(",")[0] for line in lines[1:]]
        assert stages == ["pose_math", "render"]
        throughputs = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(t > 0 for t in throughputs)

    @pytest.mark.parametrize("flag,value", [
        ("--stream-sizes", "abc"), ("--stream-sizes", "0"), ("--resolutions", "640"),
        ("--resolutions", "640x480x3"), ("--resolutions", "640x-480"), ("--points", "-1"),
        ("--points", "0"), ("--maps", "-3"), ("--maps", "0"),
    ])
    def test_bad_argument_exits_2_before_any_probe(self, tmp_path, capsys, flag, value):
        report = tmp_path / "report.csv"
        with pytest.raises(SystemExit) as exc_info:
            main(["bench", "--stream-sizes", "1500", "--resolutions", "32x24",
                  "--maps", "2", "--points", "4", flag, value, "--out", str(report)])
        assert exc_info.value.code == 2
        assert f"argument {flag}: expected" in capsys.readouterr().err
        assert not report.exists()

    def test_bench_to_dash_is_stdout(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--out", "-", "--stream-sizes", "1500", "--resolutions", "32x24",
                     "--maps", "2"]) == 0
        assert capsys.readouterr().out.startswith("stage,resolution,throughput,peak_mem_bytes\n")
        assert os.listdir(tmp_path) == []

    def test_bench_to_stdout(self, capsys):
        rc = main([
            "bench", "--stream-sizes", "1500", "--resolutions", "32x24",
            "--maps", "2", "--points", "4",
        ])
        assert rc == 0
        assert capsys.readouterr().out.startswith("stage,resolution,")

    @pytest.mark.parametrize("resolution,points", [
        ("4x4", "4"), ("2x2", "4"), ("8x1", "4"), ("1x1", "1"),
    ])
    def test_resolution_the_probe_kernels_miss_fails_before_any_probe(
            self, capsys, monkeypatch, resolution, points):
        # the render probe's kernels must all reach a pixel centre
        monkeypatch.setattr(benchmark, "_math_row", lambda *a: pytest.fail("a probe ran"))
        rc = main(["bench", "--stream-sizes", "1500", "--resolutions", f"32x24,{resolution}",
                   "--maps", "2", "--points", points])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: resolutions: {resolution}: ")

    def test_report_path_that_cannot_be_created_fails_before_any_probe(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(benchmark, "_math_row", lambda *a: pytest.fail("a probe ran"))
        rc = main(["bench", "--out", str(tmp_path / "missing" / "b.csv"),
                   "--stream-sizes", "1500", "--resolutions", "32x24", "--maps", "2"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: [Errno 2] ")
        assert os.listdir(tmp_path) == []

    def test_failed_probe_leaves_no_report(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise MemoryError("probe")

        monkeypatch.setattr(benchmark, "_math_row", fail)
        rc = main(["bench", "--out", str(tmp_path / "b.csv"),
                   "--stream-sizes", "1500", "--resolutions", "32x24", "--maps", "2"])
        assert rc == 2
        assert capsys.readouterr().err == "error: out of memory: probe\n"
        assert os.listdir(tmp_path) == []


class TestParser:
    def test_configuration_surface_is_pinned(self):
        # A change that adds or drops a setting has to change these lists on purpose.
        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            "window_size", "overlap", "focus_n", "smooth_positions",
            "anchor_mode", "scale_correction", "map_scale", "emit_float_maps", "threads"]
        assert [f.name for f in dataclasses.fields(FocusConfig)] == ["n_points", "sigma_px"]
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        assert [a.option_strings[-1] for a in sub.choices["run"]._actions] == [
            "--help", "--poses", "--intrinsics", "--out-dir", "--window-size", "--overlap",
            "--focus-n", "--smooth-positions", "--anchor-mode",
            "--scale-correction", "--residuals", "--map-scale", "--depth-dir",
            "--emit-float-maps", "--threads"]

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["--help"])
        assert exc_info.value.code == 0

    def test_missing_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code != 0


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # The README's python block, run beside the poses.jsonl it reads.
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    assert main(["sim", "--scenario", "arc", "--frames", "100",
                 "--out", str(tmp_path / "poses.jsonl")]) == 0
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert "frames_in=100" in capsys.readouterr().out.splitlines()
    assert (tmp_path / "maps" / "focus_points.csv").exists()


@pytest.mark.skipif(shutil.which("ego-focus") is None,
                    reason="console script not on PATH")
class TestInstalledEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run(
            ["ego-focus", "--help"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "run" in proc.stdout and "sim" in proc.stdout and "bench" in proc.stdout
