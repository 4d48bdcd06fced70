import json
import os
import shutil
import subprocess

import numpy as np
import pytest

from ego_focus.cli import main
from ego_focus.streams import read_pgm, write_depth_map, write_intrinsics
from ego_focus import Intrinsics

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

    def test_unknown_scenario_fails_cleanly(self, tmp_path, capsys):
        rc = main([
            "sim", "--scenario", "warp", "--frames", "10",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


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

    def test_bench_to_stdout(self, capsys):
        rc = main([
            "bench", "--stream-sizes", "1500", "--resolutions", "32x24",
            "--maps", "2", "--points", "4",
        ])
        assert rc == 0
        assert capsys.readouterr().out.startswith("stage,resolution,")


class TestParser:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["--help"])
        assert exc_info.value.code == 0

    def test_missing_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code != 0


@pytest.mark.skipif(shutil.which("ego-focus") is None,
                    reason="console script not on PATH")
class TestInstalledEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run(
            ["ego-focus", "--help"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "run" in proc.stdout and "sim" in proc.stdout and "bench" in proc.stdout
