import io
import json
import os

import numpy as np
import pytest

from ego_focus import (
    ConfigError,
    Intrinsics,
    InvalidPoseError,
    PoseStreamRecord,
    ScenarioSpec,
    StreamDiscontinuityError,
    generate_trajectory,
    load_intrinsics,
    load_pose_stream,
    read_depth_map,
    read_focus_map_float,
    read_pgm,
    write_depth_map,
    write_focus_map_float,
    write_pgm,
    write_pose_stream,
)
from ego_focus.errors import StreamFormatError
from ego_focus.streams import (
    DEPTH_MAP_MAGIC,
    FOCUS_MAP_MAGIC,
    FocusPointCsvWriter,
    ResidualCsvWriter,
    atomic_write_bytes,
    depth_input_name,
    depth_output_name,
    focus_map_name,
    pgm_bytes,
    records_from_poses,
    write_bench_csv,
    write_intrinsics,
)

IDENTITY_LINE = '{"frame":0,"T_wc":[1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1]}'


def stream_of(*lines):
    return io.StringIO("\n".join(lines) + "\n")


class TestLoadPoseStream:
    def test_identity_line(self):
        records = list(load_pose_stream(stream_of(IDENTITY_LINE)))
        assert len(records) == 1
        pose = records[0].to_pose()
        assert pose.frame_index == 0
        np.testing.assert_array_equal(pose.rotation, np.eye(3))
        np.testing.assert_array_equal(pose.translation, np.zeros(3))

    def test_frame_gap_names_frame(self):
        line2 = IDENTITY_LINE.replace('"frame":0', '"frame":2')
        with pytest.raises(StreamDiscontinuityError, match="frame 2"):
            list(load_pose_stream(stream_of(IDENTITY_LINE, line2)))

    def test_repeated_frame_rejected(self):
        with pytest.raises(StreamDiscontinuityError):
            list(load_pose_stream(stream_of(IDENTITY_LINE, IDENTITY_LINE)))

    def test_blank_lines_skipped(self):
        records = list(load_pose_stream(stream_of(IDENTITY_LINE, "", "  ")))
        assert len(records) == 1

    def test_malformed_json_reports_line_number(self):
        with pytest.raises(StreamFormatError, match="line 2"):
            list(load_pose_stream(stream_of(IDENTITY_LINE, "{not json")))

    def test_missing_key_reported(self):
        with pytest.raises(StreamFormatError, match="T_wc"):
            list(load_pose_stream(stream_of('{"frame":0}')))

    def test_wrong_matrix_length_rejected(self):
        bad = json.dumps({"frame": 0, "T_wc": [1.0] * 15})
        with pytest.raises(StreamFormatError, match="16"):
            list(load_pose_stream(stream_of(bad)))

    def test_negative_frame_rejected(self):
        bad = IDENTITY_LINE.replace('"frame":0', '"frame":-1')
        with pytest.raises(StreamFormatError, match="frame"):
            list(load_pose_stream(stream_of(bad)))

    def test_bad_last_row_rejected(self):
        m = np.eye(4)
        m[3, 0] = 1e-6
        bad = json.dumps({"frame": 0, "T_wc": m.reshape(16).tolist()})
        with pytest.raises(StreamFormatError, match="last row"):
            list(load_pose_stream(stream_of(bad)))

    def test_non_orthonormal_rotation_rejected_at_pose_build(self):
        m = np.eye(4)
        m[0, 0] = 1.5
        line = json.dumps({"frame": 0, "T_wc": m.reshape(16).tolist()})
        records = list(load_pose_stream(stream_of(line)))
        with pytest.raises(InvalidPoseError):
            records[0].to_pose()

    def test_truth_block_parsed(self):
        obj = json.loads(IDENTITY_LINE)
        obj["truth"] = {
            "position": [1.0, 2.0, 3.0],
            "velocity": [0.1, 0.0, 0.0],
            "acceleration": [0.0, 0.0, 0.0],
        }
        records = list(load_pose_stream(stream_of(json.dumps(obj))))
        np.testing.assert_array_equal(records[0].truth.position, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("field", ["frame", "T_wc", "position", "velocity", "acceleration"])
    def test_bool_is_not_a_number(self, field):
        # bool is an int subclass, so true would otherwise load as 1
        obj = json.loads(IDENTITY_LINE)
        obj["truth"] = {"position": [0.0] * 3, "velocity": [0.0] * 3,
                        "acceleration": [0.0] * 3}
        if field == "frame":
            obj["frame"] = True
        elif field == "T_wc":
            obj["T_wc"][0] = True
        else:
            obj["truth"][field][1] = False
        with pytest.raises(StreamFormatError, match=field):
            list(load_pose_stream(stream_of(json.dumps(obj))))

    def test_bad_truth_vector_rejected(self):
        obj = json.loads(IDENTITY_LINE)
        obj["truth"] = {"position": [1.0, 2.0], "velocity": [0] * 3, "acceleration": [0] * 3}
        with pytest.raises(StreamFormatError, match="position"):
            list(load_pose_stream(stream_of(json.dumps(obj))))


class TestPoseStreamRoundTrip:
    def test_simulator_round_trip_is_lossless(self, tmp_path):
        spec = ScenarioSpec(kind="arc", frames=50, bob_amplitude=0.01, seed=5)
        poses, truth = generate_trajectory(spec)
        path = tmp_path / "poses.jsonl"
        count = write_pose_stream(path, records_from_poses(poses, truth))
        assert count == 50
        back = list(load_pose_stream(path))
        for record, pose in zip(back, poses):
            got = record.to_pose()
            # repr-based serialization reproduces float64 exactly
            assert got.rotation.tobytes() == pose.rotation.tobytes()
            assert got.translation.tobytes() == pose.translation.tobytes()
        np.testing.assert_array_equal(
            np.stack([r.truth.acceleration for r in back]), truth.acceleration
        )

    def test_write_to_open_file(self):
        poses, _ = generate_trajectory(ScenarioSpec(kind="arc", frames=3))
        buf = io.StringIO()
        assert write_pose_stream(buf, records_from_poses(poses)) == 3
        assert len(buf.getvalue().splitlines()) == 3


class TestIntrinsicsIo:
    GOOD = {"fx": 500, "fy": 500, "cx": 320, "cy": 240, "width": 640, "height": 480}

    def test_valid_object(self):
        k = load_intrinsics(io.StringIO(json.dumps(self.GOOD)))
        assert k == Intrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)

    def test_zero_focal_names_key(self):
        bad = dict(self.GOOD, fx=0)
        with pytest.raises(ConfigError, match="fx"):
            load_intrinsics(io.StringIO(json.dumps(bad)))

    def test_missing_key_named(self):
        bad = {k: v for k, v in self.GOOD.items() if k != "cy"}
        with pytest.raises(ConfigError, match="cy"):
            load_intrinsics(io.StringIO(json.dumps(bad)))

    def test_integer_valued_float_dimensions_accepted(self):
        ok = dict(self.GOOD, width=640.0)
        assert load_intrinsics(io.StringIO(json.dumps(ok))).width == 640

    def test_fractional_dimension_rejected(self):
        bad = dict(self.GOOD, height=480.5)
        with pytest.raises(ConfigError, match="height"):
            load_intrinsics(io.StringIO(json.dumps(bad)))

    @pytest.mark.parametrize("key", ["fx", "fy", "cx", "cy", "width", "height"])
    def test_bool_value_rejected(self, key):
        bad = dict(self.GOOD, **{key: True})
        with pytest.raises(ConfigError, match=key):
            load_intrinsics(io.StringIO(json.dumps(bad)))

    @pytest.mark.parametrize("text", ['{"fx": 500,', "", "not json"])
    def test_malformed_json_is_a_config_error(self, text):
        with pytest.raises(ConfigError, match="intrinsics: invalid JSON"):
            load_intrinsics(io.StringIO(text))

    def test_non_utf8_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_bytes(b'{"fx": \xff}')
        with pytest.raises(ConfigError, match="intrinsics"):
            load_intrinsics(path)

    def test_default_sigma_rule_at_full_hd(self):
        from ego_focus import FocusConfig

        k = load_intrinsics(
            io.StringIO(json.dumps(dict(self.GOOD, width=1920, height=1080)))
        )
        assert FocusConfig().resolved_sigma(k.width) == 76.8

    def test_round_trip(self, tmp_path):
        path = tmp_path / "k.json"
        k = Intrinsics(500.0, 510.0, 320.0, 250.0, 640, 480)
        write_intrinsics(k, path)
        assert load_intrinsics(path) == k


class TestPgm:
    def test_zero_map_exact_bytes(self):
        values = np.zeros((3, 4))
        assert pgm_bytes(values) == b"P5\n4 3\n255\n" + b"\x00" * 12

    def test_peak_pixel_is_255(self):
        values = np.zeros((3, 4))
        values[1, 2] = 1.0
        data = pgm_bytes(values)
        pixels = data.split(b"\n", 3)[3]
        assert pixels[1 * 4 + 2] == 255

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        values = rng.uniform(0.0, 1.0, size=(5, 7))
        path = tmp_path / "m.pgm"
        write_pgm(values, path)
        back = read_pgm(path)
        np.testing.assert_array_equal(back, np.rint(values * 255.0).astype(np.uint8))

    def test_reader_rejects_other_formats(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(StreamFormatError):
            read_pgm(path)

    def test_non_2d_input_rejected(self):
        with pytest.raises(ValueError):
            pgm_bytes(np.zeros(5))


class TestRawFloatMaps:
    def test_focus_map_header_layout(self, tmp_path):
        values = np.zeros((2, 3))
        path = tmp_path / "m.mfm"
        write_focus_map_float(values, path)
        data = path.read_bytes()
        assert data[:8] == FOCUS_MAP_MAGIC == b"MFMAP\x00\x00\x00"
        assert data[8:16] == (3).to_bytes(4, "little") + (2).to_bytes(4, "little")
        assert len(data) == 16 + 4 * 6

    def test_round_trip_float32_rounding(self, tmp_path):
        rng = np.random.default_rng(9)
        values = rng.uniform(0.0, 1.0, size=(4, 5))
        path = tmp_path / "m.mfm"
        write_focus_map_float(values, path)
        back = read_focus_map_float(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, values.astype(np.float32))

    def test_depth_map_uses_its_own_magic(self, tmp_path):
        values = np.full((2, 2), 3.5)
        path = tmp_path / "d.mfd"
        write_depth_map(values, path)
        assert path.read_bytes()[:8] == DEPTH_MAP_MAGIC
        np.testing.assert_array_equal(read_depth_map(path), values.astype(np.float32))

    def test_magic_mismatch_rejected(self, tmp_path):
        path = tmp_path / "d.mfd"
        write_depth_map(np.zeros((2, 2)), path)
        with pytest.raises(StreamFormatError, match="magic"):
            read_focus_map_float(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "m.mfm"
        write_focus_map_float(np.zeros((4, 4)), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(StreamFormatError, match="truncated"):
            read_focus_map_float(path)


class TestAtomicWrite:
    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write_bytes(tmp_path / "a.bin", b"payload")
        assert (tmp_path / "a.bin").read_bytes() == b"payload"
        assert os.listdir(tmp_path) == ["a.bin"]

    def test_overwrite_is_atomic(self, tmp_path):
        path = tmp_path / "a.bin"
        atomic_write_bytes(path, b"one")
        atomic_write_bytes(path, b"two")
        assert path.read_bytes() == b"two"
        assert os.listdir(tmp_path) == ["a.bin"]


class TestOutputNames:
    def test_zero_padded_names(self):
        assert focus_map_name(7) == "focus_000007.pgm"
        assert focus_map_name(7, "mfm") == "focus_000007.mfm"
        assert depth_output_name(123456) == "depth_mod_123456.mfd"
        assert depth_input_name(3) == "depth_000003.mfd"


class TestCsvWriters:
    def test_focus_point_csv(self):
        from ego_focus import FocusConfig, MotionStream

        spec = ScenarioSpec(kind="arc", frames=6, radius=2.0, omega=0.05)
        poses, _ = generate_trajectory(spec)
        wide = Intrinsics(10.0, 10.0, 320.0, 240.0, 640, 480)
        block = MotionStream(wide, FocusConfig()).push(poses)
        buf = io.StringIO()
        writer = FocusPointCsvWriter(buf)
        writer.write_block(block)
        writer.close()
        lines = buf.getvalue().splitlines()
        assert lines[0] == "frame,u,v,ax,ay,az,mag,projectable"
        assert len(lines) == 1 + 4  # frames 2..5
        first = lines[1].split(",")
        assert first[0] == "2"
        assert float(first[1]) == block.uv[0, 0]
        assert first[7] == "1"

    def test_non_projectable_rows_have_empty_uv(self):
        from ego_focus import FocusConfig, MotionStream

        spec = ScenarioSpec(kind="brake", frames=8, speed=0.2, decel=0.01)
        poses, _ = generate_trajectory(spec)
        k = Intrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
        block = MotionStream(k, FocusConfig()).push(poses)
        buf = io.StringIO()
        writer = FocusPointCsvWriter(buf)
        writer.write_block(block)
        writer.close()
        row = buf.getvalue().splitlines()[1].split(",")
        assert (row[1], row[2]) == ("", "")
        assert row[7] == "0"

    def test_residual_csv(self):
        from ego_focus.stitching import BoundaryResidual

        res = BoundaryResidual(
            boundary_index=2,
            frames=(55, 56),
            center_dist=np.array([0.0, 1e-13]),
            rot_angle_rad=np.array([0.0, 2e-13]),
        )
        buf = io.StringIO()
        writer = ResidualCsvWriter(buf)
        writer.write_residual(res)
        writer.close()
        lines = buf.getvalue().splitlines()
        assert lines[0] == "boundary_index,frame,center_dist,rot_angle_rad"
        assert lines[1] == "2,55,0.0,0.0"
        assert lines[2] == "2,56,1e-13,2e-13"

    def test_path_target_appears_only_on_close(self, tmp_path):
        path = tmp_path / "residuals.csv"
        writer = ResidualCsvWriter(path)
        assert not path.exists()
        writer.close()
        assert path.read_text() == ResidualCsvWriter.HEADER + "\n"
        assert os.listdir(tmp_path) == ["residuals.csv"]

    def test_exception_leaves_no_file(self, tmp_path):
        path = tmp_path / "focus_points.csv"
        path.write_text("from an earlier run\n")
        with pytest.raises(RuntimeError):
            with FocusPointCsvWriter(path):
                raise RuntimeError("mid-stream failure")
        assert path.read_text() == "from an earlier run\n"
        assert os.listdir(tmp_path) == ["focus_points.csv"]

    def test_bench_csv(self):
        buf = io.StringIO()
        write_bench_csv(
            [{"stage": "render", "resolution": "640x480",
              "throughput": 123.5, "peak_mem_bytes": 1000}],
            buf,
        )
        assert buf.getvalue() == (
            "stage,resolution,throughput,peak_mem_bytes\nrender,640x480,123.5,1000\n"
        )
