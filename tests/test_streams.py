import errno
import io
import json
import os
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ego_focus import (
    ConfigError,
    EgoFocusError,
    Intrinsics,
    InvalidPoseError,
    PoseStreamRecord,
    ScenarioSpec,
    StreamDiscontinuityError,
    generate_trajectory,
    load_intrinsics,
    load_pose_batches,
    load_pose_stream,
    read_depth_map,
    read_focus_map_float,
    read_pgm,
    write_depth_map,
    write_pose_stream,
)
from ego_focus.errors import StreamFormatError
from ego_focus.geometry import compose_gravity_ypr
from ego_focus.streams import (
    _CHUNK_ROWS,
    DEPTH_MAP_MAGIC,
    FOCUS_MAP_MAGIC,
    FocusPointCsvWriter,
    PoseStreamRecord,
    ResidualCsvWriter,
    TruthSample,
    atomic_write_bytes,
    depth_input_name,
    depth_output_name,
    focus_map_name,
    link_replacing,
    pgm_bytes,
    raw_map_bytes,
    records_from_poses,
    write_bench_csv,
    write_intrinsics,
)

IDENTITY_LINE = '{"frame":0,"T_wc":[1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1]}'


def stream_of(*lines):
    return io.StringIO("\n".join(lines) + "\n")


def write_mfm(values, path):
    """A float focus map sidecar, encoded and written as `run` writes one."""
    atomic_write_bytes(path, raw_map_bytes(values, FOCUS_MAP_MAGIC))


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

    def test_non_utf8_line_named(self, tmp_path):
        path = tmp_path / "poses.jsonl"
        line2 = IDENTITY_LINE.replace('"frame":0', '"frame":1')
        path.write_bytes(f"{IDENTITY_LINE}\n{line2}\n".encode() + b'{"frame":\xff}\n')
        with pytest.raises(StreamFormatError, match="line 3: not UTF-8"):
            list(load_pose_stream(path))

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

    def test_nan_last_row_rejected(self):
        # json reads NaN tokens; a NaN entry must not slip past the check
        bad = IDENTITY_LINE.replace("0,0,0,1]", "NaN,NaN,NaN,NaN]")
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


def pose_objects(first, n, seed, truth_every=2):
    """n valid JSON pose objects from frame `first`: random rotations, some
    with drift the loader repairs, translations over many magnitudes."""
    rng = np.random.default_rng(seed)
    objs = []
    for i in range(n):
        yaw, pitch, roll = rng.uniform(-3.0, 3.0), rng.uniform(-1.5, 1.5), rng.uniform(-3.0, 3.0)
        r = compose_gravity_ypr(yaw, pitch, roll)
        if i % 3 == 1:
            r = r + rng.uniform(-1e-6, 1e-6, size=(3, 3))  # drift in the repair band
        m = np.eye(4)
        m[:3, :3] = r
        m[:3, 3] = rng.normal(size=3) * 10.0 ** rng.integers(-8, 9)
        obj = {"frame": first + i, "T_wc": m.reshape(16).tolist()}
        if truth_every and i % truth_every == 0:
            obj["truth"] = {key: rng.normal(size=3).tolist()
                            for key in ("position", "velocity", "acceleration")}
        objs.append(obj)
    return objs


def drain_records(text):
    """Frames and arrays of records + to_pose up to the first error, and that error."""
    poses, error = [], None
    try:
        for record in load_pose_stream(io.StringIO(text)):
            poses.append(record.to_pose())
    except EgoFocusError as err:
        error = err
    return ([p.frame_index for p in poses],
            np.array([p.rotation for p in poses]).reshape(-1, 3, 3),
            np.array([p.translation for p in poses]).reshape(-1, 3), error)


def drain_batches(text):
    """The same through load_pose_batches."""
    batches, error = [], None
    try:
        for batch in load_pose_batches(io.StringIO(text)):
            batches.append(batch)
    except EgoFocusError as err:
        error = err
    return ([f for b in batches for f in range(b.first_frame, b.end_frame)],
            np.concatenate([b.rotations for b in batches] + [np.empty((0, 3, 3))]),
            np.concatenate([b.translations for b in batches] + [np.empty((0, 3))]), error)


def assert_same_outcome(got, want):
    assert got[0] == want[0]
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2].tobytes() == want[2].tobytes()
    assert type(got[3]) is type(want[3]) and str(got[3]) == str(want[3])


# One defect of each kind a line can carry, applied to a valid pose object,
# with the error it must raise and what the error names.
def _set_entry(index, value):
    def apply(obj):
        obj["T_wc"][index] = value
    return apply


DEFECTS = {
    "json": (lambda obj: "{not json", "StreamFormatError", "invalid JSON"),
    "deep_json": (lambda obj: "[" * 200_000, "StreamFormatError", "invalid JSON"),
    "long_int_json": (lambda obj: json.dumps(obj).replace("[", "[" + "9" * 5000 + ", ", 1),
                      "StreamFormatError", "invalid JSON"),
    "array": (lambda obj: "[1, 2]", "StreamFormatError", "expected an object"),
    "no_T_wc": (lambda obj: obj.pop("T_wc"), "StreamFormatError", "missing key 'T_wc'"),
    "bool_frame": (lambda obj: obj.update(frame=True), "StreamFormatError", "frame must be"),
    "short_T_wc": (lambda obj: obj["T_wc"].pop(), "StreamFormatError", "16 numbers"),
    "bool_entry": (_set_entry(3, True), "StreamFormatError", "16 numbers"),
    "huge_int": (_set_entry(3, 10 ** 400), "StreamFormatError", "16 numbers"),
    "off_last_row": (_set_entry(12, 1e-6), "StreamFormatError", "last row"),
    **{f"nan_last_row_{j}": (_set_entry(12 + j, float("nan")), "StreamFormatError", "last row")
       for j in range(4)},
    "truth_not_object": (lambda obj: obj.update(truth=[1.0]), "StreamFormatError",
                         "truth must be an object"),
    "truth_short": (lambda obj: obj.update(truth={"position": [0.0] * 3,
                                                  "velocity": [0.0] * 2,
                                                  "acceleration": [0.0] * 3}),
                    "StreamFormatError", "truth.velocity"),
    "gap": (lambda obj: obj.update(frame=obj["frame"] + 1), "StreamDiscontinuityError",
            "follows"),
    "rotation": (_set_entry(0, 1.5), "InvalidPoseError", "rotation drift"),
    "nan_translation": (_set_entry(7, float("nan")), "InvalidPoseError", "non-finite translation"),
}


class TestPoseChunks:
    @settings(max_examples=60, deadline=None)
    @given(first=st.integers(0, 2 ** 63 - 8),
           records=st.lists(st.tuples(
               st.lists(st.floats(allow_nan=False), min_size=12, max_size=12),
               st.none() | st.lists(st.floats(allow_nan=False), min_size=9, max_size=9)),
               max_size=8))
    @example(first=2 ** 63 - 8, records=[([1.0, 0.0, 0.0, 0.0] * 3, None)] * 8)
    def test_write_then_load_round_trip(self, first, records):
        written = []
        for i, (top, truth) in enumerate(records):
            matrix = np.array(top + [0.0, 0.0, 0.0, 1.0]).reshape(4, 4)
            sample = None if truth is None else TruthSample(*np.array(truth).reshape(3, 3))
            written.append(PoseStreamRecord(first + i, matrix, sample))
        buf = io.StringIO()
        assert write_pose_stream(buf, written) == len(written)
        back = list(load_pose_stream(io.StringIO(buf.getvalue())))
        assert [r.frame for r in back] == [r.frame for r in written]
        for got, want in zip(back, written):
            assert got.T_wc.tobytes() == want.T_wc.tobytes()
            assert (got.truth is None) == (want.truth is None)
            if want.truth is not None:
                for key in ("position", "velocity", "acceleration"):
                    assert getattr(got.truth, key).tobytes() == getattr(want.truth, key).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(first=st.integers(0, 10 ** 9), n=st.integers(0, 3 * _CHUNK_ROWS),
           seed=st.integers(0, 2 ** 32 - 1), truth_every=st.integers(0, 3),
           blank_every=st.integers(0, 40))
    @example(first=0, n=_CHUNK_ROWS, seed=0, truth_every=1, blank_every=0)
    @example(first=5, n=_CHUNK_ROWS + 1, seed=1, truth_every=0, blank_every=7)
    def test_batches_equal_records_then_to_pose(self, first, n, seed, truth_every, blank_every):
        lines = [json.dumps(obj) for obj in pose_objects(first, n, seed, truth_every)]
        if blank_every:
            lines = [x for i, line in enumerate(lines)
                     for x in ([line, "  "] if i % blank_every == 0 else [line])]
        text = "\n".join(lines) + "\n"
        want = drain_records(text)
        assert want[3] is None and len(want[0]) == n
        assert_same_outcome(drain_batches(text), want)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(3, 2 * _CHUNK_ROWS + 20), seed=st.integers(0, 2 ** 32 - 1),
           defects=st.lists(st.sampled_from(sorted(DEFECTS)), min_size=1, max_size=2),
           data=st.data())
    def test_earliest_bad_line_wins_after_the_lines_before_it(self, n, seed, defects, data):
        objs = pose_objects(100, n, seed)
        lines = [json.dumps(obj) for obj in objs]
        where = data.draw(st.lists(st.integers(1, n - 1), min_size=len(defects),
                                   max_size=len(defects), unique=True))
        for kind, i in zip(defects, where):
            apply, _, _ = DEFECTS[kind]
            changed = apply(objs[i])
            lines[i] = changed if isinstance(changed, str) else json.dumps(objs[i])
        text = "\n".join(lines) + "\n"
        i, kind = min(zip(where, defects))
        _, error_type, fragment = DEFECTS[kind]
        want = drain_records(text)
        assert want[0] == list(range(100, 100 + i))
        assert type(want[3]).__name__ == error_type and fragment in str(want[3])
        named = f"frame {100 + i}:" if error_type == "InvalidPoseError" else f"line {i + 1}:"
        assert str(want[3]).startswith(named)
        assert_same_outcome(drain_batches(text), want)

    @pytest.mark.parametrize("kind", ["gap", "nan_last_row_3", "rotation"])
    @pytest.mark.parametrize("i", [_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
    def test_defect_at_a_chunk_boundary(self, kind, i):
        objs = pose_objects(0, _CHUNK_ROWS + 5, 11)
        DEFECTS[kind][0](objs[i])
        text = "".join(json.dumps(obj) + "\n" for obj in objs)
        want = drain_records(text)
        assert want[0] == list(range(i)) and type(want[3]).__name__ == DEFECTS[kind][1]
        assert_same_outcome(drain_batches(text), want)

    def test_last_row_beats_later_checks_of_its_line(self):
        obj = pose_objects(0, 2, 3)[1]
        obj["T_wc"][15] = 2.0
        obj["frame"] = 7
        obj["truth"] = [1.0]
        text = json.dumps(pose_objects(0, 1, 3)[0]) + "\n" + json.dumps(obj) + "\n"
        want = drain_records(text)
        assert want[0] == [0] and str(want[3]).startswith("line 2: last row")
        assert_same_outcome(drain_batches(text), want)

    def test_huge_int_in_truth_rejected(self):
        obj = json.loads(IDENTITY_LINE)
        obj["truth"] = {"position": [0, 0, 0], "velocity": [0, 10 ** 400, 0],
                        "acceleration": [0, 0, 0]}
        with pytest.raises(StreamFormatError, match="line 1: truth.velocity"):
            list(load_pose_batches(stream_of(json.dumps(obj))))


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
        atomic_write_bytes(path, pgm_bytes(values))
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

    @pytest.mark.parametrize("header", [b"P5\n80\n255\n", b"P5\nx y\n255\n",
                                        b"P5\n2 2\nabc\n", b"P5\n-2 2\n255\n"])
    def test_reader_rejects_a_malformed_header(self, tmp_path, header):
        path = tmp_path / "bad.pgm"
        path.write_bytes(header + b"\x00" * 16)
        with pytest.raises(StreamFormatError, match=r"bad\.pgm: bad PGM header"):
            read_pgm(path)


class TestRawFloatMaps:
    def test_focus_map_header_layout(self, tmp_path):
        values = np.zeros((2, 3))
        path = tmp_path / "m.mfm"
        write_mfm(values, path)
        data = path.read_bytes()
        assert data[:8] == FOCUS_MAP_MAGIC == b"MFMAP\x00\x00\x00"
        assert data[8:16] == (3).to_bytes(4, "little") + (2).to_bytes(4, "little")
        assert len(data) == 16 + 4 * 6

    def test_round_trip_float32_rounding(self, tmp_path):
        rng = np.random.default_rng(9)
        values = rng.uniform(0.0, 1.0, size=(4, 5))
        path = tmp_path / "m.mfm"
        write_mfm(values, path)
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
        write_mfm(np.zeros((4, 4)), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(StreamFormatError, match="truncated"):
            read_focus_map_float(path)


    # An explicit id, so that the case keeps its established name.
    @pytest.mark.parametrize("write, read", [
        pytest.param(write_mfm, read_focus_map_float,
                     id="write_focus_map_float-read_focus_map_float"),
        (write_depth_map, read_depth_map)])
    def test_oversized_header_rejected_before_reading(self, tmp_path, write, read):
        path = tmp_path / "m.mfd"
        write(np.zeros((2, 2)), path)
        data = path.read_bytes()
        path.write_bytes(data[:8] + b"\xff" * 8 + data[16:])
        with pytest.raises(StreamFormatError, match="4294967295x4294967295") as err:
            read(path)
        assert str(path) in str(err.value)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.mfm"
        write_mfm(np.zeros((4, 4)), path)
        path.write_bytes(path.read_bytes() + b"\0" * 4)
        with pytest.raises(StreamFormatError, match="4x4"):
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


class TestWriteSystemCalls:
    """atomic_write_bytes writes the raw descriptor; link_replacing links
    straight onto an absent name."""

    def test_link_onto_an_absent_name_makes_no_temp_name(self, tmp_path, monkeypatch):
        source = tmp_path / "a.pgm"
        source.write_bytes(b"map")
        real_link, targets = os.link, []

        def link(src, dst):
            targets.append(os.path.basename(dst))
            real_link(src, dst)

        monkeypatch.setattr(os, "link", link)
        link_replacing(source, tmp_path / "b.pgm")
        assert targets == ["b.pgm"]
        assert os.stat(tmp_path / "b.pgm").st_ino == os.stat(source).st_ino
        assert sorted(os.listdir(tmp_path)) == ["a.pgm", "b.pgm"]

    def test_link_onto_an_existing_file_replaces_it(self, tmp_path, monkeypatch):
        source, path = tmp_path / "a.pgm", tmp_path / "b.pgm"
        source.write_bytes(b"map")
        path.write_bytes(b"old")
        real_replace, renamed = os.replace, []

        def replace(src, dst):
            renamed.append(os.path.basename(src))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        link_replacing(source, path)
        assert path.read_bytes() == b"map" and os.stat(source).st_nlink == 2
        assert len(renamed) == 1 and renamed[0].startswith(".tmp-")
        assert sorted(os.listdir(tmp_path)) == ["a.pgm", "b.pgm"]

    def test_link_replacing_interrupted_leaves_the_old_file(self, tmp_path, monkeypatch):
        source, path = tmp_path / "a.pgm", tmp_path / "b.pgm"
        source.write_bytes(b"map")
        path.write_bytes(b"old")

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            link_replacing(source, path)
        assert path.read_bytes() == b"old" and os.stat(source).st_nlink == 1
        assert sorted(os.listdir(tmp_path)) == ["a.pgm", "b.pgm"]

    @pytest.mark.parametrize("failure", [errno.EMLINK, errno.EPERM, errno.ENOTSUP])
    def test_direct_link_errors_reach_the_caller(self, tmp_path, monkeypatch, failure):
        source = tmp_path / "a.pgm"
        source.write_bytes(b"map")

        def refused(src, dst):
            raise OSError(failure, os.strerror(failure), src, dst)

        monkeypatch.setattr(os, "link", refused)
        with pytest.raises(OSError) as err:
            link_replacing(source, tmp_path / "b.pgm")
        assert err.value.errno == failure
        assert os.listdir(tmp_path) == ["a.pgm"]

    def test_short_writes_are_completed(self, tmp_path, monkeypatch):
        real_write, sizes = os.write, []

        def short_write(fd, data):
            sizes.append(real_write(fd, bytes(data[:3])))
            return sizes[-1]

        monkeypatch.setattr(os, "write", short_write)
        atomic_write_bytes(tmp_path / "a.bin", b"0123456789")
        assert (tmp_path / "a.bin").read_bytes() == b"0123456789"
        assert sizes == [3, 3, 3, 1]
        assert os.listdir(tmp_path) == ["a.bin"]

    @pytest.mark.parametrize("old", [None, b"old"])
    def test_failed_write_removes_its_temp_file(self, tmp_path, monkeypatch, old):
        path = tmp_path / "a.bin"
        if old is not None:
            path.write_bytes(old)
        real_write = os.write

        def full_disk(fd, data):
            real_write(fd, bytes(data[:2]))
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "write", full_disk)
        with pytest.raises(OSError, match="No space"):
            atomic_write_bytes(path, b"payload")
        assert os.listdir(tmp_path) == ([] if old is None else ["a.bin"])
        if old is not None:
            assert path.read_bytes() == old

    def test_files_are_created_without_the_global_random_sequence(self, tmp_path):
        state = random.getstate()
        for i in range(5):
            atomic_write_bytes(tmp_path / f"{i}.bin", b"x")
            link_replacing(tmp_path / f"{i}.bin", tmp_path / "linked.bin")
        write_intrinsics(Intrinsics(500.0, 510.0, 320.0, 250.0, 640, 480), tmp_path / "k.json")
        assert random.getstate() == state


class TestAtomicTextFiles:
    """Pose streams, intrinsics and bench CSVs written to a path replace it whole."""

    K = Intrinsics(500.0, 510.0, 320.0, 250.0, 640, 480)

    @staticmethod
    def interrupted_records(n):
        poses, _ = generate_trajectory(ScenarioSpec(kind="arc", frames=10))
        for i, record in enumerate(records_from_poses(poses)):
            if i == n:
                raise KeyboardInterrupt
            yield record

    @pytest.mark.parametrize("old", [None, "old stream\n"])
    def test_interrupted_pose_stream_leaves_the_old_file(self, tmp_path, old):
        path = tmp_path / "poses.jsonl"
        if old is not None:
            path.write_text(old)
        with pytest.raises(KeyboardInterrupt):
            write_pose_stream(path, self.interrupted_records(3))
        assert os.listdir(tmp_path) == ([] if old is None else ["poses.jsonl"])
        if old is not None:
            assert path.read_text() == old

    def test_interrupted_intrinsics_leave_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "k.json"
        write_intrinsics(self.K, path)
        old = path.read_text()

        def partial_dump(obj, fh):
            fh.write('{"fx": ')
            raise KeyboardInterrupt

        monkeypatch.setattr(json, "dump", partial_dump)
        with pytest.raises(KeyboardInterrupt):
            write_intrinsics(Intrinsics(1.0, 1.0, 0.0, 0.0, 2, 2), path)
        with pytest.raises(KeyboardInterrupt):
            write_intrinsics(self.K, tmp_path / "new.json")
        assert path.read_text() == old
        assert os.listdir(tmp_path) == ["k.json"]

    def test_interrupted_bench_csv_leaves_no_file(self, tmp_path):
        path = tmp_path / "bench.csv"
        with pytest.raises(KeyError):
            write_bench_csv([{"stage": "render"}], path)
        assert os.listdir(tmp_path) == []

    def test_fifo_is_written_in_place(self, tmp_path):
        # only regular files are replaced; a FIFO (or a device such as
        # /dev/null) stays what it is and gets the bytes
        import stat
        import threading

        fifo = tmp_path / "k.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        write_intrinsics(self.K, fifo)
        reader.join(10)
        assert not reader.is_alive()
        assert load_intrinsics(io.StringIO(got[0])) == self.K
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["k.fifo"]


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
