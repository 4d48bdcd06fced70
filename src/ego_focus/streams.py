"""File formats: JSONL pose streams, intrinsics JSON, map containers, CSVs.

Pose streams are JSON Lines, one record per frame:

    {"frame": 0, "T_wc": [16 row-major floats], "truth": {...}}

T_wc is the 4x4 world-to-camera matrix; the optional truth object
carries the simulator's clean position/velocity/acceleration. Floats
are serialized with shortest round-trip precision, so write + load is
lossless for float64.

Rendered maps go out as binary PGM (P5, maxval 255, pixel =
round(255 * M)) and optionally as raw float32 sidecars with a 16-byte
header: 8-byte magic, then width and height as little-endian uint32.
Focus maps use magic "MFMAP\\0\\0\\0", depth maps "MFDEP\\0\\0\\0". Every
file written to a path goes through a temp file + rename, so a killed
run leaves only complete files.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import sys
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, StreamDiscontinuityError, StreamFormatError
from .geometry import CameraPose, Intrinsics
from .motion import MotionBlock
from .simulate import TrajectoryTruth
from .stitching import BoundaryResidual

FOCUS_MAP_MAGIC = b"MFMAP\x00\x00\x00"
DEPTH_MAP_MAGIC = b"MFDEP\x00\x00\x00"

_POSE_ROW_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class TruthSample:
    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray


@dataclass(frozen=True, slots=True)
class PoseStreamRecord:
    """One line of a pose stream."""

    frame: int
    T_wc: np.ndarray
    truth: Optional[TruthSample] = None

    def to_pose(self) -> CameraPose:
        return CameraPose.from_matrix(self.frame, self.T_wc, row_tol=_POSE_ROW_TOL)


def _is_number(x) -> bool:
    """An int or float, but not a bool (which Python counts as an int)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _parse_vec3(obj, key: str, line_no: int) -> np.ndarray:
    if (not isinstance(obj, (list, tuple)) or len(obj) != 3
            or not all(_is_number(x) for x in obj)):
        raise StreamFormatError(f"line {line_no}: truth.{key} must be a list of 3 numbers")
    return np.array(obj, dtype=np.float64)


def _parse_record(line: str, line_no: int) -> PoseStreamRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as err:
        raise StreamFormatError(f"line {line_no}: invalid JSON: {err}") from err
    if not isinstance(obj, dict):
        raise StreamFormatError(f"line {line_no}: expected an object")
    try:
        frame = obj["frame"]
        flat = obj["T_wc"]
    except KeyError as err:
        raise StreamFormatError(f"line {line_no}: missing key {err.args[0]!r}") from err
    if not isinstance(frame, int) or isinstance(frame, bool) or frame < 0:
        raise StreamFormatError(f"line {line_no}: frame must be a non-negative integer")
    if (not isinstance(flat, list) or len(flat) != 16
            or not all(_is_number(x) for x in flat)):
        raise StreamFormatError(f"line {line_no}: T_wc must be a list of 16 numbers")
    matrix = np.array(flat, dtype=np.float64).reshape(4, 4)
    # Written as "not <=" so that a NaN entry fails the check too.
    if not np.abs(matrix[3] - np.array([0.0, 0.0, 0.0, 1.0])).max() <= _POSE_ROW_TOL:
        raise StreamFormatError(
            f"line {line_no}: last row of T_wc is {matrix[3].tolist()}, expected (0, 0, 0, 1)"
        )
    truth = None
    if obj.get("truth") is not None:
        tr = obj["truth"]
        if not isinstance(tr, dict):
            raise StreamFormatError(f"line {line_no}: truth must be an object")
        truth = TruthSample(
            position=_parse_vec3(tr.get("position"), "position", line_no),
            velocity=_parse_vec3(tr.get("velocity"), "velocity", line_no),
            acceleration=_parse_vec3(tr.get("acceleration"), "acceleration", line_no),
        )
    return PoseStreamRecord(frame=frame, T_wc=matrix, truth=truth)


@contextlib.contextmanager
def _replacing(path: Union[str, os.PathLike], mode: str) -> Iterator[IO]:
    """A new file that replaces ``path`` when the block ends cleanly.

    The file gets a random ``.tmp-*`` name in the directory of ``path``
    that no other file had, and mode 0666 less the umask, the mode
    open() would give ``path`` itself. It is renamed onto ``path`` when
    the block ends without an exception and removed on any exception,
    so readers never see a partial file. ``mode`` is "w" (UTF-8 text)
    or "wb".
    """
    directory = os.path.dirname(os.fspath(path)) or "."
    while True:
        tmp = os.path.join(directory, ".tmp-" + os.urandom(8).hex())
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def _text_file(target: Union[str, os.PathLike, IO[str]], mode: str,
               dash: Optional[IO[str]] = None) -> Iterator[IO[str]]:
    """An open UTF-8 text file for a path, or the file given.

    With ``dash`` set, the path '-' stands for it (stdin or stdout).
    A path is opened here and closed on leaving; written ("w"), it is
    replaced through _replacing, unless it names something other than
    a regular file (a device such as /dev/null, a FIFO), which is
    written in place. Any other file is left open.
    """
    if not isinstance(target, (str, os.PathLike)):
        yield target
    elif dash is not None and os.fspath(target) == "-":
        yield dash
    elif mode == "w" and (not os.path.exists(target) or os.path.isfile(target)):
        with _replacing(target, mode) as fh:
            yield fh
    else:
        with open(target, mode, encoding="utf-8") as fh:
            yield fh


def load_pose_stream(source: Union[str, os.PathLike, IO[str]]) -> Iterator[PoseStreamRecord]:
    """Stream records from a JSONL file, a path, or '-' for stdin.

    Frames must advance by exactly one; a gap or repeat raises
    StreamDiscontinuityError naming the offending frame. Parsing is
    line by line, so arbitrarily long files run in constant memory.
    """
    with _text_file(source, "r", sys.stdin) as fh:
        yield from _iter_records(fh)


def _iter_records(fh: IO[str]) -> Iterator[PoseStreamRecord]:
    prev_frame = None
    line_no = 0
    try:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            record = _parse_record(line, line_no)
            if prev_frame is not None and record.frame != prev_frame + 1:
                raise StreamDiscontinuityError(
                    f"line {line_no}: frame {record.frame} follows {prev_frame}; "
                    f"expected {prev_frame + 1}"
                )
            prev_frame = record.frame
            yield record
    except UnicodeDecodeError as err:
        # The text layer decodes one read at a time. The failing read
        # starts on the line after the last one returned and err.object
        # holds its bytes, so the newlines before the bad byte count too.
        bad_line = line_no + 1 + err.object.count(b"\n", 0, err.start)
        raise StreamFormatError(f"line {bad_line}: not UTF-8 ({err.reason})") from err


def _record_to_json(record: PoseStreamRecord) -> str:
    obj = {"frame": record.frame, "T_wc": [float(x) for x in record.T_wc.reshape(16)]}
    if record.truth is not None:
        obj["truth"] = {
            "position": [float(x) for x in record.truth.position],
            "velocity": [float(x) for x in record.truth.velocity],
            "acceleration": [float(x) for x in record.truth.acceleration],
        }
    return json.dumps(obj, separators=(",", ":"))


def write_pose_stream(target: Union[str, os.PathLike, IO[str]],
                      records: Iterable[PoseStreamRecord]) -> int:
    """Write records as JSONL; returns the number of lines written.

    Accepts a path ('-' for stdout) or an open text file.
    """
    count = 0
    with _text_file(target, "w", sys.stdout) as fh:
        for record in records:
            fh.write(_record_to_json(record) + "\n")
            count += 1
    return count


def records_from_poses(poses: Sequence[CameraPose],
                       truth: Optional[TrajectoryTruth] = None,
                       truth_offset: int = 0) -> Iterator[PoseStreamRecord]:
    """Pair poses with per-frame truth rows for serialization."""
    for i, pose in enumerate(poses):
        sample = None
        if truth is not None:
            j = truth_offset + i
            sample = TruthSample(truth.position[j], truth.velocity[j], truth.acceleration[j])
        yield PoseStreamRecord(frame=pose.frame_index, T_wc=pose.matrix(), truth=sample)


def load_intrinsics(source: Union[str, os.PathLike, IO[str]]) -> Intrinsics:
    """Read pinhole intrinsics JSON; errors name the offending key."""
    try:
        with _text_file(source, "r") as fh:
            obj = json.load(fh)
    except ValueError as err:  # malformed JSON or text that is not UTF-8
        raise ConfigError("intrinsics", f"invalid JSON: {err}") from err
    if not isinstance(obj, dict):
        raise ConfigError("intrinsics", "expected a JSON object")
    values = {}
    for key in ("fx", "fy", "cx", "cy"):
        if key not in obj:
            raise ConfigError(key, "missing from intrinsics")
        if not _is_number(obj[key]) or not math.isfinite(obj[key]):
            raise ConfigError(key, f"must be a finite number, got {obj[key]!r}")
        values[key] = float(obj[key])
    for key in ("width", "height"):
        if key not in obj:
            raise ConfigError(key, "missing from intrinsics")
        v = obj[key]
        if isinstance(v, float) and v.is_integer():
            v = int(v)
        if not isinstance(v, int) or isinstance(v, bool):
            raise ConfigError(key, f"must be an integer, got {obj[key]!r}")
        values[key] = v
    return Intrinsics(**values)


def write_intrinsics(k: Intrinsics, target: Union[str, os.PathLike, IO[str]]) -> None:
    obj = {"fx": k.fx, "fy": k.fy, "cx": k.cx, "cy": k.cy,
           "width": k.width, "height": k.height}
    with _text_file(target, "w") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def atomic_write_bytes(path: Union[str, os.PathLike], data: bytes) -> None:
    """Write via temp file + rename; readers never see partial files."""
    with _replacing(path, "wb") as fh:
        fh.write(data)


def pgm_bytes(values: np.ndarray, scratch: Optional[np.ndarray] = None) -> bytes:
    """Encode a [0, 1] map as binary PGM (P5, maxval 255).

    ``scratch``, a float64 array of the map's shape, takes the scaled
    values in place of a fresh array.
    """
    if values.ndim != 2:
        raise ValueError(f"expected a 2-d map, got shape {values.shape}")
    h, w = values.shape
    scaled = np.multiply(values, 255.0, out=scratch)
    np.rint(scaled, out=scaled)
    return b"P5\n%d %d\n255\n" % (w, h) + scaled.astype(np.uint8).tobytes()


def write_pgm(values: np.ndarray, path: Union[str, os.PathLike],
              scratch: Optional[np.ndarray] = None) -> None:
    atomic_write_bytes(path, pgm_bytes(values, scratch))


def read_pgm(path: Union[str, os.PathLike]) -> np.ndarray:
    """Minimal binary-PGM reader (as written by write_pgm)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise StreamFormatError(f"{path}: not a binary PGM")
    parts = data.split(b"\n", 3)
    if len(parts) < 4:
        raise StreamFormatError(f"{path}: truncated PGM header")
    dims = parts[1].split()
    w, h = int(dims[0]), int(dims[1])
    maxval = int(parts[2])
    if maxval != 255:
        raise StreamFormatError(f"{path}: unsupported maxval {maxval}")
    raw = parts[3]
    if len(raw) < w * h:
        raise StreamFormatError(f"{path}: expected {w * h} pixels, got {len(raw)}")
    return np.frombuffer(raw[: w * h], dtype=np.uint8).reshape(h, w)


def raw_map_bytes(values: np.ndarray, magic: bytes) -> bytes:
    """A map as a float32 sidecar: magic, width, height, then the values."""
    h, w = values.shape
    return magic + struct.pack("<II", w, h) + values.astype("<f4").tobytes()


def _read_raw_map(path: Union[str, os.PathLike], magic: bytes) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:8] != magic:
            raise StreamFormatError(f"{path}: bad magic, expected {magic!r}")
        w, h = struct.unpack("<II", header[8:])
        # Checked before the read, so a header declaring a huge map is
        # an error, not an attempt to read that many bytes.
        size, expected = os.fstat(fh.fileno()).st_size, 16 + 4 * w * h
        if size != expected:
            raise StreamFormatError(f"{path}: {size} bytes, but a {w}x{h} map takes "
                                    f"{expected} (truncated payload or wrong header)")
        raw = fh.read(4 * w * h)
    return np.frombuffer(raw, dtype="<f4").reshape(h, w)


def write_focus_map_float(values: np.ndarray, path: Union[str, os.PathLike]) -> None:
    atomic_write_bytes(path, raw_map_bytes(values, FOCUS_MAP_MAGIC))


def read_focus_map_float(path: Union[str, os.PathLike]) -> np.ndarray:
    return _read_raw_map(path, FOCUS_MAP_MAGIC)


def write_depth_map(values: np.ndarray, path: Union[str, os.PathLike]) -> None:
    atomic_write_bytes(path, raw_map_bytes(values, DEPTH_MAP_MAGIC))


def read_depth_map(path: Union[str, os.PathLike]) -> np.ndarray:
    return _read_raw_map(path, DEPTH_MAP_MAGIC)


def focus_map_name(frame: int, kind: str = "pgm") -> str:
    return f"focus_{frame:06d}.{kind}"


def depth_output_name(frame: int) -> str:
    return f"depth_mod_{frame:06d}.mfd"


def depth_input_name(frame: int) -> str:
    return f"depth_{frame:06d}.mfd"


class _CsvWriter:
    """Streams CSV rows under a header to an open file or to a path.

    A path gets its rows through a temp file that close() renames onto
    it (see _text_file). As a context manager the writer closes on
    success and drops the temp file on an exception, so a failed run
    leaves no partial file.
    """

    HEADER = ""

    def __init__(self, target: Union[str, os.PathLike, IO[str]]):
        self._stack = contextlib.ExitStack()
        self._fh: IO[str] = self._stack.enter_context(_text_file(target, "w"))
        self._fh.write(self.HEADER + "\n")

    def close(self) -> None:
        self._stack.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stack.__exit__(exc_type, exc, tb)


class FocusPointCsvWriter(_CsvWriter):
    """Streams focus points to CSV: frame,u,v,ax,ay,az,mag,projectable."""

    HEADER = "frame,u,v,ax,ay,az,mag,projectable"

    def write_block(self, block: MotionBlock) -> None:
        for i in range(len(block)):
            ok = bool(block.projectable[i])
            u = repr(float(block.uv[i, 0])) if ok else ""
            v = repr(float(block.uv[i, 1])) if ok else ""
            a = block.a_camera[i]
            self._fh.write(
                f"{int(block.frames[i])},{u},{v},{a[0]!r},{a[1]!r},{a[2]!r},"
                f"{float(block.magnitude[i])!r},{int(ok)}\n"
            )


class ResidualCsvWriter(_CsvWriter):
    """Streams boundary residuals: boundary_index,frame,center_dist,rot_angle_rad."""

    HEADER = "boundary_index,frame,center_dist,rot_angle_rad"

    def write_residual(self, residual: BoundaryResidual) -> None:
        for i, frame in enumerate(residual.frames):
            self._fh.write(
                f"{residual.boundary_index},{frame},"
                f"{float(residual.center_dist[i])!r},{float(residual.rot_angle_rad[i])!r}\n"
            )


def write_bench_csv(rows: Sequence[dict], target: Union[str, os.PathLike, IO[str]]) -> None:
    """Benchmark report: stage,resolution,throughput,peak_mem_bytes."""
    with _text_file(target, "w") as fh:
        fh.write("stage,resolution,throughput,peak_mem_bytes\n")
        for row in rows:
            fh.write(
                f"{row['stage']},{row['resolution']},{row['throughput']!r},"
                f"{int(row['peak_mem_bytes'])}\n"
            )
