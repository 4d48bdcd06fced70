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
run leaves only complete files; a hard link, complete when it appears,
goes straight onto a name no file has, and replaces one that exists
through a temp name + rename.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import stat
import struct
import sys
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, InvalidPoseError, StreamDiscontinuityError, StreamFormatError
from .geometry import FRAME_LIMIT, Intrinsics, PoseBatch, _is_last_row
from .motion import MotionBlock
from .simulate import TrajectoryTruth
from .stitching import BoundaryResidual

FOCUS_MAP_MAGIC = b"MFMAP\x00\x00\x00"
DEPTH_MAP_MAGIC = b"MFDEP\x00\x00\x00"

# Records per parsed chunk of a regular file, the unit of validation (a
# pipe's records go on one by one, as they arrive), and rows per write.
_CHUNK_ROWS = 64
_NUMBER_TYPES = {int, float}
_TRUTH_KEYS = ("position", "velocity", "acceleration")
_dumps = json.JSONEncoder(separators=(",", ":")).encode

# Temp-file names come from a private generator, seeded from os.urandom
# here and again in a forked child: creating a file makes no getrandom
# call and leaves the random module's own sequence alone.
_tmp_names = random.Random()
os.register_at_fork(after_in_child=_tmp_names.seed)


class PoseStreamRecord(NamedTuple):
    """Validated poses of consecutive frames and, optionally, their truth, one row per pose."""

    pose: PoseBatch
    truth: Optional[TrajectoryTruth] = None

    def to_pose(self) -> PoseBatch:
        return self.pose


@contextlib.contextmanager
def _renamed_onto(path: Union[str, os.PathLike], create: Callable[[str], object]) -> Iterator:
    """``create(tmp)`` on a new random ``.tmp-*`` name beside ``path``, for the block.

    ``tmp`` is renamed onto ``path`` when the block ends cleanly and removed
    on any exception. A failed create or rename is raised naming ``path``, not ``tmp``.
    """
    directory = os.path.dirname(os.fspath(path)) or "."
    while True:
        tmp = os.path.join(directory, ".tmp-%016x" % _tmp_names.getrandbits(64))
        try:
            made = create(tmp)
            break
        except FileExistsError:
            continue
        except OSError as err:
            raise OSError(err.errno, err.strerror, os.fspath(path)) from err
    try:
        yield made
        try:
            os.replace(tmp, path)
        except OSError as err:
            raise OSError(err.errno, err.strerror, os.fspath(path)) from err
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _create(tmp: str) -> int:
    """A descriptor of a new file, mode 0666 less the umask (as open() would give)."""
    return os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)


@contextlib.contextmanager
def _replacing(path: Union[str, os.PathLike]) -> Iterator[IO[str]]:
    """A new UTF-8 text file, renamed onto ``path`` by _renamed_onto."""
    with _renamed_onto(path, _create) as fd, os.fdopen(fd, "w", encoding="utf-8") as fh:
        yield fh


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
        with _replacing(target) as fh:
            yield fh
    else:
        with open(target, mode, encoding="utf-8") as fh:
            yield fh


def _store(out: np.ndarray, values) -> bool:
    """Copy a JSON list of len(out) numbers into out; False for anything else.

    The element types are checked at C speed against exact int and float,
    so a JSON boolean (a Python int subclass) fails, and so does an int
    too large for float64.
    """
    if type(values) is not list or len(values) != len(out) \
            or not set(map(type, values)) <= _NUMBER_TYPES:
        return False
    try:
        out[:] = values
    except OverflowError:
        return False
    return True


def _pose_chunks(fh: IO[str]) -> Iterator[tuple[PoseBatch, list]]:
    """Parse JSONL pose lines into validated chunks of at most _CHUNK_ROWS records.

    From a pipe, a FIFO or a terminal a chunk is one record, so that no
    record waits for lines that have not been written yet.

    A chunk is (poses, truth), truth holding per record a (3, 3) array of
    position, velocity and acceleration, or None. Blank lines are skipped
    and frames must advance by exactly one. A line is checked in the order
    JSON, object, keys, frame, T_wc, last row, truth, frame continuity, and
    then as a row of its chunk's PoseBatch. When a line fails, the records
    before it come out first, then its error.
    """
    try:
        size = _CHUNK_ROWS if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) else 1
    except (OSError, ValueError):  # no descriptor, as io.StringIO
        size = _CHUNK_ROWS
    prev = None
    line_no = 0
    lines = enumerate(fh, start=1)
    while True:
        rows = np.empty((size, 16))
        truth_rows = np.empty((size, 3, 3))
        truth: list[Optional[np.ndarray]] = []
        error = None
        try:
            for line_no, line in lines:
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as err:  # bad syntax, too many digits, too deep
                    if not line.strip():
                        continue
                    raise StreamFormatError(f"line {line_no}: invalid JSON: {err}") from err
                if not isinstance(obj, dict):
                    raise StreamFormatError(f"line {line_no}: expected an object")
                try:
                    frame = obj["frame"]
                    flat = obj["T_wc"]
                except KeyError as err:
                    raise StreamFormatError(
                        f"line {line_no}: missing key {err.args[0]!r}") from err
                if type(frame) is not int or frame < 0:
                    raise StreamFormatError(f"line {line_no}: frame must be a non-negative integer")
                if frame >= FRAME_LIMIT:
                    raise StreamFormatError(f"line {line_no}: frame {frame} is not below 2**63")
                n = len(truth)
                if not _store(rows[n], flat):
                    raise StreamFormatError(f"line {line_no}: T_wc must be a list of 16 numbers")
                if not _is_last_row(*flat[12:]):
                    raise StreamFormatError(f"line {line_no}: last row of T_wc is "
                                            f"{rows[n, 12:].tolist()}, expected (0, 0, 0, 1)")
                tr = obj.get("truth")
                if tr is not None:
                    if not isinstance(tr, dict):
                        raise StreamFormatError(f"line {line_no}: truth must be an object")
                    for key, out in zip(_TRUTH_KEYS, truth_rows[n]):
                        if not _store(out, tr.get(key)):
                            raise StreamFormatError(
                                f"line {line_no}: truth.{key} must be a list of 3 numbers")
                    tr = truth_rows[n]
                if prev is not None and frame != prev + 1:
                    raise StreamDiscontinuityError(
                        f"line {line_no}: frame {frame} follows {prev}; expected {prev + 1}")
                prev = frame
                truth.append(tr)
                if len(truth) == size:
                    break
        except (StreamFormatError, StreamDiscontinuityError) as err:
            error = err
        except UnicodeDecodeError as err:
            # The text layer decodes one read at a time. The failing read
            # starts on the line after the last one returned and err.object
            # holds its bytes, so the newlines before the bad byte count too.
            bad_line = line_no + 1 + err.object.count(b"\n", 0, err.start)
            error = StreamFormatError(f"line {bad_line}: not UTF-8 ({err.reason})")
        if truth:  # the passed rows end at frame prev
            first, m = prev + 1 - len(truth), rows[:len(truth)].reshape(-1, 4, 4)
            try:
                chunks = [(PoseBatch(first, m[:, :3, :3], m[:, :3, 3]), truth)]
            except InvalidPoseError:
                # Pose by pose, so that the poses before the bad one come out first.
                chunks = ((PoseBatch(first + i, m[i:i + 1, :3, :3], m[i:i + 1, :3, 3]),
                           truth[i:i + 1]) for i in range(len(m)))
            yield from chunks
        if error is not None:
            raise error
        if len(truth) < size:
            return


def load_pose_stream(source: Union[str, os.PathLike, IO[str]]) -> Iterator[PoseStreamRecord]:
    """Stream records from a JSONL file, a path, or '-' for stdin.

    Frames must advance by exactly one; a gap or repeat raises
    StreamDiscontinuityError naming the offending frame. Lines are read
    _CHUNK_ROWS records at a time, so arbitrarily long files run in
    constant memory. A record is one line: a one-row view of its validated
    chunk, and its truth as (1, 3) rows or None.
    """
    with _text_file(source, "r", sys.stdin) as fh:
        for poses, truth in _pose_chunks(fh):
            for pose, tr in zip(poses, truth):
                yield PoseStreamRecord(pose, None if tr is None else TrajectoryTruth(*tr[:, None]))


def load_pose_batches(source: Union[str, os.PathLike, IO[str]]) -> Iterator[PoseBatch]:
    """Stream the poses of a JSONL file, a path, or '-', as validated PoseBatch chunks.

    Every error comes out after the poses before the failing one.
    """
    with _text_file(source, "r", sys.stdin) as fh:
        for poses, _ in _pose_chunks(fh):
            yield poses


def write_pose_stream(target: Union[str, os.PathLike, IO[str]],
                      records: Iterable[PoseStreamRecord]) -> int:
    """Write records, or (poses, truth) pairs, as JSONL; returns the number of lines written.

    Accepts a path ('-' for stdout) or an open text file. A record goes out
    _CHUNK_ROWS rows at a time, with one tolist() per array, so the lines of
    a long record are never all in memory at once. Each non-empty record
    must start at the frame after the previous one's last, as the loader
    requires; a gap or repeat raises ValueError.
    """
    count = 0
    end = None
    with _text_file(target, "w", sys.stdout) as fh:
        for poses, truth in records:
            if len(poses):
                if end is not None and poses.first_frame != end:
                    raise ValueError(f"frame {poses.first_frame} follows {end - 1}; "
                                     f"expected {end}")
                end = poses.end_frame
            columns = [] if truth is None else [np.asarray(getattr(truth, key), np.float64)
                                                for key in _TRUTH_KEYS]
            if any(rows.shape != (len(poses), 3) for rows in columns):
                raise ValueError(f"truth needs a row of 3 per pose, {len(poses)} rows")
            for i in range(0, len(poses), _CHUNK_ROWS):
                part = slice(i, i + _CHUNK_ROWS)
                objs = [{"frame": f, "T_wc": [*r0, t0, *r1, t1, *r2, t2, 0.0, 0.0, 0.0, 1.0]}
                        for f, (r0, r1, r2), (t0, t1, t2) in zip(
                            range(poses.first_frame + i, poses.end_frame),
                            poses.rotations[part].tolist(), poses.translations[part].tolist())]
                if columns:
                    for obj, *vectors in zip(objs, *(rows[part].tolist() for rows in columns)):
                        obj["truth"] = dict(zip(_TRUTH_KEYS, vectors))
                fh.write("".join([_dumps(obj) + "\n" for obj in objs]))
                count += len(objs)
    return count


def records_from_poses(poses: PoseBatch,
                       truth: Optional[TrajectoryTruth] = None) -> Iterator[PoseStreamRecord]:
    """A batch and its truth rows as one record, for write_pose_stream."""
    yield PoseStreamRecord(poses, truth)


def load_intrinsics(source: Union[str, os.PathLike, IO[str]]) -> Intrinsics:
    """Read pinhole intrinsics JSON; errors name the offending key."""
    try:
        with _text_file(source, "r") as fh:
            obj = json.load(fh)
    except (ValueError, RecursionError) as err:  # bad syntax or UTF-8, too many digits, too deep
        raise ConfigError("intrinsics", f"invalid JSON: {err}") from err
    if not isinstance(obj, dict):
        raise ConfigError("intrinsics", "expected a JSON object")
    values = {}
    for key in ("fx", "fy", "cx", "cy", "width", "height"):
        if key not in obj:
            raise ConfigError(key, "missing from intrinsics")
        values[key] = obj[key]
    for key in ("width", "height"):  # 640.0 is the size 640
        if isinstance(values[key], float) and values[key].is_integer():
            values[key] = int(values[key])
    return Intrinsics(**values)


def write_intrinsics(k: Intrinsics, target: Union[str, os.PathLike, IO[str]]) -> None:
    obj = {"fx": k.fx, "fy": k.fy, "cx": k.cx, "cy": k.cy,
           "width": k.width, "height": k.height}
    with _text_file(target, "w") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def atomic_write_bytes(path: Union[str, os.PathLike], data: bytes) -> None:
    """Write via temp file + rename; readers never see partial files."""
    with _renamed_onto(path, _create) as fd:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)


def link_replacing(source: Union[str, os.PathLike], path: Union[str, os.PathLike]) -> None:
    """Hard-link ``path`` to ``source``.

    A link is complete when it appears, so it goes straight onto an absent
    ``path``; one that exists is replaced by a link to a temp name and a
    rename, as atomic_write_bytes.
    """
    try:
        os.link(source, path)
    except FileExistsError:
        with _renamed_onto(path, lambda tmp: os.link(source, tmp)):
            pass


def pgm_bytes(values: np.ndarray, scratch: Optional[np.ndarray] = None,
              footprint: tuple[slice, slice] = (slice(None), slice(None))) -> bytearray:
    """Encode a [0, 1] map as binary PGM (P5, maxval 255), in a new bytearray.

    Only ``footprint``, rows and columns as two slices, is encoded; every
    pixel outside it is 0, as every value there must be. ``scratch``, a
    float64 array at least the footprint's size, takes the scaled values
    in place of a fresh array.
    """
    if values.ndim != 2:
        raise ValueError(f"expected a 2-d map, got shape {values.shape}")
    h, w = values.shape
    header = b"P5\n%d %d\n255\n" % (w, h)
    data = bytearray(len(header) + h * w)
    data[:len(header)] = header
    window = values[footprint]
    if scratch is not None:
        scratch = scratch.reshape(-1)[:window.size].reshape(window.shape)
    scaled = np.multiply(window, 255.0, out=scratch)
    np.rint(scaled, out=scaled)
    pixels = np.frombuffer(data, np.uint8, offset=len(header)).reshape(h, w)
    pixels[footprint] = scaled
    return data


def read_pgm(path: Union[str, os.PathLike]) -> np.ndarray:
    """Minimal binary-PGM reader (as encoded by pgm_bytes)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise StreamFormatError(f"{path}: not a binary PGM")
    parts = data.split(b"\n", 3)
    if len(parts) < 4:
        raise StreamFormatError(f"{path}: truncated PGM header")
    fields = parts[1].split() + parts[2].split()
    if len(fields) != 3 or not all(f.isdigit() for f in fields):
        raise StreamFormatError(f"{path}: bad PGM header, expected integer width, height, maxval")
    w, h, maxval = map(int, fields)
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


class _CsvWriter(contextlib.ExitStack):
    """Streams CSV rows under a header to an open file or to a path.

    A path gets its rows through a temp file that close() renames onto
    it (see _text_file). As a context manager the writer closes on
    success and drops the temp file on an exception, so a failed run
    leaves no partial file.
    """

    HEADER = ""

    def __init__(self, target: Union[str, os.PathLike, IO[str]]):
        super().__init__()
        self._fh: IO[str] = self.enter_context(_text_file(target, "w"))
        self._fh.write(self.HEADER + "\n")


class FocusPointCsvWriter(_CsvWriter):
    """Streams focus points to CSV: frame,u,v,ax,ay,az,mag,projectable."""

    HEADER = "frame,u,v,ax,ay,az,mag,projectable"

    def write_block(self, block: MotionBlock) -> None:
        # Python floats: the repr of a numpy scalar is not a CSV number.
        for frame, (u, v), (ax, ay, az), mag, ok in zip(
                block.frames.tolist(), block.uv.tolist(), block.a_camera.tolist(),
                block.magnitude.tolist(), block.projectable.tolist()):
            uv = f"{u!r},{v!r}" if ok else ","
            self._fh.write(f"{frame},{uv},{ax!r},{ay!r},{az!r},{mag!r},{int(ok)}\n")


class ResidualCsvWriter(_CsvWriter):
    """Streams boundary residuals: boundary_index,frame,center_dist,rot_angle_rad."""

    HEADER = "boundary_index,frame,center_dist,rot_angle_rad"

    def write_residual(self, residual: BoundaryResidual) -> None:
        index = residual.boundary_index
        for frame, dist, angle in zip(residual.frames, residual.center_dist.tolist(),
                                      residual.rot_angle_rad.tolist()):
            self._fh.write(f"{index},{frame},{dist!r},{angle!r}\n")


def write_bench_csv(rows: Sequence[dict], target: Union[str, os.PathLike, IO[str]]) -> None:
    """Benchmark report: stage,resolution,throughput,peak_mem_bytes."""
    with _text_file(target, "w") as fh:
        fh.write("stage,resolution,throughput,peak_mem_bytes\n")
        for row in rows:
            fh.write(
                f"{row['stage']},{row['resolution']},{row['throughput']!r},"
                f"{int(row['peak_mem_bytes'])}\n"
            )
