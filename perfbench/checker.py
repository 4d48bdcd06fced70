"""Output checker: the source of `failed` and `error_rate`.

A frame fails when its map is missing, is not a P5 PGM of the expected
(scaled) size, is non-zero without peaking at 255, or differs in any
byte from the threads = 1 reference run of the same workload and seed.
A run-wide mismatch (map count, zero-map count, CSV rows or bytes,
stray files) fails every frame of that run.

The threads = 1 reference is made by the code under test, so it only
proves determinism. `golden.json` anchors the output itself: it holds a
fingerprint of each workload's output at one seed, made at the commit
that defined the benchmark (see make_golden.py). The fingerprint is the
pixel sum of every map and each CSV's row count, compared with a
tolerance that absorbs last-bit float differences between machines but
not a changed kernel, rounding rule or zero-map decision.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

POINTS_CSV = "focus_points.csv"
RESIDUALS_CSV = "residuals.csv"
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
# A map's pixel sum may differ from the golden one by this much: a
# non-zero map sums to at least 255 (its peak), so a zero map never
# passes for a non-zero one or the reverse.
SUM_TOLERANCE_ABS = 8
SUM_TOLERANCE_REL = 1e-3


def map_name(frame: int) -> str:
    return f"focus_{frame:06d}.pgm"


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


def _csv_rows(data: bytes) -> int:
    return data.count(b"\n") - 1  # minus the header


class Expected:
    """What one run of a workload must produce."""

    def __init__(self, frames: int, width: int, height: int, overlap: int, residuals: bool):
        self.frames = frames
        self.width = width
        self.height = height
        self.overlap = overlap
        self.residuals = residuals
        self.map_frames = range(2, frames)
        self.header = b"P5\n%d %d\n255\n" % (width, height)

    @classmethod
    def of(cls, wl: dict, frames: int) -> "Expected":
        """Expectations for `frames` input frames of workload definition `wl`."""
        scale = wl["run"]["map_scale"]
        return cls(frames, wl["intrinsics"]["width"] // scale,
                   wl["intrinsics"]["height"] // scale, wl["run"]["overlap"], wl["residuals"])

    def files(self) -> set[str]:
        names = {map_name(f) for f in self.map_frames} | {POINTS_CSV}
        return names | {RESIDUALS_CSV} if self.residuals else names


def digests(out_dir: str) -> dict[str, bytes]:
    """Digest of every file in a run's output directory."""
    out = {}
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = _digest(fh.read())
    return out


def check(out_dir: str, expected: Expected, summary: dict,
          reference: dict[str, bytes]) -> tuple[int, list[str]]:
    """Returns (failed frames, problems found) for one run."""
    failed: set[int] = set()
    problems: list[str] = []
    nonzero = 0
    pixels = expected.width * expected.height
    for frame in expected.map_frames:
        name = map_name(frame)
        try:
            with open(os.path.join(out_dir, name), "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            failed.add(frame)
            problems.append(f"{name}: missing")
            continue
        body = data[len(expected.header):]
        if not data.startswith(expected.header) or len(body) != pixels:
            failed.add(frame)
            problems.append(f"{name}: not a {expected.width}x{expected.height} P5 PGM")
            continue
        peak = int(np.frombuffer(body, dtype=np.uint8).max())
        if peak:
            nonzero += 1
            if peak != 255:
                failed.add(frame)
                problems.append(f"{name}: non-zero map peaks at {peak}, not 255")
        if reference.get(name) != _digest(data):
            failed.add(frame)
            problems.append(f"{name}: bytes differ from the threads=1 reference")

    run_wide: list[str] = []
    n_maps = len(expected.map_frames)
    for key, want in (("frames_in", expected.frames), ("maps_written", n_maps),
                      ("samples", n_maps), ("zero_maps", n_maps - nonzero)):
        if summary[key] != want:
            run_wide.append(f"summary {key}={summary[key]}, expected {want}")
    present = set(os.listdir(out_dir))
    if present != expected.files():
        run_wide.append(f"unexpected or missing files: {sorted(present ^ expected.files())[:5]}")
    csv_rows = {POINTS_CSV: summary["samples"]}
    if expected.residuals:
        csv_rows[RESIDUALS_CSV] = summary["boundaries"] * expected.overlap
    for name, rows in csv_rows.items():
        if name not in present:
            continue  # already reported with the file set
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if _csv_rows(data) != rows:
            run_wide.append(f"{name}: {_csv_rows(data)} rows, expected {rows}")
        if reference.get(name) != _digest(data):
            run_wide.append(f"{name}: bytes differ from the threads=1 reference")
    if run_wide:
        # No frame of a run with a run-wide fault can be trusted.
        return expected.frames, problems + run_wide
    return len(failed), problems


def fingerprint(out_dir: str, expected: Expected) -> dict:
    """Pixel sum of every map (None if missing or malformed) and each CSV's row count."""
    sums: list = []
    for frame in expected.map_frames:
        try:
            with open(os.path.join(out_dir, map_name(frame)), "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            data = b""
        body = data[len(expected.header):]
        ok = data.startswith(expected.header) and len(body) == expected.width * expected.height
        sums.append(int(np.frombuffer(body, dtype=np.uint8).sum(dtype=np.int64)) if ok else None)
    rows = {}
    for name in (POINTS_CSV, RESIDUALS_CSV) if expected.residuals else (POINTS_CSV,):
        try:
            with open(os.path.join(out_dir, name), "rb") as fh:
                rows[name] = _csv_rows(fh.read())
        except FileNotFoundError:
            rows[name] = None
    return {"map_sums": sums, "csv_rows": rows}


def load_golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def against_golden(found: dict, golden: dict) -> list[str]:
    """Where the fingerprint `found` departs from the golden one."""
    problems = []
    if found["csv_rows"] != golden["csv_rows"]:
        problems.append(f"CSV rows {found['csv_rows']}, golden {golden['csv_rows']}")
    if len(found["map_sums"]) != len(golden["map_sums"]):
        return problems + [f"{len(found['map_sums'])} maps, golden {len(golden['map_sums'])}"]
    for frame, got, want in zip(range(2, 2 + len(found["map_sums"])),
                                found["map_sums"], golden["map_sums"]):
        if got is None or abs(got - want) > max(SUM_TOLERANCE_ABS, SUM_TOLERANCE_REL * want):
            problems.append(f"{map_name(frame)}: pixel sum {got}, golden {want}")
    return problems
