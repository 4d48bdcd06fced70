"""Span recording for the traced run, and the per-layer metrics derived from it.

Spans come from wrappers installed on the module attributes the pipeline
calls through (HOOKS below, the one table of them). Nothing in the
package is edited: each wrapper times the call, notes which span caused
it, and records counts taken from the call's arguments or result.
Spans are kept in memory and written out when the run ends.

A hook whose attribute no longer exists is skipped, and every metric
that depends on it is reported as unmeasured with the reason. So is a
metric whose spans have no samples on the workload, or that reads 0.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import threading
import time
from typing import Callable, Optional

import numpy as np


def _stitch_counts(args, kwargs, result) -> dict:
    state, emitted = result
    return {"received": len(args[1]), "emitted": len(emitted),
            "boundaries": len(state.boundary_log)}


def _push_counts(args, kwargs, result) -> dict:
    return {"samples": len(result), "projectable": int(np.count_nonzero(result.projectable))}


def _render_counts(args, kwargs, result) -> dict:
    return {"kernels": int(result.contributing_points), "acc_bytes": int(result.values.nbytes)}


def _encode_counts(args, kwargs, result) -> dict:
    return {"bytes": len(result)}


def _write_counts(args, kwargs, result) -> dict:
    return {"bytes": len(args[1])}


def _block_rows(args, kwargs, result) -> dict:
    return {"rows": len(args[1])}


def _residual_rows(args, kwargs, result) -> dict:
    return {"rows": len(args[1].frames)}


# (span name, module, attribute path, counts taken from the call)
HOOKS = (
    ("stitching", "ego_focus.pipeline", "stitch_step", _stitch_counts),
    ("motion.push", "ego_focus.motion", "MotionStream.push", _push_counts),
    ("motion.render", "ego_focus.pipeline", "_render_arrays", _render_counts),
    ("streams.encode", "ego_focus.streams", "pgm_bytes", _encode_counts),
    ("streams.write", "ego_focus.streams", "atomic_write_bytes", _write_counts),
    ("streams.csv", "ego_focus.streams", "FocusPointCsvWriter.write_block", _block_rows),
    ("streams.csv", "ego_focus.streams", "ResidualCsvWriter.write_residual", _residual_rows),
    ("geometry.from_matrix", "ego_focus.geometry", "CameraPose.from_matrix", None),
)

ROOT = "pipeline"
PARSE = "streams.parse"


class Recorder:
    """Collects spans: (id, name, start, end, parent id, thread, window, counts)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.window = 0  # index of the window being stitched when a span starts
        self.root_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable, counts: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self.root_id
            sid = next(self._ids)
            window = self.window
            if name == "stitching":
                self.window += 1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            extra = counts(args, kwargs, result) if counts else None
            self.spans.append((sid, name, t0, t1, parent, threading.get_ident(), window, extra))
            return result

        traced.__wrapped__ = fn
        return traced

    def add_root(self, t0: float, t1: float) -> None:
        self.spans.append((self.root_id, ROOT, t0, t1, None, threading.get_ident(), 0, None))

    def dump(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "thread", "window", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def install(recorder: Recorder) -> tuple[list, dict]:
    """Wrap every hooked attribute; returns (undo list, {span: reason unmeasured})."""
    undo: list = []
    missing: dict[str, str] = {}
    for name, module_name, path, counts in HOOKS:
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            missing[name] = f"{module_name}.{path} not found"
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(recorder.wrap(name, raw.__func__, counts))
        else:
            wrapped = recorder.wrap(name, raw, counts)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, raw))
    return undo, missing


def uninstall(undo: list) -> None:
    for owner, attr, raw in reversed(undo):
        setattr(owner, attr, raw)


# Per-layer metrics: name -> (unit, spans it needs). Units are fixed here
# so an unmeasured metric still reports one.
LAYER_METRICS = {
    "streams.parse.busy_s": ("s", (PARSE,)),
    "streams.parse.records": ("count", (PARSE,)),
    "streams.parse.us_per_record": ("us", (PARSE,)),
    "geometry.from_matrix.busy_s": ("s", ("geometry.from_matrix",)),
    "geometry.from_matrix.share_of_parse": ("ratio", (PARSE, "geometry.from_matrix")),
    "stitching.busy_s": ("s", ("stitching",)),
    "stitching.windows": ("count", ("stitching",)),
    "stitching.boundaries": ("count", ("stitching",)),
    "stitching.us_per_window": ("us", ("stitching",)),
    "stitching.emit_ratio": ("ratio", ("stitching",)),
    "motion.push.busy_s": ("s", ("motion.push",)),
    "motion.push.samples": ("count", ("motion.push",)),
    "motion.push.projectable_ratio": ("ratio", ("motion.push",)),
    "motion.render.busy_s": ("s", ("motion.render",)),
    "motion.render.maps": ("count", ("motion.render",)),
    "motion.render.ms_p50": ("ms", ("motion.render",)),
    "motion.render.ms_p95": ("ms", ("motion.render",)),
    "motion.render.kernels": ("count", ("motion.render",)),
    "motion.render.zero_map_ratio": ("ratio", ("motion.render",)),
    "motion.render.acc_mb_per_map": ("MB", ("motion.render",)),
    "streams.encode.busy_s": ("s", ("streams.encode",)),
    "streams.encode.ms_per_map": ("ms", ("streams.encode",)),
    "streams.encode.bytes": ("bytes", ("streams.encode",)),
    "streams.write.busy_s": ("s", ("streams.write",)),
    "streams.write.files": ("count", ("streams.write",)),
    "streams.write.bytes": ("bytes", ("streams.write",)),
    "streams.write.us_per_file": ("us", ("streams.write",)),
    "streams.csv.busy_s": ("s", ("streams.csv",)),
    "streams.csv.rows": ("count", ("streams.csv",)),
    "pipeline.self_s": ("s", ()),
    "pipeline.blocked_s": ("s", ()),
    "pipeline.parallelism": ("ratio", ()),
}

# Self time and parallelism change meaning when any hook is missing.
WHOLE_RUN = ("pipeline.self_s", "pipeline.parallelism")


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def _pct(values: list, q: int) -> Optional[float]:
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[tuple], blocked_s: float, missing: dict) -> dict:
    """Per-layer values of one traced call; an unmeasured one maps to its reason."""
    root = next(s for s in spans if s[1] == ROOT)
    wall = root[3] - root[2]
    main_thread = root[5]
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)

    def busy(name: str) -> float:
        return sum(s[3] - s[2] for s in by_name.get(name, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def total(name: str, key: str) -> int:
        return sum(s[7][key] for s in by_name.get(name, ()))

    render_ms = [1e3 * (s[3] - s[2]) for s in by_name.get("motion.render", ())]
    maps = count("motion.render")
    top = [s for s in spans if s[4] == root[0]]
    main_covered = sum(s[3] - s[2] for s in top if s[5] == main_thread)
    other_busy = sum(s[3] - s[2] for s in top if s[5] != main_thread)
    values = {
        "streams.parse.busy_s": busy(PARSE),
        "streams.parse.records": count(PARSE),
        "streams.parse.us_per_record": _ratio(1e6 * busy(PARSE), count(PARSE)),
        "geometry.from_matrix.busy_s": busy("geometry.from_matrix"),
        "geometry.from_matrix.share_of_parse": _ratio(busy("geometry.from_matrix"), busy(PARSE)),
        "stitching.busy_s": busy("stitching"),
        "stitching.windows": count("stitching"),
        "stitching.boundaries": total("stitching", "boundaries"),
        "stitching.us_per_window": _ratio(1e6 * busy("stitching"), count("stitching")),
        "stitching.emit_ratio": _ratio(total("stitching", "emitted"),
                                       total("stitching", "received")),
        "motion.push.busy_s": busy("motion.push"),
        "motion.push.samples": total("motion.push", "samples"),
        "motion.push.projectable_ratio": _ratio(total("motion.push", "projectable"),
                                                total("motion.push", "samples")),
        "motion.render.busy_s": busy("motion.render"),
        "motion.render.maps": maps,
        "motion.render.ms_p50": _pct(render_ms, 50),
        "motion.render.ms_p95": _pct(render_ms, 95),
        "motion.render.kernels": total("motion.render", "kernels"),
        "motion.render.zero_map_ratio": _ratio(
            sum(1 for s in by_name.get("motion.render", ()) if s[7]["kernels"] == 0), maps),
        "motion.render.acc_mb_per_map": _ratio(total("motion.render", "acc_bytes") / 1e6, maps),
        "streams.encode.busy_s": busy("streams.encode"),
        "streams.encode.ms_per_map": _ratio(1e3 * busy("streams.encode"),
                                            count("streams.encode")),
        "streams.encode.bytes": total("streams.encode", "bytes"),
        "streams.write.busy_s": busy("streams.write"),
        "streams.write.files": count("streams.write"),
        "streams.write.bytes": total("streams.write", "bytes"),
        "streams.write.us_per_file": _ratio(1e6 * busy("streams.write"), count("streams.write")),
        "streams.csv.busy_s": busy("streams.csv"),
        "streams.csv.rows": total("streams.csv", "rows"),
        "pipeline.self_s": wall - main_covered,
        "pipeline.blocked_s": blocked_s,
        "pipeline.parallelism": _ratio(wall - blocked_s + other_busy, wall),
    }
    hooked = tuple(dict.fromkeys(h[0] for h in HOOKS))
    out = {}
    for metric, (_, needs) in LAYER_METRICS.items():
        gone = [missing[n] for n in (hooked if metric in WHOLE_RUN else needs) if n in missing]
        unsampled = [n for n in needs if not count(n)]
        if gone:
            out[metric] = "; ".join(gone)
        elif unsampled:
            out[metric] = "no samples of " + ", ".join(unsampled) + " on this workload"
        elif not values[metric]:
            out[metric] = "reads 0 on this workload"
        else:
            out[metric] = values[metric]
    return out
