"""One measured process: run the pipeline once on generated inputs.

Usage: python3 worker.py SPEC_JSON LAUNCH_MONOTONIC

SPEC_JSON names the inputs, the output directory, the thread count and
whether to trace. LAUNCH_MONOTONIC is `time.monotonic()` in the parent
just before this process was started, so set-up time includes
interpreter start and imports. The result is one JSON line on stdout.

The calls are the ones `ego-focus run` makes: `streams.load_intrinsics`,
then `streams.load_pose_stream` -> `PoseStreamRecord.to_pose` ->
`pipeline.run_stream` for flat input, or `pipeline.run_stream_batches`
for pre-built windows.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import sys
import time


class PullClock:
    """The input iterator: timestamps the pulls that complete windows.

    Pull number `first`, `first + stride`, ... completes a window, so
    the intervals between them are per-window turnaround times seen
    from the input side.
    """

    def __init__(self, inner, first: int, stride: int, pull=None):
        self._pull = pull or iter(inner).__next__
        self._first = first
        self._stride = stride
        self.pulls = 0
        self.first_pull = None  # time.monotonic() of the first request
        self.marks: list[float] = []

    def __iter__(self):
        return self

    def __next__(self):
        now = time.perf_counter()
        if self.first_pull is None:
            self.first_pull = time.monotonic()
        item = self._pull()
        self.pulls += 1
        if self.pulls >= self._first and (self.pulls - self._first) % self._stride == 0:
            self.marks.append(now)
        return item

    def latencies_ms(self) -> list[float]:
        return [1e3 * (b - a) for a, b in zip(self.marks, self.marks[1:])]


def _parsed_poses(streams, path: str):
    return (record.to_pose() for record in streams.load_pose_stream(path))


def run(spec: dict, launch: float) -> dict:
    if spec["src"] not in sys.path:
        sys.path.insert(0, spec["src"])
    from ego_focus import pipeline, streams

    inputs = spec["inputs"]
    run_cfg = dict(inputs["run_config"])
    if spec.get("threads") is not None:
        run_cfg["threads"] = spec["threads"]

    # Loading pre-built windows is load generation, not program set-up.
    materialise_s = 0.0
    batched = inputs["batched"]
    if batched:
        t_load = time.monotonic()
        with open(inputs["poses_path"], "rb") as fh:
            windows = pickle.load(fh)
        materialise_s = time.monotonic() - t_load

    recorder = missing = undo = None
    if spec["trace"]:
        import spans
        recorder = spans.Recorder()
        undo, missing = spans.install(recorder)

    try:
        out_dir = spec["out_dir"]
        residuals = os.path.join(out_dir, "residuals.csv") if inputs["residuals"] else None
        intrinsics = streams.load_intrinsics(inputs["intrinsics_path"])
        cfg = pipeline.RunConfig(**run_cfg)
        if batched:
            source = PullClock(windows, 1, 1)
            call = pipeline.run_stream_batches
        else:
            poses = _parsed_poses(streams, inputs["poses_path"])
            pull = recorder.wrap(spans.PARSE, poses.__next__) if recorder else None
            source = PullClock(poses, cfg.window_size, cfg.window_size - cfg.overlap, pull)
            call = pipeline.run_stream

        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        cpu0 = time.process_time()
        thr0 = time.thread_time()
        t0 = time.perf_counter()
        summary = call(source, intrinsics, cfg, out_dir, residuals_path=residuals)
        t1 = time.perf_counter()
        thread_s = time.thread_time() - thr0
        cpu_s = time.process_time() - cpu0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        if undo is not None:
            spans.uninstall(undo)

    result = {
        "frames": summary.frames_in,
        "wall_s": t1 - t0,
        "cpu_s": cpu_s,
        "minflt": ru1.ru_minflt - ru0.ru_minflt,
        "maxrss_kb": ru1.ru_maxrss,
        "setup_s": source.first_pull - launch - materialise_s,
        "latency_ms": source.latencies_ms(),
        "summary": {key: getattr(summary, key) for key in (
            "frames_in", "samples", "maps_written", "zero_maps", "boundaries")},
    }
    if recorder is not None:
        recorder.add_root(t0, t1)
        if spec.get("spans_path"):
            recorder.dump(spec["spans_path"])
        result["layers"] = spans.layer_metrics(recorder.spans, (t1 - t0) - thread_s, missing)
    return result


def main(argv: list[str]) -> int:
    launch = float(argv[2])
    with open(argv[1], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    print(json.dumps(run(spec, launch)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
