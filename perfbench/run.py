"""Benchmark of the ego-focus `run` path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. The
seed builds the workload's inputs (off the clock). A threads = 1
reference run of those inputs is made once, off the clock, and every
measured run's output bytes are checked against it. That reference,
or one of the golden table's seed, is also compared with the output the
benchmark's commit gave (checker.py, golden.json). Then fresh
processes run the pipeline on the same inputs, one after another, until
their combined wall time reaches --seconds; output directories are
cleaned between them, off the clock.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics: traced and untraced processes alternate, and the layer values
come from the traced ones. The last line of stdout is the result JSON;
the line before it holds the median, quartiles and sample count of
every metric. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import checker
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = ".perfbench_work"  # under the checkout root: inputs, outputs, last trace
CHILD_TIMEOUT_S = 150
MIN_RUNS = 3  # per kind of process, so a median and quartiles exist
LATENCY_P95_MIN_SAMPLES = 200
# Layer metrics given only in the report line, because a workload of
# BENCHMARK.json does not reach them on every seed: batched_stitch never
# parses, and a long_stream seed can render no all-zero map. Every other
# layer metric is measured and non-zero on both, so the result line
# holds a number for it.
REPORT_ONLY = (
    "streams.parse.busy_s",
    "streams.parse.records",
    "streams.parse.us_per_record",
    "geometry.from_matrix.busy_s",
    "geometry.from_matrix.share_of_parse",
    "motion.render.zero_map_ratio",
)

END_TO_END = {
    "frames_per_s": "1/s",
    "cpu_ms_per_frame": "ms",
    "window_latency_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _stats(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _launch(spec: dict, spec_path: str) -> tuple[dict, float]:
    """Run one worker process; returns its result and its launch-to-exit time."""
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    launch = time.monotonic()
    proc = subprocess.run([sys.executable, WORKER, spec_path, repr(launch)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.monotonic() - launch
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def _e2e(result: dict) -> dict:
    frames = result["frames"]
    return {
        "frames_per_s": frames / result["wall_s"],
        "cpu_ms_per_frame": 1e3 * result["cpu_s"] / frames,
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        "setup_s": result["setup_s"],
    }


def _runner(workload: str, seed: int, directory: str):
    """Generates the inputs for `seed` under `directory`.

    Returns (inputs, output directory, one), where one(threads, traced)
    cleans the output directory and runs one worker process on them.
    """
    inputs = workloads.generate(workload, seed, directory)
    out_dir = os.path.join(directory, "out")
    spec_path = os.path.join(directory, "spec.json")
    spans_path = os.path.join(directory, "spans.jsonl")

    def one(threads, traced):
        spec = {"src": SRC, "inputs": inputs, "out_dir": out_dir,
                "threads": threads, "trace": traced, "spans_path": spans_path}
        shutil.rmtree(out_dir, ignore_errors=True)
        return _launch(spec, spec_path)

    return inputs, out_dir, one


def golden_problems(workload: str, seed: int, found: dict, tmp: str) -> list[str]:
    """Where the output departs from the golden fingerprint of the benchmark's commit.

    `found` is the fingerprint of the threads = 1 reference for `seed`. If
    the golden table has no entry for `seed`, its anchor seed is run once
    more, off the clock, and that output is compared instead.
    """
    table = checker.load_golden()[workload]
    if str(seed) not in table:
        seed = int(next(iter(table)))
        directory = os.path.join(tmp, "anchor")
        os.makedirs(directory)
        inputs, out_dir, one = _runner(workload, seed, directory)
        one(1, False)
        expected = checker.Expected.of(workloads.WORKLOADS[workload], inputs["frames"])
        found = checker.fingerprint(out_dir, expected)
        shutil.rmtree(directory, ignore_errors=True)
    return [f"golden seed {seed}: {p}" for p in checker.against_golden(found, table[str(seed)])]


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    inputs, out_dir, one = _runner(workload, seed, tmp)
    expected = checker.Expected.of(workloads.WORKLOADS[workload], inputs["frames"])

    ref_result, _ = one(1, False)
    reference = checker.digests(out_dir)
    _, problems = checker.check(out_dir, expected, ref_result["summary"], reference)
    anchored = golden_problems(workload, seed, checker.fingerprint(out_dir, expected), tmp)

    runs = {False: [], True: []}
    attempted = failed = 0
    kinds = (False, True) if trace else (False,)
    spent = 0.0
    while spent < seconds or any(len(runs[k]) < MIN_RUNS for k in kinds):
        traced = kinds[sum(len(r) for r in runs.values()) % len(kinds)]
        result, elapsed = one(None, traced)
        spent += elapsed
        n_failed, found = checker.check(out_dir, expected, result["summary"], reference)
        attempted += result["frames"]
        failed += n_failed
        problems += found
        runs[traced].append(result)
        if traced:
            os.makedirs(WORK_DIR, exist_ok=True)
            shutil.copyfile(os.path.join(tmp, "spans.jsonl"),
                            os.path.join(WORK_DIR, f"trace-{workload}.jsonl"))
    shutil.rmtree(out_dir, ignore_errors=True)
    if anchored:
        # The program no longer computes what the benchmark's commit did,
        # so no measured frame can be trusted.
        failed = attempted
        problems = anchored + problems
    return {"runs": runs, "attempted": attempted, "failed": failed, "problems": problems,
            "seconds": spent}


def end_to_end(runs: list[dict]) -> tuple[dict, dict]:
    """(metric values, report) from untraced runs."""
    samples = {name: [] for name in END_TO_END if name != "window_latency_ms_p50"}
    latencies: list[float] = []
    for result in runs:
        for name, value in _e2e(result).items():
            samples[name].append(value)
        latencies += result["latency_ms"]
    report = {name: _stats(values) for name, values in samples.items()}
    report["window_latency_ms_p50"] = _stats(latencies)
    if len(latencies) >= LATENCY_P95_MIN_SAMPLES:
        report["window_latency_ms_p95"] = {
            "value": statistics.quantiles(latencies, n=20)[-1], "n": len(latencies)}
    else:
        report["window_latency_ms_p95"] = {
            "unmeasured": f"{len(latencies)} window samples, fewer than "
                          f"{LATENCY_P95_MIN_SAMPLES}"}
    values = {name: report[name]["median"] for name in END_TO_END}
    return values, report


def per_layer(runs: dict) -> tuple[dict, dict]:
    """(metric values, report) from a traced run; unmeasured values are reason strings."""
    traced, plain = runs[True], runs[False]
    layers = {name: [r["layers"][name] for r in traced] for name in spans.LAYER_METRICS}
    report, values = {}, {}
    for name, vals in layers.items():
        reasons = [v for v in vals if isinstance(v, str)]
        if reasons:
            report[name] = {"unmeasured": reasons[0]}
            values[name] = reasons[0]
        else:
            report[name] = _stats(vals)
            values[name] = report[name]["median"]
    derived = {
        "process.cpu_s": [r["cpu_s"] for r in plain],
        "process.minflt_per_frame": [r["minflt"] / r["frames"] for r in plain],
    }
    for name, vals in derived.items():
        report[name] = _stats(vals)
        values[name] = report[name]["median"]
    fps_traced = statistics.median(_e2e(r)["frames_per_s"] for r in traced)
    fps_plain = statistics.median(_e2e(r)["frames_per_s"] for r in plain)
    values["trace.overhead_ratio"] = fps_traced / fps_plain
    report["trace.overhead_ratio"] = {"value": values["trace.overhead_ratio"],
                                      "traced_frames_per_s": fps_traced,
                                      "untraced_frames_per_s": fps_plain}
    return values, report


def layer_units() -> dict:
    """Unit of every per-layer metric of the result line."""
    units = {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()
             if name not in REPORT_ONLY}
    units.update({"process.cpu_s": "s", "process.minflt_per_frame": "count",
                  "trace.overhead_ratio": "ratio"})
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so the worker is killed and waited
    # for, and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "ego_focus", "pipeline.py")):
        print(f"error: no ego_focus package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        done = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        values, report = per_layer(done["runs"])
        units = layer_units()
    else:
        values, report = end_to_end(done["runs"][False])
        units = END_TO_END
    metrics = {}
    for name, unit in units.items():
        value = values[name]
        if isinstance(value, str):
            # Only a hook the package no longer has gets here on a workload
            # of BENCHMARK.json. The marked 0 is not a measurement, so
            # HOOKS has to follow the rename before this line is a result.
            metrics[name] = {"value": 0, "unit": unit, "unmeasured": value}
        else:
            metrics[name] = {"value": float(value), "unit": unit}
    error_rate = done["failed"] / done["attempted"]
    print(json.dumps({"report": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "processes": {"untraced": len(done["runs"][False]), "traced": len(done["runs"][True])},
        "measured_s": done["seconds"], "error_rate": error_rate,
        "problems": done["problems"][:10], "metrics": report}}))
    print(json.dumps({"correct": done["failed"] == 0 and not done["problems"],
                      "attempted": done["attempted"], "failed": done["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
