"""Self-test of the benchmark's own checks, on the workloads' own inputs.

    python3 perfbench/selftest.py

Run from the repository root. It checks that:
- the threads = 1 reference at the anchor seed matches golden.json;
- a threads = 2 run and a traced run match the threads = 1 reference,
  so the checker passes correct output (error_rate = 0);
- one corrupted map, and one deleted map, give error_rate > 0, and an
  all-zero map in place of a non-zero one departs from golden.json;
- BENCHMARK.json names the metrics the result line gives, in the same
  units, and each workload's traced run measures every result-line layer
  metric with a non-zero number;
- a hook whose attribute is missing is reported as unmeasured with its
  reason while every other layer and the run itself still work, and
  uninstalling the hooks restores the package's attributes.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checker  # noqa: E402
import make_golden  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _run(inputs, out_dir: str, threads=None, trace=False) -> dict:
    shutil.rmtree(out_dir, ignore_errors=True)
    spec = {"src": run.SRC, "inputs": inputs, "out_dir": out_dir,
            "threads": threads, "trace": trace}
    return worker.run(spec, time.monotonic())


def main() -> int:
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    os.makedirs(run.WORK_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_DIR)
    try:
        out = os.path.join(tmp, "out")
        golden = checker.load_golden()
        seed = make_golden.ANCHOR_SEED
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.layer_units())):
            listed = {m["name"]: m["unit"] for m in manifest[key]}
            expect(listed == units, f"BENCHMARK.json {key} matches the result line")
        gated = [n for n in run.layer_units() if n in spans.LAYER_METRICS]
        for name in [w["name"] for w in manifest["workloads"]]:
            directory = os.path.join(tmp, name)
            os.makedirs(directory)
            inputs = workloads.generate(name, seed, directory)
            frames = inputs["frames"]
            expected = checker.Expected.of(workloads.WORKLOADS[name], frames)
            ref = _run(inputs, out, threads=1)
            reference = checker.digests(out)
            found = checker.fingerprint(out, expected)
            departures = checker.against_golden(found, golden[name][str(seed)])
            expect(not departures, f"{name}: reference matches golden.json ({departures[:2]})")
            for label, threads, trace in (("threads=2", 2, False), ("traced", None, True)):
                result = _run(inputs, out, threads=threads, trace=trace)
                failed, problems = checker.check(out, expected, result["summary"], reference)
                expect(failed == 0 and not problems,
                       f"{name} {label}: output matches the reference ({problems[:2]})")
            unmeasured = {n: result["layers"][n] for n in gated
                          if isinstance(result["layers"][n], str) or not result["layers"][n]}
            expect(not unmeasured, f"{name}: every result-line layer metric measured ({unmeasured})")
            target = os.path.join(out, checker.map_name(10))
            with open(target, "r+b") as fh:
                fh.seek(-1, os.SEEK_END)
                last = fh.read(1)
                fh.seek(-1, os.SEEK_END)
                fh.write(bytes([last[0] ^ 1]))
            failed, _ = checker.check(out, expected, result["summary"], reference)
            expect(failed / frames > 0, f"{name}: a corrupted map gives error_rate > 0")
            os.remove(target)
            failed, _ = checker.check(out, expected, result["summary"], reference)
            expect(failed / frames > 0, f"{name}: a deleted map gives error_rate > 0")
            nonzero = next(i for i, total in enumerate(found["map_sums"]) if total)
            found["map_sums"][nonzero] = 0
            expect(bool(checker.against_golden(found, golden[name][str(seed)])),
                   f"{name}: an all-zero map departs from golden.json")
            expect(ref["summary"]["maps_written"] == frames - 2, f"{name}: reference ran")

        from ego_focus import pipeline
        original = pipeline._render_arrays
        hooks = spans.HOOKS
        spans.HOOKS = tuple(
            (n, m, "_render_arrays_gone" if a == "_render_arrays" else a, c)
            for n, m, a, c in hooks)
        try:
            result = _run(inputs, out, trace=True)
        finally:
            spans.HOOKS = hooks
        layers = result["layers"]
        expect(isinstance(layers["motion.render.maps"], str)
               and "_render_arrays_gone" in layers["motion.render.maps"],
               f"missing hook reported: {layers['motion.render.maps']!r}")
        expect(isinstance(layers["streams.encode.bytes"], (int, float)),
               "other layers still measured with a hook missing")
        failed, problems = checker.check(out, expected, result["summary"], reference)
        expect(failed == 0, "output still correct with a hook missing")
        expect(pipeline._render_arrays is original, "uninstall restores the hooked attributes")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
