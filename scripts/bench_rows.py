"""In-process throughput rows, one JSON line each, best of REPEATS (default 3).

Usage: PYTHONPATH=src python3 scripts/bench_rows.py [REPEATS]

jsonl_write (write_pose_stream), jsonl_load_records (load_pose_stream + to_pose) and
jsonl_load_batches (load_pose_batches, the `run` loader; null where the tree lacks it) run on a
20,000-pose arc stream with truth; run_1080p times a whole `ego-focus run` at 1920x1080, fx=30, one
thread, of 200 frames of dense_1080p's white-noise arc: of its 198 maps 156 are files of their own,
the other 42 links to the previous frame's; src_lines is wc -l of the imported ego_focus/*.py.
"""

import contextlib, io, json, os, sys, tempfile, time  # noqa: E401
from pathlib import Path

from ego_focus import cli, simulate, streams
from ego_focus.geometry import Intrinsics


def best_rate(count, fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return count / min(times)


def main(repeats=3):
    with tempfile.TemporaryDirectory() as tmp:
        poses_path, k_path = os.path.join(tmp, "poses.jsonl"), os.path.join(tmp, "k.json")
        poses, truth = simulate.generate_trajectory(simulate.ScenarioSpec(kind="arc", frames=20000))
        rows = [("jsonl_write", best_rate(len(poses), lambda: streams.write_pose_stream(
            poses_path, streams.records_from_poses(poses, truth)), repeats))]
        rows.append(("jsonl_load_records", best_rate(len(poses), lambda: [
            r.to_pose() for r in streams.load_pose_stream(poses_path)], repeats)))
        batches = getattr(streams, "load_pose_batches", None)
        rows.append(("jsonl_load_batches", batches and best_rate(
            len(poses), lambda: sum(len(b) for b in batches(poses_path)), repeats)))
        arc, _ = simulate.generate_trajectory(simulate.ScenarioSpec(
            kind="circular_arc", frames=200, radius=2.0, omega=0.05, bob_amplitude=0.01,
            jitter_amplitude_rad=0.004, noise_kind="white"))
        streams.write_pose_stream(poses_path, streams.records_from_poses(arc))
        streams.write_intrinsics(Intrinsics(30.0, 30.0, 960.0, 540.0, 1920, 1080), k_path)
        args = ["run", "--poses", poses_path, "--intrinsics", k_path, "--threads", "1",
                "--out-dir", os.path.join(tmp, "maps")]
        with contextlib.redirect_stdout(io.StringIO()):  # 198 maps: two frames make none
            rows.append(("run_1080p", best_rate(len(arc) - 2, lambda: cli.main(args) == 0
                                                or sys.exit("ego-focus run failed"), repeats)))
    rows.append(("src_lines", sum(p.read_bytes().count(b"\n")
                                  for p in Path(streams.__file__).parent.glob("*.py"))))
    for name, value in rows:
        print(json.dumps({"row": name, "value": value, "unit": {
            "run_1080p": "maps/s", "src_lines": "lines"}.get(name, "poses/s")}))


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
