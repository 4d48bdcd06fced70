"""In-process throughput rows, one JSON line each, best of REPEATS (default 3).

Usage: python3 scripts/bench_rows.py [REPEATS]
Imports ego_focus from the checkout's src/, ahead of any installed copy, as perfbench/run.py does.

jsonl_write (write_pose_stream of the whole batch as one record), jsonl_load_records
(load_pose_stream + to_pose) and jsonl_load_batches (load_pose_batches, the `run` loader; null
where the tree lacks it) run on a 20,000-pose arc stream with truth; run_1080p times a whole
`ego-focus run` at 1920x1080, fx=30, one thread, of 200 frames of dense_1080p's white-noise arc: of
its 198 maps 156 are files of their own, the other 42 links to the previous frame's;
pipe_latency_ms feeds a 200-frame arc line by line through os.pipe to run_stream(load_pose_batches)
with a 60/5 plan, one thread and long_stream's 80x60 maps, and is the largest wait, over windows 0
to 2, from a window's last line to its last map (null if one takes over 1 s; one pass);
src_lines is wc -l of the imported ego_focus/*.py.
"""

import contextlib, io, json, os, sys, tempfile, threading, time  # noqa: E401
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
from ego_focus import cli, pipeline, simulate, streams  # noqa: E402
from ego_focus.geometry import Intrinsics  # noqa: E402


def best_rate(count, fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return count / min(times)


def pipe_latency_ms(out_dir, k):
    poses, _ = simulate.generate_trajectory(simulate.ScenarioSpec(kind="arc", frames=200))
    text = io.StringIO()
    streams.write_pose_stream(text, streams.records_from_poses(poses))
    lines, waits = text.getvalue().splitlines(keepends=True), []
    read_fd, write_fd = os.pipe()

    def feed():
        with os.fdopen(write_fd, "w") as fh:
            sent = 0
            for last in (59, 114, 169):  # the last frames of windows 0 to 2 (stride 55)
                fh.write("".join(lines[sent:last + 1]))
                fh.flush()
                sent, t0 = last + 1, time.perf_counter()
                path = os.path.join(out_dir, streams.focus_map_name(last))
                while not os.path.exists(path) and time.perf_counter() - t0 <= 1.0:
                    time.sleep(0.0005)
                waits.append(1e3 * (time.perf_counter() - t0) if os.path.exists(path) else None)
            fh.write("".join(lines[sent:]))

    writer = threading.Thread(target=feed)
    writer.start()
    with os.fdopen(read_fd) as fh:
        pipeline.run_stream(streams.load_pose_batches(fh), k, pipeline.RunConfig(
            window_size=60, overlap=5, map_scale=8, threads=1), out_dir)
    writer.join()
    return None if None in waits else max(waits)


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
        rows.append(("pipe_latency_ms", pipe_latency_ms(
            os.path.join(tmp, "pipe"), Intrinsics(40.0, 40.0, 320.0, 240.0, 640, 480))))
    rows.append(("src_lines", sum(p.read_bytes().count(b"\n")
                                  for p in Path(streams.__file__).parent.glob("*.py"))))
    for name, value in rows:
        print(json.dumps({"row": name, "value": value, "unit": {
            "run_1080p": "maps/s", "pipe_latency_ms": "ms",
            "src_lines": "lines"}.get(name, "poses/s")}))


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
