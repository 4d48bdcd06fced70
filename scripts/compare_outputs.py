"""Compare what two source trees write for the same inputs.

Usage: python3 scripts/compare_outputs.py TREE_A TREE_B [SEED ...] (default 0 5) | --dirs A B
Runs each seed's long_stream and batched_stitch inputs (perfbench/workloads.py) through both trees'
src/ (or takes two output trees) and prints if the summary counters match, the maps, CSV rows and
other files that differ, and the largest differences, maps against golden's max(8, 0.1%)."""
import json, os, subprocess, sys, tempfile  # noqa: E401
import numpy as np

RUN = """import json, pickle, sys
from ego_focus import pipeline as p, streams as s
job, out = json.loads(sys.argv[1]), sys.argv[2]
run, poses = ((p.run_stream_batches, pickle.load(open(job["poses_path"], "rb"))) if job["batched"]
              else (p.run_stream, s.load_pose_batches(job["poses_path"])))
k, cfg = s.load_intrinsics(job["intrinsics_path"]), p.RunConfig(**job["run_config"])
print(run(poses, k, cfg, out, out + "/residuals.csv").lines()[:9])  # counters only"""


def _rows(data):  # CSV values after the header; "np.float64(x)" reads as x
    return [[float(f) if f else None for f in row.split(",")] for row in data.decode().replace(
        "np.float64(", "").replace(")", "").splitlines()[1:]]


def compare(dir_a, dir_b):
    a, b = ({os.path.relpath(os.path.join(d, n), root): os.path.join(d, n)
             for d, _, names in os.walk(root) for n in names} for root in (dir_a, dir_b))
    maps, other = [], sorted(set(a) ^ set(b))
    for name in sorted(set(a) & set(b)):
        x, y = open(a[name], "rb").read(), open(b[name], "rb").read()
        if name.endswith(".csv"):
            rows = list(zip(_rows(x), _rows(y)))
            d = [(abs(u - v), abs(u - v) / max(abs(u), abs(v))) if None not in (u, v)
                 else (np.inf, np.inf) for p, q in rows for u, v in zip(p, q) if u != v]
            print(f"  {name}: {sum(p != q for p, q in rows)} of {len(rows)} rows differ, max rel "
                  f"{max((r for _, r in d), default=0):.2e}, abs {max(d, default=(0,))[0]:.2e}")
        elif x != y and name.endswith(".pgm"):
            p, q = (np.frombuffer(z.split(b"\n", 3)[3], np.uint8).astype(int) for z in (x, y))
            maps.append((abs(p.sum() - q.sum()) / max(8, p.sum() / 1e3), np.abs(p - q).max()))
        elif x != y:
            other.append(name)
    print(f"  {len(maps)} maps differ, max (pixel-sum diff / tolerance, grey-level diff) "
          f"{[float(max(c)) for c in zip(*maps)] or [0, 0]}; other files: {other or 'none'}")


if __name__ == "__main__":
    argv = sys.argv[1:]
    if argv[0] == "--dirs":
        sys.exit(compare(*argv[1:3]))
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path[:0] = [f"{argv[0]}/src", os.path.join(os.path.dirname(__file__), "../perfbench")]
    import workloads
    for name, seed in [(w, s) for w in ("long_stream", "batched_stitch") for s in argv[2:] or "05"]:
        with tempfile.TemporaryDirectory() as tmp:
            job = json.dumps(workloads.generate(name, int(seed), tmp))
            counters = {subprocess.run([sys.executable, "-c", RUN, job, f"{tmp}/out{i}"], text=True,
                                       check=True, capture_output=True,
                                       env=dict(os.environ, PYTHONPATH=f"{tree}/src")).stdout
                        for i, tree in enumerate(argv[:2])}
            print(f"{name} seed {seed}: counters {'equal' if len(counters) == 1 else counters}")
            compare(f"{tmp}/out0", f"{tmp}/out1")
