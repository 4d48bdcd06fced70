"""Compare what two source trees write for the same inputs.

Usage: python3 scripts/compare_outputs.py [--emit-float-maps] [--depth] TREE_A TREE_B [SEED ...]
                                          (default seeds 0 5)
       python3 scripts/compare_outputs.py --dirs A B
Builds each seed's long_stream and batched_stitch inputs (perfbench/workloads.py) with each tree's
own src/ and runs them through that tree (or takes two output trees). Prints the input files that
differ (or that all are identical), if the summary counters match, each tree's count of map files,
of distinct inodes among them (links share one) and of files with the previous frame's bytes (same
kind) that are not a link to its file, the maps, CSV rows, float32 .mfm/.mfd sidecars and other
files that differ, and the largest differences, maps against golden's max(8, 0.1%); a sidecar whose
header differs counts as another file. --emit-float-maps adds the .mfm sidecars;
--depth writes one deterministic depth_NNNNNN.mfd per frame at map size as an input and passes
their directory, so every frame renders and also writes a depth output. Flags lead."""
import os, re, subprocess, sys, tempfile  # noqa: E401
import numpy as np

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")
RUN = """import os, pickle, sys
import numpy as np, workloads
from ego_focus import pipeline as p, streams as s
name, seed, flags, tmp = sys.argv[1], int(sys.argv[2]), sys.argv[3:-1], sys.argv[-1]
os.makedirs(tmp + "/in")
job = workloads.generate(name, seed, tmp + "/in")
cfg = p.RunConfig(**dict(job["run_config"], emit_float_maps="--emit-float-maps" in flags))
k, depth_dir = s.load_intrinsics(job["intrinsics_path"]), None
if "--depth" in flags:
    depth_dir, m = tmp + "/in/depth", k.scaled(cfg.map_scale)
    os.mkdir(depth_dir)
    ramp = np.linspace(1.0, 2.0, m.width * m.height).reshape(m.height, m.width)
    for frame in range(job["frames"]):
        s.write_depth_map(ramp * (1 + frame % 11), f"{depth_dir}/{s.depth_input_name(frame)}")
run, poses = ((p.run_stream_batches, pickle.load(open(job["poses_path"], "rb"))) if job["batched"]
              else (p.run_stream, s.load_pose_batches(job["poses_path"])))
summary = run(poses, k, cfg, tmp + "/out", tmp + "/out/residuals.csv", depth_dir)
print(summary.lines()[:9])  # counters"""


def _files(root):  # relative name -> path of every file under root
    return {os.path.relpath(os.path.join(d, n), root): os.path.join(d, n)
            for d, _, names in os.walk(root) for n in names}


def _rows(data):  # CSV values after the header; "np.float64(x)" reads as x
    return [[float(f) if f else None for f in row.split(",")] for row in data.decode().replace(
        "np.float64(", "").replace(")", "").splitlines()[1:]]


def _sidecar_diff(x, y):  # (abs, rel) of the float32 payloads' largest difference
    p, q = (np.frombuffer(z, "<f4", offset=16).astype(float) for z in (x, y))
    differ = (p != q) & ~(np.isnan(p) & np.isnan(q))
    d, scale = np.abs(p - q)[differ], np.maximum(np.abs(p), np.abs(q))[differ]
    return np.nan_to_num((d.max(), (d / scale).max()), nan=np.inf)  # NaN on one side: inf


def compare(dir_a, dir_b):
    a, b = _files(dir_a), _files(dir_b)
    maps, other, sidecars = [], sorted(set(a) ^ set(b)), {}
    for tree, files in zip("AB", (a, b)):  # hard links share an inode
        # (kind, path) in order: each file follows the previous frame's file of its kind
        outputs = sorted((re.sub(r"\d{6}", "", n), p) for n, p in files.items()
                         if not n.endswith(".csv"))
        copies = sum(k == j and os.stat(p).st_ino != os.stat(q).st_ino
                     and open(p, "rb").read() == open(q, "rb").read()
                     for (j, q), (k, p) in zip(outputs, outputs[1:]))
        print(f"  {tree}: {len(outputs)} map files, {len({os.stat(p).st_ino for _, p in outputs})} "
              f"inodes, {copies} with the previous frame's bytes in an inode of their own")
    for name in sorted(set(a) & set(b)):
        x, y = open(a[name], "rb").read(), open(b[name], "rb").read()
        if name.endswith(".csv"):
            rows = list(zip(_rows(x), _rows(y)))
            d = [(abs(u - v), abs(u - v) / max(abs(u), abs(v))) if None not in (u, v)
                 else (np.inf, np.inf) for p, q in rows for u, v in zip(p, q) if u != v]
            print(f"  {name}: {sum(p != q for p, q in rows)} of {len(rows)} rows differ, max rel "
                  f"{max((r for _, r in d), default=0):.2e}, abs {max(d, default=(0,))[0]:.2e}")
        elif name.endswith((".mfm", ".mfd")) and x[:16] == y[:16] and len(x) == len(y):
            kind = sidecars.setdefault(name[-4:], [0, []])  # files, (name, abs, rel) if differing
            kind[0] += 1
            if x != y:
                kind[1].append((name, *_sidecar_diff(x, y)))
        elif x != y and name.endswith(".pgm"):
            p, q = (np.frombuffer(z.split(b"\n", 3)[3], np.uint8).astype(int) for z in (x, y))
            maps.append((abs(p.sum() - q.sum()) / max(8, p.sum() / 1e3), np.abs(p - q).max()))
        elif x != y:
            other.append(name)
    for ext, (count, differ) in sorted(sidecars.items()):
        first = f" (first {differ[0][0]})" if differ else ""
        print(f"  {ext} sidecars: {len(differ)} of {count} differ{first}, max rel "
              f"{max((r for *_, r in differ), default=0):.2e}, "
              f"abs {max((d for _, d, _ in differ), default=0):.2e}")
    print(f"  {len(maps)} maps differ, max (pixel-sum diff / tolerance, grey-level diff) "
          f"{[float(max(c)) for c in zip(*maps)] or [0, 0]}; other files: {other or 'none'}")


if __name__ == "__main__":
    argv, flags = sys.argv[1:], set()
    while argv[:1] in (["--emit-float-maps"], ["--depth"]):
        flags.add(argv.pop(0))
    if len(argv) < 2 + (argv[:1] == ["--dirs"]):  # two trees, or --dirs and two directories
        print(__doc__[__doc__.index("Usage"):__doc__.index("\nBuilds")], file=sys.stderr)
        sys.exit(2)
    if argv[0] == "--dirs":
        sys.exit(compare(*argv[1:3]))
    for name, seed in [(w, s) for w in ("long_stream", "batched_stitch") for s in argv[2:] or "05"]:
        with tempfile.TemporaryDirectory() as tmp:
            # each tree builds its own inputs; no bytecode, so perfbench/ is left as it is
            counters = {subprocess.run([sys.executable, "-c", RUN, name, seed, *sorted(flags),
                                        f"{tmp}/{i}"], text=True, check=True, capture_output=True,
                                       env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                                                PYTHONPATH=f"{tree}/src{os.pathsep}{PERFBENCH}")
                                       ).stdout for i, tree in enumerate(argv[:2])}
            a, b = _files(f"{tmp}/0/in"), _files(f"{tmp}/1/in")
            differ = sorted(n for n in a.keys() | b.keys() if n not in a or n not in b
                            or open(a[n], "rb").read() != open(b[n], "rb").read())
            print(f"{name} seed {seed}: inputs {differ or f'identical ({len(a)} files)'}, "
                  f"counters {'equal' if len(counters) == 1 else counters}")
            compare(f"{tmp}/0/out", f"{tmp}/1/out")
