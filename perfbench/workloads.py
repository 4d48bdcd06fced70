"""Workload definitions and their seeded input generators.

Every workload is closed-loop: one process calls the pipeline and the
next input is pulled only when the pipeline asks for it. Inputs are
built with `ego_focus.simulate` before any clock starts; the program
under test receives only the generated files.
"""

from __future__ import annotations

import os
import pickle

# Each workload's parameters. `frames` is the input size of one timed
# process; a run launches as many such processes as fit in --seconds.
# dense_1080p is not in BENCHMARK.json: on a shared 2-core machine its
# run-to-run spread exceeded the largest allowed bound (see README.md).
WORKLOADS = {
    "dense_1080p": {
        "why": "render + encode at full 1080p with (almost) every map non-zero; single-thread baseline",
        "input": "flat",
        "scenario": {"kind": "circular_arc", "radius": 2.0, "omega": 0.05,
                     "bob_amplitude": 0.01, "jitter_amplitude_rad": 0.004,
                     "noise_kind": "white"},
        "frames": 120,
        "intrinsics": {"fx": 30.0, "fy": 30.0, "cx": 960.0, "cy": 540.0,
                       "width": 1920, "height": 1080},
        "run": {"window_size": 60, "overlap": 5, "map_scale": 1, "threads": 1},
        "residuals": False,
    },
    "long_stream": {
        "why": "long flat stream of tiny 80x60 maps: parse, per-file write and per-map fixed cost dominate",
        "input": "flat",
        "scenario": {"kind": "circular_arc", "radius": 50.0, "omega": 0.01,
                     "bob_amplitude": 0.002, "jitter_amplitude_rad": 0.001,
                     "noise_kind": "white"},
        "frames": 1500,
        "intrinsics": {"fx": 40.0, "fy": 40.0, "cx": 320.0, "cy": 240.0,
                       "width": 640, "height": 480},
        "run": {"window_size": 60, "overlap": 5, "map_scale": 8, "threads": 1},
        "residuals": True,
    },
    "batched_stitch": {
        "why": "per-batch local frames with wide overlap: real stitch corrections, zero maps, 2-thread render pool",
        "input": "batched",
        "scenario": {"kind": "head_yaw_divergence", "radius": 2.0, "omega": 0.05,
                     "head_yaw_amplitude": 1.4, "head_yaw_frequency": 0.01,
                     "bob_amplitude": 0.003, "jitter_amplitude_rad": 0.002,
                     "noise_kind": "bob"},
        "frames": 750,
        "intrinsics": {"fx": 960.0, "fy": 960.0, "cx": 960.0, "cy": 540.0,
                       "width": 1920, "height": 1080},
        "run": {"window_size": 8, "overlap": 6, "map_scale": 4, "threads": 2,
                "scale_correction": True},
        "residuals": True,
        "perturb": {"yaw_range": 0.3, "translation_range": 0.5,
                    "pitch_range": 0.02, "roll_range": 0.02},
    },
}


def generate(name: str, seed: int, directory: str) -> dict:
    """Write the workload's inputs for `seed` under `directory`.

    Returns what a worker process needs to run them: the input size, the
    paths of the intrinsics and of the poses (JSONL for flat input, a
    pickled window list for batched input), the run configuration and
    whether the residuals CSV is written.
    """
    from ego_focus import simulate, streams
    from ego_focus.geometry import Intrinsics
    from ego_focus.pipeline import iter_windows

    wl = WORKLOADS[name]
    spec = simulate.ScenarioSpec(frames=wl["frames"], seed=seed, **wl["scenario"])
    intrinsics_path = os.path.join(directory, "intrinsics.json")
    streams.write_intrinsics(Intrinsics(**wl["intrinsics"]), intrinsics_path)
    run = wl["run"]
    if wl["input"] == "flat":
        poses_path = os.path.join(directory, "poses.jsonl")

        def _records():
            for poses, truth in simulate.iter_trajectory(spec):
                yield from streams.records_from_poses(poses, truth)

        streams.write_pose_stream(poses_path, _records())
    else:
        poses, _ = simulate.generate_trajectory(spec)
        clean = list(iter_windows(poses, run["window_size"], run["overlap"]))
        batches, _ = simulate.perturb_batches(clean, seed=seed, **wl["perturb"])
        poses_path = os.path.join(directory, "windows.pickle")
        with open(poses_path, "wb") as fh:
            pickle.dump(batches, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return {"frames": wl["frames"], "intrinsics_path": intrinsics_path,
            "poses_path": poses_path, "batched": wl["input"] == "batched",
            "run_config": dict(run), "residuals": wl["residuals"]}
