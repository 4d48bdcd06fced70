"""The benchmark's calls into the package resolve.

perfbench/spans.py wraps package attributes named in its HOOKS table; a
hook whose attribute is gone is skipped, and the layer metrics that
depend on it read "unmeasured". perfbench/workloads.py builds each
workload's inputs and configuration, and perfbench/worker.py runs them
through named package calls. Both tables are loaded read-only from their
files; every hook is looked up the way spans.install looks it up.
"""

import importlib
import inspect
from pathlib import Path

from ego_focus import pipeline, simulate, streams
from ego_focus.geometry import Intrinsics

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    # compiled from the source text, so no bytecode cache is written there
    path = PERFBENCH / name
    namespace = {"__name__": "perfbench_" + path.stem}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace


def hooks():
    return load("spans.py")["HOOKS"]


def test_every_hook_resolves():
    table = hooks()
    assert table
    for name, module_name, path, _ in table:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        # a method must be defined on the named class itself, not inherited
        found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert found is not None, f"hook {name}: {module_name}.{path} not found"


def test_every_workload_builds_its_configuration():
    workloads = load("workloads.py")["WORKLOADS"]
    assert workloads
    for name, wl in workloads.items():
        pipeline.RunConfig(**wl["run"])
        simulate.ScenarioSpec(frames=wl["frames"], seed=0, **wl["scenario"])
        Intrinsics(**wl["intrinsics"])
        if "perturb" in wl:
            inspect.signature(simulate.perturb_batches).bind([], seed=0, **wl["perturb"])


def test_worker_calls_resolve():
    # the calls worker.py makes, with the arguments it passes
    inspect.signature(streams.load_intrinsics).bind("k.json")
    inspect.signature(streams.load_pose_stream).bind("poses.jsonl")
    inspect.signature(streams.PoseStreamRecord.to_pose).bind(None)
    for call in (pipeline.run_stream, pipeline.run_stream_batches):
        inspect.signature(call).bind([], None, None, "out", residuals_path=None)
    summary = pipeline.RunSummary()
    for key in ("frames_in", "samples", "maps_written", "zero_maps", "boundaries"):
        assert hasattr(summary, key), key
