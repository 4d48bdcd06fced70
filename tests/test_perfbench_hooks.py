"""The benchmark's per-layer hooks resolve on the package.

perfbench/spans.py wraps package attributes named in its HOOKS table; a
hook whose attribute is gone is skipped, and the layer metrics that
depend on it read "unmeasured". The table is loaded read-only from its
file and every entry is looked up the way spans.install looks it up.
"""

import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def hooks():
    # compiled from the source text, so no bytecode cache is written there
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), namespace)
    return namespace["HOOKS"]


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
