"""Write golden.json: each workload's output fingerprint at the anchor seed.

    python3 perfbench/make_golden.py

Run from the repository root. The table anchors the checker to the
output of the commit that ran this script, so rerun it only when a
change to that output is intended and has been checked by other means.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import checker
import run
import workloads

ANCHOR_SEED = 0


def main() -> int:
    sys.path.insert(0, run.SRC)
    os.makedirs(run.WORK_DIR, exist_ok=True)
    table = {}
    for name, wl in workloads.WORKLOADS.items():
        tmp = tempfile.mkdtemp(prefix="golden-", dir=run.WORK_DIR)
        try:
            inputs, out_dir, one = run._runner(name, ANCHOR_SEED, tmp)
            result, _ = one(1, False)
            expected = checker.Expected.of(wl, inputs["frames"])
            failed, problems = checker.check(out_dir, expected, result["summary"],
                                             checker.digests(out_dir))
            if failed or problems:
                print(f"error: {name}: {problems[:3]}", file=sys.stderr)
                return 1
            table[name] = {str(ANCHOR_SEED): checker.fingerprint(out_dir, expected)}
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    with open(checker.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
