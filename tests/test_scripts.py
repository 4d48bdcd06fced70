import os
import re
import subprocess
import sys

import numpy as np
import pytest

from ego_focus.streams import FOCUS_MAP_MAGIC, raw_map_bytes

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts")


@pytest.mark.parametrize("args", [[], ["--dirs", "A"], ["--depth", "TREE_A"]])
def test_compare_outputs_usage_error(args):
    # Fewer than two trees or directories: the usage line on stderr, status 2.
    done = subprocess.run([sys.executable, os.path.join(SCRIPTS, "compare_outputs.py"), *args],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith("Usage: python3 scripts/compare_outputs.py ")
    assert "--dirs A B" in done.stderr and done.stdout == ""


def test_compare_outputs_sizes_a_sidecar_difference(tmp_path):
    # Two output trees whose only difference is one float32 ulp in one .mfm
    # sidecar: the sidecar is counted and sized like a CSV row, not listed
    # among the other files. A sidecar whose header differs still is.
    values = np.ones((3, 4), dtype="<f4")
    for tree in "AB":
        for frame in range(3):
            (tmp_path / tree).mkdir(exist_ok=True)
            (tmp_path / tree / f"focus_{frame:06d}.mfm").write_bytes(
                raw_map_bytes(values * (frame + 1) / 3, FOCUS_MAP_MAGIC))
    payload = values.copy()
    payload[1, 2] = np.nextafter(payload[1, 2], np.float32(2))
    (tmp_path / "B" / "focus_000002.mfm").write_bytes(raw_map_bytes(payload, FOCUS_MAP_MAGIC))

    def compare():
        return subprocess.run([sys.executable, os.path.join(SCRIPTS, "compare_outputs.py"),
                               "--dirs", str(tmp_path / "A"), str(tmp_path / "B")],
                              capture_output=True, text=True, timeout=60, check=True).stdout

    found = re.search(r"\.mfm sidecars: 1 of 3 differ \(first focus_000002\.mfm\), "
                      r"max rel (\S+), abs (\S+)\n", compare())
    assert found and 0 < float(found[1]) <= 1.2e-7 and 0 < float(found[2]) <= 1.2e-7
    assert compare().endswith("other files: none\n")
    (tmp_path / "B" / "focus_000001.mfm").write_bytes(raw_map_bytes(values.T, FOCUS_MAP_MAGIC))
    assert "1 of 2 differ" in compare()
    assert compare().endswith("other files: ['focus_000001.mfm']\n")
