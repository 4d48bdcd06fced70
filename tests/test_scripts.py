import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts")


@pytest.mark.parametrize("args", [[], ["--dirs", "A"], ["--depth", "TREE_A"]])
def test_compare_outputs_usage_error(args):
    # Fewer than two trees or directories: the usage line on stderr, status 2.
    done = subprocess.run([sys.executable, os.path.join(SCRIPTS, "compare_outputs.py"), *args],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith("Usage: python3 scripts/compare_outputs.py ")
    assert "--dirs A B" in done.stderr and done.stdout == ""
