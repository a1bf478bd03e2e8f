"""The repository's scripts run end to end."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_ops_compares_a_checkout_with_itself():
    """Both trees load side by side under their own names, build the
    workload, answer alike and report both sums."""
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab_ops.py"), str(ROOT),
                           str(ROOT), "cohomology", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("cohomology: ") and lines[0].endswith(" operations, 1 rounds, "
                                                                       "process CPU time")
    assert [line.split(":")[0] for line in lines[1:]] == ["solve_s", "top_s"]
