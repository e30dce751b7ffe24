"""The benchmark's own test: ``python3 -m pytest perfbench``.

Runs ``run.py --smoke``: tiny panels through every workload, traced and
untraced, checking each declared metric and unit, and that a corrupted
predictions.csv is counted as a failed operation.
"""

import subprocess
import sys
from pathlib import Path


def test_smoke():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run(
        [sys.executable, str(run), "--smoke"],
        capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("smoke ok")
