"""Smoke test of the benchmark harness against this checkout's sources.

slotbench/selftest.py runs every workload on tiny pools, untraced and traced,
through the same call sequence as the benchmark, and checks digests and the
failure accounting.  It writes no files.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_harness_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "slotbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
