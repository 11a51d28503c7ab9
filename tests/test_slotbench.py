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


def test_expiry_relabel_tamper_changes_the_cause():
    # the selftest's "greedy rejection cause" case must reach the digest as a
    # relabelled expiry, not as a greedy run that failed inside the tamper
    code = """
import sys
sys.path[:0] = ["slotbench", "src"]
from selftest import _relabel_expiry
from slotq.model import Packet, validate_trace
from slotq.schedulers import run_naive_greedy
real = run_naive_greedy(validate_trace(2, [Packet(0, 1, 1, 5), Packet(1, 1, 1, 3)]))
tampered = _relabel_expiry(real)
print([(r.packet_id, r.cause) for rec in real.steps for r in rec.rejections])
print([(r.packet_id, r.cause) for rec in tampered.steps for r in rec.rejections])
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[(1, 'expired')]",
        "[(1, 'preempted')]",
    ]
