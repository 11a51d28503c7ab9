"""Smoke test of the benchmark harness against this checkout's sources.

slotbench/selftest.py runs every workload on tiny pools, untraced and traced,
through the same call sequence as the benchmark, and checks digests and the
failure accounting.  It writes no files.  The gated workloads' default-seed
pools also run once in-process here, and each trace's output digest must
equal the one recorded in slotbench/reference.json, so a changed transcript,
value or verdict fails the tests and not only the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from slotq.generate import gen_random
from slotq.traceio import emit_trace

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = json.loads((ROOT / "slotbench" / "reference.json").read_text())


@pytest.fixture(scope="module")
def slotbench_modules():
    """slotbench's pipeline and workloads modules, imported read-only."""
    sys.path.insert(0, str(ROOT / "slotbench"))
    try:
        import pipeline
        import workloads
    finally:
        sys.path.remove(str(ROOT / "slotbench"))
    return pipeline, workloads


@pytest.mark.parametrize("name", [k for k in REFERENCE if k != "seed"])
def test_default_seed_digests_match_reference(name, slotbench_modules):
    pipeline, workloads = slotbench_modules
    workload, reference = workloads.WORKLOADS[name], REFERENCE[name]
    digests = []
    for params in workload.params(REFERENCE["seed"]):
        run = pipeline.Run()
        pipeline.PIPELINES[workload.pipeline](run, emit_trace(gen_random(params)))
        assert not run.failed, (len(digests), run.errors, run.violations)
        digests.append(pipeline.digest(run))
    assert digests == reference["traces"]
    assert pipeline.combine(digests) == reference["digest"]


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
