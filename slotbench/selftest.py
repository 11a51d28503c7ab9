"""Self-test of the benchmark harness on tiny pools.

    python3 slotbench/selftest.py

Run from the root of a source checkout; exits 0 when every check passes.
Checks that a tiny run of each workload completes untraced and traced, that
a fixed seed gives the same digest twice and another seed a different one,
and that tampered outputs are reported as failed traces.
"""

import sys
from dataclasses import replace

import run

TINY = {
    "acceptance-box": dict(pool=40, warmup=2),
    "bulk-stream": dict(pool=4, warmup=1, n=60, horizon=12, buffers=(16, 24)),
    "sparse-horizon": dict(pool=2, warmup=1, n=6, horizon=3_000, max_span=500),
}


def tiny(name: str):
    from workloads import WORKLOADS

    return replace(WORKLOADS[name], **TINY[name])


def one_pass(workload, seed: int, traced: bool = False, reference=None):
    texts = run.setup(workload, seed, None)
    return run.measure(workload, texts, seed, 0, traced, reference)


def check_runs_complete(failures: list[str]) -> None:
    from pipeline import LAYER_FUNCTIONS, Spans

    for name in TINY:
        workload = tiny(name)
        out = one_pass(workload, 1)
        if out.attempted != workload.pool:
            failures.append(f"{name}: {out.attempted} runs, expected one pass of {workload.pool}")
        if name != "sparse-horizon" and out.failed:
            failures.append(f"{name}: {out.failed} failed traces: {out.examples}")
        if any(layer not in LAYER_FUNCTIONS for layer, _ in out.layer_errors):
            failures.append(f"{name}: failure outside a named layer: {out.layer_errors}")
        values, _ = run.end_to_end(out, 0.1)
        if values["traces_per_s"] <= 0 and not out.failed:
            failures.append(f"{name}: no throughput measured")

        out = one_pass(workload, 1, traced=True)
        setup_spans = Spans()
        run.setup(workload, 1, setup_spans)
        metrics = run.per_layer(workload, out, setup_spans)
        if metrics["traceio.parse_trace.calls"][0] != workload.pool:
            failures.append(f"{name}: traced pass made {metrics['traceio.parse_trace.calls'][0]} parses")
        if metrics["schedulers.run_grq.self_s"][0] <= 0:
            failures.append(f"{name}: no run_grq span time")


def check_digests(failures: list[str]) -> None:
    from pipeline import combine

    for name in ("acceptance-box", "bulk-stream"):
        workload = tiny(name)
        first = combine(one_pass(workload, 1).digests)
        again = combine(one_pass(workload, 1).digests)
        other = combine(one_pass(workload, 2).digests)
        if first != again:
            failures.append(f"{name}: seed 1 gave digests {first} and {again}")
        if first == other:
            failures.append(f"{name}: seeds 1 and 2 gave the same digest {first}")


def _relabel_expiry(transcript):
    """The greedy transcript with its first expiry recorded as a preemption."""
    from slotq.model import EXPIRED, PREEMPTED

    steps = list(transcript.steps)
    for t, rec in enumerate(steps):
        for j, rej in enumerate(rec.rejections):
            if rej.cause == EXPIRED:
                rejections = list(rec.rejections)
                rejections[j] = replace(rej, cause=PREEMPTED)
                steps[t] = replace(rec, rejections=tuple(rejections))
                return replace(transcript, steps=tuple(steps))
    return transcript


def check_tampering(failures: list[str]) -> None:
    from slotq import oracle, schedulers

    workload = tiny("acceptance-box")
    reference = one_pass(workload, 1).digests

    cases = {
        # seen only by the digest: no verifier reads the rejection cause
        "greedy rejection cause": (
            schedulers, "run_naive_greedy",
            lambda real: lambda trace: _relabel_expiry(real(trace)),
        ),
        # seen by verify_schedule: the declared value no longer matches
        "unbounded optimum value": (
            oracle, "optimal_unbounded",
            lambda real: lambda trace: replace(real(trace), value=real(trace).value + 1),
        ),
    }
    for what, (module, attr, wrap) in cases.items():
        real = getattr(module, attr)
        setattr(module, attr, wrap(real))
        try:
            out = one_pass(workload, 1, reference=reference)
        finally:
            setattr(module, attr, real)
        if not out.failed or not out.wrong:
            failures.append(f"tampered {what}: {out.failed} failed, {out.wrong} wrong traces")


def main() -> int:
    run.import_program()
    failures: list[str] = []
    for check in (check_runs_complete, check_digests, check_tampering):
        check(failures)
        print(f"{check.__name__}: {'ok' if not failures else 'FAILED'}")
        if failures:
            break
    for line in failures:
        print(f"  {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
