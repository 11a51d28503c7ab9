"""slotq benchmark: seeded workloads, end-to-end metrics, and a traced per-layer run.

    python3 slotbench/run.py --workload acceptance-box --seed 1 --seconds 60 --trace 0
    python3 slotbench/run.py --workload all     # every workload, untraced then traced

Run from the root of a source checkout; the program is imported from `src/`.
One process per workload, one caller, closed loop: the next trace starts when
the previous one finishes, so nothing queues and no wait time is reported.  The pool of traces is generated from the seed,
emitted as qtrace text and run pass after pass, in a seeded order, for
`--seconds` (at least one whole pass).  Each trace's time is the fastest of
its passes: every pass repeats identical work, and on a shared host the
slower passes measure interference from other processes.  traces_per_s is
the share of runs that completed times the pool size over the sum of those
per-trace times; the wall-clock rate is printed beside it.

setup_s is the median time to import slotq plus the median time of one
set-up, which generates and emits the pool and warms up on it.  Both are
sampled SETUP_REPEATS times, spread evenly over the run and left out of its
timing, so a slow spell of the host moves at most a few samples: the first
import is the process's own, the others run in a fresh child interpreter.

--trace 0 prints the end-to-end metrics; --trace 1 runs every trace twice,
untraced and then with a span around every call, and prints the per-layer
metrics.  Per-layer times are seconds per pass over the pool.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  Spans and
a per-layer summary are written to `.slotbench_out/` in the checkout.

A trace fails when a stage raises, a verifier reports a violation, or its
output digest differs from the one of its first pass or, for the default
seed, from `reference.json`.  `correct` is false when any output was wrong;
exceptions count as failures but not as wrong outputs.
"""

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".slotbench_out"
REFERENCE = BENCH_DIR / "reference.json"
SPEC = ROOT / "BENCHMARK.json"   # names the metrics of the JSON result line
DEFAULT_SEED = 1
SETUP_REPEATS = 7   # set-up is sampled this often per run and its median reported
# the keys of workloads.WORKLOADS, listed here because that module imports slotq
WORKLOAD_NAMES = ("acceptance-box", "bulk-stream", "sparse-horizon")

END_TO_END_UNITS = {
    "traces_per_s": "traces/s",
    "trace_p50_ms": "ms",
    "trace_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program() -> float:
    """Put the checkout's src/ first on the path, import slotq, return the import time."""
    if not (SRC / "slotq" / "__init__.py").is_file():
        sys.exit(f"slotbench: no slotq sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import slotq
    import pipeline  # noqa: F401  (imports every slotq layer)
    import workloads  # noqa: F401
    if Path(slotq.__file__).resolve().parent != (SRC / "slotq").resolve():
        sys.exit(f"slotbench: imported slotq from {slotq.__file__}, not from {SRC}")
    return time.perf_counter() - t0


def child_import_time() -> float:
    """import_program() timed in a fresh interpreter, which is waited for."""
    code = (f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); "
            "import run; print(run.import_program())")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def setup(workload, seed: int, spans) -> list[str]:
    """Generate the pool, emit it as qtrace text, and warm up on its first traces."""
    from pipeline import PIPELINES, Run
    from slotq.traceio import emit_trace

    gen = Run(spans)
    texts = []
    for params in workload.params(seed):
        trace = gen.call("generate.gen_random", params)
        if trace is None:
            sys.exit(f"slotbench: generating the {workload.name} pool failed: {gen.errors[0]}")
        texts.append(emit_trace(trace))
    run_pipeline = PIPELINES[workload.pipeline]
    for i in workload.order(seed)[: workload.warmup]:
        run_pipeline(Run(), texts[i])
    return texts


def load_reference(workload, seed: int) -> "list[str] | None":
    """Reference digests of the default seed's pool, None where none is recorded."""
    if seed != DEFAULT_SEED:
        return None
    ref = json.loads(REFERENCE.read_text()).get(workload.name)
    if ref is None:
        return None
    if len(ref["traces"]) != workload.pool:
        sys.exit(f"slotbench: {REFERENCE.name} has {len(ref['traces'])} digests for "
                 f"{workload.name}, whose pool has {workload.pool} traces")
    return ref["traces"]


class Loop:
    """What one measured loop saw: per-trace samples, digests, failures, spans."""

    def __init__(self, pool: int, reference: "list[str] | None", traced: bool):
        from pipeline import Behaviour, Spans

        self.samples: list[list[float]] = [[] for _ in range(pool)]  # completed runs
        self.fastest: list[float] = [math.inf] * pool  # over all runs, failed or not
        self.digests: list["str | None"] = [None] * pool
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.layer_errors: dict[tuple[str, str], list] = {}  # first pass: [count, message]
        self.examples: list[str] = []
        self.wall = 0.0
        # traced mode only
        self.spans = Spans() if traced else None
        self.behaviour = Behaviour()
        self.calls: Counter = Counter()
        self.traced_runs = 0
        self.paired = [0.0, 0.0]  # untraced, traced seconds over the paired runs

    def record(self, i: int, run, seconds: float, first_pass: bool) -> None:
        from pipeline import digest

        self.attempted += 1
        self.fastest[i] = min(self.fastest[i], seconds)
        d = digest(run)
        if self.digests[i] is None:
            self.digests[i] = d
        expected = self.reference[i] if self.reference is not None else self.digests[i]
        mismatch = d != expected
        if first_pass:
            for layer, kind, message in run.errors:
                self.layer_errors.setdefault((layer, kind), [0, message])[0] += 1
        if run.violations or mismatch:
            self.wrong += 1
        if run.failed or mismatch:
            self.failed += 1
            if len(self.examples) < 5:
                if run.violations:
                    why = run.violations[0]
                elif run.errors:
                    why = "{} raised {}: {}".format(*run.errors[0])
                else:
                    why = f"digest {d} != {expected}"
                self.examples.append(f"trace {i}: {why}")
            return
        self.samples[i].append(seconds)


def measure(workload, texts: list[str], seed: int, seconds: float, traced: bool,
            reference: "list[str] | None" = None, interlude=None, interludes: int = 0) -> Loop:
    """The closed loop.  Traced mode pairs every untraced run with a traced one.

    `interlude()` is called `interludes` times, evenly spread over the run; the
    time it takes is left out of the loop's time and added to its deadline.
    """
    from pipeline import PIPELINES, TRACE_SPAN, Run

    run_pipeline = PIPELINES[workload.pipeline]
    order = workload.order(seed)
    pool = len(texts)
    loop = Loop(pool, reference, traced)
    spans = loop.spans

    def timed(i: int, k: int, span_run: bool):
        run = Run(spans if span_run else None, trace_id=k)
        t0 = time.perf_counter()
        if span_run:
            root = spans.begin(TRACE_SPAN, k)
            run_pipeline(run, texts[i])
            spans.end(root)
        else:
            run_pipeline(run, texts[i])
        return run, time.perf_counter() - t0

    start = time.perf_counter()
    deadline = start + seconds
    due = [start + seconds * (j + 1) / (interludes + 1) for j in range(interludes)]
    paused = 0.0
    k = 0
    while k < pool or time.perf_counter() < deadline:
        if due and time.perf_counter() >= due[0] + paused:
            t0 = time.perf_counter()
            interlude()
            due.pop(0)
            took = time.perf_counter() - t0
            paused += took
            deadline += took
        i = order[k % pool]
        first_pass = k < pool
        if not traced:
            run, took = timed(i, k, False)
            loop.record(i, run, took, first_pass)
        else:
            # alternate which side runs first, pass by pass
            sides = (False, True) if (k // pool) % 2 == 0 else (True, False)
            for span_run in sides:
                run, took = timed(i, k, span_run)
                loop.paired[span_run] += took
                if span_run:
                    loop.traced_runs += 1
                    if first_pass:
                        loop.behaviour.add(run)
                        loop.calls.update(run.calls)
                loop.record(i, run, took, first_pass and not span_run)
        k += 1
    loop.wall = time.perf_counter() - start - paused
    for _ in due:   # a run shorter than one pass
        interlude()
    return loop


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten values beyond it."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    idx = len(ordered) - 11
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def end_to_end(out: Loop, setup_s: float) -> tuple[dict, list[str]]:
    per_trace = [min(s) for s in out.samples if s]
    completed = sum(len(s) for s in out.samples)
    notes = []
    p50 = tail_ms = None
    if per_trace:
        p50 = statistics.median(per_trace) * 1e3
        tail_s, pct = tail(per_trace)
        tail_ms = tail_s * 1e3
        notes.append(
            f"trace_tail_ms is p{pct:.2f} over {len(per_trace)} per-trace times "
            f"({completed} completed samples)"
        )
    else:
        notes.append("no trace completed: trace_p50_ms and trace_tail_ms are undefined")
    notes.append(f"wall-clock rate {completed / out.wall:.6g} traces/s")
    values = {
        "traces_per_s": completed / out.attempted * len(out.fastest) / sum(out.fastest),
        "trace_p50_ms": p50,
        "trace_tail_ms": tail_ms,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, notes


def per_layer(workload, out: Loop, setup_spans) -> dict:
    """Per-layer metrics of a traced loop, as name -> (value, unit)."""
    from pipeline import LAYER_FUNCTIONS, TRACE_SPAN

    per_pass = workload.pool / out.traced_runs
    self_times = out.spans.self_times()
    setups = sum(rec[0] == "generate.gen_random" for rec in setup_spans.records) / workload.pool
    gen_self = setup_spans.self_times()["generate.gen_random"] / setups
    failed = {}
    for (layer, _), (count, _) in out.layer_errors.items():
        failed[layer] = failed.get(layer, 0) + count
    metrics = {}
    for name in LAYER_FUNCTIONS:
        if name == "generate.gen_random":
            metrics[f"{name}.self_s"] = (gen_self, "s")
            metrics[f"{name}.calls"] = (workload.pool, "count")
        else:
            metrics[f"{name}.self_s"] = (self_times[name] * per_pass, "s")
            metrics[f"{name}.calls"] = (out.calls[name], "count")
        metrics[f"{name}.failed"] = (failed.get(name, 0), "count")
    metrics["trace.glue_s"] = (self_times[TRACE_SPAN] * per_pass, "s")
    metrics["tracing.overhead_frac"] = (out.paired[1] / out.paired[0] - 1, "ratio")
    behaviour = out.behaviour
    c = behaviour.counts
    steps = c["schedulers.run_grq.steps"]
    metrics["schedulers.run_grq.steps"] = (steps, "count")
    metrics["schedulers.run_grq.idle_frac"] = (c["idle"] / steps if steps else 0.0, "ratio")
    for algo in ("run_grq", "run_naive_greedy"):
        for cause in ("admission-refused", "preempted", "expired"):
            key = f"schedulers.{algo}.rejected.{cause}"
            metrics[key] = (c[key], "count")
    metrics["oracle.enumerate_feasible.adversaries"] = (c["oracle.enumerate_feasible.adversaries"], "count")
    for kind in ("S", "D", "F"):
        metrics[f"charging.charges.{kind}"] = (c[f"charging.charges.{kind}"], "count")
    metrics["charging.f_slack_min"] = (behaviour.f_slack_min, "steps")
    metrics["charging.checks_passed_frac"] = (
        c["checks_passed"] / c["checks"] if c["checks"] else None, "ratio"
    )
    return metrics


def write_trace_files(workload, out: Loop, setup_spans, metrics) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{workload.name}.tsv"
    with span_file.open("w") as f:
        f.write("id\tparent\ttrace\tname\tstart_s\tend_s\terror\n")
        for label, recs in (("setup", setup_spans.records), ("loop", out.spans.records)):
            base = recs[0][1] if recs else 0.0
            for idx, (name, start, end, parent, trace_id, error) in enumerate(recs):
                f.write(f"{label}{idx}\t{label}{parent if parent >= 0 else ''}\t{trace_id}\t"
                        f"{name}\t{start - base:.9f}\t{end - base:.9f}\t{error or ''}\n")
    summary = {
        "workload": workload.name,
        "failures_by_type": [
            {"layer": layer, "type": kind, "first_pass_exceptions": count, "first_message": message}
            for (layer, kind), (count, message) in sorted(out.layer_errors.items())
        ],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (OUT_DIR / f"layers-{workload.name}.json").write_text(json.dumps(summary, indent=2) + "\n")
    return span_file


def run_one(name: str, seed: int, seconds: int, traced: bool) -> None:
    import_s = import_program()
    from pipeline import Spans, combine
    from workloads import WORKLOADS

    workload = WORKLOADS[name]

    setup_spans = Spans() if traced else None
    import_times = [import_s]
    setup_times = []

    def set_up() -> list[str]:
        t0 = time.perf_counter()
        texts = setup(workload, seed, setup_spans)
        setup_times.append(time.perf_counter() - t0)
        return texts

    def set_up_again() -> None:
        import_times.append(child_import_time())
        if set_up() != texts:
            sys.exit(f"slotbench: set-up of {name} with seed {seed} is not deterministic")

    texts = set_up()
    out = measure(workload, texts, seed, seconds, traced, load_reference(workload, seed),
                  set_up_again, SETUP_REPEATS - 1)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)
    run_digest = combine(out.digests)
    reference = "none for this seed"
    if out.reference is not None:
        reference = "match" if out.digests == out.reference else "MISMATCH"

    print(f"workload {name}: seed {seed}, {workload.pool} traces per pass, "
          f"{out.attempted} runs in {out.wall:.2f} s, one caller, closed loop"
          + (", traced" if traced else ""))
    print(f"  digest {run_digest} (reference: {reference})")
    failed_frac = out.failed / out.attempted
    print(f"  failed_frac {failed_frac:.6g} ratio ({out.failed} of {out.attempted} runs; "
          f"{out.wrong} with wrong output)")
    for (layer, kind), (count, message) in sorted(out.layer_errors.items()):
        print(f"  failures: {layer} raised {kind} {count} times in the first pass "
              f"of {workload.pool} traces: {message}")
    for line in out.examples:
        print(f"  failed {line}")

    if traced:
        metrics = per_layer(workload, out, setup_spans)
        span_file = write_trace_files(workload, out, setup_spans, metrics)
        print(f"  per-layer metrics, per pass over the pool ({out.traced_runs} traced runs; "
              f"spans in {span_file.relative_to(ROOT)})")
    else:
        values, notes = end_to_end(out, setup_s)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        print("  end-to-end metrics")
    for key, (value, unit) in metrics.items():
        shown = "undefined" if value is None else f"{value:.6g}"
        print(f"    {key:48s} {shown} {unit}")
    if not traced:
        for note in notes:
            print(f"  {note}")

    reported = [m["name"] for m in json.loads(SPEC.read_text())["per_layer" if traced else "end_to_end"]]
    print(json.dumps({
        "correct": out.wrong == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in reported},
    }))


def run_all(seed: int, seconds: int) -> int:
    """Every workload in a fresh process, untraced then traced."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            status = subprocess.run(cmd).returncode or status
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        sys.exit("slotbench: refusing to run under -O; the program's checks are asserts")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
