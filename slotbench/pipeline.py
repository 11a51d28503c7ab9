"""The per-trace call sequence of the slotq benchmark.

Every call into the program goes through `Run.call("<module>.<function>", ...)`
with a public slotq function and its default arguments.  The call catches
what the function raises, counts it against that layer by exception type, and
returns None, so stages that do not depend on the failed result still run.
With a `Spans` recorder attached, each call also records a span.

Two pipelines exist:

  certify  parse_trace -> run_grq + run_naive_greedy -> transcript checks ->
           optimal_bounded + optimal_unbounded, each checked by
           verify_schedule -> charge map against the bounded optimum and,
           for n <= 6, against up to 50 enumerate_feasible adversaries.
  stream   parse_trace -> run_grq + run_naive_greedy -> transcript checks
           (what `slotq run` does).

Outputs are hashed after the timed region: the two online transcripts (sends
and rejections per step), the two online values, the two optimal values and
the charge verdicts.  The oracles' chosen assignments and the S/D/F counts are
left out, because another optimal schedule is an equally valid output.
"""

import hashlib
import time
from collections import Counter

from slotq import charging, generate, model, oracle, schedulers, traceio

ENUM_LIMIT = 50    # enumerated adversaries per small trace, as in the acceptance suite
ENUM_MAX_N = 6     # enumerate adversaries only for traces this small

LAYER_FUNCTIONS = (
    "traceio.parse_trace",
    "generate.gen_random",
    "schedulers.run_grq",
    "schedulers.run_naive_greedy",
    "schedulers.check_slot_monotonicity",
    "model.check_transcript_invariants",
    "oracle.optimal_bounded",
    "oracle.optimal_unbounded",
    "oracle.verify_schedule",
    "oracle.enumerate_feasible",
    "charging.build_charge_map",
    "charging.verify_charge_map",
)

_MODULES = {
    "traceio": traceio,
    "generate": generate,
    "schedulers": schedulers,
    "model": model,
    "oracle": oracle,
    "charging": charging,
}
# looked up at call time, so a test can substitute a function on its module
_TARGETS = {name: tuple(name.split(".")) for name in LAYER_FUNCTIONS}

TRACE_SPAN = "trace"


class Spans:
    """In-memory span records: [name, start, end, parent index, trace id, error type]."""

    def __init__(self):
        self.records: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str, trace_id: int) -> int:
        idx = len(self.records)
        parent = self._open[-1] if self._open else -1
        self.records.append([name, time.perf_counter(), None, parent, trace_id, None])
        self._open.append(idx)
        return idx

    def end(self, idx: int, error: "str | None" = None) -> None:
        rec = self.records[idx]
        rec[2] = time.perf_counter()
        rec[5] = error
        self._open.pop()

    def self_times(self) -> Counter:
        """Span name -> summed duration minus the time its child spans cover."""
        out: Counter = Counter()
        for name, start, end, parent, _, _ in self.records:
            dur = end - start
            out[name] += dur
            if parent >= 0:
                out[self.records[parent][0]] -= dur
        return out


class Run:
    """One pass of one trace through a pipeline: outputs, failures, violations."""

    def __init__(self, spans: "Spans | None" = None, trace_id: int = -1):
        self.spans = spans
        self.trace_id = trace_id
        self.errors: list[tuple[str, str, str]] = []  # (layer, type, message)
        self.violations: list[str] = []
        self.calls: Counter = Counter()
        self.trace = self.grq = self.greedy = self.bounded = self.unbounded = None
        self.adversaries = 0
        self.charge_reports: list[tuple] = []  # (ChargeMap, ChargeReport)
        self.verdicts: list[str] = []

    def call(self, name: str, *args):
        module, function = _TARGETS[name]
        self.calls[name] += 1
        spans = self.spans
        if spans is not None:
            idx = spans.begin(name, self.trace_id)
        error = None
        try:
            return getattr(_MODULES[module], function)(*args)
        except Exception as e:  # the benchmark must keep going; failures are counted
            error = type(e).__name__
            self.errors.append((name, error, str(e)[:200]))
            return None
        finally:
            if spans is not None:
                spans.end(idx, error)

    def check(self, what: str, violations: "list[str] | None") -> None:
        if violations:
            self.violations += [f"{what}: {v}" for v in violations[:3]]

    @property
    def failed(self) -> bool:
        return bool(self.errors or self.violations)


def _online(run: Run, text: str):
    trace = run.trace = run.call("traceio.parse_trace", text)
    if trace is None:
        return None
    grq = run.grq = run.call("schedulers.run_grq", trace)
    greedy = run.greedy = run.call("schedulers.run_naive_greedy", trace)
    if grq is not None:
        run.check("grq transcript", run.call("model.check_transcript_invariants", grq))
        run.check("slot monotonicity", run.call("schedulers.check_slot_monotonicity", grq))
    if greedy is not None:
        run.check("greedy transcript", run.call("model.check_transcript_invariants", greedy))
    return trace


def stream(run: Run, text: str) -> None:
    _online(run, text)


def _charge(run: Run, adversary) -> None:
    cmap = run.call("charging.build_charge_map", run.grq, adversary)
    if cmap is None:
        run.verdicts.append("no-map")
        return
    report = run.call("charging.verify_charge_map", cmap, run.grq, adversary)
    if report is None:
        run.verdicts.append("no-report")
        return
    run.verdicts.append("".join("1" if c.passed else "0" for c in report.checks))
    run.check("charge map", report.failures())
    run.charge_reports.append((cmap, report))


def certify(run: Run, text: str) -> None:
    trace = _online(run, text)
    if trace is None:
        return
    grq = run.grq
    bounded = run.bounded = run.call("oracle.optimal_bounded", trace)
    if bounded is not None:
        run.check("bounded schedule", run.call("oracle.verify_schedule", trace, bounded))
    unbounded = run.unbounded = run.call("oracle.optimal_unbounded", trace)
    if unbounded is not None:
        relaxed = oracle.relax_capacity(trace)
        run.check("unbounded schedule", run.call("oracle.verify_schedule", relaxed, unbounded))
    if bounded is not None and unbounded is not None and bounded.value > unbounded.value:
        run.violations.append(f"bounded optimum {bounded.value} > unbounded {unbounded.value}")
    adversaries = []
    if len(trace.packets) <= ENUM_MAX_N:
        adversaries = run.call("oracle.enumerate_feasible", trace, ENUM_LIMIT) or []
        run.adversaries = len(adversaries)
    if grq is None:
        return
    if bounded is not None:
        if bounded.value > 2 * grq.total_weight:
            run.violations.append(f"optimum {bounded.value} > 2 x slot-queue {grq.total_weight}")
        _charge(run, bounded)
    for adv in adversaries:
        _charge(run, adv)


PIPELINES = {"certify": certify, "stream": stream}


def digest(run: Run) -> str:
    """12-hex digest of the outputs that every correct program must reproduce."""
    h = hashlib.sha256()
    for transcript in (run.grq, run.greedy):
        if transcript is None:
            h.update(b"no transcript\n")
            continue
        for rec in transcript.steps:
            if rec.transmitted is not None or rec.rejections:
                rejected = " ".join(f"{r.packet_id}:{r.cause}" for r in rec.rejections)
                h.update(f"{rec.time} {rec.transmitted} {rejected}\n".encode())
        h.update(f"value {transcript.total_weight}\n".encode())
    for schedule in (run.bounded, run.unbounded):
        h.update(f"optimum {'-' if schedule is None else schedule.value}\n".encode())
    h.update(" ".join(run.verdicts).encode())
    return h.hexdigest()[:12]


def combine(digests: "list[str]") -> str:
    return hashlib.sha256(" ".join(digests).encode()).hexdigest()[:12]


class Behaviour:
    """Counters read from the outputs of one pass, outside the timed spans."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.f_slack_min: "int | None" = None

    def add(self, run: Run) -> None:
        c = self.counts
        for algo, transcript in (("run_grq", run.grq), ("run_naive_greedy", run.greedy)):
            if transcript is None:
                continue
            for rec in transcript.steps:
                for r in rec.rejections:
                    c[f"schedulers.{algo}.rejected.{r.cause}"] += 1
            if algo == "run_grq":
                c["schedulers.run_grq.steps"] += len(transcript.steps)
                c["idle"] += sum(1 for rec in transcript.steps if rec.transmitted is None)
        c["oracle.enumerate_feasible.adversaries"] += run.adversaries
        for cmap, report in run.charge_reports:
            for kind in (charging.S_CHARGE, charging.D_CHARGE, charging.F_CHARGE):
                c[f"charging.charges.{kind}"] += len(cmap.of_kind(kind))
            c["checks"] += len(report.checks)
            c["checks_passed"] += sum(1 for check in report.checks if check.passed)
            bsize = run.trace.buffer_size
            for f in cmap.of_kind(charging.F_CHARGE):
                slack = f.rejection_time + bsize - 1 - f.target
                if self.f_slack_min is None or slack < self.f_slack_min:
                    self.f_slack_min = slack
