"""Experiment harness: run the full pipeline over generated traces.

A config (JSON file or equivalent dict) names trace sources; every trace
goes through both schedulers with their structural checks, the bounded and
the unbounded optimum, and the charge verifier against the bounded optimum.
Example:

    {
      "traces": [
        {"kind": "random", "count": 100, "seed": 7,
         "n": 8, "horizon": 6, "buffer_size": 3, "max_weight": 16},
        {"kind": "killer", "buffer_size": 10, "eps": "1/10"}
      ]
    }

The keys are closed, and `traces` is the only top-level one; a source's fields
go as they are to GeneratorParams or gen_killer, whose rules decide their type.

Every row is a pure function of the config (seeds included).  Ratios are
exact rationals end to end; serialization writes them as num/den.  Any
violation — a failed self-check, structural, monotonicity, or charging —
marks the row failed, and when run_experiment is given a counterexample
directory (the CLI's --counterexamples) the offending trace is persisted
there with its violations, because a failing instance is the most valuable
output this tool can produce.
"""

import csv
import hashlib
import io
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from .charging import check_charges, value_ratio
from .generate import (GeneratorParams, ParameterError, gen_killer, gen_random,
                       parse_rational, require_int)
from .model import Trace, check_transcript_invariants
from .oracle import optimal_bounded
from .schedulers import check_slot_monotonicity, run_grq, run_naive_greedy
from .traceio import emit_trace


class ConfigError(ParameterError):
    """Malformed experiment config: a usage error, like a bad generator parameter."""


@dataclass(frozen=True)
class ExperimentRow:
    index: int
    digest: str
    n: int
    buffer_size: int
    grq_value: "Fraction | None"
    greedy_value: "Fraction | None"
    bounded_value: "Fraction | None"
    unbounded_value: "Fraction | None"
    ratio: "Fraction | None"  # bounded optimum / grq
    charging: str  # "pass" | "fail" | "skipped"
    violations: tuple[str, ...]

    @property
    def failed(self) -> bool:
        return bool(self.violations)  # a failed charge check is a violation too


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ExperimentRow, ...]
    max_ratio: "Fraction | None"
    mean_ratio: "Fraction | None"
    violation_count: int

    @property
    def passed(self) -> bool:
        return self.violation_count == 0


def load_config(path: "str | Path") -> dict:
    text = Path(path).read_text()
    try:
        config = json.loads(text)
    except ValueError as e:  # a JSONDecodeError, or an int of more digits than Python converts
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


# per kind: the fields a source must give, then the ones it may give
_SOURCE_FIELDS = {"random": (("n", "horizon", "buffer_size"),
                             ("count", "seed", "max_weight", "max_span", "burst")),
                  "killer": (("buffer_size", "eps"), ())}


def _source_traces(source) -> list[Trace]:
    """The traces of one source, whose fields go to its generator as they are."""
    if not isinstance(source, dict) or "kind" not in source:
        raise ConfigError("expected an object with a 'kind'")
    fields = dict(source)
    kind = fields.pop("kind")
    if kind not in ("random", "killer"):
        raise ConfigError(f"unknown kind {kind!r}")
    required, optional = _SOURCE_FIELDS[kind]
    for key in fields:
        if key not in required + optional:
            raise ConfigError(f"unknown field {key!r}")
    for key in required:
        if key not in fields:
            raise ConfigError(f"missing field {key!r}")
    if kind == "killer":
        return [gen_killer(fields["buffer_size"], parse_rational("eps", fields["eps"]))]
    count = require_int("count", fields.pop("count", 1), 0)
    if "burst" in fields:
        fields["burst"] = parse_rational("burst", fields["burst"])
    params = GeneratorParams(**{"seed": 0, **fields})
    return [gen_random(replace(params, seed=params.seed + k)) for k in range(count)]


def trace_digest(trace: Trace) -> str:
    return hashlib.sha256(emit_trace(trace).encode()).hexdigest()[:12]


def evaluate_trace(trace: Trace, index: int = 0) -> ExperimentRow:
    """Run both schedulers with their checks, the oracle on the trace and on
    its relaxed view, the oracle order, the ratio and the charge verifier on
    one trace; collect every violation.

    The runners, the oracle and value_ratio check their own output and
    raise AssertionError on a fault.  One rule covers every such call: the
    fault becomes a violation of the row, so the trace is kept for replay,
    and every stage that needs the missing result is skipped; its cells
    print empty.  `charging` is "skipped" only when the slot queue or the
    bounded optimum is missing.
    """
    violations: list[str] = []

    def guarded(what, fn, *args):
        try:
            return fn(*args)
        except AssertionError as e:
            violations.append(f"{what}: {e}")
            return None

    grq = guarded("slot queue", run_grq, trace)
    if grq is not None:
        violations += [f"transcript: {v}" for v in check_transcript_invariants(grq)]
        violations += [f"monotonicity: {v}" for v in check_slot_monotonicity(grq)]
    greedy = guarded("greedy", run_naive_greedy, trace)
    if greedy is not None:
        violations += [f"greedy transcript: {v}" for v in check_transcript_invariants(greedy)]
    bounded = guarded("bounded oracle", optimal_bounded, trace)
    unbounded = guarded("unbounded oracle", optimal_bounded, trace.relaxed)
    if bounded is not None and unbounded is not None and bounded.value > unbounded.value:
        violations.append(f"oracle order: bounded {bounded.value} > unbounded {unbounded.value}")

    ratio, charging = None, "skipped"
    if grq is not None and bounded is not None:
        ratio = guarded("ratio", value_ratio, bounded.value, grq.total_weight)
        if bounded.value > 2 * grq.total_weight:
            violations.append(
                f"ratio: optimum {bounded.value} exceeds twice GRQ value {grq.total_weight}"
            )
        failures = check_charges(grq, bounded)[1]
        charging = "fail" if failures else "pass"
        violations += [f"charging: {f}" for f in failures]

    return ExperimentRow(
        index=index,
        digest=trace_digest(trace),
        n=len(trace.packets),
        buffer_size=trace.buffer_size,
        grq_value=None if grq is None else grq.total_weight,
        greedy_value=None if greedy is None else greedy.total_weight,
        bounded_value=None if bounded is None else bounded.value,
        unbounded_value=None if unbounded is None else unbounded.value,
        ratio=ratio,
        charging=charging,
        violations=tuple(violations),
    )


def run_experiment(config: dict, counterexample_dir: "str | Path | None" = None) -> ExperimentReport:
    """Evaluate every configured trace; deterministic for a fixed config.
    A failing trace is persisted in `counterexample_dir` unless it is None or ""."""
    for key, value in config.items():
        if key != "traces":
            raise ConfigError(f"unknown config key {key!r}")
        if not isinstance(value, list):
            raise ConfigError("'traces' must be a list")

    traces: list[Trace] = []
    for i, source in enumerate(config.get("traces", [])):
        try:
            traces += _source_traces(source)
        except ParameterError as e:
            raise ConfigError(f"trace source {i}: {e}") from e
    rows: list[ExperimentRow] = []
    for i, trace in enumerate(traces):
        row = evaluate_trace(trace, index=i)
        rows.append(row)
        if row.failed and counterexample_dir:
            _persist_counterexample(Path(counterexample_dir), trace, row)

    ratios = [r.ratio for r in rows if r.ratio is not None]
    max_ratio = max(ratios) if ratios else None
    mean_ratio = sum(ratios, Fraction(0)) / len(ratios) if ratios else None
    # every reported value prints exactly: a row's values do, as validate_trace
    # bounds each trace's weight sums, and so max_ratio does; the mean's
    # denominator grows with the lcm of the rows' ones
    try:
        cell(mean_ratio)
    except ValueError:  # past sys.get_int_max_str_digits() digits
        raise ConfigError(f"the mean_ratio of {len(ratios)} rows has more digits than "
                          "Python prints; run the traces in smaller configs") from None
    return ExperimentReport(
        rows=tuple(rows),
        max_ratio=max_ratio,
        mean_ratio=mean_ratio,
        violation_count=sum(1 for r in rows if r.failed),
    )


def _persist_counterexample(directory: Path, trace: Trace, row: ExperimentRow) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    stem = directory / f"trace-{row.index:05d}-{row.digest}"
    stem.with_suffix(".qtrace").write_text(emit_trace(trace))
    stem.with_suffix(".violations.txt").write_text("\n".join(row.violations) + "\n")


# --- serialization ---------------------------------------------------------

def cell(value: "Fraction | None") -> str:
    """How a report prints an exact value: absent prints empty, present as str."""
    return "" if value is None else str(value)


_COLUMNS = (
    "index", "digest", "n", "buffer_size", "grq", "greedy",
    "bounded_opt", "unbounded_opt", "ratio", "charging", "violations",
)


def _cells(r: ExperimentRow) -> list:
    """The row's cells in _COLUMNS order; the violations stay a list."""
    return [
        r.index, r.digest, r.n, r.buffer_size,
        cell(r.grq_value), cell(r.greedy_value),
        cell(r.bounded_value), cell(r.unbounded_value),
        cell(r.ratio), r.charging, list(r.violations),
    ]


def report_to_csv(report: ExperimentReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_COLUMNS)
    for r in report.rows:
        *cells, violations = _cells(r)
        w.writerow([*cells, " | ".join(violations)])
    w.writerow([])
    w.writerow([
        "aggregate", "", len(report.rows), "", "", "", "",
        "", cell(report.max_ratio), f"mean={cell(report.mean_ratio)}",
        f"violations={report.violation_count}",
    ])
    return buf.getvalue()


def report_to_json(report: ExperimentReport) -> str:
    payload = {
        "rows": [dict(zip(_COLUMNS, _cells(r))) for r in report.rows],
        "aggregate": {
            "traces": len(report.rows),
            "max_ratio": cell(report.max_ratio),
            "mean_ratio": cell(report.mean_ratio),
            "violations": report.violation_count,
        },
    }
    return json.dumps(payload, indent=2) + "\n"
