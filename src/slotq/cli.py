"""Command-line workbench.

    slotq run        --trace f.qtrace --algo grq|greedy [--out F --format csv|json]
    slotq oracle     --trace f.qtrace --algo bounded|unbounded
    slotq charge     --trace f.qtrace [--enumerate K]
    slotq gen        killer --b 10 --eps 1/10 [--out F]
    slotq gen        random --n 8 --horizon 6 --b 2 --seed 1 [--max-weight 16]
    slotq search     --n 8 --b 3 --horizon 8 --seed 1 --iters 1000
    slotq experiment --config exp.json [--out F --format csv|json]

Exit codes: 0 every check passed, 1 a property violation was found (that is
the interesting outcome — the trace involved is printed or persisted),
2 usage or configuration problems, 3 an internal error (a bug in slotq, not a
finding about the trace; one `internal error:` line goes to stderr).
"""

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from .charging import check_charges
from .generate import (GeneratorParams, ParameterError, gen_killer, gen_random,
                       parse_rational, require_int)
from .model import InvalidTraceError, Transcript, check_transcript_invariants
from .oracle import enumerate_feasible, optimal_bounded
from .schedulers import check_slot_monotonicity, run_grq, run_naive_greedy
from .traceio import TraceSyntaxError, emit_trace, load_trace


def _fraction(text: str) -> Fraction:
    """argparse type: generate.parse_rational, where a refusal is a usage error."""
    try:
        return parse_rational("value", text)
    except ParameterError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _emit(text: str, out: "str | None") -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _transcript_rows(transcript: Transcript) -> list[dict]:
    trace = transcript.trace
    arriving, ids, by_id = trace.arrival_ranks, trace.rank_id, trace.by_id
    rows = []
    for rec in transcript.steps:
        arrivals = sorted([ids[r] for r in arriving.get(rec.time, ())])
        rows.append({
            "step": rec.time,
            "arrivals": " ".join(map(str, arrivals)),
            "transmitted": "" if rec.transmitted is None else rec.transmitted,
            "weight": "0" if rec.transmitted is None else str(by_id[rec.transmitted].weight),
            "rejections": " ".join(f"{r.packet_id}:{r.cause}" for r in rec.rejections),
        })
    return rows


def _write_table(args, columns: tuple[str, ...], rows: list[dict], payload: dict) -> None:
    """Write to --out (stdout without it): `rows` as CSV under the header
    `columns`, written even when there are no rows, or `payload` as JSON."""
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    _emit(buf.getvalue(), args.out)


def _cmd_run(args) -> int:
    trace = load_trace(args.trace)
    runner = run_grq if args.algo == "grq" else run_naive_greedy
    transcript = runner(trace)
    violations = check_transcript_invariants(transcript)
    if args.algo == "grq":
        violations += check_slot_monotonicity(transcript)
    rows = _transcript_rows(transcript)
    columns = ("step", "arrivals", "transmitted", "weight", "rejections")
    _write_table(args, columns, rows, {"rows": rows, "total": str(transcript.total_weight),
                                       "violations": violations})
    print(f"{args.algo} total: {transcript.total_weight}")
    for v in violations:
        print(f"violation: {v}", file=sys.stderr)
    return 1 if violations else 0


def _cmd_oracle(args) -> int:
    trace = load_trace(args.trace)
    # the oracle verifies its schedule and raises on a violation (exit 3);
    # without the capacity constraint the instance is the relaxed view
    schedule = optimal_bounded(trace if args.algo == "bounded" else trace.relaxed)
    rows = [
        {"packet": pid, "step": t,
         "weight": str(trace.by_id[pid].weight)}
        for pid, t in sorted(schedule.assignment.items())
    ]
    _write_table(args, ("packet", "step", "weight"), rows,
                 {"rows": rows, "value": str(schedule.value), "violations": []})
    print(f"{args.algo} optimum: {schedule.value}")
    return 0


def _cmd_charge(args) -> int:
    require_int("--enumerate", args.enumerate, 0)
    trace = load_trace(args.trace)
    grq = run_grq(trace)
    adv = optimal_bounded(trace)
    failures = [f"transcript: {v}" for v in check_transcript_invariants(grq)]
    failures += [f"monotonicity: {v}" for v in check_slot_monotonicity(grq)]
    report, charge_failures = check_charges(grq, adv)
    failures += charge_failures
    if report is not None:
        for c in report.checks:
            print(f"check {c.number} {c.name}: {'pass' if c.passed else 'FAIL'}")
        print(
            f"adversary value {report.adversary_value}, "
            f"slot-queue value {report.grq_value}"
        )
    for f in failures:
        print(f"violation: {f}", file=sys.stderr)

    enum_failures: list[str] = []
    if args.enumerate:
        schedules = enumerate_feasible(trace, args.enumerate)
        for i, alt in enumerate(schedules):
            enum_failures += [f"adversary {i}: {f}" for f in check_charges(grq, alt)[1]]
        print(f"enumerated adversaries checked: {len(schedules)}, "
              f"failures: {len(enum_failures)}")
        for f in enum_failures:
            print(f"violation: {f}", file=sys.stderr)

    if args.out is not None and report is not None:
        rows = [
            {"check": c.number, "name": c.name, "result": "pass" if c.passed else "fail",
             "violations": " | ".join(c.violations)}
            for c in report.checks
        ]
        _write_table(args, ("check", "name", "result", "violations"), rows, {
            "checks": [
                {"number": c.number, "name": c.name, "passed": c.passed,
                 "violations": list(c.violations)}
                for c in report.checks
            ],
            "adversary_value": str(report.adversary_value),
            "grq_value": str(report.grq_value),
        })
    return 1 if failures or enum_failures else 0


def _params(args, **extra) -> GeneratorParams:
    """GeneratorParams from the flags add_box declares, plus `extra`."""
    return GeneratorParams(n=args.n, horizon=args.horizon, buffer_size=args.b,
                           seed=args.seed, max_weight=args.max_weight, **extra)


def _cmd_gen(args) -> int:
    if args.kind == "killer":
        trace = gen_killer(args.b, args.eps)
    else:
        trace = gen_random(_params(args, max_span=args.max_span, burst=args.burst))
    _emit(emit_trace(trace), args.out)
    return 0


def _cmd_search(args) -> int:
    from .experiment import trace_digest  # local imports: keep startup light
    from .search import adversarial_search

    result = adversarial_search(_params(args), args.iters)
    print(f"iterations: {result.iterations}")
    print(f"worst ratio: {result.ratio}")
    if result.trace is not None:
        print(f"worst trace digest: {trace_digest(result.trace)}")
        if args.out is not None:
            _emit(emit_trace(result.trace), args.out)
    if result.ratio > 2:
        print("violation: ratio exceeds 2 — counterexample found", file=sys.stderr)
        return 1
    return 0


def _cmd_experiment(args) -> int:
    from .experiment import cell, load_config, report_to_csv, report_to_json, run_experiment

    config = load_config(args.config)
    report = run_experiment(config, counterexample_dir=args.counterexamples)
    text = report_to_json(report) if args.format == "json" else report_to_csv(report)
    _emit(text, args.out)
    if args.out is not None:
        print(f"traces: {len(report.rows)}, max ratio: {cell(report.max_ratio)}, "
              f"violations: {report.violation_count}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slotq",
        description="Slot-queue packet scheduling workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--out", help="write machine-readable output to this file")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def add_box(p):
        """The random-instance flags that _params reads."""
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--horizon", type=int, required=True)
        p.add_argument("--b", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-weight", type=int, default=16)

    p = sub.add_parser("run", help="run a scheduler over a qtrace file")
    p.add_argument("--trace", required=True)
    p.add_argument("--algo", choices=("grq", "greedy"), default="grq")
    add_output(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("oracle", help="exact offline optimum of a qtrace file")
    p.add_argument("--trace", required=True)
    p.add_argument("--algo", choices=("bounded", "unbounded"), default="bounded")
    add_output(p)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("charge", help="build and verify the charge map")
    p.add_argument("--trace", required=True)
    p.add_argument("--enumerate", type=int, default=0, metavar="K",
                   help="also verify against up to K enumerated feasible adversaries")
    add_output(p)
    p.set_defaults(fn=_cmd_charge)

    p = sub.add_parser("gen", help="emit a generated qtrace")
    gsub = p.add_subparsers(dest="kind", required=True)
    k = gsub.add_parser("killer", help="greedy-sinking burst instance")
    k.add_argument("--b", type=int, required=True)
    k.add_argument("--eps", type=_fraction, required=True)
    k.add_argument("--out")
    k.set_defaults(fn=_cmd_gen)
    r = gsub.add_parser("random", help="seeded random instance")
    add_box(r)
    r.add_argument("--max-span", type=int, default=None)
    r.add_argument("--burst", type=_fraction, default=Fraction(0))
    r.add_argument("--out")
    r.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("search", help="adversarial search for high ratios")
    add_box(p)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--out", help="write the worst trace found as qtrace")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("experiment", help="run a config-driven experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--counterexamples", help="persist failing traces here")
    add_output(p)
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    # ParameterError covers experiment.ConfigError, so no subcommand that
    # does not run an experiment has to import that module
    except (TraceSyntaxError, InvalidTraceError, ParameterError,
            OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
