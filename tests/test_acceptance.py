"""Acceptance suite: one test per advertised guarantee, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.  Every
check is exact — rational arithmetic, zero tolerance.  The random sweeps are
seeded and fully reproducible; a failure therefore comes with the instance
that caused it.
"""

import sys
from dataclasses import dataclass
from fractions import Fraction

import pytest

from slotq.charging import (
    ChargeConstructionError,
    ChargeMap,
    F_CHARGE,
    build_charge_map,
    verify_charge_map,
)
from slotq.experiment import trace_digest
from slotq.generate import GeneratorParams, SplitMix64, gen_killer, gen_random
from slotq.model import (
    Trace,
    Transcript,
    check_transcript_invariants,
    validate_trace,
)
from slotq.oracle import (
    OfflineSchedule,
    _intersection,
    enumerate_feasible,
    optimal_bounded,
    verify_schedule,
)
from slotq.schedulers import check_slot_monotonicity, run_grq, run_naive_greedy
from slotq.search import adversarial_search
from support import SWEEP_SIZE, _sweep_params, run_optimized

CHARGE_TRACES = 1_000
ENUM_LIMIT = 50       # feasible adversaries per small instance
BIG_BUFFER_SALT = 777_000


def _verdict(number: int, description: str, violations: list) -> None:
    status = "PASS" if not violations else f"FAIL ({len(violations)} violations)"
    print(f"\n[criterion {number}] {description}: {status}")
    assert not violations, violations[:10]


@dataclass(frozen=True)
class SweepRun:
    trace: Trace
    grq: Transcript
    opt: OfflineSchedule


@pytest.fixture(scope="module")
def sweep() -> list[SweepRun]:
    runs = []
    for i in range(SWEEP_SIZE):
        trace = gen_random(_sweep_params(i))
        runs.append(SweepRun(trace, run_grq(trace), optimal_bounded(trace)))
    return runs


@dataclass(frozen=True)
class ChargingRun:
    index: int
    trace: Trace
    grq: Transcript
    charge_map: ChargeMap
    failures: tuple[str, ...]


@dataclass(frozen=True)
class ChargingResults:
    runs: tuple[ChargingRun, ...]
    construction_errors: tuple[str, ...]
    primary: int      # runs against the bounded optimum
    enumerated: int   # runs against enumerated feasible adversaries


@pytest.fixture(scope="module")
def charging(sweep) -> ChargingResults:
    runs: list[ChargingRun] = []
    errors: list[str] = []
    primary = enumerated = 0

    def check(i: int, trace: Trace, grq: Transcript, adv: OfflineSchedule):
        try:
            cmap = build_charge_map(grq, adv)
        except ChargeConstructionError as e:
            errors.append(f"trace {i}: construction failed: {e}")
            return
        report = verify_charge_map(cmap, grq, adv)
        runs.append(ChargingRun(i, trace, grq, cmap, tuple(report.failures())))

    for i, run in enumerate(sweep[:CHARGE_TRACES]):
        check(i, run.trace, run.grq, run.opt)
        primary += 1
        if len(run.trace.packets) <= 6:
            for adv in enumerate_feasible(run.trace, limit=ENUM_LIMIT):
                check(i, run.trace, run.grq, adv)
                enumerated += 1
    return ChargingResults(tuple(runs), tuple(errors), primary, enumerated)


def test_criterion_1_optimum_within_twice_online_value(sweep):
    violations = []
    assert len(sweep) >= 10_000
    for i, run in enumerate(sweep):
        trace = run.trace
        assert len(trace.packets) <= 10 and 1 <= trace.buffer_size <= 4
        assert trace.horizon <= 8
        assert all(
            p.weight.denominator == 1 and 1 <= p.weight <= 16
            for p in trace.packets
        )
        if run.opt.value > 2 * run.grq.total_weight:
            violations.append(
                f"trace {i}: optimum {run.opt.value} > 2 x {run.grq.total_weight}"
            )
    _verdict(
        1, f"offline optimum <= 2 x slot-queue value on {len(sweep)} seeded traces",
        violations,
    )


def test_criterion_2_charge_maps_pass_all_seven_checks(charging):
    violations = list(charging.construction_errors)
    for run in charging.runs:
        violations += [f"trace {run.index}: {f}" for f in run.failures]
    assert charging.primary >= 1_000
    assert charging.enumerated > 0
    _verdict(
        2,
        "charge maps pass all seven checks "
        f"({charging.primary} optimal + {charging.enumerated} enumerated adversaries)",
        violations,
    )


def test_criterion_3_slot_weight_monotonicity(sweep):
    violations = []
    for i, run in enumerate(sweep):
        violations += [f"trace {i}: {v}" for v in check_slot_monotonicity(run.grq)]
    _verdict(3, "per-slot weight monotonicity across every step", violations)


def test_criterion_4_forward_charge_rejection_evidence(charging):
    violations = []
    checked = 0
    for run in charging.runs:
        b = run.trace.buffer_size
        for charge in run.charge_map.of_kind(F_CHARGE):
            checked += 1
            t0 = charge.rejection_time
            weight = run.trace.by_id[charge.source_id].weight
            if t0 is None:
                violations.append(
                    f"trace {run.index}: forward charge for packet "
                    f"{charge.source_id} has no recorded rejection"
                )
                continue
            if t0 + b > charge.source_time:
                violations.append(
                    f"trace {run.index}: packet {charge.source_id} rejected at "
                    f"{t0} but adversary sends at {charge.source_time} < {t0} + {b}"
                )
            slots = [run.trace.by_rank[r] for r in run.grq.step(t0).slots]
            light = [
                (label, p.id)
                for label, p in enumerate(slots, start=t0)
                if p.weight < weight
            ]
            if light:
                violations.append(
                    f"trace {run.index}: slots {light} at step {t0} lighter "
                    f"than rejected weight {weight}"
                )
    _verdict(
        4, f"rejection-window evidence on {checked} forward charges", violations,
    )


def test_criterion_5_greedy_collapse_family():
    violations = []
    for b in (5, 10, 20):
        trace = gen_killer(b, Fraction(1, 10))
        expected = 1 + (b - 1) * Fraction(9, 10)
        greedy = run_naive_greedy(trace).total_weight
        opt = optimal_bounded(trace).value
        grq = run_grq(trace).total_weight
        if greedy != 1:
            violations.append(f"B={b}: greedy total {greedy} != 1")
        if opt != expected:
            violations.append(f"B={b}: optimum {opt} != {expected}")
        elif opt / greedy != expected:
            violations.append(f"B={b}: ratio {opt / greedy} != {expected}")
        if grq != opt:
            violations.append(f"B={b}: slot-queue value {grq} != optimum {opt}")
    _verdict(
        5, "greedy collapse family: ratios 23/5, 91/10, 181/10; slot queue optimal",
        violations,
    )


def _big_buffer_params(i: int) -> GeneratorParams:
    rng = SplitMix64(BIG_BUFFER_SALT + i)
    n = rng.below(9)
    buffer_size = max(n, 1) + rng.below(3)
    horizon = 1 + rng.below(8)
    return GeneratorParams(
        n=n, horizon=horizon, buffer_size=buffer_size,
        seed=rng.next_u64(), max_weight=16,
    )


def test_criterion_6_oracle_cross_checks(sweep):
    violations = []

    def cross_check(tag: str, trace: Trace, bounded: OfflineSchedule):
        unbounded = optimal_bounded(trace.relaxed)
        violations.extend(
            f"{tag}: bounded output rejected: {v}"
            for v in verify_schedule(trace, bounded)
        )
        violations.extend(
            f"{tag}: unbounded output rejected: {v}"
            for v in verify_schedule(trace.relaxed, unbounded)
        )
        if bounded.value > unbounded.value:
            violations.append(
                f"{tag}: bounded {bounded.value} > unbounded {unbounded.value}"
            )
        bigger = optimal_bounded(
            validate_trace(trace.buffer_size + 1, trace.packets))
        if bounded.value > bigger.value:
            violations.append(
                f"{tag}: optimum dropped from {bounded.value} to {bigger.value} "
                f"when the buffer grew"
            )
        return unbounded

    equal_cases = 0
    for i in range(1_000):
        trace = gen_random(_big_buffer_params(i))
        assert trace.buffer_size >= len(trace.packets)
        # the intersection itself, since optimal_bounded would return the
        # greedy's set here and the equality below would compare it with itself
        bounded = _intersection(trace)
        unbounded = cross_check(f"big-buffer {i}", trace, bounded)
        equal_cases += 1
        if bounded.value != unbounded.value:
            violations.append(
                f"big-buffer {i}: bounded {bounded.value} != "
                f"unbounded {unbounded.value} despite B >= n"
            )

    for i, run in enumerate(sweep):
        cross_check(f"sweep {i}", run.trace, run.opt)

    _verdict(
        6,
        f"oracle cross-checks ({equal_cases} capacity-irrelevant instances, "
        f"{len(sweep)} sweep instances)",
        violations,
    )


def test_criterion_7_structural_buffer_invariants(sweep):
    violations = []
    for i, run in enumerate(sweep):
        trace = run.grq.trace
        for rec in run.grq.steps:
            buf = [trace.by_rank[r] for r in rec.slots]
            for label, p in enumerate(buf, start=rec.time):
                if p.deadline < label:
                    violations.append(
                        f"trace {i} step {rec.time}: slot {label}: packet {p.id} "
                        f"has deadline {p.deadline} < label {label}"
                    )
            for label, (p, q) in enumerate(zip(buf, buf[1:]), start=rec.time + 1):
                if q.weight > p.weight:
                    violations.append(
                        f"trace {i} step {rec.time}: slot {label}: weight {q.weight} "
                        f"exceeds weight {p.weight} at slot {label - 1}"
                    )
            front = buf[0] if buf else None
            if rec.transmitted is None:
                if front is not None:
                    violations.append(
                        f"trace {i} step {rec.time}: idle with front occupied"
                    )
            elif front is None or front.id != rec.transmitted:
                violations.append(
                    f"trace {i} step {rec.time}: transmitted {rec.transmitted}, "
                    f"front is {front}"
                )
            elif any(p.weight > front.weight for p in buf):
                violations.append(
                    f"trace {i} step {rec.time}: front {front.id} is not heaviest"
                )
        violations += [f"trace {i}: {v}" for v in check_transcript_invariants(run.grq)]
    _verdict(
        7,
        "prefix occupancy, weight ordering, heaviest-front transmission, "
        "exactly-once termination",
        violations,
    )


def test_criterion_8_adversarial_search_stays_under_two():
    worst_ratio = Fraction(0)
    worst_digest = ""
    total_iterations = 0
    for buffer_size, iterations, seed in ((1, 2_000, 101), (2, 4_000, 202), (3, 4_000, 303)):
        params = GeneratorParams(
            n=8, horizon=8, buffer_size=buffer_size, seed=seed, max_weight=16)
        result = adversarial_search(params, iterations)
        total_iterations += result.iterations
        if result.ratio > worst_ratio:
            worst_ratio = result.ratio
            worst_digest = trace_digest(result.trace)
    assert total_iterations == 10_000
    violations = []
    if worst_ratio > 2:
        violations.append(
            f"ratio {worst_ratio} above 2, trace digest {worst_digest}")
    _verdict(
        8,
        f"adversarial search over {total_iterations} candidates: "
        f"worst ratio {worst_ratio} (digest {worst_digest})",
        violations,
    )


def _verdict_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith("[criterion ")]


def test_charge_verdicts_survive_optimize_flag(sweep, charging, capsys):
    # `python -O` strips assert statements, so every guarantee above must
    # rest on checks that raise.  The whole file runs once more under -O in
    # a child process: all nine tests must pass there and its eight verdict
    # lines must read exactly as in a plain run, made here in-process.  The
    # child's copy of this test starts no child of its own.
    if sys.flags.optimize:
        return
    test_criterion_1_optimum_within_twice_online_value(sweep)
    test_criterion_2_charge_maps_pass_all_seven_checks(charging)
    test_criterion_3_slot_weight_monotonicity(sweep)
    test_criterion_4_forward_charge_rejection_evidence(charging)
    test_criterion_5_greedy_collapse_family()
    test_criterion_6_oracle_cross_checks(sweep)
    test_criterion_7_structural_buffer_invariants(sweep)
    test_criterion_8_adversarial_search_stays_under_two()
    plain = _verdict_lines(capsys.readouterr().out)
    assert len(plain) == 8
    out = run_optimized(f"""
        import pytest
        sys.exit(pytest.main([{__file__!r}, "-q", "-s", "-p", "no:cacheprovider"]))
    """)
    assert "9 passed" in out
    assert _verdict_lines(out) == plain
