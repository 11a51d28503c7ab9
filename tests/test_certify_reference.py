"""Differential check of the certification path against Fraction-keyed references.

The references below restate the schedule verifier and the charge layer the
direct way: every weight is compared and summed as a Fraction, occupancy is
counted step by step, F-charges take the first send step with spare capacity
by a scan from the start, and the window-counting check rescans every charge
for each rejection step.  The production code (scaled-integer weights and a
difference array) must report the same violations in the same order, and
build the same maps.

Traces are written as qtrace text so the same value can be spelled several
ways (1/3, 2/6, 0.5, 2/4, ...), next to near-equal values such as 333/1000.
"""

from collections import Counter
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from slotq.charging import (
    D_CHARGE,
    F_CHARGE,
    S_CHARGE,
    Charge,
    ChargeConstructionError,
    ChargeMap,
    _charge,
    assign_f_charges,
    build_charge_map,
    classify_charges,
    verify_charge_map,
)
from slotq.oracle import OfflineSchedule, enumerate_feasible, optimal_bounded, verify_schedule
from slotq.schedulers import run_grq
from slotq.traceio import parse_trace
from support import weights

# --- references ------------------------------------------------------------

def reference_sent_weight(grq, t):
    """The weight the slot queue sent at step t, 0 when idle, read from the
    step record and the packet table rather than Transcript.scaled_sent."""
    pid = grq.step(t).transmitted
    return Fraction(0) if pid is None else grq.trace.by_id[pid].weight


def reference_verify_schedule(trace, schedule):
    out = []
    per_step = Counter(schedule.assignment.values())
    for t in sorted(t for t, c in per_step.items() if c > 1):
        out.append(f"step {t}: {per_step[t]} packets assigned to one step")
    occupancy = Counter()
    for pid in sorted(schedule.assignment):
        t = schedule.assignment[pid]
        p = trace.by_id[pid]
        if not p.release <= t <= p.deadline:
            out.append(f"packet {pid}: sent at {t}, outside window [{p.release}, {p.deadline}]")
        for s in range(p.release, t + 1):
            occupancy[s] += 1
    runs = []  # [first, last, count] of each run of consecutive overfull steps with one count
    for s in sorted(s for s, c in occupancy.items() if c > trace.buffer_size):
        if runs and runs[-1][1] == s - 1 and runs[-1][2] == occupancy[s]:
            runs[-1][1] = s
        else:
            runs.append([s, s, occupancy[s]])
    for first, last, count in runs:
        steps = f"step {first}" if first == last else f"steps {first}..{last}"
        out.append(f"{steps}: {count} packets held, buffer size {trace.buffer_size}")
    total = sum((trace.by_id[pid].weight for pid in schedule.assignment), Fraction(0))
    if total != schedule.value:
        out.append(f"declared value {schedule.value} != recomputed {total}")
    return out


def reference_classify(grq, adv):
    errs = reference_verify_schedule(grq.trace, adv)
    if errs:
        raise AssertionError(f"adversary schedule infeasible: {errs}")
    trace = grq.trace
    out = []
    for t in sorted(adv.by_time):
        pid = adv.by_time[t]
        sent_at = grq.send_time.get(pid)
        if sent_at is not None and sent_at < t:
            out.append(Charge(S_CHARGE, t, pid, target=sent_at))
        elif trace.by_id[pid].weight <= reference_sent_weight(grq, t):
            out.append(Charge(D_CHARGE, t, pid, target=t))
        else:
            rec = grq.rejected_at.get(pid)
            if rec is None:
                raise ChargeConstructionError(
                    f"packet {pid} needs an F-charge at t={t} but GRQ never "
                    f"rejected it — rejection-window property violated"
                )
            out.append(Charge(F_CHARGE, t, pid, target=None, rejection_time=rec[0]))
    return tuple(out)


def reference_assign(grq, classified):
    counts = Counter()
    fixed, pending = [], []
    for c in classified:
        if c.kind == F_CHARGE:
            pending.append(c)
        else:
            counts[c.target] += 1
            fixed.append(c)
    send_steps = [rec.time for rec in grq.steps if rec.transmitted is not None]
    bsize = grq.trace.buffer_size
    placed = []
    for c in sorted(pending, key=lambda c: (c.rejection_time, c.source_time)):
        t0 = c.rejection_time
        target = next((s for s in send_steps if s >= t0 and counts[s] < 2), None)
        if target is None or target > t0 + bsize - 1:
            raise ChargeConstructionError(
                f"F-charge for packet {c.source_id} (adversary t={c.source_time}, "
                f"rejected t0={t0}) found no transmission step with spare capacity "
                f"in [{t0}, {t0 + bsize - 1}]; earliest available: {target}"
            )
        counts[target] += 1
        placed.append(c._replace(target=target))
    return ChargeMap(tuple(fixed) + tuple(placed))


def reference_verify_charge_map(cmap, grq, adv):
    trace = grq.trace
    bsize = trace.buffer_size
    horizon = trace.horizon
    of_kind = lambda kind: [c for c in cmap.charges if c.kind == kind]  # noqa: E731

    v1 = []
    sends = set(adv.by_time.items())
    sources = Counter((c.source_time, c.source_id) for c in cmap.charges)
    for t, pid in sorted(sends):
        n = sources.get((t, pid), 0)
        if n != 1:
            v1.append(f"adversary send ({t}, packet {pid}) has {n} charges")
    for (t, pid), n in sorted(sources.items()):
        if (t, pid) not in sends:
            v1.append(f"charge source ({t}, packet {pid}) is not an adversary send")

    per_target = Counter(c.target for c in cmap.charges if c.target is not None)
    v2 = [f"target step {t} carries {per_target[t]} charges"
          for t in sorted(t for t, n in per_target.items() if n > 2)]

    v3 = []
    for c in cmap.charges:
        if c.kind not in (S_CHARGE, D_CHARGE, F_CHARGE):
            v3.append(f"charge from packet {c.source_id}: unknown kind {c.kind!r}")
            continue
        if c.target is None or not 1 <= c.target <= horizon:
            v3.append(f"{c.kind}-charge from packet {c.source_id}: bad target {c.target}")
            continue
        if c.source_id not in trace.by_id:
            v3.append(f"{c.kind}-charge from packet {c.source_id}: no such packet in the trace")
            continue
        sw = trace.by_id[c.source_id].weight
        tw = reference_sent_weight(grq, c.target)
        if sw > tw:
            v3.append(f"{c.kind}-charge from packet {c.source_id} (w={sw}) "
                      f"lands on step {c.target} which sent only w={tw}")

    v4 = []
    f_charges = of_kind(F_CHARGE)
    for c in f_charges:
        t0 = c.rejection_time
        if t0 is None:
            v4.append(f"F-charge from packet {c.source_id} lacks a rejection time")
            continue
        if t0 + bsize > c.source_time:
            v4.append(f"F-charge from packet {c.source_id}: rejection {t0} + B={bsize} "
                      f"> adversary time {c.source_time}")
        if c.target is None or not t0 <= c.target <= t0 + bsize - 1:
            v4.append(f"F-charge from packet {c.source_id}: target {c.target} outside "
                      f"[{t0}, {t0 + bsize - 1}]")

    v5 = []
    for c in f_charges:
        t0 = c.rejection_time
        if t0 is None or not 1 <= t0 <= horizon:
            v5.append(f"F-charge from packet {c.source_id}: no usable rejection step")
            continue
        recorded = grq.rejected_at.get(c.source_id)
        if recorded is None or recorded[0] != t0:
            v5.append(f"F-charge from packet {c.source_id}: transcript records rejection "
                      f"{recorded}, charge claims t0={t0}")
            continue
        w = trace.by_id[c.source_id].weight
        for label, r in enumerate(grq.step(t0).slots, start=t0):
            p = trace.by_rank[r]
            if p.weight < w:
                v5.append(f"F-charge from packet {c.source_id} (w={w}): slot {label} at "
                          f"t0={t0} holds packet {p.id} with smaller weight {p.weight}")

    v6 = []
    groups = {}
    for c in f_charges:
        if c.rejection_time is not None:
            groups.setdefault(c.rejection_time, []).append(c)
    for t0 in sorted(groups):
        hi = t0 + bsize - 1
        in_win = lambda s: t0 <= s <= hi  # noqa: E731
        d_n = sum(1 for c in of_kind(D_CHARGE) if c.target is not None and in_win(c.target))
        s_in = [c for c in of_kind(S_CHARGE) if c.target is not None and in_win(c.target)]
        s1 = sum(1 for c in s_in if in_win(c.source_time))
        s2 = len(s_in) - s1
        earlier = [c for c in f_charges
                   if c.rejection_time is not None and c.rejection_time < t0
                   and c.target is not None and c.target >= t0]
        g1 = sum(1 for c in earlier if in_win(c.source_time))
        g2 = len(earlier) - g1
        f_n = len(groups[t0])
        if g1 + d_n + s1 > bsize:
            v6.append(f"t0={t0}: in-window sources {g1}+{d_n}+{s1} "
                      f"(carried-F + D + same-window-S) exceed B={bsize}")
        if g2 + f_n + s2 > bsize:
            v6.append(f"t0={t0}: later sources {g2}+{f_n}+{s2} "
                      f"(carried-F + new-F + later-S) exceed B={bsize}")

    v7 = []
    if adv.value > 2 * grq.total_weight:
        v7.append(f"adversary value {adv.value} > 2 x GRQ value {grq.total_weight}")
    return [v1, v2, v3, v4, v5, v6, v7]


# --- strategies ------------------------------------------------------------

@st.composite
def written_traces(draw, max_release=8, max_span=6, min_packets=0, max_packets=8, max_buffer=4):
    buffer_size = draw(st.integers(1, max_buffer))
    packets = draw(st.lists(
        st.tuples(st.integers(1, max_release), st.integers(0, max_span), weights),
        min_size=min_packets, max_size=max_packets,
    ))
    ids = draw(st.permutations(range(len(packets))))
    lines = [f"B {buffer_size}"] + [
        f"p {pid} {r} {r + span} {w}" for pid, (r, span, w) in zip(ids, packets)
    ]
    return parse_trace("\n".join(lines) + "\n")


def outcome(fn, *args):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return "ok", fn(*args)
    except (AssertionError, ChargeConstructionError) as e:
        return type(e).__name__, str(e)


def verdicts(report):
    return [list(c.violations) for c in report.checks]


def tamper(draw, cmap, trace):
    """A copy of `cmap` with a few shifted, dropped, duplicated or re-kinded charges.

    A "kind" edit may name a kind other than S, D or F, which check 3
    reports.  A "source" edit names another packet of the trace, or the id
    one past its largest, which check 3 reports as no such packet.  A "resource" edit
    copies another charge's source, so the map keeps its length while one
    send is charged twice and another not at all; a "stack" edit puts a
    third charge on a target step.  Those two are what a count-and-set
    pre-test of checks 1 and 2 could let through.
    """
    charges = list(cmap.charges)
    ids = sorted(trace.by_id)
    for _ in range(draw(st.integers(1, 3))):
        if not charges:
            break
        i = draw(st.integers(0, len(charges) - 1))
        c = charges[i]
        edit = draw(st.sampled_from(
            ("target", "drop", "dup", "kind", "rejection", "source", "resource", "stack")))
        if edit == "target":
            shift = draw(st.sampled_from((-2, -1, 1, 2, 9)))
            charges[i] = c._replace(target=None if c.target is None else c.target + shift)
        elif edit == "drop":
            del charges[i]
        elif edit == "dup":
            charges.insert(draw(st.integers(0, len(charges))), c)
        elif edit == "kind":
            charges[i] = c._replace(kind=draw(st.sampled_from((S_CHARGE, D_CHARGE, F_CHARGE, "X", ""))))
        elif edit == "rejection":
            charges[i] = c._replace(rejection_time=draw(st.integers(-1, trace.horizon + 2)))
        elif edit == "source":
            foreign = ids[-1] + 1  # a charge's source is a packet, so ids is not empty
            charges[i] = c._replace(source_id=draw(st.sampled_from(ids) | st.just(foreign)))
        elif edit == "resource":
            o = charges[draw(st.integers(0, len(charges) - 1))]
            charges[i] = c._replace(source_time=o.source_time, source_id=o.source_id)
        else:
            on_target = [o for o in charges if o.target == c.target]
            for _ in range(max(1, 3 - len(on_target))):
                o = charges[draw(st.integers(0, len(charges) - 1))]
                charges.insert(draw(st.integers(0, len(charges))), o._replace(target=c.target))
    return ChargeMap(tuple(charges))


# --- properties ------------------------------------------------------------

@given(st.data())
@settings(max_examples=300, deadline=None)
def test_verify_schedule_matches_reference(data):
    trace = data.draw(written_traces())
    ids = sorted(trace.by_id)
    # arbitrary assignments: sends before release or after the deadline,
    # shared steps, overfull buffers
    chosen = data.draw(st.lists(st.sampled_from(ids), unique=True) if ids else st.just([]))
    hi = trace.horizon + 2
    assignment = {pid: data.draw(st.integers(-1, hi)) for pid in chosen}
    schedule = OfflineSchedule.of(trace, assignment)
    assert schedule.value == sum((trace.by_id[pid].weight for pid in assignment), Fraction(0))
    if data.draw(st.booleans()):
        schedule = OfflineSchedule(assignment, data.draw(st.fractions(0, 40, max_denominator=12)))
    assert verify_schedule(trace, schedule) == reference_verify_schedule(trace, schedule)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_charge_layer_matches_reference(data):
    trace = data.draw(written_traces(max_packets=7))
    grq = run_grq(trace)
    adversaries = [optimal_bounded(trace)] + enumerate_feasible(trace, 30)
    adv = adversaries[data.draw(st.integers(0, len(adversaries) - 1))]
    if data.draw(st.integers(0, 4)) == 0:  # also an arbitrary, mostly infeasible one
        ids = sorted(trace.by_id)
        chosen = data.draw(st.lists(st.sampled_from(ids), unique=True) if ids else st.just([]))
        adv = OfflineSchedule.of(
            trace, {pid: data.draw(st.integers(1, max(trace.horizon, 1))) for pid in chosen})

    got = outcome(build_charge_map, grq, adv)
    want = outcome(lambda g, a: reference_assign(g, reference_classify(g, a)), grq, adv)
    assert got == want
    if got[0] != "ok":
        return
    cmap = got[1]
    assert verdicts(verify_charge_map(cmap, grq, adv)) == reference_verify_charge_map(cmap, grq, adv)
    bad = tamper(data.draw, cmap, trace)
    assert verdicts(verify_charge_map(bad, grq, adv)) == reference_verify_charge_map(bad, grq, adv)


# In each, GRQ rejects a packet at step 1 (packet 1, then packet 2) that an
# adversary can still send B or more steps later, when GRQ sends something
# lighter or nothing: an F-charge
FORWARD_TRACES = (
    "B 1\np 0 1 1 5\np 1 1 3 4\n",
    "B 2\np 0 1 2 6\np 1 1 2 5\np 2 1 5 4\np 3 3 4 1\n",
)


def without_rejections(grq):
    """A copy of `grq` that records no rejection: every F-charge then names
    a packet GRQ never rejected."""
    return replace(grq, steps=tuple(replace(rec, rejections=()) for rec in grq.steps))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_classification_shared_per_transcript_matches_reference(data):
    # Classified charges are interned: equal charges, from any adversary,
    # transcript or trace, are one instance from charging._charge.
    # Interleave calls on one transcript, a plain copy and a copy without
    # rejections, over every enumerated adversary, the optimum and an
    # infeasible one: each call must still give the reference's map, or
    # its exception and message, also after an earlier call raised, and
    # every charge it classifies must be the cache's instance.
    trace = data.draw(st.one_of(
        st.sampled_from(FORWARD_TRACES).map(parse_trace),
        written_traces(min_packets=1, max_packets=6),
    ))
    grq = run_grq(trace)
    transcripts = (grq, replace(grq), without_rejections(grq))
    first = min(trace.packets, key=lambda p: p.id)
    infeasible = OfflineSchedule.of(trace, {first.id: first.deadline + 1})
    adversaries = enumerate_feasible(trace, 30) + [optimal_bounded(trace), infeasible]
    calls = [(g, a) for g in transcripts for a in adversaries] * 2
    for g, adv in data.draw(st.permutations(calls)):
        want = outcome(lambda g, a: reference_assign(g, reference_classify(g, a)), g, adv)
        assert outcome(build_charge_map, g, adv) == want
        if want[0] == "ok":
            assert all(c is _charge(*c) for c in classify_charges(g, adv))


def test_forward_traces_reach_every_outcome():
    # the fixed traces above do exercise F-charges and the raise on a
    # transcript that records no rejection
    for text in FORWARD_TRACES:
        trace = parse_trace(text)
        grq = run_grq(trace)
        bare = without_rejections(grq)
        kinds, raised = set(), set()
        for adv in enumerate_feasible(trace, 30):
            kinds |= {c.kind for c in build_charge_map(grq, adv).charges}
            raised.add(outcome(build_charge_map, bare, adv)[0])
        assert F_CHARGE in kinds
        assert {"ok", "ChargeConstructionError"} <= raised


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_many_forward_charges_match_reference(data):
    # F-charges are rare on small traces, so this draws them directly: a long
    # transcript and dozens of F-charges (plus S/D charges) with arbitrary
    # rejection steps, placed and verified by both sides
    trace = data.draw(written_traces(
        max_release=40, max_span=12, min_packets=1, max_packets=60, max_buffer=12))
    grq = run_grq(trace)
    horizon = trace.horizon
    ids = sorted(trace.by_id)
    steps = st.integers(1, horizon)
    # rejection steps mostly at GRQ sends, so placement usually succeeds and
    # fills steps to two charges
    send_steps = sorted(grq.send_time.values()) or [1]
    rejections = st.one_of(st.sampled_from(send_steps), steps)
    fixed = data.draw(st.lists(
        st.builds(lambda kind, t, pid, target: Charge(kind, t, pid, target),
                  st.sampled_from((S_CHARGE, D_CHARGE)), steps, st.sampled_from(ids), steps),
        max_size=20,
    ))
    forward = data.draw(st.lists(
        st.builds(lambda t, pid, t0: Charge(F_CHARGE, t, pid, None, rejection_time=t0),
                  steps, st.sampled_from(ids), rejections),
        min_size=10, max_size=80,
    ))
    classified = tuple(data.draw(st.permutations(fixed + forward)))
    got = outcome(assign_f_charges, grq, classified)
    assert got == outcome(reference_assign, grq, classified)

    # verify maps whose F-charges carry arbitrary targets, placed or not
    targets = st.one_of(st.none(), st.integers(0, horizon + 1))
    charges = [c if c.kind != F_CHARGE else c._replace(target=data.draw(targets))
               for c in classified]
    maps = [ChargeMap(tuple(charges))] + ([got[1]] if got[0] == "ok" else [])
    adv = OfflineSchedule.of(trace, {})
    for cmap in maps:
        assert verdicts(verify_charge_map(cmap, grq, adv)) == reference_verify_charge_map(
            cmap, grq, adv)



def test_window_counting_edges_match_reference():
    # check 6 counts charges by where their target and source fall relative
    # to each window [t0, t0 + B - 1]; put them on both edges and just
    # outside, B or B + 1 times, so every count is pushed across B
    for text in ("B 2\np 0 1 6 3\np 1 1 6 2\np 2 2 4 5\np 3 3 3 1\n",
                 "B 3\np 0 1 7 1\np 1 2 5 4\np 2 2 6 2\np 3 4 4 3\n"):
        trace = parse_trace(text)
        grq = run_grq(trace)
        adv = OfflineSchedule.of(trace, {})
        bsize = trace.buffer_size
        for t0 in range(1, trace.horizon + 1):
            edges = (t0 - 1, t0, t0 + bsize - 1, t0 + bsize)
            new = Charge(F_CHARGE, t0 + bsize, 0, t0, rejection_time=t0)
            for kind in (S_CHARGE, D_CHARGE, F_CHARGE):
                for target in edges:
                    for source in edges:
                        for copies in (bsize, bsize + 1):
                            # an F-charge here is carried: rejected before t0
                            other = Charge(kind, source, 1, target, rejection_time=t0 - 1)
                            cmap = ChargeMap((new,) + (other,) * copies)
                            assert verdicts(verify_charge_map(cmap, grq, adv)) == (
                                reference_verify_charge_map(cmap, grq, adv))
