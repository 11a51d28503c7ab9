"""Differential check of the slot-queue self-checks against Fraction-keyed references.

The reference below is the earlier, direct version of
check_slot_monotonicity: every slot of the B-slot window is visited and
weights are compared as Fractions.  The production check (Trace.rank_weight
integers, the filled prefix only, rank order before weights) must return
the same violation lists.  The same holds
for check_transcript_invariants against its earlier per-packet loop, on real
transcripts with dropped, duplicated, moved, foreign and misrecorded events.

Packets come from qtrace text so the same value can be spelled several ways
(1/3, 2/6, ...), next to near-equal values such as 333/1000.  A snapshot is
a tuple of ranks, slot i labeled t + i; they are drawn full, in rank order
and at random, so deadlines below labels and weight inversions both occur.
The second snapshot of a transcript is the first one shifted by one or two
steps with some labels emptied or refilled, lighter or not, or one drawn
afresh; the references read each snapshot's B slots through padded().
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from slotq.generate import GeneratorParams, gen_random
from slotq.model import (
    EXPIRED,
    Rejection,
    StepRecord,
    Transcript,
    check_transcript_invariants,
)
from slotq.schedulers import check_slot_monotonicity, run_grq, run_naive_greedy
from slotq.traceio import parse_trace


def padded(slots, trace):
    """All B slots of a snapshot: its packets, then None for each empty slot."""
    return [trace.by_rank[r] for r in slots] + [None] * (trace.buffer_size - len(slots))


def reference_monotonicity(transcript):
    trace = transcript.trace
    out = []
    prev = None
    for rec in transcript.steps:
        buf = padded(rec.slots, trace)
        if prev is not None:
            lo = max(prev_t, rec.time)
            # zip stops at the end of the shorter window: labels lo..hi
            pairs = zip(prev[lo - prev_t :], buf[lo - rec.time :])
            for label, (before, after) in enumerate(pairs, start=lo):
                if before is None or after is before:
                    continue
                if after is None or after.weight < before.weight:
                    got = "empty" if after is None else str(after.weight)
                    out.append(
                        f"label {label}: weight dropped from {before.weight} "
                        f"at t={prev_t} to {got} at t={rec.time}"
                    )
        prev, prev_t = buf, rec.time
    return out


def reference_transcript_invariants(transcript):
    trace = transcript.trace
    out = []
    events = {p.id: [] for p in trace.packets}

    for rec in transcript.steps:
        if rec.transmitted is not None:
            if rec.transmitted not in events:
                out.append(f"step {rec.time}: transmitted unknown packet {rec.transmitted}")
            else:
                events[rec.transmitted].append(("sent", rec.time))
        for rej in rec.rejections:
            if rej.packet_id not in events:
                out.append(f"step {rec.time}: rejected unknown packet {rej.packet_id}")
            else:
                events[rej.packet_id].append(("rejected", rec.time))

    for pid, evs in events.items():
        p = trace.by_id[pid]
        if len(evs) != 1:
            out.append(f"packet {pid}: expected exactly one terminal event, got {evs}")
            continue
        kind, t = evs[0]
        if not p.release <= t <= p.deadline:
            out.append(
                f"packet {pid}: {kind} at {t} outside window [{p.release}, {p.deadline}]"
            )
    return out


POOL_WEIGHTS = ("1/3", "2/6", "333/1000", "1/2", "2/4", "1", "3/3", "5/7", "0", "7", "14/2")


@st.composite
def packet_pools(draw):
    """A trace of 1..8 packets released at 1 with deadlines 1..10 and B in 1..8."""
    specs = draw(st.lists(
        st.tuples(st.integers(1, 10), st.sampled_from(POOL_WEIGHTS)), min_size=1, max_size=8))
    lines = [f"B {draw(st.integers(1, 8))}"]
    lines += [f"p {i} 1 {d} {w}" for i, (d, w) in enumerate(specs)]
    return parse_trace("\n".join(lines) + "\n")


@st.composite
def snapshots(draw, trace):
    """The ranks in the filled slots of a B-slot window: full, in rank order, ..."""
    ranks = st.integers(0, len(trace.packets) - 1)
    size = trace.buffer_size
    shape = draw(st.sampled_from(("any", "full", "rebuilt")))
    k = size if shape == "full" else draw(st.integers(0, size))
    slots = [draw(ranks) for _ in range(k)]
    return tuple(sorted(slots) if shape == "rebuilt" else slots)


@st.composite
def two_step_transcripts(draw):
    trace = draw(packet_pools())
    t, first = draw(st.integers(1, 6)), draw(snapshots(trace))
    if draw(st.booleans()):
        # the window one or two steps on, with each label kept, emptied or
        # refilled; the filled slots then end at the first empty label, or
        # close up over the emptied ones
        shift = draw(st.integers(1, 2))
        slots = []
        for p in padded(first, trace)[shift:] + [None] * shift:
            edit = draw(st.sampled_from(("keep", "keep", "empty", "refill")))
            if edit == "keep":
                slots.append(p)
            elif edit == "refill":
                slots.append(draw(st.sampled_from(trace.packets)))
            else:
                slots.append(None)
        if draw(st.booleans()):
            slots = slots[:slots.index(None)] if None in slots else slots
        else:
            slots = [p for p in slots if p is not None]
        second = (t + shift, tuple(trace.rank_id.index(p.id) for p in slots))
    else:
        second = (draw(st.integers(1, 6)), draw(snapshots(trace)))
    steps = tuple(StepRecord(time, slots, (), None) for time, slots in ((t, first), second))
    return Transcript(trace, steps)


@given(two_step_transcripts())
@settings(max_examples=300, deadline=None)
def test_slot_monotonicity_matches_reference(transcript):
    assert check_slot_monotonicity(transcript) == reference_monotonicity(transcript)


@st.composite
def tampered_transcripts(draw):
    """A run of either scheduler with up to three events dropped, duplicated,
    moved to another step, or replaced by a foreign id."""
    trace = gen_random(GeneratorParams(
        n=draw(st.integers(0, 8)), horizon=draw(st.integers(1, 6)),
        buffer_size=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**32)), max_weight=4))
    run = draw(st.sampled_from((run_grq, run_naive_greedy)))
    steps = list(run(trace).steps)
    ids = [p.id for p in trace.packets] + [len(trace.packets), 99]  # the last two are foreign
    step = st.integers(0, max(len(steps) - 1, 0))

    def moved(pid):
        """Where an event of `pid` moves: any step, or one past its deadline."""
        p = trace.by_id.get(pid)
        if p is None or p.deadline >= len(steps):
            return step
        return st.one_of(step, st.integers(p.deadline, len(steps) - 1))
    for _ in range(draw(st.integers(0, 3)) if steps else 0):
        i = draw(step)
        rec = steps[i]
        edit = draw(st.sampled_from(("drop", "add", "move")))
        if edit == "drop" and (rec.transmitted is not None or rec.rejections):
            if rec.transmitted is not None and (not rec.rejections or draw(st.booleans())):
                steps[i] = replace(rec, transmitted=None)
            else:
                k = draw(st.integers(0, len(rec.rejections) - 1))
                steps[i] = replace(rec, rejections=rec.rejections[:k] + rec.rejections[k + 1:])
        elif edit == "add":
            pid = draw(st.sampled_from(ids))
            if rec.transmitted is None and draw(st.booleans()):
                steps[i] = replace(rec, transmitted=pid)
            else:
                steps[i] = replace(rec, rejections=rec.rejections + (Rejection(pid, EXPIRED),))
        elif edit == "move" and rec.transmitted is not None and (
                not rec.rejections or draw(st.booleans())):
            j = draw(moved(rec.transmitted))  # trades steps with whatever j sends
            steps[i] = replace(rec, transmitted=steps[j].transmitted)
            steps[j] = replace(steps[j], transmitted=rec.transmitted)
        elif edit == "move" and rec.rejections:
            j = draw(moved(rec.rejections[0].packet_id))
            steps[i] = replace(rec, rejections=rec.rejections[1:])
            steps[j] = replace(steps[j], rejections=steps[j].rejections + rec.rejections[:1])
    return Transcript(trace, tuple(steps))


@given(tampered_transcripts())
@settings(max_examples=500, deadline=None)
def test_transcript_invariants_match_reference(transcript):
    assert (check_transcript_invariants(transcript)
            == reference_transcript_invariants(transcript))
