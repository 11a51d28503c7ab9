"""Differential check of the slot-queue self-checks against Fraction-keyed references.

The references below are the earlier, direct versions of
check_buffer_invariants, grq_transmit and check_slot_monotonicity: every
slot is visited and weights are compared as Fractions.  The production
checks (scaled-integer weights, occupied slots only) must return the same
violation lists and raise the same errors with the same messages.  The
same holds for check_transcript_invariants against its earlier per-packet
loop, on real transcripts with dropped, duplicated, moved, foreign and
misrecorded events.

Packets come from qtrace text so the same value can be spelled several ways
(1/3, 2/6, ...), next to near-equal values such as 333/1000.  Buffers are
drawn gapped, post-transmit, full, as rebuilt prefixes and at random, so
deadlines below labels, weight inversions and fronts that are not the
heaviest all occur; the second snapshot of a transcript is the first one
shifted by a step with some labels emptied or refilled, lighter or not, and
its window widened or narrowed.  Each snapshot is drawn as all its slots and
built from its stored prefix and size; the references read the slots back
through padded().
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from slotq.generate import GeneratorParams, gen_random
from slotq.model import (
    EXPIRED,
    Rejection,
    SlotBuffer,
    StepRecord,
    Transcript,
    check_buffer_invariants,
    check_transcript_invariants,
)
from slotq.schedulers import check_slot_monotonicity, grq_transmit, run_grq, run_naive_greedy
from slotq.traceio import parse_trace


def padded(buffer):
    """All `size` slots of a snapshot, the empty ones after its stored prefix included."""
    return buffer.prefix + (None,) * (buffer.size - len(buffer.prefix))


def reference_buffer_invariants(buffer):
    out = []
    occ = [(buffer.base_time + i, p) for i, p in enumerate(padded(buffer)) if p is not None]
    for label, p in occ:
        if p.deadline < label:
            out.append(f"slot {label}: packet {p.id} has deadline {p.deadline} < label {label}")
    if occ and occ[-1][0] - buffer.base_time >= len(occ):
        gap_at = buffer.base_time + padded(buffer).index(None)
        after = next(label for label, _ in occ if label > gap_at)
        out.append(f"slot {after}: occupied after empty slot {gap_at}")
    for (la, pa), (lb, pb) in zip(occ, occ[1:]):
        if pb.weight > pa.weight:
            out.append(f"slot {lb}: weight {pb.weight} exceeds weight {pa.weight} at slot {la}")
    return out


def reference_transmit(buffer, t):
    if buffer.base_time != t:
        raise AssertionError(f"buffer based at {buffer.base_time} transmitted at t={t}")
    sent = buffer.front
    packets = tuple(p for p in padded(buffer) if p is not None)
    if sent is None:
        if packets:
            raise AssertionError(f"front slot empty in a non-empty buffer at t={t}")
        return None, packets
    if any(p.weight > sent.weight for p in packets):
        raise AssertionError(f"front packet {sent.id} is not heaviest at t={t}")
    return sent, packets[1:]


def reference_monotonicity(transcript):
    out = []
    prev = None
    for rec in transcript.steps:
        buf = rec.slots
        if prev is not None:
            lo = max(prev.base_time, buf.base_time)
            # zip stops at the end of the shorter window: labels lo..hi
            pairs = zip(padded(prev)[lo - prev.base_time :], padded(buf)[lo - buf.base_time :])
            for label, (before, after) in enumerate(pairs, start=lo):
                if before is None or after is before:
                    continue
                if after is None or after.weight < before.weight:
                    got = "empty" if after is None else str(after.weight)
                    out.append(
                        f"label {label}: weight dropped from {before.weight} "
                        f"at t={prev.base_time} to {got} at t={buf.base_time}"
                    )
        prev = buf
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


def transmit(buf, t, trace):
    """grq_transmit on the ranks and weight column of buf's packets, survivors as
    packets again."""
    placed = [trace.rank[p.id] for p in buf.packets()]
    sent, rest = grq_transmit(buf, placed, [trace.rank_weight[r] for r in placed], t, trace)
    return sent, tuple(trace.by_rank[r] for r in rest)


def outcome(fn, *args):
    """fn's return value, or the type and message of what it raised."""
    try:
        return "returned", fn(*args)
    except Exception as e:  # compared, not swallowed
        return "raised", type(e).__name__, str(e)


SPELLED = ("1/3", "2/6", "333/1000", "1/2", "2/4", "1", "3/3", "5/7", "0", "7", "14/2")


@st.composite
def packet_pools(draw):
    """A trace of 1..8 packets released at 1 with deadlines 1..10."""
    specs = draw(st.lists(
        st.tuples(st.integers(1, 10), st.sampled_from(SPELLED)), min_size=1, max_size=8))
    lines = ["B 1"] + [f"p {i} 1 {d} {w}" for i, (d, w) in enumerate(specs)]
    return parse_trace("\n".join(lines) + "\n")


@st.composite
def slot_lists(draw, trace):
    """All slots of a buffer, padded to its size: gapped, full, rebuilt, ..."""
    packets = st.sampled_from(trace.packets)
    slot = st.one_of(st.none(), packets)
    size = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(("any", "full", "post-transmit", "prefix", "rebuilt")))
    if shape == "any":
        slots = [draw(slot) for _ in range(size)]
    elif shape == "full":
        slots = [draw(packets) for _ in range(size)]
    elif shape == "post-transmit":
        slots = [None] + [draw(slot) for _ in range(size - 1)]
    else:
        k = draw(st.integers(0, size))
        filled = [draw(packets) for _ in range(k)]
        if shape == "rebuilt":
            filled.sort(key=lambda p: (-p.weight, p.deadline, p.id))
        slots = filled + [None] * (size - k)
    return slots


def built(base_time, slots):
    """The snapshot of these slots: their stored prefix, up to the last
    occupied one, and their count as the size."""
    end = max((i + 1 for i, p in enumerate(slots) if p is not None), default=0)
    return SlotBuffer(base_time, tuple(slots[:end]), len(slots))


@st.composite
def slot_buffers(draw, trace):
    return built(draw(st.integers(1, 6)), draw(slot_lists(trace)))


@st.composite
def buffer_cases(draw):
    trace = draw(packet_pools())
    return trace, draw(slot_buffers(trace))


@st.composite
def two_step_transcripts(draw):
    trace = draw(packet_pools())
    first = draw(slot_buffers(trace))
    if draw(st.booleans()):
        # the next step's window, with each label kept, emptied or refilled,
        # and the window widened or narrowed at its end
        slots = []
        for p in padded(first)[1:] + (None,):
            edit = draw(st.sampled_from(("keep", "keep", "empty", "refill")))
            if edit == "keep":
                slots.append(p)
            elif edit == "empty":
                slots.append(None)
            else:
                slots.append(draw(st.sampled_from(trace.packets)))
        size = draw(st.sampled_from((len(slots),) * 2 + (max(len(slots) - 2, 1), len(slots) + 2)))
        slots = (slots + [None] * size)[:size]
        second = built(first.base_time + 1, slots)
    else:
        second = draw(slot_buffers(trace))
    steps = tuple(
        StepRecord(t, buf, (), None) for t, buf in enumerate((first, second), start=1))
    return Transcript(trace, steps)


@st.composite
def slot_cases(draw):
    trace = draw(packet_pools())
    return draw(st.integers(1, 6)), draw(slot_lists(trace))


@given(slot_cases())
@settings(max_examples=300, deadline=None)
def test_snapshot_views_match_its_slots(case):
    base_time, slots = case
    buf = built(base_time, slots)
    assert padded(buf) == tuple(slots) and buf.size == len(slots)
    assert buf.front is slots[0]
    assert buf.labels() == [base_time + i for i, p in enumerate(slots) if p is not None]
    assert buf.packets() == tuple(p for p in slots if p is not None)
    assert buf.occupied() == list(zip(buf.labels(), buf.packets()))


@given(buffer_cases())
@settings(max_examples=300, deadline=None)
def test_buffer_invariants_match_reference(case):
    trace, buf = case
    assert check_buffer_invariants(buf, trace.scaled_weight) == reference_buffer_invariants(buf)


@given(buffer_cases(), st.integers(-1, 1))
@settings(max_examples=300, deadline=None)
def test_transmit_matches_reference(case, offset):
    trace, buf = case
    t = buf.base_time + offset
    assert (outcome(transmit, buf, t, trace)
            == outcome(reference_transmit, buf, t))


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
