"""Differential check of the slot-queue self-checks against Fraction-keyed references.

The references below are the earlier, direct versions of
check_buffer_invariants, grq_transmit and check_slot_monotonicity: every
slot is visited and weights are compared as Fractions.  The production
checks (scaled-integer weights, occupied slots only) must return the same
violation lists and raise the same errors with the same messages.

Packets come from qtrace text so the same value can be spelled several ways
(1/3, 2/6, ...), next to near-equal values such as 333/1000.  Buffers are
drawn gapped, post-transmit, full, as rebuilt prefixes and at random, so
deadlines below labels, weight inversions and fronts that are not the
heaviest all occur; the second snapshot of a transcript is the first one
shifted by a step with some labels emptied or refilled, lighter or not.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from slotq.model import SlotBuffer, StepRecord, Transcript, check_buffer_invariants
from slotq.schedulers import check_slot_monotonicity, grq_transmit
from slotq.traceio import parse_trace


def reference_buffer_invariants(buffer, phase):
    out = []
    occ = [(buffer.base_time + i, p) for i, p in enumerate(buffer.slots) if p is not None]
    for label, p in occ:
        if p.deadline < label:
            out.append(f"slot {label}: packet {p.id} has deadline {p.deadline} < label {label}")
    if phase == "post-rebuild":
        if occ and occ[-1][0] - buffer.base_time >= len(occ):
            gap_at = buffer.base_time + buffer.slots.index(None)
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
    packets = tuple(p for p in buffer.slots if p is not None)
    if sent is None:
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
            pairs = zip(prev.slots[lo - prev.base_time :], buf.slots[lo - buf.base_time :])
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


def transmit(buf, t, trace):
    """grq_transmit on the ranks of buf's packets, survivors as packets again."""
    sent, rest = grq_transmit(buf, [trace.rank[p.id] for p in buf.packets()], t, trace)
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
def slot_buffers(draw, trace):
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
    return SlotBuffer(draw(st.integers(1, 6)), tuple(slots))


@st.composite
def buffer_cases(draw):
    trace = draw(packet_pools())
    return trace, draw(slot_buffers(trace))


@st.composite
def two_step_transcripts(draw):
    trace = draw(packet_pools())
    first = draw(slot_buffers(trace))
    if draw(st.booleans()):
        # the next step's window, with each label kept, emptied or refilled
        slots = []
        for p in first.slots[1:] + (None,):
            edit = draw(st.sampled_from(("keep", "keep", "empty", "refill")))
            if edit == "keep":
                slots.append(p)
            elif edit == "empty":
                slots.append(None)
            else:
                slots.append(draw(st.sampled_from(trace.packets)))
        second = SlotBuffer(first.base_time + 1, tuple(slots))
    else:
        second = draw(slot_buffers(trace))
    steps = tuple(
        StepRecord(t, (), buf, (), (), None) for t, buf in enumerate((first, second), start=1))
    return Transcript(trace, steps)


@given(buffer_cases(), st.sampled_from(("post-rebuild", "post-transmit")))
@settings(max_examples=300, deadline=None)
def test_buffer_invariants_match_reference(case, phase):
    trace, buf = case
    assert (check_buffer_invariants(buf, phase, trace.scaled_weight)
            == reference_buffer_invariants(buf, phase))


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
