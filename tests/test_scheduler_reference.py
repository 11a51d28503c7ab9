"""Differential check of both schedulers against direct statements of their rules.

The references below restate each scheduler without the per-trace integer
order: the slot-queue rebuild sorts by Fraction keys and scans the slots for
the smallest empty one no later than each packet's deadline, and greedy
re-sorts its whole pool by Fraction keys every step.  The production
schedulers (rank-keyed, prefix-rule rebuild) must leave identical transcripts.
The references also keep their buffers' ids per step; a transcript records
only events, so held_at derives the same ids from them.

Traces are written as qtrace text so the same value can be spelled several
ways (1/3, 2/6, 0.5, 2/4, ...), next to near-equal values such as 333/1000.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotq.generate import GeneratorParams, gen_random
from slotq.model import (
    ADMISSION_REFUSED,
    EXPIRED,
    PREEMPTED,
    Packet,
    Rejection,
    StepRecord,
    validate_trace,
)
from slotq.schedulers import grq_rebuild, run_grq, run_naive_greedy
from slotq.traceio import parse_trace
from support import weights


def fraction_key(p):
    return (-p.weight, p.deadline, p.id)


def arrivals_at(trace, t: int):
    """The packets released at step t, in trace order (a scan, not the indexes)."""
    return tuple([p for p in trace.packets if p.release == t])


def test_arrivals_at():
    t = validate_trace(2, [Packet(0, 1, 3, 1), Packet(1, 2, 2, 1), Packet(2, 1, 1, 1)])
    assert {p.id for p in arrivals_at(t, 1)} == {0, 2}
    assert [p.id for p in arrivals_at(t, 2)] == [1]
    assert arrivals_at(t, 3) == ()


def held_at(transcript, t: int) -> tuple[int, ...]:
    """The ids in the buffer after step t's arrival stage, ascending, from the
    recorded events alone: the packets released by t that are sent or expire
    at t or later, or are refused or preempted after t (a packet refused or
    preempted at t leaves in t's arrival stage)."""
    send, rejected = transcript.send_time, transcript.rejected_at

    def stays(pid):
        if pid in send:
            return send[pid] >= t
        end, cause = rejected[pid]
        return end >= t if cause == EXPIRED else end > t

    return tuple(sorted(p.id for p in transcript.trace.packets
                        if p.release <= t and stays(p.id)))


def reference_grq(trace) -> tuple[list[StepRecord], list[tuple[int, ...]]]:
    """The slot queue's steps and its buffer's ids after each arrival stage."""
    size = trace.buffer_size
    rank = {p.id: r for r, p in enumerate(trace.by_rank)}
    steps, held_ids_at = [], []
    held = ()
    for t in range(1, trace.horizon + 1):
        arrivals = arrivals_at(trace, t)
        held_ids = {p.id for p in held}
        slots = [None] * size
        rejections = []
        for p in sorted(held + arrivals, key=fraction_key):
            for i in range(min(size - 1, p.deadline - t) + 1):
                if slots[i] is None:
                    slots[i] = p
                    break
            else:
                cause = PREEMPTED if p.id in held_ids else ADMISSION_REFUSED
                rejections.append(Rejection(p.id, cause))
        end = max((i + 1 for i, p in enumerate(slots) if p is not None), default=0)
        sent = slots[0]
        held = tuple(p for p in slots[1:] if p is not None)
        steps.append(StepRecord(
            time=t,
            # the slots up to the last packet, as ranks (None for an empty slot)
            slots=tuple(None if p is None else rank[p.id] for p in slots[:end]),
            rejections=tuple(rejections),
            transmitted=None if sent is None else sent.id,
        ))
        held_ids_at.append(tuple(sorted(p.id for p in slots if p is not None)))
    return steps, held_ids_at


def reference_greedy(trace) -> tuple[list[StepRecord], list[tuple[int, ...]]]:
    """Greedy's steps and its buffer's ids after each arrival stage."""
    steps, held_ids_at = [], []
    held = []
    for t in range(1, trace.horizon + 1):
        arrivals = arrivals_at(trace, t)
        pool = sorted(held + list(arrivals), key=fraction_key)
        held, overflow = pool[: trace.buffer_size], pool[trace.buffer_size :]
        arrived_ids = {p.id for p in arrivals}
        rejections = [
            Rejection(p.id, ADMISSION_REFUSED if p.id in arrived_ids else PREEMPTED)
            for p in overflow
        ]
        held_ids_at.append(tuple(sorted(p.id for p in held)))
        sent = held.pop(0) if held else None
        rejections += [Rejection(p.id, EXPIRED) for p in held if p.deadline == t]
        held = [p for p in held if p.deadline > t]
        steps.append(StepRecord(
            time=t,
            slots=None,
            rejections=tuple(rejections),
            transmitted=None if sent is None else sent.id,
        ))
    return steps, held_ids_at


@st.composite
def written_traces(draw):
    buffer_size = draw(st.one_of(st.integers(1, 4), st.integers(1, 64)))
    lines = [f"B {buffer_size}"]
    # bursts: each group is one release step with up to 12 packets
    groups = draw(st.lists(
        st.tuples(st.integers(1, 12), st.lists(
            st.tuples(st.integers(0, 10), weights), min_size=1, max_size=12)),
        max_size=6,
    ))
    packets = [(r, r + span, w) for r, burst in groups for span, w in burst]
    ids = draw(st.permutations(range(len(packets))))
    for pid, (release, deadline, weight) in zip(ids, packets):
        lines.append(f"p {pid} {release} {deadline} {weight}")
    return parse_trace("\n".join(lines) + "\n")


def assert_same_steps(transcript, reference):
    steps, held_ids_at = reference
    assert len(transcript.steps) == len(steps) == len(held_ids_at)
    for got, want, want_held in zip(transcript.steps, steps, held_ids_at):
        t = want.time
        assert got.time == t
        # slot i of both is labeled t + i, and the reference's filled slots
        # form a prefix only if its snapshot holds no None
        assert got.slots == want.slots, f"slots differ at t={t}"
        assert held_at(transcript, t) == want_held, f"held differs at t={t}"
        assert got.rejections == want.rejections, f"rejections differ at t={t}"
        assert got.transmitted == want.transmitted, f"transmission differs at t={t}"


def rebuilt_columns(trace, reference_steps):
    """Per step of run_grq's rebuilds, the deadlines and the refused ids that
    grq_rebuild returns beside its snapshot, and the same columns read off
    the snapshot's packets in slot order and off the reference's rejections."""
    got, want, held = [], [], ()
    for ref in reference_steps:
        t = ref.time
        slots, deadlines, refused = grq_rebuild(held, trace.arrival_ranks.get(t, ()), t, trace)
        got.append((list(deadlines), [trace.rank_id[r] for r in refused]))
        want.append(([trace.by_rank[r].deadline for r in slots],
                     [rej.packet_id for rej in ref.rejections]))
        held = slots[1:]
    return got, want


@given(written_traces())
@settings(max_examples=200, deadline=None)
def test_schedulers_match_references(trace):
    reference = reference_grq(trace)
    assert_same_steps(run_grq(trace), reference)
    got, want = rebuilt_columns(trace, reference[0])
    assert got == want
    assert_same_steps(run_naive_greedy(trace), reference_greedy(trace))


@st.composite
def crowded_traces(draw):
    """More packets than B, released close together, sharing two or three
    deadlines and a few weights: greedy overflows and holds many equal
    deadlines, each of which one send, drop or expiry must remove once."""
    buffer_size = draw(st.integers(1, 5))
    deadlines = draw(st.lists(st.integers(1, 10), min_size=1, max_size=3))
    lines = [f"B {buffer_size}"]
    for pid in range(draw(st.integers(buffer_size + 1, 3 * buffer_size + 6))):
        deadline = draw(st.sampled_from(deadlines))
        release = draw(st.integers(max(1, deadline - 3), deadline))
        weight = draw(st.sampled_from(("1", "2", "2/4", "3")))
        lines.append(f"p {pid} {release} {deadline} {weight}")
    return parse_trace("\n".join(lines) + "\n")


@given(crowded_traces())
@settings(max_examples=300, deadline=None)
def test_schedulers_match_references_on_crowded_deadlines(trace):
    assert_same_steps(run_naive_greedy(trace), reference_greedy(trace))
    assert_same_steps(run_grq(trace), reference_grq(trace))


def bulk(buffer_size, seed):
    return GeneratorParams(n=400, horizon=80, buffer_size=buffer_size, seed=seed,
                           burst=Fraction(1, 2))


def sparse(buffer_size, seed):
    return GeneratorParams(n=48, horizon=2_000, buffer_size=buffer_size, seed=seed,
                           max_span=500, burst=Fraction(3, 4))


# the bulk-stream shape: greedy holds 90 and more packets and lets several
# expire in one step; at B=128 these seeds also overflow it, at B=192 no seed
# does.  B=1 overflows on every busy step, B >= n never.
# The sparse shape (sparse-horizon's over a tenth of its horizon, in bursts)
# idles for hundreds of steps between bursts that fill B=2 and B=8 and
# overflow them; at B=512 each snapshot stores a few of its slots.
SPARSE = [sparse(8, seed) for seed in (1, 2)] + [sparse(2, 4), sparse(512, 3)]
BULK = [bulk(128, seed) for seed in (2, 3, 5)] + [bulk(192, seed) for seed in (1, 2)] + [
    bulk(1, 4), bulk(400, 5)] + SPARSE


@pytest.mark.parametrize("params", BULK, ids=lambda p: (
    f"{'sparse-' if p.max_span else ''}B{p.buffer_size}-seed{p.seed}"))
def test_schedulers_match_references_at_bulk_stream_size(params):
    trace = gen_random(params)
    grq, greedy = run_grq(trace), run_naive_greedy(trace)
    assert_same_steps(grq, reference_grq(trace))
    assert_same_steps(greedy, reference_greedy(trace))
    if params in SPARSE:
        idle = "".join("." if not held_at(grq, rec.time) else "x" for rec in grq.steps)
        assert "." * 300 in idle
        held = max(len(held_at(grq, rec.time)) for rec in grq.steps)
        assert held == params.buffer_size if params.buffer_size <= 8 else held < 20
        return
    expiries = [sum(r.cause == EXPIRED for r in rec.rejections) for rec in greedy.steps]
    overflow = any(r.cause != EXPIRED for rec in greedy.steps for r in rec.rejections)
    assert overflow == (params.buffer_size <= 128)
    if params.buffer_size in (128, 192):
        assert max(len(held_at(greedy, rec.time)) for rec in greedy.steps) >= 90
        assert max(expiries) >= 3


def test_snapshots_store_only_their_filled_prefix():
    # two packets in a wide buffer over a long horizon: every snapshot
    # stores at most the two packets, not B slots per step
    trace = validate_trace(512, [Packet(0, 1, 5_000, 3), Packet(1, 1, 5_000, 2)])
    steps = run_grq(trace).steps
    assert len(steps) == 5_000
    assert [len(rec.slots) for rec in steps[:3]] == [2, 1, 0]
    assert max(len(rec.slots) for rec in steps) == 2
