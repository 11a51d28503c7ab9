"""Online schedulers: the slot-queue algorithm and a naive greedy baseline.

Both schedulers process packets in one fixed order, computed once per trace
(Trace.rank): weight descending, then deadline ascending, then id ascending.
Weights are compared as exact integers scaled by the common denominator, so
the order is exact and no Fraction is compared while sorting.

Between steps both schedulers hold their buffer as a sorted list of ranks,
so merging a step's arrivals in is a plain sort of integers (two sorted
runs, close to a merge).  Deadlines and release steps are read from the
per-rank tuples Trace.rank_deadline / rank_release, and a rank becomes a
Packet (Trace.by_rank) only for what the transcript keeps: the labeled
SlotBuffer snapshot and the StepRecord ids.

The slot-queue scheduler (run_grq) keeps a buffer of B slots labeled with the
next B time steps.  Each step it rebuilds the buffer from scratch: survivors
plus fresh arrivals are considered in rank order and each packet goes to the
smallest-labeled empty slot that does not exceed its deadline, or is
rejected.  Filled slots always form a prefix, so that rule reduces to a
prefix rule: with k slots already filled, the next packet is accepted (into
slot k, label t + k) iff k < min(B, deadline - t + 1).  The front slot
(labeled with the current step) is then transmitted.  Because heavy packets
grab small labels first, the front packet is always a heaviest one — checked
on every step.

The naive greedy baseline (run_naive_greedy) just keeps the B heaviest live
packets and sends the heaviest each step.  It ignores deadlines when choosing
what to keep, which is exactly how it loses: a burst of mid-weight
short-deadline packets can crowd out slightly lighter packets that had time
to be sent later (see generate.gen_killer).

Both runners return a Transcript over steps t = 1..horizon with idle steps
recorded explicitly.  Their self-checks run on every step and raise
AssertionError explicitly, so they also run under `python -O`: carried
packets fit in B, every candidate is live at t, the rebuilt snapshot passes
check_buffer_invariants, the buffer is based at t, the front is heaviest,
survivors' deadlines are past t and nothing is left at the end (greedy: no
expired packet is held).  Weights in these checks, and in
check_slot_monotonicity, are compared as Trace.scaled_weight integers, and
each check is a builtin (min/max/all/sorted) over the occupied slots only; a
message is formatted only when a check fails.
"""

from itertools import compress
from typing import Iterable, Mapping, Sequence

from .model import (
    ADMISSION_REFUSED,
    EXPIRED,
    PREEMPTED,
    Packet,
    Rejection,
    SlotBuffer,
    StepRecord,
    Trace,
    Transcript,
    check_buffer_invariants,
)


def grq_rebuild(
    buffered: Sequence[int],
    arrivals: Iterable[int],
    t: int,
    trace: Trace,
) -> tuple[SlotBuffer, tuple[Rejection, ...], list[int]]:
    """Arrival-stage rebuild at step t: place survivors + arrivals, reject the rest.

    `buffered` (the packets carried from step t - 1) and `arrivals` (those
    released at t) are Trace.rank values of `trace`.  Packets are placed in
    rank order; each goes to the smallest-labeled empty slot whose label is
    <= its deadline.  A packet with no such slot is rejected — cause
    "preempted" if it was already buffered, "admission-refused" if it just
    arrived.  Both inputs must be live at t (release <= t <= deadline);
    offering an expired or future packet is a programming error.

    Returns the labeled snapshot, the rejections in rank order, and the
    ranks of the placed packets in slot order.
    """
    size = trace.buffer_size
    if len(buffered) > size:
        raise AssertionError("carried packets exceed buffer size")
    candidates = sorted([*buffered, *arrivals])
    deadline, release = trace.rank_deadline, trace.rank_release
    if candidates and (
        max(map(release.__getitem__, candidates)) > t
        or min(map(deadline.__getitem__, candidates)) < t
    ):
        r = next(r for r in candidates if not release[r] <= t <= deadline[r])
        raise AssertionError(f"packet {trace.by_rank[r].id} not live at t={t}")

    placed: list[int] = []
    rejected: list[int] = []
    # filled slots are a prefix, so the smallest empty slot is len(placed),
    # labeled t + len(placed); it exists iff that label is below t + size,
    # and the packet may take it iff the label is <= its deadline
    label, end = t, t + size
    for r in candidates:
        if label < end and label <= deadline[r]:
            placed.append(r)
            label += 1
        else:
            rejected.append(r)

    by_rank = trace.by_rank
    carried = set(buffered)
    rejections = tuple([
        Rejection(by_rank[r].id, PREEMPTED if r in carried else ADMISSION_REFUSED)
        for r in rejected
    ])
    packets = tuple([by_rank[r] for r in placed])
    buffer = SlotBuffer(t, packets + (None,) * (size - len(placed)))
    violations = check_buffer_invariants(buffer, "post-rebuild", trace.scaled_weight)
    if violations:
        raise AssertionError(f"rebuild at t={t} broke the buffer invariants: {violations}")
    return buffer, rejections, placed


def grq_transmit(
    buffer: SlotBuffer, t: int, scaled_weight: Mapping[int, int]
) -> tuple["Packet | None", tuple[Packet, ...]]:
    """Transmission stage: send the front-slot packet (or idle), return survivors.

    The front packet is always a maximum-weight packet in the buffer; this is
    a consequence of the rebuild order and is checked, not assumed, on the
    `scaled_weight` integers (normally Trace.scaled_weight).
    """
    if buffer.base_time != t:
        raise AssertionError(f"buffer based at {buffer.base_time} transmitted at t={t}")
    sent = buffer.front
    packets = buffer.packets()
    if sent is None:
        return None, packets
    if max([scaled_weight[p.id] for p in packets]) > scaled_weight[sent.id]:
        raise AssertionError(f"front packet {sent.id} is not heaviest at t={t}")
    return sent, packets[1:]


def run_grq(trace: Trace) -> Transcript:
    """Run the slot-queue scheduler over the whole trace."""
    rank, deadline, weight = trace.rank, trace.rank_deadline, trace.scaled_weight
    steps: list[StepRecord] = []
    held: list[int] = []  # ranks of the survivors, in slot order (= rank order)
    for t in range(1, trace.horizon + 1):
        arrivals = trace.arrivals_at(t)
        buffer, rejections, placed = grq_rebuild(held, [rank[p.id] for p in arrivals], t, trace)
        sent, _ = grq_transmit(buffer, t, weight)
        held = placed[1:]
        # survivors sat at labels >= t+1, so none can be past deadline at t+1
        if held and min(map(deadline.__getitem__, held)) <= t:
            raise AssertionError(f"a survivor of t={t} is past its deadline")
        steps.append(
            StepRecord(
                time=t,
                arrivals=tuple(sorted(p.id for p in arrivals)),
                slots=buffer,
                held=tuple(sorted([p.id for p in buffer.slots[: len(placed)]])),
                rejections=rejections,
                transmitted=sent.id if sent is not None else None,
            )
        )
    if held:
        raise AssertionError("packets left in the buffer after the last deadline")
    return Transcript(trace, tuple(steps))


def run_naive_greedy(trace: Trace) -> Transcript:
    """Run the keep-the-heaviest baseline over the whole trace.

    Per step: add arrivals, and if the buffer overflows drop the packets last
    in rank order (the lightest; among equals, larger deadline goes first,
    then larger id — the drop order most charitable to greedy); transmit the
    first in rank order, a heaviest packet.  Packets that reach their
    deadline unsent are recorded as expired at that deadline step, right
    after the transmission they lost.
    """
    rank, deadline, by_rank = trace.rank, trace.rank_deadline, trace.by_rank
    steps: list[StepRecord] = []
    held: list[int] = []  # ranks, ascending
    for t in range(1, trace.horizon + 1):
        if held and min(map(deadline.__getitem__, held)) < t:
            raise AssertionError(f"greedy holds an expired packet at t={t}")
        arrivals = trace.arrivals_at(t)
        arrived = [rank[p.id] for p in arrivals]
        # held is one sorted run, so this sort is a near-linear merge
        pool = sorted(held + arrived)
        held, overflow = pool[: trace.buffer_size], pool[trace.buffer_size :]
        fresh = set(arrived)
        rejections = [
            Rejection(by_rank[r].id, ADMISSION_REFUSED if r in fresh else PREEMPTED)
            for r in overflow
        ]
        held_ids = tuple(sorted([by_rank[r].id for r in held]))

        sent = by_rank[held[0]] if held else None
        held = held[1:]
        # unsent packets whose deadline is t are lost; record while in window
        expired = [r for r in held if deadline[r] == t]
        if expired:
            rejections += [Rejection(by_rank[r].id, EXPIRED) for r in expired]
            held = [r for r in held if deadline[r] > t]

        steps.append(
            StepRecord(
                time=t,
                arrivals=tuple(sorted(p.id for p in arrivals)),
                slots=None,
                held=held_ids,
                rejections=tuple(rejections),
                transmitted=sent.id if sent is not None else None,
            )
        )
    if held:
        raise AssertionError("greedy holds packets after the last deadline")
    return Transcript(trace, tuple(steps))


def check_slot_monotonicity(transcript: Transcript) -> list[str]:
    """Per-label weight monotonicity across consecutive rebuilt buffers.

    For every slot label, the weight sitting at that label never decreases
    between one post-rebuild snapshot and the next, for as long as the label
    is in both windows (an empty slot counts as bottom).  Only the labels the
    earlier snapshot occupies are compared, on Trace.scaled_weight integers.
    Returns violation strings; empty means the property held at every step.
    """
    weight = transcript.trace.scaled_weight
    out: list[str] = []
    prev: SlotBuffer | None = None
    for rec in transcript.steps:
        buf = rec.slots
        if buf is None:
            raise AssertionError("slot monotonicity needs labeled snapshots")
        if prev is not None:
            lo = max(prev.base_time, buf.base_time)
            before = prev.slots[lo - prev.base_time :]
            after = buf.slots[lo - buf.base_time :]
            # labels lo.. in both windows that `before` occupies, with the
            # packets at those labels in both snapshots (see SlotBuffer.labels)
            pairs = zip(
                compress(range(lo, lo + len(after)), before),
                filter(None, before),
                compress(after, before),
            )
            for label, was, now in pairs:
                if now is was:
                    continue
                if now is None or weight[now.id] < weight[was.id]:
                    got = "empty" if now is None else str(now.weight)
                    out.append(
                        f"label {label}: weight dropped from {was.weight} "
                        f"at t={prev.base_time} to {got} at t={buf.base_time}"
                    )
        prev = buf
    return out
