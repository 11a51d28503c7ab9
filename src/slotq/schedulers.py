"""Online schedulers: the slot-queue algorithm and a naive greedy baseline.

Both schedulers process packets in one fixed order, computed once per trace
(Trace.rank): weight descending, then deadline ascending, then id ascending.
Weights are compared as exact integers scaled by the common denominator, so
the order is exact and no Fraction is compared while sorting.

The slot-queue scheduler (run_grq) keeps a buffer of B slots labeled with the
next B time steps.  Each step it rebuilds the buffer from scratch: survivors
plus fresh arrivals are considered in rank order and each packet goes to the
smallest-labeled empty slot that does not exceed its deadline, or is
rejected.  Filled slots always form a prefix, so that rule reduces to a
prefix rule: with k slots already filled, the next packet is accepted (into
slot k, label t + k) iff k < min(B, deadline - t + 1).  The front slot
(labeled with the current step) is then transmitted.  Because heavy packets
grab small labels first, the front packet is always a heaviest one — checked
on every step.  Survivors leave the buffer in slot order, which is rank
order, so each step's sort is close to a merge.

The naive greedy baseline (run_naive_greedy) just keeps the B heaviest live
packets and sends the heaviest each step.  It ignores deadlines when choosing
what to keep, which is exactly how it loses: a burst of mid-weight
short-deadline packets can crowd out slightly lighter packets that had time
to be sent later (see generate.gen_killer).

Both runners return a Transcript over steps t = 1..horizon with idle steps
recorded explicitly.  Their self-checks raise AssertionError explicitly, so
they also run under `python -O`.
"""

from typing import Iterable, Mapping

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
    buffered: Iterable[Packet],
    arrivals: Iterable[Packet],
    t: int,
    buffer_size: int,
    rank: Mapping[int, int],
) -> tuple[SlotBuffer, tuple[Rejection, ...]]:
    """Arrival-stage rebuild at step t: place survivors + arrivals, reject the rest.

    Packets are placed in the order given by `rank` (packet id -> position,
    normally Trace.rank); each goes to the smallest-labeled empty slot whose
    label is <= its deadline.  A packet with no such slot is rejected — cause
    "preempted" if it was already buffered, "admission-refused" if it just
    arrived.  Both inputs must be live at t (release <= t <= deadline);
    offering an expired or future packet is a programming error.
    """
    buffered = tuple(buffered)
    arrivals = tuple(arrivals)
    if len(buffered) > buffer_size:
        raise AssertionError("carried packets exceed buffer size")
    buffered_ids = {p.id for p in buffered}

    placed: list[Packet] = []
    rejections: list[Rejection] = []
    for p in sorted(buffered + arrivals, key=lambda p: rank[p.id]):
        if not p.release <= t <= p.deadline:
            raise AssertionError(f"packet {p.id} not live at t={t}")
        # filled slots are a prefix, so the smallest empty slot is
        # len(placed), labeled t + len(placed); usable iff label <= deadline
        if len(placed) < min(buffer_size, p.deadline - t + 1):
            placed.append(p)
        else:
            cause = PREEMPTED if p.id in buffered_ids else ADMISSION_REFUSED
            rejections.append(Rejection(p.id, cause))

    buffer = SlotBuffer(t, tuple(placed) + (None,) * (buffer_size - len(placed)))
    violations = check_buffer_invariants(buffer, "post-rebuild")
    if violations:
        raise AssertionError(f"rebuild at t={t} broke the buffer invariants: {violations}")
    return buffer, tuple(rejections)


def grq_transmit(buffer: SlotBuffer, t: int) -> tuple["Packet | None", tuple[Packet, ...]]:
    """Transmission stage: send the front-slot packet (or idle), return survivors.

    The front packet is always a maximum-weight packet in the buffer; this is
    a consequence of the rebuild order and is checked, not assumed.
    """
    if buffer.base_time != t:
        raise AssertionError(f"buffer based at {buffer.base_time} transmitted at t={t}")
    sent = buffer.front
    packets = buffer.packets()
    if sent is None:
        return None, packets
    w = sent.weight
    if any(p.weight > w for p in packets):
        raise AssertionError(f"front packet {sent.id} is not heaviest at t={t}")
    return sent, packets[1:]


def run_grq(trace: Trace) -> Transcript:
    """Run the slot-queue scheduler over the whole trace."""
    rank = trace.rank
    steps: list[StepRecord] = []
    held: tuple[Packet, ...] = ()
    for t in range(1, trace.horizon + 1):
        arrivals = trace.arrivals_at(t)
        buffer, rejections = grq_rebuild(held, arrivals, t, trace.buffer_size, rank)
        sent, held = grq_transmit(buffer, t)
        # survivors sat at labels >= t+1, so none can be past deadline at t+1
        if any(p.deadline <= t for p in held):
            raise AssertionError(f"a survivor of t={t} is past its deadline")
        steps.append(
            StepRecord(
                time=t,
                arrivals=tuple(sorted(p.id for p in arrivals)),
                slots=buffer,
                held=tuple(sorted(p.id for p in buffer.packets())),
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
    rank = trace.rank
    steps: list[StepRecord] = []
    held: list[Packet] = []  # always in rank order
    for t in range(1, trace.horizon + 1):
        if any(p.deadline < t for p in held):
            raise AssertionError(f"greedy holds an expired packet at t={t}")
        arrivals = trace.arrivals_at(t)
        # held is one sorted run, so this sort is a near-linear merge
        pool = sorted(held + list(arrivals), key=lambda p: rank[p.id])
        held, overflow = pool[: trace.buffer_size], pool[trace.buffer_size :]
        arrived_ids = {p.id for p in arrivals}
        rejections = [
            Rejection(p.id, ADMISSION_REFUSED if p.id in arrived_ids else PREEMPTED)
            for p in overflow
        ]
        held_ids = tuple(sorted(p.id for p in held))

        sent = held[0] if held else None
        if sent is not None:
            held = held[1:]
        # unsent packets whose deadline is t are lost; record while in window
        expired = [p for p in held if p.deadline == t]
        held = [p for p in held if p.deadline > t]
        rejections.extend(Rejection(p.id, EXPIRED) for p in expired)

        steps.append(
            StepRecord(
                time=t,
                arrivals=tuple(sorted(arrived_ids)),
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
    is in both windows (an empty slot counts as bottom).  Returns violation
    strings; empty means the property held at every step.
    """
    out: list[str] = []
    prev: SlotBuffer | None = None
    for rec in transcript.steps:
        buf = rec.slots
        if buf is None:
            raise AssertionError("slot monotonicity needs labeled snapshots")
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
