"""Online schedulers: the slot-queue algorithm and a naive greedy baseline.

Both schedulers process packets in one fixed order, computed once per trace
(Trace.rank): weight descending, then deadline ascending, then id ascending.
Weights are compared as exact integers scaled by the common denominator, so
the order is exact and no Fraction is compared while sorting.

A step changes few packets: its arrivals, at most one send, its rejections
and expiries.  Both runners look these up in per-trace indexes built once:
Trace.arrival_ranks (per release step), expiring_ranks (per deadline) and
the rank-indexed tuples rank_id, rank_deadline, rank_release and
rank_weight.  Each holds its buffer as a sorted list of ranks and records
only its own decisions (rejections, send): never the step's arrivals, which
the trace holds, nor a copy of the buffer.  A rank becomes a Packet
(Trace.by_rank) only in the labeled SlotBuffer.

The slot-queue scheduler (run_grq) keeps a buffer of B slots labeled with the
next B time steps.  Each step it rebuilds the buffer from scratch: survivors
plus fresh arrivals are considered in rank order and each packet goes to the
smallest-labeled empty slot that does not exceed its deadline, or is
rejected.  Filled slots always form a prefix, so that rule reduces to a
prefix rule: with k slots already filled, the next packet is accepted (into
slot k, label t + k) iff k < min(B, deadline - t + 1).  The front slot
(labeled with the current step) is then transmitted.  Because heavy packets
grab small labels first, the front packet is always a heaviest one — checked
on every step.  The rebuild touches every held packet, and the snapshot
stores only the filled prefix and B (SlotBuffer.prefix and size), so a step
costs what the buffer holds, not B.  A step with nothing carried and nothing
arriving returns an empty snapshot at once.

A slot-queue step is two stages with one contract.  grq_rebuild(held,
arrivals, t, trace) returns the snapshot, the rejections, and three columns
of the placed packets in slot order: their ranks, their deadlines and their
Trace.rank_weight values.  grq_transmit(buffer, placed, weights, t, trace)
sends the front and returns the survivors, placed[1:]; run_grq checks the
survivors on the placed deadlines after the front.  The placement loop
collects the deadlines as it reads them, and one operator.itemgetter over
the placed ranks gathers the snapshot's packets and one their weights.

The naive greedy baseline (run_naive_greedy) just keeps the B heaviest live
packets and sends the heaviest each step.  It ignores deadlines when choosing
what to keep, which is exactly how it loses: a burst of mid-weight
short-deadline packets can crowd out slightly lighter packets that had time
to be sent later (see generate.gen_killer).  Its step bisects the arrivals
in, and the overflow, the send and the packets of expiring_ranks[t] out,
of the held ranks and their deadlines (by Trace.rank_deadline).  It walks
the overflow only when the buffer overflows, and expiring_ranks[t] only
when its smallest held deadline is t: no held deadline is below t then.

Both runners return a Transcript over steps t = 1..horizon with idle steps
recorded explicitly.  Their self-checks run on every step and raise
AssertionError explicitly, so they also run under `python -O`: carried
packets fit in B, every candidate is live at t, the rebuilt snapshot keeps
deadline >= label and non-increasing weights, the buffer is based at t, its
front is the first placed rank and a heaviest packet, survivors' deadlines
are past t, an empty front means an empty buffer, and nothing is left at
the end.  Greedy checks that no held packet is past its deadline on the
smallest of its sorted held deadlines, which come from Trace.rank_deadline,
not from the expiry index, so a wrong index still raises.  The slot-queue
checks read each step's columns once: grq_rebuild's placement loop tests
each candidate's liveness as it reads its deadline, and the label and
weight-order tests, grq_transmit's heaviest-front test and the survivor
check apply all/max/min to the columns the rebuild returns;
check_buffer_invariants only words a failure.  The gathers use itemgetter,
not a comprehension turned into a tuple: with CPython 3.11.7 (timeit) a
gather of 28 ranks took 0.22 us against 0.36 us, and of 53 ranks 0.36 us
against 0.59 us.
check_slot_monotonicity compares Trace.scaled_weight integers over the
occupied slots of the stored prefixes only.
"""

from bisect import bisect_left, insort
from itertools import compress
from operator import ge, itemgetter, le
from typing import Sequence

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
    arrivals: Sequence[int],
    t: int,
    trace: Trace,
) -> tuple[SlotBuffer, tuple[Rejection, ...], list[int], list[int], tuple[int, ...]]:
    """Arrival-stage rebuild at step t: place survivors + arrivals, reject the rest.

    `buffered` (the packets carried from step t - 1) and `arrivals` (those
    released at t) are Trace.rank values of `trace`.  Packets are placed in
    rank order; each goes to the smallest-labeled empty slot whose label is
    <= its deadline.  A packet with no such slot is rejected — cause
    "preempted" if it was already buffered, "admission-refused" if it just
    arrived.  Both inputs must be live at t (release <= t <= deadline);
    offering an expired or future packet is a programming error.

    Returns the labeled snapshot, the rejections in rank order, and three
    columns of the placed packets in slot order: their ranks, their
    deadlines (Trace.rank_deadline) and their weights (Trace.rank_weight).
    """
    size = trace.buffer_size
    if not buffered and not arrivals:
        # an idle step: every check below would run over an empty set
        return SlotBuffer(t, (), size), (), [], [], ()
    if len(buffered) > size:
        raise AssertionError("carried packets exceed buffer size")
    candidates = sorted([*buffered, *arrivals])
    deadline, release = trace.rank_deadline, trace.rank_release
    placed: list[int] = []
    placed_dl: list[int] = []
    rejected: list[int] = []
    # filled slots are a prefix, so the smallest empty slot is len(placed),
    # labeled t + len(placed); it exists iff that label is below t + size,
    # and the packet may take it iff the label is <= its deadline; every
    # candidate must be live at t, the first one that is not raises
    label, end = t, t + size
    for r in candidates:
        d = deadline[r]
        if d < t or release[r] > t:
            raise AssertionError(f"packet {trace.rank_id[r]} not live at t={t}")
        if label < end and label <= d:
            placed.append(r)
            placed_dl.append(d)
            label += 1
        else:
            rejected.append(r)

    rejections: tuple[Rejection, ...] = ()
    if rejected:
        fresh, ids = set(arrivals), trace.rank_id
        rejections = tuple([
            Rejection(ids[r], ADMISSION_REFUSED if r in fresh else PREEMPTED) for r in rejected
        ])
    # the first candidate always takes slot t, so placed is never empty here;
    # an itemgetter of one rank returns the item itself, not a 1-tuple
    if len(placed) > 1:
        gather = itemgetter(*placed)
        packets, w = gather(trace.by_rank), gather(trace.rank_weight)
    else:
        packets, w = (trace.by_rank[placed[0]],), (trace.rank_weight[placed[0]],)
    buffer = SlotBuffer(t, packets, size)
    # the snapshot is a filled prefix by construction; its labels and weights
    # are checked on the gathered columns, and check_buffer_invariants words a failure
    if not (all(map(le, range(t, label), placed_dl))
            and all(map(ge, w, w[1:]))):
        violations = check_buffer_invariants(buffer, trace.scaled_weight)
        raise AssertionError(f"rebuild at t={t} broke the buffer invariants: {violations}")
    return buffer, rejections, placed, placed_dl, w


def grq_transmit(
    buffer: SlotBuffer, placed: list[int], weights: Sequence[int], t: int, trace: Trace
) -> tuple["Packet | None", list[int]]:
    """Transmission stage: send the front-slot packet (or idle), return the survivors.

    `placed` and `weights` hold the Trace.rank values of the buffer's packets
    in slot order and their Trace.rank_weight values (grq_rebuild's third and
    fifth results); the survivors are returned as ranks the same way.  The
    front packet must be the one at placed[0], and it is always a
    maximum-weight packet in the buffer; this is a consequence of the rebuild
    order and is checked, not assumed, on `weights`.  An empty front slot is
    an idle step only if nothing is placed: the rebuild fills a prefix.
    """
    if buffer.base_time != t:
        raise AssertionError(f"buffer based at {buffer.base_time} transmitted at t={t}")
    sent = buffer.front
    if sent is None:
        if placed or buffer.prefix:
            raise AssertionError(f"front slot empty in a non-empty buffer at t={t}")
        return None, []
    if not placed or trace.rank_id[placed[0]] != sent.id:
        raise AssertionError(f"front packet {sent.id} is not the first placed rank at t={t}")
    if max(weights) > weights[0]:
        raise AssertionError(f"front packet {sent.id} is not heaviest at t={t}")
    return sent, placed[1:]


def run_grq(trace: Trace) -> Transcript:
    """Run the slot-queue scheduler over the whole trace."""
    arrival_ranks = trace.arrival_ranks
    steps: list[StepRecord] = []
    held: list[int] = []  # ranks of the survivors, in slot order (= rank order)
    for t in range(1, trace.horizon + 1):
        buffer, rejections, placed, placed_dl, weights = grq_rebuild(
            held, arrival_ranks.get(t, ()), t, trace)
        sent, held = grq_transmit(buffer, placed, weights, t, trace)
        # the survivors are the placed packets after the front; they sat at
        # labels >= t+1, so none can be past deadline at t+1
        if len(placed_dl) > 1 and min(placed_dl[1:]) <= t:
            raise AssertionError(f"a survivor of t={t} is past its deadline")
        steps.append(StepRecord(t, buffer, rejections, None if sent is None else sent.id))
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
    arrival_ranks = trace.arrival_ranks
    expiring, deadline, rank_id = trace.expiring_ranks, trace.rank_deadline, trace.rank_id
    size = trace.buffer_size
    steps: list[StepRecord] = []
    held: list[int] = []  # ranks, ascending
    dls: list[int] = []  # their deadlines, ascending
    for t in range(1, trace.horizon + 1):
        if dls and dls[0] < t:
            raise AssertionError(f"greedy holds an expired packet at t={t}")
        arrived = arrival_ranks.get(t, ())
        for r in arrived:
            insort(held, r)
            insort(dls, deadline[r])
        rejections = []
        if len(held) > size:
            fresh = set(arrived)
            for r in held[size:]:
                del dls[bisect_left(dls, deadline[r])]
                rejections.append(Rejection(rank_id[r], ADMISSION_REFUSED if r in fresh else PREEMPTED))
            del held[size:]

        sent = None
        if held:
            r = held.pop(0)
            sent = rank_id[r]
            del dls[bisect_left(dls, deadline[r])]
        # unsent packets whose deadline is t are lost; record while in window.
        # No held deadline is below t (checked above), so some held packet
        # expires at t only if the smallest held deadline is t
        if dls and dls[0] == t:
            for r in expiring.get(t, ()):
                i = bisect_left(held, r)
                if i < len(held) and held[i] == r:
                    del held[i]
                    del dls[bisect_left(dls, deadline[r])]
                    rejections.append(Rejection(rank_id[r], EXPIRED))

        steps.append(StepRecord(t, None, tuple(rejections), sent))
    if held:
        raise AssertionError("greedy holds packets after the last deadline")
    return Transcript(trace, tuple(steps))


def check_slot_monotonicity(transcript: Transcript) -> list[str]:
    """Per-label weight monotonicity across consecutive rebuilt buffers.

    For every slot label, the weight sitting at that label never decreases
    between one post-rebuild snapshot and the next, for as long as the label
    is in both windows (an empty slot counts as bottom).  Only the labels the
    earlier snapshot occupies are compared, on Trace.scaled_weight integers,
    so each pair of steps reads the stored prefixes (SlotBuffer.prefix), never
    all B slots.  Returns violation strings; empty means the
    property held at every step.
    """
    weight = transcript.trace.scaled_weight
    out: list[str] = []
    prev: SlotBuffer | None = None
    for rec in transcript.steps:
        buf = rec.slots
        if buf is None:
            raise AssertionError("slot monotonicity needs labeled snapshots")
        if prev is not None and prev.prefix:  # else prev occupies no label
            lo, base = max(prev.base_time, buf.base_time), prev.base_time
            # the stored labels lo.. of `prev` that are also in buf's window
            before = prev.prefix[lo - base : max(buf.base_time + buf.size - base, 0)]
            start = lo - buf.base_time
            after = buf.prefix[start : start + len(before)]
            after += (None,) * (len(before) - len(after))  # empty after buf's prefix
            # labels in both windows that `before` occupies, with the packets
            # at those labels in both snapshots (see SlotBuffer.labels)
            pairs = zip(
                compress(range(lo, lo + len(before)), before),
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
