"""Online schedulers: the slot-queue algorithm and a naive greedy baseline.

run_grq is run(grq, trace) and run_naive_greedy run(greedy, trace): one loop,
two step policies.  A policy(state, arrivals, t, trace) returns the new
state, the snapshot (None for greedy), the rejections and the sent id; it
reads only its arguments and raises its own self-checks.  The loop owns a
StepRecord per step t = 1..horizon, idle ones included, the Transcript and
the one leftover check.  A state is () when the policy holds no packet, so
that check reads the final state, not event counts, which miss a packet
recorded as expired but kept; policy.held(state) lists the ranks a state
holds, so the check names the packets left and the last step.

Both process packets in one fixed order, computed once per trace
(Trace.by_rank): weight descending, then deadline ascending, then id
ascending; weights are compared as exact integers scaled by the common
denominator, so no Fraction is compared while sorting.  A step changes few
packets (arrivals, one send, rejections and expiries), looked up in
per-trace indexes built once: Trace.arrival_ranks (per release step, read
by the loop), expiring_ranks (per deadline) and the rank-indexed tuples
rank_id, rank_deadline, rank_release and rank_weight.  Each policy holds
its buffer as a sorted sequence of ranks and records only its own
decisions (rejections, send), never the arrivals, which the trace holds.

The slot-queue scheduler (grq) keeps a buffer of B slots labeled with the
next B time steps.  Each step it rebuilds the buffer from scratch: survivors
plus fresh arrivals are considered in rank order and each packet goes to the
smallest-labeled empty slot that does not exceed its deadline, or is
rejected.  Filled slots always form a prefix, so that rule reduces to a
prefix rule: with k slots already filled, the next packet is accepted (into
slot k, label t + k) iff k < min(B, deadline - t + 1).  The front slot
(labeled t) is then transmitted.  The snapshot (StepRecord.slots) is the
tuple of the placed ranks, so a step costs what the buffer holds, not B.

grq_rebuild, a module global that tests patch, only places: it returns the
placed ranks in slot order, their deadlines and the refused ranks.  It
checks only its inputs: the carried packets fit in B, and every candidate
is live at t.  grq checks whatever that global returns, in one place:
  (a) at most B slots are filled;
  (b) the placed ranks strictly ascend;
  (c) the packet in slot i has deadline >= its label t + i;
  (d) every refusal was forced: with k placed ranks below the refused one,
      k >= B or t + k > its deadline.
It then builds the Rejection records, sends slots[0] and carries slots[1:].

For a result that splits the candidates into placed and refused, (a)-(d)
hold iff it is the prefix rule's output.  The rule's output meets them: it
places in rank order, into slot k exactly when k < B and t + k <= deadline,
and refuses otherwise.  Conversely, induct over the candidates in rank
order.  If the rule and the result agree on every candidate before c, both
have placed the same k of them.  If the result places c, (b) puts it in
slot k, and (a) and (c) give k < B and t + k <= deadline, so the rule
places c too.  If the result refuses c, (d) says the rule refuses it too.
So by (b) the front is a heaviest packet, as long as Trace.rank_weight
never increases (run_grq checks that once per run), and by (c) no survivor
is past its deadline at t + 1.  The split itself and the deadline column
are the rebuild's: one that loses, repeats or invents a packet breaks
check_transcript_invariants' exactly-once termination.

The naive greedy baseline (greedy) just keeps the B heaviest live packets
and sends the heaviest each step.  It ignores deadlines when choosing what
to keep, which is exactly how it loses: a burst of mid-weight
short-deadline packets can crowd out slightly lighter packets that had time
to be sent later (see generate.gen_killer).  On overflow it drops the
packets last in rank order (the lightest; among equals, larger deadline
first, then larger id — the drop order most charitable to greedy), and a
packet that reaches its deadline unsent is recorded as expired at that
step, right after the send it lost.  Its state is the held ranks and their
deadlines, two sorted lists updated in place by bisection.  It walks the
overflow only when the buffer overflows, and expiring_ranks[t] only when
its smallest held deadline is t: no held deadline is below t then.

The self-checks run on every step and raise AssertionError explicitly, so
they also run under `python -O`; grq's name the slot or packet at
fault.  Greedy checks that no held packet is past its deadline
on the smallest of its sorted held deadlines, which come from
Trace.rank_deadline, not from the expiry index, so a wrong index still
raises.  The loop checks that no policy holds a packet at the end.
Every snapshot a grq run records has passed (a)-(d): no packet sits at a
label past its deadline, and with run_grq's rank_weight check no slot
holds more weight than the one before it.
Every Rejection the policies record comes from _rejection, a bounded
functools.lru_cache over the class.  Rejections are immutable values and
traces number their packets 0..n-1, so later steps, runs and traces meet
the same (id, cause) pairs, and transcripts share those instances; being
frozen, no reader can tell.  A hit costs 0.10 us against 0.43 us to build
a Rejection (CPython 3.11.7, timeit); a pass over the bulk-stream pool
records 20,484 rejections of 1,200 distinct pairs.
check_slot_monotonicity compares consecutive snapshots' ranks over the
labels both windows hold.  A rank no larger than the earlier one means a
weight no smaller, so it reads weights only where a rank grew or a label
emptied.
"""

from bisect import bisect_left, insort
from functools import lru_cache
from operator import ge, itemgetter, le, lt
from typing import Sequence

from .model import (
    ADMISSION_REFUSED,
    EXPIRED,
    PREEMPTED,
    Rejection,
    StepRecord,
    Trace,
    Transcript,
)

# Every rejection the runners record (see the module docstring).  A trace
# with more (id, cause) pairs than the bound evicts and builds them again.
_rejection = lru_cache(maxsize=4096)(Rejection)


def grq_rebuild(buffered: Sequence[int], arrivals: Sequence[int], t: int, trace: Trace):
    """Arrival-stage rebuild at step t: place survivors + arrivals, refuse the rest.

    `buffered` (the packets carried from step t - 1) and `arrivals` (those
    released at t) are positions in `trace`.by_rank, all live at t.  Packets
    are placed in rank order; each goes to the smallest-labeled empty slot
    whose label is <= its deadline, or is refused.  Returns the placed ranks
    in slot order (slot i labeled t + i), their deadlines in the same order,
    and the refused ranks in rank order; grq checks the result.
    """
    if not buffered and not arrivals:
        return (), [], []
    size = trace.buffer_size
    if len(buffered) > size:
        raise AssertionError("carried packets exceed buffer size")
    deadline, release = trace.rank_deadline, trace.rank_release
    placed, placed_dl, refused = [], [], []
    # filled slots are a prefix, so the smallest empty slot is len(placed),
    # labeled t + len(placed); it exists iff that label is below t + size,
    # and the packet may take it iff the label is <= its deadline; every
    # candidate must be live at t, the first one that is not raises
    label, end = t, t + size
    for r in sorted([*buffered, *arrivals]):
        d = deadline[r]
        if d < t or release[r] > t:
            raise AssertionError(f"packet {trace.rank_id[r]} not live at t={t}")
        if label < end and label <= d:
            placed.append(r)
            placed_dl.append(d)
            label += 1
        else:
            refused.append(r)
    return tuple(placed), placed_dl, refused


def run(policy, trace: Trace) -> Transcript:
    """Run a step policy (grq or greedy) over the whole trace; see the module docstring."""
    arrival_ranks = trace.arrival_ranks
    steps: list[StepRecord] = []
    state = ()
    for t in range(1, trace.horizon + 1):
        state, slots, rejections, sent = policy(state, arrival_ranks.get(t, ()), t, trace)
        steps.append(StepRecord(t, slots, rejections, sent))
    if state:
        ids = sorted(map(trace.rank_id.__getitem__, policy.held(state)))
        held = f"packet {ids[0]}" if len(ids) == 1 else f"packets {', '.join(map(str, ids))}"
        raise AssertionError(f"{policy.__name__} holds {held} after the last deadline t={trace.horizon}")
    return Transcript(trace, tuple(steps))


def grq(held: tuple[int, ...], arrivals: Sequence[int], t: int, trace: Trace):
    """The slot queue's step; its state is the survivors' ranks in slot (= rank) order.

    Checks that grq_rebuild's result is the prefix rule's, (a)-(d) of the
    module docstring, then records its refusals and sends its front.
    """
    slots, deadlines, refused = grq_rebuild(held, arrivals, t, trace)
    if not slots and not refused:
        return (), slots, (), None
    size, ids = trace.buffer_size, trace.rank_id
    if not (len(slots) <= size and len(deadlines) == len(slots)
            and all(map(lt, slots, slots[1:]))
            and all(map(le, range(t, t + size), deadlines))):
        for i, r in enumerate(slots):
            why = (f"is past the last slot {t + size - 1}" if i >= size
                   else f"does not rank below packet {ids[slots[i - 1]]}" if i and r <= slots[i - 1]
                   else "has no deadline" if i >= len(deadlines)
                   else f"has deadline {deadlines[i]} < its label" if deadlines[i] < t + i else "")
            if why:
                raise AssertionError(f"rebuild at t={t}: packet {ids[r]} in slot {t + i} {why}")
        raise AssertionError(f"rebuild at t={t}: {len(deadlines)} deadlines for {len(slots)} slots")
    # tuples on this per-step path are built from lists: one grown from an
    # iterator is resized as it fills, which raised peak RSS by about 0.6 MB
    rejections: tuple[Rejection, ...] = ()
    if refused:
        fresh, deadline, out = set(arrivals), trace.rank_deadline, []
        for r in refused:
            k = bisect_left(slots, r)  # the placed ranks below r
            if k < size and t + k <= deadline[r]:
                raise AssertionError(f"rebuild at t={t}: packet {ids[r]} refused with slot {t + k} open")
            out.append(_rejection(ids[r], ADMISSION_REFUSED if r in fresh else PREEMPTED))
        rejections = tuple(out)
    return slots[1:], slots, rejections, ids[slots[0]] if slots else None


grq.held = tuple  # the held ranks of a state, which run's leftover check names


def greedy(state, arrivals: Sequence[int], t: int, trace: Trace):
    """The keep-the-heaviest step; its state is (held ranks, their deadlines), both ascending."""
    held, dls = state or ([], [])
    if dls and dls[0] < t:
        raise AssertionError(f"greedy holds an expired packet at t={t}")
    deadline, rank_id, size = trace.rank_deadline, trace.rank_id, trace.buffer_size
    for r in arrivals:
        insort(held, r)
        insort(dls, deadline[r])
    rejections = []
    if len(held) > size:
        fresh = set(arrivals)
        for r in held[size:]:
            del dls[bisect_left(dls, deadline[r])]
            cause = ADMISSION_REFUSED if r in fresh else PREEMPTED
            rejections.append(_rejection(rank_id[r], cause))
        del held[size:]
    sent = None
    if held:
        r = held.pop(0)
        sent = rank_id[r]
        del dls[bisect_left(dls, deadline[r])]
    # unsent packets due at t are lost; none is due before t (checked above)
    if dls and dls[0] == t:
        for r in trace.expiring_ranks.get(t, ()):
            i = bisect_left(held, r)
            if i < len(held) and held[i] == r:
                del held[i]
                del dls[bisect_left(dls, deadline[r])]
                rejections.append(_rejection(rank_id[r], EXPIRED))
    return (held, dls) if held else (), None, tuple(rejections), sent


greedy.held = itemgetter(0)  # the state is (held ranks, their deadlines)


def run_grq(trace: Trace) -> Transcript:
    """Run the slot-queue scheduler over the whole trace.

    grq's checks read rank order as weight order; that holds iff
    Trace.rank_weight never increases, checked here once per run.
    """
    w = trace.rank_weight
    if not all(map(ge, w, w[1:])):
        i = next(i for i in range(1, len(w)) if w[i] > w[i - 1])
        raise AssertionError(f"packet {trace.rank_id[i]} at rank {i} outweighs "
                             f"packet {trace.rank_id[i - 1]} at rank {i - 1}")
    return run(grq, trace)


def run_naive_greedy(trace: Trace) -> Transcript:
    """Run the keep-the-heaviest baseline over the whole trace."""
    return run(greedy, trace)


def check_slot_monotonicity(transcript: Transcript) -> list[str]:
    """Per-label weight monotonicity across consecutive rebuilt buffers.

    For every slot label, the weight sitting at that label never decreases
    between one post-rebuild snapshot and the next, for as long as the label
    is in both windows (an empty slot counts as bottom).  Only the labels
    the earlier snapshot occupies are compared.  A rank no larger than the
    earlier one means a weight no smaller, so Trace.rank_weight is read only
    when some rank grew or a label emptied.  Returns violation strings;
    empty means the property held at every step.
    """
    trace = transcript.trace
    weight, by_rank, size = trace.rank_weight, trace.by_rank, trace.buffer_size
    out: list[str] = []
    prev: tuple[int, ...] = ()
    prev_t = 0
    for rec in transcript.steps:
        slots, t = rec.slots, rec.time
        if slots is None:
            raise AssertionError("slot monotonicity needs labeled snapshots")
        if prev:  # else prev occupies no label
            lo = max(prev_t, t)
            # the labels lo.. that prev occupies and the window t..t+B-1 holds,
            # and the ranks at those labels now
            before = prev[lo - prev_t : max(t + size - prev_t, 0)]
            after = slots[lo - t : lo - t + len(before)]
            if len(after) < len(before) or not all(map(le, after, before)):
                for label, was in enumerate(before, start=lo):
                    i = label - t
                    now = slots[i] if i < len(slots) else None
                    if now is None or weight[now] < weight[was]:
                        got = "empty" if now is None else str(by_rank[now].weight)
                        out.append(
                            f"label {label}: weight dropped from {by_rank[was].weight} "
                            f"at t={prev_t} to {got} at t={t}"
                        )
        prev, prev_t = slots, t
    return out
