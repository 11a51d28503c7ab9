"""Online schedulers: the slot-queue algorithm and a naive greedy baseline.

run_grq is run(grq, trace) and run_naive_greedy run(greedy, trace): one loop,
two step policies.  A policy(state, arrivals, t, trace) returns the new
state, the snapshot (None for greedy), the rejections and the sent id, and
raises its own self-checks.  Both policies take packets in rank order
(Trace.by_rank; see slotq.model) and record only their own decisions.

The leftover check.  A state is () exactly when its policy holds no packet,
so the loop's check after the last deadline reads the final state, not
event counts, which miss a packet recorded as expired but kept.

The prefix rule.  The slot queue (grq) keeps B slots labeled with the next
B steps.  Each step it rebuilds them from scratch: survivors plus arrivals,
in rank order, each into the smallest-labeled empty slot whose label is at
most its deadline, or refused.  Filled slots always form a prefix, so with
k slots filled the next packet is accepted (into slot k, label t + k) iff
k < min(B, deadline - t + 1).  The front slot (label t) is then sent, and a
step costs what the buffer holds, not B.

grq_rebuild, a module global that tests patch, only places.  grq checks
whatever it returns, in one place:
  (a) at most B slots are filled;
  (b) the placed ranks strictly ascend;
  (c) the packet in slot i has deadline >= its label t + i;
  (d) every refusal was forced: with k placed ranks below the refused one,
      k >= B or t + k > its deadline.

For a result that splits the candidates into placed and refused, (a)-(d)
hold iff it is the prefix rule's output.  The rule's output meets them: it
places in rank order, into slot k exactly when k < B and t + k <= deadline,
and refuses otherwise.  Conversely, induct over the candidates in rank
order.  If the rule and the result agree on every candidate before c, both
have placed the same k of them.  If the result places c, (b) puts it in
slot k, and (a) and (c) give k < B and t + k <= deadline, so the rule
places c too.  If the result refuses c, (d) says the rule refuses it too.
So by (b) no slot of a recorded snapshot outweighs the one before it, and
the front is a heaviest packet, as long as Trace.rank_weight never
increases (run_grq checks that once per run); by (c) no packet sits at a
label past its deadline.  The split itself and the deadline column are the
rebuild's: one that loses, repeats or invents a packet breaks
check_transcript_invariants' exactly-once termination.

Greedy keeps the B heaviest live packets and sends the heaviest each step,
blind to deadlines (generate.gen_killer shows the cost).  On overflow it
drops the packets last in rank order (the lightest; among equals, larger
deadline first, then larger id — the drop order most charitable to
greedy), and a packet that reaches its deadline unsent is recorded as
expired at that step, right after the send it lost.  It reads
expiring_ranks[t] only when its smallest held deadline is t.  No held
deadline is below t then: each step checks the smallest, which comes from
Trace.rank_deadline, not from the expiry index, so a wrong index raises.

Every self-check raises AssertionError explicitly, so it also runs under
`python -O`.  Rejections are immutable, and traces number their packets
0..n-1, so later steps, runs and traces meet the same (id, cause) pairs.
The policies take them from _rejection, a bounded lru_cache over the class,
so transcripts share those instances; being frozen, no reader can tell.
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

# A trace with more (id, cause) pairs than the bound evicts and builds them again.
_rejection = lru_cache(maxsize=4096)(Rejection)


def grq_rebuild(buffered: Sequence[int], arrivals: Sequence[int], t: int, trace: Trace):
    """Arrival-stage rebuild at step t by the prefix rule (module docstring):
    `buffered` (carried from t - 1) and `arrivals` (released at t) are ranks.
    Returns the placed ranks in slot order, their deadlines, and the refused
    ranks in rank order; grq checks them.  Raises AssertionError if the
    carried packets exceed B or a candidate is not live at t."""
    if not buffered and not arrivals:
        return (), [], []
    size = trace.buffer_size
    if len(buffered) > size:
        raise AssertionError("carried packets exceed buffer size")
    deadline, release = trace.rank_deadline, trace.rank_release
    placed, placed_dl, refused = [], [], []
    # `label` is the smallest empty slot's: filled slots are a prefix
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
    """Run a step policy (grq or greedy) over the whole trace; raises AssertionError
    if the policy holds a packet after the last deadline (module docstring)."""
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
    """The slot queue's step; its state is the survivors' ranks in slot (= rank)
    order.  Raises AssertionError unless grq_rebuild's result meets (a)-(d)."""
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
    # iterator is resized as it fills, which raised peak RSS
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
    """Run the slot-queue scheduler over the whole trace.  grq's checks read rank
    order as weight order, so this raises AssertionError if rank_weight increases."""
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

    At every label the earlier snapshot occupies and both windows hold, the
    weight never decreases from one snapshot to the next (an empty slot
    counts as bottom).  A rank no larger than the earlier one means a weight
    no smaller, so Trace.rank_weight is read only where some rank grew or a
    label emptied.  Returns violation strings, empty when the property held;
    raises AssertionError on a transcript without snapshots.
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
