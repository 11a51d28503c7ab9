"""Exact offline oracles and adversary-schedule utilities.

An offline schedule assigns packets to transmission steps.  Feasibility means:
at most one packet per step, every packet sent inside [release, deadline], and
at every step t the packets already released but not yet sent — measured after
the arrival stage — number at most B.  A packet not in the assignment is
treated as dropped on arrival; holding a packet one will never send is never
useful, so this loses no generality.

Capacity windows.  A set S is feasible under capacity B iff EDF sends all
of S inside the windows [release, deadline] and also inside the windows
[release, release + B - 1].  The number of held packets at a step depends
only on how many of S were released and how many were sent before it, so
every work-conserving schedule of S holds the same number at every step,
and no schedule of S holds fewer.  FIFO is work-conserving, and it keeps a
packet past release + B - 1 exactly when B + 1 packets are held at once;
FIFO is EDF on the second windows.  So the capacity holds iff EDF meets the
second windows, and then EDF on the first windows, work-conserving too,
meets both.  Each window family makes the feasible sets a matroid (unit
jobs with release times), and _edf is the independence test of both.

The shortcut.  optimal_bounded is a maximum-weight common independent set
of the two matroids, and the one oracle for both capacity regimes: dropping
the capacity constraint is the same problem as B = packet count, so the
unbounded optimum is optimal_bounded(trace.relaxed).  The greedy in rank
order, up to the first weight 0, is optimal for the deadline matroid alone
(Trace.deadline_greedy).  Every set that fits the buffer meets the
deadlines, so when the greedy set also fits the capacity windows it is the
bounded optimum.  The intersection never adds a packet that gains nothing,
so the greedy set is the intersection's own assignment, not just its value.
On the relaxed view the shortcut always applies: EDF sends each of n
packets within n - 1 steps of its release.  Either way optimal_bounded
returns EDF's assignment of the chosen set.

The intersection (_intersection; Edmonds 1970; Frank, J. Algorithms 1981)
runs shortest augmenting paths.  From the empty set, each round builds the
exchange graph of the current set I, whose vertex lengths are the scaled
weight for members and its negation for the rest, and flips the path from
the deadline matroid's free packets to the capacity matroid's that is
shortest in (length, hops).  Each round leaves I of maximum weight for its
size, and those maxima are concave in the size, so the loop stops at the
first path that gains nothing.  The arcs come from one closure test
(_closure): fix I's EDF schedule; the steps reachable from a job x by
alternating paths are the closure of x's window under adding the window of
every job sent inside it.  x fits iff that interval has a free step, and
otherwise removing y frees x iff y is sent inside it.

Enumeration.  enumerate_feasible walks every feasible schedule (up to a
cap), idle steps included; the charge verifier must hold against all of
them, not just the optimum.  Its order is that of a depth-first search over
the steps that tries each packet that fits by id and then idles: under a
partial schedule come the schedules whose next send is (t, p), in ascending
(t, id), then the one with no further send.  So it walks the sends
themselves, and nothing is sized by the horizon.  Every send so far
precedes the next one, so every step holding B packets does too, and a
packet released at r fits iff the last such step, `full`, is before r.
"""

import heapq
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .model import Packet, Trace, lazy

@dataclass(frozen=True, eq=True)
class OfflineSchedule:
    """A (partial) assignment of packet ids to transmission steps, plus its value."""

    assignment: dict[int, int]
    value: Fraction

    @classmethod
    def of(cls, trace: Trace, assignment: dict[int, int]) -> "OfflineSchedule":
        w = trace.scaled_weight
        value = Fraction(sum(w[pid] for pid in assignment), trace.weight_denominator)
        return cls(dict(assignment), value)

    @lazy
    def by_time(self) -> dict[int, int]:
        """Step -> packet id sent at that step."""
        out = {t: pid for pid, t in self.assignment.items()}
        if len(out) != len(self.assignment):
            raise AssertionError("assignment reuses a time step")
        return out


def verify_schedule(trace: Trace, schedule: OfflineSchedule) -> list[str]:
    """All feasibility violations of `schedule` against `trace`; empty = feasible.

    Checks step-injectivity, the [release, deadline] window of every send, the
    capacity bound (a sent packet occupies the buffer from its release step
    through its send step, inclusive), and that the declared value equals the
    recomputed total.  Each maximal run of consecutive steps that hold the
    same count above B gives one message, "steps a..b: n packets held,
    buffer size B" ("step a: ..." for one step), so the cost and the output
    grow with the number of sends, not with the steps they span.  Raises
    ValueError for an assignment naming a packet the trace does not contain.
    """
    assignment = schedule.assignment
    by_id = trace.by_id
    scaled = trace.scaled_weight
    bsize = trace.buffer_size
    may_overfill = len(assignment) > bsize  # B or fewer sends never overfill it
    total = 0
    outside: list[int] = []
    delta: dict[int, int] = {}  # step -> change in occupancy from the step before
    for pid, t in assignment.items():
        p = by_id.get(pid)
        if p is None:
            raise ValueError(f"assignment names unknown packet id {pid}")
        total += scaled[pid]
        if not p.release <= t <= p.deadline:
            outside.append(pid)
        if may_overfill and p.release <= t:
            delta[p.release] = delta.get(p.release, 0) + 1
            delta[t + 1] = delta.get(t + 1, 0) - 1

    out: list[str] = []
    if len(set(assignment.values())) < len(assignment):
        per_step = Counter(assignment.values())
        for t in sorted(t for t, c in per_step.items() if c > 1):
            out.append(f"step {t}: {per_step[t]} packets assigned to one step")
    for pid in sorted(outside):
        p = by_id[pid]
        out.append(
            f"packet {pid}: sent at {assignment[pid]}, outside window "
            f"[{p.release}, {p.deadline}]"
        )
    held = 0
    points = sorted(delta)
    over: list[list[int]] = []  # [first step, last step, count] of each overfull run
    for s, nxt in zip(points, points[1:]):
        held += delta[s]
        if held > bsize:
            if over and over[-1][1] == s - 1 and over[-1][2] == held:
                over[-1][1] = nxt - 1  # a delta that nets to 0 continues the run
            else:
                over.append([s, nxt - 1, held])
    for first, last, count in over:
        steps = f"step {first}" if first == last else f"steps {first}..{last}"
        out.append(f"{steps}: {count} packets held, buffer size {bsize}")

    value, denominator = schedule.value, trace.weight_denominator
    if total * value.denominator != value.numerator * denominator:
        out.append(f"declared value {value} != recomputed {Fraction(total, denominator)}")
    return out


# --- exact optima ---------------------------------------------------------

def _edf(windows: list[tuple[int, int]]) -> "list[int] | None":
    """Send step of each (release, end) unit job under earliest-deadline-first,
    or None iff some job misses its end, which happens iff no schedule meets
    every window (the exchange argument for unit jobs).  Equal ends go to the
    job listed first, so callers list jobs in rank order.  EDF idles only
    while nothing is released, so its schedule is work-conserving, and it
    jumps over idle stretches."""
    order = sorted(range(len(windows)), key=lambda i: windows[i][0])
    steps = [0] * len(windows)
    heap: list[tuple[int, int]] = []
    t = k = 0
    while k < len(order) or heap:
        if not heap:
            t = max(t, windows[order[k]][0])
        while k < len(order) and windows[order[k]][0] <= t:
            heapq.heappush(heap, (windows[order[k]][1], order[k]))
            k += 1
        end, i = heapq.heappop(heap)
        if end < t:
            return None
        steps[i] = t
        t += 1
    return steps


def _circuits(
    held: list[tuple[int, int]], extra: list[tuple[int, int]]
) -> "list[list[int] | None]":
    """For each window x in `extra`: None if held + x is independent, else
    the positions in `held` of the jobs y such that held - y + x is, by the
    closure test (module docstring).  Raises AssertionError if `held` is
    dependent.
    """
    steps = _edf(held)
    if steps is None:
        raise AssertionError("exchange graph asked of a dependent set")
    by_step = sorted(range(len(held)), key=steps.__getitem__)
    sent = [steps[y] for y in by_step]
    release = [held[y][0] for y in by_step]
    end = [held[y][1] for y in by_step]
    spans = [_closure(sent, release, end, lo, hi) for lo, hi in extra]
    return [None if span is None else by_step[span] for span in spans]


def _closure(
    sent: list[int], release: list[int], end: list[int], lo: int, hi: int
) -> "slice | None":
    """None if a job with window [lo, hi] can join the jobs sent at steps
    `sent` (ascending; the one sent at sent[k] has window
    [release[k], end[k]]), else the slice of positions sent inside the
    closure of [lo, hi] under adding the window of every job sent inside it.
    The one closure test of _circuits and deadline_greedy.
    """
    i = j = bisect_left(sent, lo)  # positions sent in [lo, hi] scanned so far
    while True:
        i2, j2 = bisect_left(sent, lo), bisect_right(sent, hi)
        if j2 - i2 <= hi - lo:
            return None
        if (i2, j2) == (i, j):
            return slice(i, j)
        lo = min(lo, *release[i2:i], *release[j:j2])
        hi = max(hi, *end[i2:i], *end[j:j2])
        i, j = i2, j2


def _intersection(trace: Trace) -> OfflineSchedule:
    """optimal_bounded without the shortcut (module docstring); the tests also
    call it directly.  Integers only, no recursion, vertices in rank order, so
    the result is deterministic."""
    weight, release, last = trace.rank_weight, trace.rank_release, trace.buffer_size - 1
    n = len(weight)
    deadline_windows = list(zip(release, trace.rank_deadline))
    capacity_windows = [(r, r + last) for r in release]
    member = [False] * n
    while True:
        held = [v for v in range(n) if member[v]]
        rest = [v for v in range(n) if not member[v]]
        cost = [weight[v] if member[v] else -weight[v] for v in range(n)]
        # arc y -> x iff I - y + x meets the deadlines, x -> y iff it fits the
        # buffer.  A source (sink) also has arcs from (to) every member, but a
        # shortest path never needs them: the part of a path before the
        # source it enters closes into a cycle through the path's first
        # source, no cycle is negative, so the rest is as short in fewer hops.
        succ: list[list[int]] = [[] for _ in range(n)]
        sources: list[int] = []
        sinks: list[int] = []
        circuits = _circuits([deadline_windows[v] for v in held],
                             [deadline_windows[x] for x in rest])
        for x, circuit in zip(rest, circuits):
            if circuit is None:
                sources.append(x)
            else:
                for y in circuit:
                    succ[held[y]].append(x)
        circuits = _circuits([capacity_windows[v] for v in held],
                             [capacity_windows[x] for x in rest])
        for x, circuit in zip(rest, circuits):
            if circuit is None:
                sinks.append(x)
            else:
                succ[x] = [held[y] for y in circuit]

        # Bellman-Ford on (length, hops): cycles are non-negative in length
        # while I is of maximum weight for its size, and positive in hops
        dist = {x: (cost[x], 0) for x in sources}
        pred: dict[int, int] = {}
        for _ in range(n + 1):
            changed = False
            for u in range(n):
                if u not in dist:
                    continue
                du, hu = dist[u]
                for v in succ[u]:
                    cand = (du + cost[v], hu + 1)
                    if v not in dist or cand < dist[v]:
                        dist[v], pred[v] = cand, u
                        changed = True
            if not changed:
                break
        else:
            raise AssertionError("exchange graph has a negative cycle")
        reached = [(dist[x], x) for x in sinks if x in dist]
        if not reached or min(reached)[0][0] >= 0:
            break
        v = min(reached)[1]
        path = [v]
        while v in pred:
            v = pred[v]
            path.append(v)
        for v in path:
            member[v] = not member[v]

    chosen = [v for v in range(n) if member[v]]
    steps = _edf([deadline_windows[v] for v in chosen])
    if steps is None:
        raise AssertionError("bounded optimum misses a deadline")
    return _verified(trace, chosen, steps)


def deadline_greedy(trace: Trace) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The greedy set of the deadline matroid; read it as Trace.deadline_greedy.

    Returns (kept, steps): the ranks kept, ascending, taking packets in rank
    order up to the first of weight 0 and keeping each iff the kept set still
    meets every window [release, deadline], and EDF's send step of each.
    """
    release, deadline, weight = trace.rank_release, trace.rank_deadline, trace.rank_weight
    kept: list[int] = []
    windows: list[tuple[int, int]] = []
    sent: list[int] = []  # the kept set's send steps, ascending
    lo: list[int] = []    # release and deadline of the packet sent at each
    hi: list[int] = []
    for r in range(len(release)):
        if weight[r] <= 0:
            break
        a, b = release[r], deadline[r]
        i, j = bisect_left(sent, a), bisect_right(sent, b)
        free = j - i <= b - a  # a step of [a, b] is not taken
        if not free and _closure(sent, lo, hi, a, b) is not None:
            continue
        kept.append(r)
        windows.append((a, b))
        if free:
            k = i  # sent[i:k] are the steps a, a + 1, ... taken in a row
            while k < j and sent[k] == a + k - i:
                k += 1
            sent.insert(k, a + k - i)
            lo.insert(k, a)
            hi.insert(k, b)
        else:  # it fits only by moving kept packets: EDF reschedules them all
            steps = _edf(windows)
            if steps is None:
                raise AssertionError(f"rank {r} passed _closure but misses a deadline")
            by_step = sorted(range(len(windows)), key=steps.__getitem__)
            sent = [steps[k] for k in by_step]
            lo = [windows[k][0] for k in by_step]
            hi = [windows[k][1] for k in by_step]
    steps = _edf(windows)
    if steps is None:
        raise AssertionError("the deadline greedy kept a set that misses a deadline")
    return tuple(kept), tuple(steps)


def _verified(trace: Trace, ranks: "list[int] | tuple[int, ...]",
              steps: "list[int] | tuple[int, ...]") -> OfflineSchedule:
    """The schedule sending the packet of rank ranks[i] at steps[i], checked
    by verify_schedule against `trace`."""
    ids = trace.rank_id
    schedule = OfflineSchedule.of(trace, {ids[r]: t for r, t in zip(ranks, steps)})
    errs = verify_schedule(trace, schedule)
    if errs:
        raise AssertionError(f"optimum infeasible: {errs}")
    return schedule


def optimal_bounded(trace: Trace) -> OfflineSchedule:
    """Exact maximum-value schedule under the trace's buffer capacity, by the
    shortcut or the intersection (module docstring); the unbounded optimum is
    this on trace.relaxed.  Raises AssertionError if it fails verify_schedule."""
    kept, steps = trace.deadline_greedy
    release, last = trace.rank_release, trace.buffer_size - 1
    if _edf([(release[r], release[r] + last) for r in kept]) is None:
        return _intersection(trace)
    return _verified(trace, kept, steps)


def optimal_unbounded(trace: Trace) -> OfflineSchedule:
    """The optimum ignoring the buffer capacity: optimal_bounded(trace.relaxed)."""
    return optimal_bounded(trace.relaxed)


def relax_capacity(trace: Trace) -> Trace:
    """The instance with a buffer so large that capacity never binds: trace.relaxed."""
    return trace.relaxed


# --- feasible-schedule enumeration ----------------------------------------

def enumerate_feasible(trace: Trace, limit: int) -> list[OfflineSchedule]:
    """Up to `limit` distinct feasible schedules, exhaustive when fewer exist,
    in the order the module docstring gives, so the all-idle schedule is last.
    Raises AssertionError for a negative limit.

    A frame's candidates, the packets still unsent, due after its send and
    still fitting, are fixed when it is made, since `full` only grows below
    it and is restored on backtrack.  A send with no candidate is a leaf and
    gets no frame.
    """
    if limit < 0:
        raise AssertionError(f"enumerate_feasible needs limit >= 0, got {limit}")
    bsize = trace.buffer_size
    scaled, denominator = trace.scaled_weight, trace.weight_denominator
    occ: dict[int, int] = {}  # step -> packets the sends so far hold there
    full = 0  # the last step holding B packets; 0 while there is none
    total = 0
    values: dict[int, Fraction] = {}
    assignment: dict[int, int] = {}
    found: list[OfflineSchedule] = []

    # one frame per send so far that has candidates, plus the root:
    # (its candidates, its next sends, the send, `full` before the send)
    packs = sorted(trace.packets, key=lambda p: p.id)
    stack = [(packs, _next_sends(packs, 0), None, 0)] if limit else []
    while stack and len(found) < limit:
        cands, sends, sent, before = stack[-1]
        send = next(sends, None)
        if send is None:  # no further send: the frame's own schedule is its last leaf
            stack.pop()
        else:
            sent, before = send, full
            t, p = send
            for s in range(p.release, t + 1):
                held = occ[s] = occ.get(s, 0) + 1
                if held == bsize:
                    full = s
            total += scaled[p.id]
            assignment[p.id] = t
            later = [q for q in cands if q is not p and q.deadline > t and full < q.release]
            if later:
                stack.append((later, _next_sends(later, t), send, before))
                continue
        value = values.get(total)
        if value is None:
            value = values[total] = Fraction(total, denominator)
        found.append(OfflineSchedule(dict(assignment), value))
        if sent is not None:
            t, p = sent
            for s in range(p.release, t + 1):
                occ[s] -= 1
            full = before
            total -= scaled[p.id]
            del assignment[p.id]
    return found


def _next_sends(packets: list[Packet], t: int) -> Iterator[tuple[int, Packet]]:
    """Every send (u, p) with u > t and p in `packets` (ascending id) whose
    window holds u, in ascending (u, id), jumping over the steps that no
    window holds."""
    while True:
        later = [p.release for p in packets if p.deadline > t]
        if not later:
            return
        t = max(t + 1, min(later))
        for p in packets:
            if p.release <= t <= p.deadline:
                yield t, p
