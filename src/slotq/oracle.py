"""Exact offline oracles and adversary-schedule utilities.

An offline schedule assigns packets to transmission steps.  Feasibility means:
at most one packet per step, every packet sent inside [release, deadline], and
at every step t the packets already released but not yet sent — measured after
the arrival stage — number at most B.  A packet not in the assignment is
treated as dropped on arrival; holding a packet one will never send is never
useful, so this loses no generality.

Which packet sets can be sent is decided by windows alone.  A set S is
feasible under capacity B iff EDF sends all of S inside the windows
[release, deadline] and also inside the windows [release, release + B - 1].
The reason: the number of held packets at a step depends only on how many
of S were released and how many were sent before it, so every
work-conserving schedule of S holds the same number at every step, and no
schedule of S holds fewer.  FIFO is work-conserving, and FIFO keeps a packet past
release + B - 1 exactly when B + 1 packets are held at once; FIFO is EDF on
the second windows.  So the capacity holds iff EDF meets the second windows,
and then EDF on the first windows, work-conserving too, sends S within both
deadlines and capacity.  Each window family makes the feasible sets a
matroid (unit jobs with release times), and _edf is the independence test
of both.

optimal_bounded is therefore a maximum-weight common independent set of
the two matroids, and it is the one oracle for both capacity regimes:
dropping the capacity constraint is the same problem as B = packet count,
so the unbounded optimum is optimal_bounded(trace.relaxed).  The greedy in
descending weight order is optimal for the deadline matroid alone;
Trace.deadline_greedy runs it once per trace over the positive weights.
The bounded optimum can never exceed that set's weight, so when the set
also fits the capacity windows (always, on the relaxed view) it is the
bounded optimum, and optimal_bounded returns it.  The intersection never
adds a packet that gains nothing, so the oracle never sends a zero weight
and that set is the intersection's own.  Only when it does not fit does
optimal_bounded run weighted matroid intersection (Edmonds 1970; Frank,
J. Algorithms 1981).  It works on the trace's integer-scaled weights
(Trace.scaled_weight), so nothing is ever rounded, and it returns EDF's
assignment of the chosen set.

enumerate_feasible walks every feasible schedule (up to a cap), including
schedules that idle while packets sit available; the charge verifier must
hold against all of them, not just the optimum.  Its order is that of a
depth-first search over the steps that tries each packet that fits by id and
then idles: under a partial schedule come the schedules whose next send is
(t, p), in ascending (t, id), then the one with no further send.  So it
walks the sends themselves, at most one frame per send; nothing is sized
by the horizon, and only a send's occupancy walk grows with its window.

Certification compares scaled integers: schedule values and verify_schedule's
value check are sums of Trace.scaled_weight, and a Fraction is built only for
a declared value or a message.
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
    recomputed total.  An assignment naming a packet the trace does not
    contain is a caller bug and raises instead.

    Occupancy comes from a difference array over the [release, send] end
    points, and the value check compares Trace.scaled_weight sums, so the cost
    grows with the number of sends, not with the steps they span.  With B or
    fewer sends no step can hold more than B, so occupancy is not counted.
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
    for s, nxt in zip(points, points[1:]):
        held += delta[s]
        if held > bsize:
            out.extend(
                f"step {u}: {held} packets held, buffer size {bsize}"
                for u in range(s, nxt)
            )

    value, denominator = schedule.value, trace.weight_denominator
    if total * value.denominator != value.numerator * denominator:
        out.append(f"declared value {value} != recomputed {Fraction(total, denominator)}")
    return out


# --- exact optima ---------------------------------------------------------

def _edf(windows: list[tuple[int, int]]) -> "list[int] | None":
    """Send step of each (release, end) unit job under earliest-deadline-first.

    Returns None iff some job misses its end, which happens iff no schedule
    meets every window (the exchange argument for unit jobs).  Equal ends go
    to the job listed first, so callers list jobs in Trace.by_rank order.  EDF
    idles only while nothing is released, so the schedule is work-conserving;
    it jumps over idle stretches, so its cost does not grow with the horizon.
    """
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
    the positions in `held` of the jobs y such that held - y + x is.

    `held` must be independent.  Fix its EDF schedule: the steps reachable
    from x by alternating paths are the closure of x's window under adding
    the window of every job sent inside it.  x fits iff that interval has a
    free step, and otherwise removing y frees x iff y is sent inside it.
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

    The one closure test of _circuits and deadline_greedy.  A call per job
    costs less than run-to-run noise on a 72 ms acceptance-box pass and 2-5%
    of optimal_bounded at n=400, B=8 (CPython 3.11, a shared 2-vCPU host).
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
    """optimal_bounded without the shortcut; the tests also call it directly.

    Weighted matroid intersection of the deadline matroid (windows
    [release, deadline]) and the capacity matroid (windows
    [release, release + B - 1]) by shortest augmenting paths: starting from
    the empty set, each round builds the exchange graph of the current set
    I, whose vertex lengths are Trace.scaled_weight for members and its
    negation for the rest, and flips the path from the deadline matroid's
    free packets to the capacity matroid's that is shortest in (length,
    hops).  Each round leaves I of maximum weight for its size, and those
    maxima are concave in the size, so the loop stops at the first path that
    gains nothing.  Integers only, no recursion, vertices in Trace.by_rank
    order, so the result is deterministic.
    """
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

    Takes the packets in rank order, up to the first of weight 0, and keeps
    each iff the kept set plus it still meets every window
    [release, deadline].  The kept set carries one schedule, any that meets
    the windows.  A packet whose window has a free step takes the first one;
    otherwise _closure decides, and a packet that fits only by moving others
    has EDF reschedule the whole set.  EDF's own schedule of the kept set is
    computed at the end.
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
    """Exact maximum-value schedule under the trace's buffer capacity.

    The unbounded optimum is this on trace.relaxed, where B is at least the
    packet count and capacity never binds.  First the shortcut: take the
    deadline matroid's greedy set over the positive weights
    (Trace.deadline_greedy).  If EDF also meets its capacity windows
    [release, release + B - 1], its EDF schedule is returned.  That is
    exact: the greedy set has the maximum weight among all sets that meet
    the deadlines, and every set that fits the buffer meets them.  The
    intersection never adds a zero weight either, so this is its assignment,
    not just its value.  On the relaxed view the shortcut always applies:
    EDF sends each of n packets within n - 1 steps of its release.
    Otherwise the answer is the weighted matroid intersection
    (_intersection).
    """
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
    """Up to `limit` distinct feasible schedules, exhaustive when fewer exist.

    In the order the module docstring gives, so the all-idle schedule is
    last.  A frame is one send (plus the root).  Its candidates, the packets
    still unsent, due after its step and still fitting, are fixed when it is
    made, since `full` only grows below it and is restored on backtrack.  Its
    children are the next sends (_next_sends), which jump over the steps no
    candidate's window holds, and its own schedule is its last leaf.  A send
    with no candidate has that leaf alone, so it gets no frame.  The stack
    is explicit, so nothing recurses.

    Occupancy is a dict over the steps that a tried send walks, and `full`
    is the last step holding B packets.  Every send so far precedes the next
    one, so every full step does too, and a packet released at r fits iff
    full < r: one comparison, whatever the window's length.  The schedule's
    value is a running total of Trace.scaled_weight, and each distinct total
    becomes one Fraction per call.
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
