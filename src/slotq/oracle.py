"""Exact offline oracles and adversary-schedule utilities.

An offline schedule assigns packets to transmission steps.  Feasibility means:
at most one packet per step, every packet sent inside [release, deadline], and
at every step t the packets already released but not yet sent — measured after
the arrival stage — number at most B.  A packet not in the assignment is
treated as dropped on arrival; holding a packet one will never send is never
useful, so this loses no generality.

optimal_bounded finds the maximum-value feasible schedule by memoized
depth-first search over per-step choices (which arrivals to retain, then send
one held packet or idle).  Identical packets — same release, deadline, weight
— are collapsed into classes and the search state is the per-class count
vector, which makes bursty instances (many copies of one packet) cheap.
The search runs on the trace's integer-scaled weights (Trace.scaled_weight)
and restores exact rationals at the end; nothing is ever rounded.  The
search refuses to exceed its node budget rather than degrade to a heuristic.

optimal_unbounded drops the capacity constraint.  Assignability-within-windows
is a transversal matroid, so processing packets in descending weight order and
keeping each one iff the time-slot matching can be augmented yields the exact
maximum — no search needed.

enumerate_feasible walks every feasible schedule (up to a cap) in a fixed
order, including schedules that idle while packets sit available; the charge
verifier must hold against all of them, not just the optimum.

Certification compares scaled integers: schedule values and verify_schedule's
value check are sums of Trace.scaled_weight, and a Fraction is built only for
a declared value or a message.
"""

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .model import Packet, Trace

# optimal_bounded hard-fails past this many search-node expansions unless the
# caller raises the cap; exactness is load-bearing, so there is no fallback.
DEFAULT_NODE_BUDGET = 2_000_000


class BudgetExceededError(RuntimeError):
    """The bounded-optimum search outgrew its node budget; no result exists."""

    def __init__(self, nodes: int, budget: int):
        super().__init__(
            f"offline search expanded {nodes} nodes, exceeding the budget of {budget}; "
            f"raise max_nodes to keep the result exact"
        )
        self.nodes = nodes
        self.budget = budget


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

    @cached_property
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
    grows with the number of sends, not with the steps they span.
    """
    assignment = schedule.assignment
    by_id = trace.by_id
    scaled = trace.scaled_weight
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
        if p.release <= t:
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
    bsize = trace.buffer_size
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


# --- bounded optimum -------------------------------------------------------

@dataclass
class _ClassedInstance:
    """Trace packets collapsed into identical-(release, deadline, weight) classes."""

    trace: Trace
    keys: list[tuple[int, int, Fraction]] = field(default_factory=list)
    members: list[list[int]] = field(default_factory=list)  # ids, ascending
    scaled: list[int] = field(default_factory=list)         # Trace.scaled_weight per class
    deadlines: list[int] = field(default_factory=list)      # deadline per class

    def __post_init__(self):
        groups: dict[tuple[int, int, Fraction], list[int]] = {}
        for p in self.trace.packets:
            groups.setdefault((p.release, p.deadline, p.weight), []).append(p.id)
        self.keys = sorted(groups)
        self.members = [sorted(groups[k]) for k in self.keys]
        scaled_weight = self.trace.scaled_weight
        self.scaled = [scaled_weight[ids[0]] for ids in self.members]
        self.deadlines = [d for _, d, _ in self.keys]
        self.arrivals: dict[int, list[int]] = {}
        self.expiring: dict[int, list[int]] = {}  # step -> classes whose deadline it is
        for cid, (r, d, _) in enumerate(self.keys):
            self.arrivals.setdefault(r, []).append(cid)
            self.expiring.setdefault(d, []).append(cid)


def _retention_choices(
    counts: list[tuple[int, int]], capacity: int
) -> Iterator[tuple[tuple[int, int], ...]]:
    """All ways to keep k_i of each arriving class within the free capacity."""
    if not counts:
        yield ()
        return
    (cid, avail), rest = counts[0], counts[1:]
    for k in range(min(avail, capacity) + 1):
        for tail in _retention_choices(rest, capacity - k):
            yield ((cid, k),) + tail


def optimal_bounded(trace: Trace, max_nodes: int = DEFAULT_NODE_BUDGET) -> OfflineSchedule:
    """Exact maximum-value schedule under the buffer-capacity constraint.

    Memoized DFS over (step, held-class-count-vector) states.  Each step
    enumerates which arrivals to retain (never exceeding capacity), then sends
    one held packet or idles; packets at their deadline vanish at the end of
    the step.  Raises BudgetExceededError when the state space outgrows
    `max_nodes` — the result is exact or absent, never approximate.
    """
    inst = _ClassedInstance(trace)
    ncls = len(inst.keys)
    bsize = trace.buffer_size
    horizon = trace.horizon
    deadlines, scaled = inst.deadlines, inst.scaled
    memo: dict[tuple[int, tuple[int, ...]], int] = {}
    nodes = 0

    def choices(t: int, held: tuple[int, ...]):
        """(gain, sent class or None, successor-held) triples, fixed order.

        Classes whose deadline is t may still send at t but are gone from
        every successor, so they are zeroed once per retention choice.
        """
        arriving = [(cid, len(inst.members[cid])) for cid in inst.arrivals.get(t, [])]
        expiring = inst.expiring.get(t, ())
        for kept in _retention_choices(arriving, bsize - sum(held)):
            cur = list(held)
            for cid, k in kept:
                cur[cid] += k
            sendable = [cid for cid in range(ncls) if cur[cid]]
            for cid in expiring:
                cur[cid] = 0
            idle = tuple(cur)
            yield 0, None, idle
            for cid in sendable:
                if deadlines[cid] < t:
                    raise AssertionError(f"class {cid} held past its deadline at t={t}")
                if cur[cid]:
                    cur[cid] -= 1
                    yield scaled[cid], cid, tuple(cur)
                    cur[cid] += 1
                else:  # expires at t: sending it leaves the idle successor
                    yield scaled[cid], cid, idle

    def solve(t: int, held: tuple[int, ...]) -> int:
        if t > horizon:
            return 0
        key = (t, held)
        got = memo.get(key)
        if got is not None:
            return got
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExceededError(nodes, max_nodes)
        best = 0
        for gain, _, nxt in choices(t, held):
            best = max(best, gain + solve(t + 1, nxt))
        memo[key] = best
        return best

    root: tuple[int, ...] = (0,) * ncls
    total = solve(1, root)

    # replay the memo to pull out one optimal assignment
    sends: list[tuple[int, int]] = []  # (step, class)
    t, held, remaining = 1, root, total
    while t <= horizon:
        for gain, cid, nxt in choices(t, held):
            if gain + solve(t + 1, nxt) == remaining:
                if cid is not None:
                    sends.append((t, cid))
                held, remaining = nxt, remaining - gain
                break
        else:
            raise AssertionError("memo replay found no optimal branch")
        t += 1
    if remaining != 0:
        raise AssertionError(f"memo replay left {remaining} of the optimum unassigned")

    cursor = [0] * ncls
    assignment: dict[int, int] = {}
    for step, cid in sends:
        assignment[inst.members[cid][cursor[cid]]] = step
        cursor[cid] += 1
    schedule = OfflineSchedule.of(trace, assignment)
    if schedule.value != Fraction(total, trace.weight_denominator):
        raise AssertionError(f"replayed value {schedule.value} != searched optimum")
    errs = verify_schedule(trace, schedule)
    if errs:
        raise AssertionError(f"bounded optimum infeasible: {errs}")
    return schedule


# --- unbounded optimum -----------------------------------------------------

def optimal_unbounded(trace: Trace) -> OfflineSchedule:
    """Exact maximum-value schedule ignoring the buffer-capacity constraint.

    Feasible packet sets form a transversal matroid (packets vs. time slots in
    their windows), so greedy in descending weight order (Trace.rank) is
    optimal: keep a packet iff an augmenting path frees a slot in its window.
    Matching is exact and purely combinatorial — weights are only summed,
    never compared approximately.
    """
    slot: dict[int, int] = {}  # step -> packet id

    def try_slot(pid: int, visited: set[int]) -> bool:
        p = trace.by_id[pid]
        for t in range(p.release, p.deadline + 1):
            if t in visited:
                continue
            visited.add(t)
            if t not in slot or try_slot(slot[t], visited):
                slot[t] = pid
                return True
        return False

    for pid in sorted(trace.rank, key=trace.rank.__getitem__):
        try_slot(pid, set())

    assignment = {pid: t for t, pid in slot.items()}
    schedule = OfflineSchedule.of(trace, assignment)
    errs = verify_schedule(relax_capacity(trace), schedule)
    if errs:
        raise AssertionError(f"unbounded optimum infeasible: {errs}")
    return schedule


def relax_capacity(trace: Trace) -> Trace:
    """The same instance with a buffer large enough that capacity never binds.

    Dropping the capacity constraint is the same problem as B = packet count,
    so unbounded-oracle outputs are checked for feasibility against this view.
    """
    return Trace(max(trace.buffer_size, len(trace.packets), 1), trace.packets)


# --- feasible-schedule enumeration ----------------------------------------

def enumerate_feasible(trace: Trace, limit: int) -> list[OfflineSchedule]:
    """Up to `limit` distinct feasible schedules, exhaustive when fewer exist.

    Depth-first over steps 1..horizon: at each step try sending each live,
    still-unsent packet (ascending id), then idling.  A send is kept only if
    the buffer occupancy it implies over [release, send] stays within
    capacity; occupancy only ever grows as packets are added, so pruning an
    overfull prefix is safe.  The all-idle schedule is always included (last,
    when the limit permits).
    """
    if limit < 0:
        raise AssertionError(f"enumerate_feasible needs limit >= 0, got {limit}")
    horizon = trace.horizon
    packs = sorted(trace.packets, key=lambda p: p.id)
    occupancy = Counter()
    assignment: dict[int, int] = {}
    found: list[OfflineSchedule] = []

    def feasible_add(p: Packet, t: int) -> bool:
        return all(occupancy[s] < trace.buffer_size for s in range(p.release, t + 1))

    def walk(t: int):
        if len(found) >= limit:
            return
        if t > horizon:
            found.append(OfflineSchedule.of(trace, assignment))
            return
        for p in packs:
            if p.id in assignment or not p.release <= t <= p.deadline:
                continue
            if not feasible_add(p, t):
                continue
            assignment[p.id] = t
            for s in range(p.release, t + 1):
                occupancy[s] += 1
            walk(t + 1)
            for s in range(p.release, t + 1):
                occupancy[s] -= 1
            del assignment[p.id]
            if len(found) >= limit:
                return
        walk(t + 1)  # idle this step

    if limit:
        walk(1)
    return found
