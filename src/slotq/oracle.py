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
"""

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .model import Packet, Trace, ZERO

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
        value = sum((trace.by_id[pid].weight for pid in assignment), ZERO)
        return cls(dict(assignment), value)

    @cached_property
    def by_time(self) -> dict[int, int]:
        """Step -> packet id sent at that step."""
        out = {t: pid for pid, t in self.assignment.items()}
        assert len(out) == len(self.assignment), "assignment reuses a time step"
        return out


def verify_schedule(trace: Trace, schedule: OfflineSchedule) -> list[str]:
    """All feasibility violations of `schedule` against `trace`; empty = feasible.

    Checks step-injectivity, the [release, deadline] window of every send, the
    capacity bound (a sent packet occupies the buffer from its release step
    through its send step, inclusive), and that the declared value equals the
    recomputed total.  An assignment naming a packet the trace does not
    contain is a caller bug and raises instead.
    """
    for pid in schedule.assignment:
        if pid not in trace.by_id:
            raise ValueError(f"assignment names unknown packet id {pid}")

    out: list[str] = []
    per_step = Counter(schedule.assignment.values())
    for t in sorted(t for t, c in per_step.items() if c > 1):
        out.append(f"step {t}: {per_step[t]} packets assigned to one step")

    occupancy: Counter[int] = Counter()
    for pid in sorted(schedule.assignment):
        t = schedule.assignment[pid]
        p = trace.by_id[pid]
        if not p.release <= t <= p.deadline:
            out.append(
                f"packet {pid}: sent at {t}, outside window [{p.release}, {p.deadline}]"
            )
        for s in range(p.release, t + 1):
            occupancy[s] += 1
    for s in sorted(s for s, c in occupancy.items() if c > trace.buffer_size):
        out.append(
            f"step {s}: {occupancy[s]} packets held, buffer size {trace.buffer_size}"
        )

    total = sum((trace.by_id[pid].weight for pid in schedule.assignment), ZERO)
    if total != schedule.value:
        out.append(f"declared value {schedule.value} != recomputed {total}")
    return out


# --- bounded optimum -------------------------------------------------------

@dataclass
class _ClassedInstance:
    """Trace packets collapsed into identical-(release, deadline, weight) classes."""

    trace: Trace
    keys: list[tuple[int, int, Fraction]] = field(default_factory=list)
    members: list[list[int]] = field(default_factory=list)  # ids, ascending
    scaled: list[int] = field(default_factory=list)         # Trace.scaled_weight per class

    def __post_init__(self):
        groups: dict[tuple[int, int, Fraction], list[int]] = {}
        for p in self.trace.packets:
            groups.setdefault((p.release, p.deadline, p.weight), []).append(p.id)
        self.keys = sorted(groups)
        self.members = [sorted(groups[k]) for k in self.keys]
        scaled_weight = self.trace.scaled_weight
        self.scaled = [scaled_weight[ids[0]] for ids in self.members]
        self.arrivals: dict[int, list[int]] = {}
        for cid, (r, _, _) in enumerate(self.keys):
            self.arrivals.setdefault(r, []).append(cid)

    def deadline(self, cid: int) -> int:
        return self.keys[cid][1]


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
    memo: dict[tuple[int, tuple[int, ...]], int] = {}
    nodes = 0

    def expire(counts: list[int], t: int) -> tuple[int, ...]:
        return tuple(
            0 if inst.deadline(cid) == t else c for cid, c in enumerate(counts)
        )

    def choices(t: int, held: tuple[int, ...]):
        """(gain, sent class or None, successor-held) triples, fixed order."""
        arriving = [(cid, len(inst.members[cid])) for cid in inst.arrivals.get(t, [])]
        for kept in _retention_choices(arriving, bsize - sum(held)):
            cur = list(held)
            for cid, k in kept:
                cur[cid] += k
            yield 0, None, expire(cur, t)
            for cid in range(ncls):
                if cur[cid]:
                    assert inst.deadline(cid) >= t
                    cur[cid] -= 1
                    yield inst.scaled[cid], cid, expire(cur, t)
                    cur[cid] += 1

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
    assert remaining == 0

    cursor = [0] * ncls
    assignment: dict[int, int] = {}
    for step, cid in sends:
        assignment[inst.members[cid][cursor[cid]]] = step
        cursor[cid] += 1
    schedule = OfflineSchedule.of(trace, assignment)
    assert schedule.value == Fraction(total, trace.weight_denominator)
    assert not verify_schedule(trace, schedule)
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
    assert not verify_schedule(relax_capacity(trace), schedule)
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
    assert limit >= 0
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
