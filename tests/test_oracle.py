import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotq import oracle
from slotq.generate import GeneratorParams, gen_killer, gen_random
from slotq.model import Packet, Trace, lazy, validate_trace
from slotq.oracle import (
    OfflineSchedule,
    _intersection,
    enumerate_feasible,
    optimal_bounded,
    optimal_unbounded,
    relax_capacity,
    verify_schedule,
)
from slotq.schedulers import run_grq, run_naive_greedy
from slotq.traceio import parse_trace


def P(pid, r, d, w):
    return Packet(pid, r, d, Fraction(w))


def brute_force_assignments(trace: Trace):
    """Every feasible assignment, by raw enumeration over per-packet choices.

    Deliberately naive and structured nothing like the production search:
    each packet independently picks a send step in its window or None, and a
    flat feasibility predicate filters the combinations.
    """
    packs = list(trace.packets)
    choice_sets = [
        [None] + list(range(p.release, p.deadline + 1)) for p in packs
    ]
    for combo in product(*choice_sets):
        assign = {p.id: t for p, t in zip(packs, combo) if t is not None}
        times = list(assign.values())
        if len(set(times)) != len(times):
            continue
        occ = Counter()
        for pid, t in assign.items():
            for s in range(trace.by_id[pid].release, t + 1):
                occ[s] += 1
        if any(c > trace.buffer_size for c in occ.values()):
            continue
        yield assign


def brute_force_best(trace: Trace) -> Fraction:
    best = Fraction(0)
    for assign in brute_force_assignments(trace):
        best = max(best, sum((trace.by_id[i].weight for i in assign), Fraction(0)))
    return best


def small_traces(count, seed0=0, n=5, horizon=5, max_weight=8):
    for seed in range(seed0, seed0 + count):
        yield gen_random(GeneratorParams(
            n=1 + seed % n, horizon=horizon, buffer_size=1 + seed % 3,
            seed=seed, max_weight=max_weight))


class TestOptimalBounded:
    def test_capacity_blocks_second_packet(self):
        t = validate_trace(1, [P(0, 1, 1, 3), P(1, 1, 2, 2), P(2, 1, 2, 1)])
        assert optimal_bounded(t).value == 3

    def test_larger_buffer_unlocks_it(self):
        t = validate_trace(2, [P(0, 1, 1, 3), P(1, 1, 2, 2), P(2, 1, 2, 1)])
        s = optimal_bounded(t)
        assert s.value == 5
        assert verify_schedule(t, s) == []

    def test_empty_trace(self):
        s = optimal_bounded(validate_trace(1, []))
        assert s.value == 0 and s.assignment == {}

    def test_matches_brute_force(self):
        for trace in small_traces(120):
            best = brute_force_best(trace)
            assert optimal_bounded(trace).value == best, trace
            assert _intersection(trace).value == best, trace

    def test_matches_brute_force_with_duplicates(self):
        # heavy class collapsing: many identical packets
        for b in (1, 2, 3):
            t = validate_trace(b, [P(i, 1, 2, 3) for i in range(4)]
                               + [P(4 + i, 1, 3, 1) for i in range(2)])
            best = brute_force_best(t)
            assert optimal_bounded(t).value == best
            assert _intersection(t).value == best

    def test_fractional_weights(self):
        t = validate_trace(2, [P(0, 1, 1, Fraction(1, 3)), P(1, 1, 2, Fraction(2, 5)),
                               P(2, 1, 2, Fraction(7, 15))])
        assert optimal_bounded(t).value == brute_force_best(t)

    def test_never_below_online_algorithms(self):
        for trace in small_traces(60, seed0=300, n=6):
            opt = optimal_bounded(trace).value
            assert opt >= run_grq(trace).total_weight
            assert opt >= run_naive_greedy(trace).total_weight

    def test_killer_family_closed_form(self):
        for b in (2, 3, 5, 8):
            t = gen_killer(b, Fraction(1, 10))
            assert optimal_bounded(t).value == 1 + (b - 1) * Fraction(9, 10)

    @pytest.mark.parametrize("seed, optimum", [(5309, 68), (4069, 75)])
    def test_greedy_traps(self, seed, optimum):
        # Keeping each packet in rank order iff the set stays schedulable
        # under both the deadlines and the buffer gets only 58 (seed 5309)
        # and 73 (seed 4069); the optimum needs augmenting paths.
        t = gen_random(GeneratorParams(n=10, horizon=6, buffer_size=2, seed=seed))
        s = optimal_bounded(t)
        assert s.value == optimum
        assert verify_schedule(t, s) == []

    def test_long_windows(self):
        t = validate_trace(1, [P(0, 1, 1500, 1), P(1, 1, 1500, 2)])
        s = optimal_bounded(t)
        assert s.value == 2 and verify_schedule(t, s) == []


class TestOptimalUnbounded:
    def test_ignores_capacity(self):
        t = validate_trace(1, [P(0, 1, 1, 3), P(1, 1, 2, 2), P(2, 1, 2, 1)])
        assert optimal_bounded(t.relaxed).value == 5

    def test_one_slot_two_contenders(self):
        t = validate_trace(1, [P(0, 1, 1, 4), P(1, 1, 1, 7)])
        s = optimal_bounded(t.relaxed)
        assert s.value == 7 and s.assignment == {1: 1}

    def test_single_late_packet(self):
        t = validate_trace(1, [P(0, 2, 5, 9)])
        assert optimal_bounded(t.relaxed).value == 9

    def test_matches_brute_force_on_relaxed_instance(self):
        for trace in small_traces(80, seed0=700):
            assert optimal_bounded(trace.relaxed).value == brute_force_best(trace.relaxed)

    def test_dominates_bounded(self):
        for trace in small_traces(80, seed0=900, n=6):
            assert optimal_bounded(trace).value <= optimal_bounded(trace.relaxed).value

    def test_one_shared_long_window(self):
        t = validate_trace(1, [P(i, 1, 1200, 1 + i % 3) for i in range(1200)])
        s = optimal_bounded(t.relaxed)
        assert len(s.assignment) == 1200 and s.value == 2400
        assert verify_schedule(t.relaxed, s) == []

    def test_equals_bounded_when_buffer_big_enough(self):
        # the intersection itself: optimal_bounded would return the greedy's set
        for seed in range(40):
            trace = gen_random(GeneratorParams(
                n=4, horizon=5, buffer_size=4 + seed % 3, seed=4000 + seed))
            assert _intersection(trace).value == optimal_bounded(trace.relaxed).value


WEIGHT_SPELLINGS = ("0", "1", "2", "5", "1/3", "2/6", "3/4")


@st.composite
def bursty_traces(draw):
    """Up to 5 packets over at most 5 steps, drawn as bursts of identical copies."""
    horizon = draw(st.integers(1, 5))
    lines = []
    while len(lines) < 5 and draw(st.booleans()):
        release = draw(st.integers(1, horizon))
        deadline = draw(st.integers(release, horizon))
        weight = draw(st.sampled_from(WEIGHT_SPELLINGS))
        for _ in range(draw(st.integers(1, 5 - len(lines)))):
            lines.append(f"p {len(lines)} {release} {deadline} {weight}")
    buffer_size = draw(st.integers(1, len(lines) + 1))
    return parse_trace("\n".join([f"B {buffer_size}", *lines]) + "\n")


@st.composite
def long_window_traces(draw):
    """Up to 6 packets with windows of 1 to 40 steps, B 1..4, ids shuffled
    and spaced, releases spread so that some steps lie in no window."""
    n = draw(st.integers(0, 6))
    ids = draw(st.permutations([3 * i for i in range(n)]))
    lines = [f"B {draw(st.integers(1, 4))}"]
    for pid in ids:
        release = draw(st.integers(1, 60))
        span = draw(st.integers(0, 39))
        weight = draw(st.sampled_from(WEIGHT_SPELLINGS))
        lines.append(f"p {pid} {release} {release + span} {weight}")
    return parse_trace("\n".join(lines) + "\n")


class TestAgainstBruteForce:
    @settings(max_examples=500, deadline=None)
    @given(bursty_traces())
    def test_both_oracles(self, trace):
        relaxed = trace.relaxed
        bounded, unbounded = optimal_bounded(trace), optimal_bounded(relaxed)
        intersection = _intersection(trace)
        assert verify_schedule(trace, bounded) == []
        assert verify_schedule(trace, intersection) == []
        assert verify_schedule(relaxed, unbounded) == []
        assert bounded.value == intersection.value == brute_force_best(trace)
        assert unbounded.value == brute_force_best(relaxed)
        if trace.buffer_size >= len(trace.packets):
            assert intersection.value == unbounded.value

    @settings(max_examples=500, deadline=None)
    @given(bursty_traces())
    def test_shortcut_gives_the_intersection_assignment(self, trace):
        # Where the deadline greedy's set fits the buffer, optimal_bounded
        # skips the intersection; the assignment, zero weights and dict
        # order included, must be the one the intersection would return.
        with patch.object(oracle, "_intersection", wraps=_intersection) as spy:
            bounded = optimal_bounded(trace)
        if not spy.called:
            assert list(bounded.assignment.items()) == list(
                _intersection(trace).assignment.items())


def reference_greedy(trace: Trace):
    """The deadline greedy with a full EDF run per packet, as it was first
    written: (kept ranks, EDF steps) over all packets, and the same over the
    positive-weight ones."""
    windows, kept, steps = [], [], []
    positive = None
    for r, p in enumerate(trace.by_rank):
        if positive is None and p.weight == 0:
            positive = (tuple(kept), tuple(steps))
        windows.append((p.release, p.deadline))
        fits = oracle._edf(windows)
        if fits is None:
            windows.pop()
        else:
            kept.append(r)
            steps = fits
    every = (tuple(kept), tuple(steps))
    return every, every if positive is None else positive


class TestDeadlineGreedy:
    @settings(max_examples=500, deadline=None)
    @given(bursty_traces())
    def test_matches_reference(self, trace):
        assert trace.deadline_greedy == reference_greedy(trace)[1]

    def test_matches_reference_on_large_traces(self):
        for seed in range(6):
            trace = gen_random(GeneratorParams(
                n=300, horizon=40 + 40 * (seed % 3), buffer_size=8, seed=seed,
                max_weight=1 + seed, burst=Fraction(1, 2)))
            assert trace.deadline_greedy == reference_greedy(trace)[1]

    @settings(max_examples=500, deadline=None)
    @given(bursty_traces())
    def test_unbounded_leaves_out_zero_weights(self, trace):
        # The greedy over every packet and the greedy over the positive
        # weights reach one value; the unbounded oracle sends no packet of
        # weight 0.  The alias optimal_unbounded, which slotbench calls,
        # returns the same schedule, dict order included.
        unbounded = optimal_bounded(trace.relaxed)
        (every, _), _ = reference_greedy(trace)
        assert unbounded.value == sum(
            (trace.by_rank[r].weight for r in every), Fraction(0))
        assert all(trace.by_id[pid].weight > 0 for pid in unbounded.assignment)
        assert list(unbounded.assignment.items()) == list(
            optimal_unbounded(trace).assignment.items())


class TestMonotonicityInB:
    def test_value_non_decreasing(self):
        for trace in small_traces(60, seed0=1200, n=6):
            bigger = Trace(trace.buffer_size + 1, trace.packets)
            assert optimal_bounded(trace).value <= optimal_bounded(bigger).value


class TestVerifySchedule:
    def test_occupancy_violation(self):
        t = validate_trace(1, [P(0, 1, 1, 1), P(1, 1, 2, 1)])
        bad = OfflineSchedule.of(t, {0: 1, 1: 2})
        assert any("held" in v for v in verify_schedule(t, bad))

    def test_window_violation(self):
        t = validate_trace(1, [P(0, 1, 1, 1)])
        bad = OfflineSchedule.of(t, {0: 2})
        assert any("outside window" in v for v in verify_schedule(t, bad))

    def test_step_reuse_violation(self):
        t = validate_trace(2, [P(0, 1, 2, 1), P(1, 1, 2, 1)])
        bad = OfflineSchedule.of(t, {0: 1, 1: 1})
        assert any("one step" in v for v in verify_schedule(t, bad))

    def test_value_tamper_detected(self):
        t = validate_trace(1, [P(0, 1, 1, 1)])
        bad = OfflineSchedule({0: 1}, Fraction(5))
        assert any("declared value" in v for v in verify_schedule(t, bad))

    def test_unknown_packet_raises(self):
        t = validate_trace(1, [P(0, 1, 1, 1)])
        with pytest.raises(ValueError):
            verify_schedule(t, OfflineSchedule({9: 1}, Fraction(0)))

    def test_relaxed_view_built_once_sharing_indexes(self):
        t = validate_trace(1, [P(0, 1, 2, Fraction(1, 3)), P(1, 1, 2, 1)])
        # validate_trace built the weight indexes; two more are built here
        by_id, greedy = t.by_id, t.deadline_greedy
        relaxed = t.relaxed
        # the alias relax_capacity, which slotbench calls, returns the view
        assert relaxed is t.relaxed is relax_capacity(t)
        assert relaxed == Trace(2, t.packets)
        assert relaxed.by_id is by_id and relaxed.deadline_greedy is greedy
        assert relaxed.scaled_weight is t.scaled_weight and relaxed.weight_denominator == 3
        # an index built after the view is the view's own
        assert "horizon" not in vars(relaxed) and relaxed.horizon == t.horizon == 2

    def test_oracle_outputs_always_accepted(self):
        for trace in small_traces(60, seed0=1500, n=6):
            assert verify_schedule(trace, optimal_bounded(trace)) == []
            assert verify_schedule(trace.relaxed, optimal_bounded(trace.relaxed)) == []


LAZIES = [name for name, attr in vars(Trace).items() if isinstance(attr, lazy)]


@st.composite
def relaxable(draw):
    """(B, packets) with B below the packet count, at or above it, or no packets."""
    packets = draw(bursty_traces()).packets
    n = len(packets)
    regime = draw(st.sampled_from(["below", "above", "empty"]))
    if regime == "empty":
        return draw(st.integers(1, 3)), ()
    if regime == "below" and n >= 2:
        return draw(st.integers(1, n - 1)), packets
    return draw(st.integers(max(n, 1), n + 2)), packets


class TestRelaxedView:
    @settings(max_examples=300, deadline=None)
    @given(relaxable(), st.booleans())
    def test_is_a_fresh_trace_with_the_larger_buffer(self, case, indexed_first):
        # The view shares the indexes the trace has built, so one that
        # depended on buffer_size would differ here from a fresh trace's.
        size, packets = case
        trace = Trace(size, packets)
        if indexed_first:
            for name in LAZIES:
                if name != "relaxed":
                    getattr(trace, name)
        relaxed = trace.relaxed
        fresh = Trace(max(size, len(packets), 1), packets)
        assert relaxed.buffer_size == fresh.buffer_size
        for name in LAZIES:
            assert getattr(relaxed, name) == getattr(fresh, name), name
        assert optimal_bounded(relaxed) == optimal_bounded(fresh)


class TestEnumerateFeasible:
    def test_single_packet_three_schedules(self):
        t = validate_trace(1, [P(0, 1, 2, 1)])
        got = [s.assignment for s in enumerate_feasible(t, 100)]
        assert len(got) == 3
        assert {} in got and {0: 1} in got and {0: 2} in got

    def test_empty_trace_single_schedule(self):
        scheds = enumerate_feasible(validate_trace(1, []), 10)
        assert len(scheds) == 1 and scheds[0].assignment == {}

    def test_occupancy_excludes_joint_schedule(self):
        t = validate_trace(1, [P(1, 1, 1, 1), P(2, 1, 2, 1)])
        got = [s.assignment for s in enumerate_feasible(t, 100)]
        assert {1: 1, 2: 2} not in got
        assert sorted(got, key=str) == sorted([{}, {1: 1}, {2: 1}, {2: 2}], key=str)

    def test_limit_respected(self):
        t = validate_trace(2, [P(i, 1, 3, 1) for i in range(3)])
        assert len(enumerate_feasible(t, 5)) == 5

    def test_exhaustive_matches_brute_force_count(self):
        for trace in small_traces(40, seed0=1800, n=4, horizon=4):
            brute = list(brute_force_assignments(trace))
            got = enumerate_feasible(trace, 10_000)
            assert len(got) == len(brute)
            assert {frozenset(s.assignment.items()) for s in got} == {
                frozenset(a.items()) for a in brute
            }

    def test_all_outputs_feasible_and_distinct(self):
        for trace in small_traces(30, seed0=2100, n=5):
            got = enumerate_feasible(trace, 50)
            seen = set()
            for s in got:
                assert verify_schedule(trace, s) == []
                key = frozenset(s.assignment.items())
                assert key not in seen
                seen.add(key)

    def test_zero_limit(self):
        assert enumerate_feasible(validate_trace(1, [P(0, 1, 1, 1)]), 0) == []

    def test_long_windows_cost_what_the_sends_do(self):
        # two windows of 200,000 steps: five schedules, found without
        # anything sized by the steps (a list of one int per step alone
        # takes 1.6 MB)
        t = validate_trace(2, [P(0, 1, 200_000, 1), P(1, 1, 200_000, 2)])
        tracemalloc.start()
        try:
            got = enumerate_feasible(t, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [s.assignment for s in got] == [{0: 1, 1: u} for u in range(2, 7)]
        assert peak < 100_000

    @settings(max_examples=300, deadline=None)
    @given(long_window_traces(), st.sampled_from((0, 1, 7, 50)))
    def test_matches_reference(self, trace, limit):
        # the same schedules in the same order, each with the same
        # assignment dict order and the same value
        got = enumerate_feasible(trace, limit)
        want = reference_enumerate_feasible(trace, limit)
        assert [(list(s.assignment.items()), s.value) for s in got] == [
            (list(s.assignment.items()), s.value) for s in want]


def reference_enumerate_feasible(trace: Trace, limit: int) -> list[OfflineSchedule]:
    """enumerate_feasible as it was before occupancy moved into a step-indexed
    list: every step 1..horizon, occupancy tested and updated step by step
    in a Counter, and each value summed again by OfflineSchedule.of."""
    horizon = trace.horizon
    packs = sorted(trace.packets, key=lambda p: p.id)
    idle = len(packs)
    occupancy = Counter()
    assignment: dict[int, int] = {}
    found: list[OfflineSchedule] = []

    def feasible_add(p: Packet, t: int) -> bool:
        return all(occupancy[s] < trace.buffer_size for s in range(p.release, t + 1))

    def hold(p: Packet, t: int, delta: int) -> None:
        for s in range(p.release, t + 1):
            occupancy[s] += delta

    stack: list[list] = [[0, None]] if limit else []
    while stack and len(found) < limit:
        frame = stack[-1]
        t = len(stack)
        if t > horizon:
            found.append(OfflineSchedule.of(trace, assignment))
            stack.pop()
            continue
        choice, sent = frame
        if sent is not None:
            hold(sent, t, -1)
            del assignment[sent.id]
            frame[1] = None
        while choice < idle:
            p = packs[choice]
            choice += 1
            if p.id not in assignment and p.release <= t <= p.deadline and feasible_add(p, t):
                assignment[p.id] = t
                hold(p, t, 1)
                frame[1] = p
                break
        else:
            if choice > idle:
                stack.pop()
                continue
            choice += 1
        frame[0] = choice
        stack.append([0, None])
    return found
