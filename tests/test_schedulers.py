import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import slotq
from slotq.generate import GeneratorParams, gen_killer, gen_random
from slotq.model import (
    ADMISSION_REFUSED,
    EXPIRED,
    PREEMPTED,
    Packet,
    SlotBuffer,
    StepRecord,
    Trace,
    Transcript,
    check_buffer_invariants,
    check_transcript_invariants,
    validate_trace,
)
from slotq.schedulers import (
    check_slot_monotonicity,
    grq_rebuild,
    grq_transmit,
    run_grq,
    run_naive_greedy,
)


def P(pid, r, d, w):
    return Packet(pid, r, d, Fraction(w))


def rebuild(buffered, arrivals, t, buffer_size):
    """grq_rebuild on the ranks of these packets within a trace of just them."""
    trace = Trace(buffer_size, (*buffered, *arrivals))
    rank = trace.rank
    buf, rej, *_ = grq_rebuild(
        sorted(rank[p.id] for p in buffered), [rank[p.id] for p in arrivals], t, trace
    )
    return buf, rej


def weights_at(trace, placed):
    """The trace's rank_weight column at the placed ranks, as grq_rebuild returns it."""
    return [trace.rank_weight[r] for r in placed]


def transmit(buf, t):
    """grq_transmit on the ranks of buf's packets within a trace of just them."""
    trace = Trace(1, buf.packets())
    placed = [trace.rank[p.id] for p in buf.packets()]
    sent, rest = grq_transmit(buf, placed, weights_at(trace, placed), t, trace)
    return sent, tuple(trace.by_rank[r] for r in rest)


def weights_of(buf):
    return Trace(1, buf.packets()).scaled_weight


class TestRebuild:
    def test_tight_deadline_loses_to_heavier(self):
        a, b = P(0, 1, 2, 5), P(1, 1, 1, 3)
        buf, rej = rebuild([], [a, b], t=1, buffer_size=2)
        assert (buf.prefix, buf.size) == ((a,), 2)
        assert [r.packet_id for r in rej] == [1]
        assert rej[0].cause == ADMISSION_REFUSED

    def test_both_fit_when_heavy_is_tight(self):
        a, b = P(0, 1, 1, 5), P(1, 1, 2, 3)
        buf, rej = rebuild([], [a, b], t=1, buffer_size=2)
        assert (buf.prefix, buf.size) == ((a, b), 2)
        assert rej == ()

    def test_burst_placement(self):
        ones = [P(i, 1, 1, 1) for i in range(3)]
        soft = [P(3 + i, 1, 3, Fraction(3, 4)) for i in range(2)]
        buf, rej = rebuild([], ones + soft, t=1, buffer_size=3)
        assert [p.weight for p in buf.prefix] == [1, Fraction(3, 4), Fraction(3, 4)]
        assert sorted(r.packet_id for r in rej) == [1, 2]

    def test_buffered_packet_squeezed_out_is_preempted(self):
        held = P(0, 1, 2, 1)
        heavy = P(1, 2, 2, 5)
        buf, rej = rebuild([held], [heavy], t=2, buffer_size=2)
        assert buf.occupied() == [(2, heavy)]
        assert [(r.packet_id, r.cause) for r in rej] == [(0, PREEMPTED)]

    def test_tie_break_prefers_earlier_deadline_then_id(self):
        a, b, c = P(5, 1, 3, 2), P(2, 1, 2, 2), P(1, 1, 3, 2)
        buf, rej = rebuild([], [a, b, c], t=1, buffer_size=3)
        # equal weights: deadline 2 first, then ids 1, 5
        assert [p.id for _, p in buf.occupied()] == [2, 1, 5]

    def test_rejects_expired_input(self):
        p = P(0, 1, 1, 1)
        with pytest.raises(AssertionError):
            rebuild([], [p], t=2, buffer_size=1)

    def test_rejects_future_input(self):
        p = P(0, 3, 4, 1)
        with pytest.raises(AssertionError):
            rebuild([], [p], t=2, buffer_size=1)

    def test_input_checks_survive_optimize_flag(self):
        out = run_optimized("""
            from slotq.model import Packet, Trace
            from slotq.schedulers import grq_rebuild
            trace = Trace(1, (Packet(0, 1, 2, 1), Packet(1, 1, 2, 9)))
            for carried, arrivals, t in (([0, 1], [], 1), ([], [0], 3)):
                try:
                    grq_rebuild(carried, arrivals, t, trace)
                except AssertionError as e:
                    print("raised", e)
        """)
        assert "raised carried packets exceed buffer size" in out
        assert "raised packet 1 not live at t=3" in out

    def test_result_satisfies_rebuild_invariants(self):
        pkts = [P(i, 1, 1 + i % 3, 1 + i % 5) for i in range(6)]
        buf, _ = rebuild([], pkts, t=1, buffer_size=4)
        assert check_buffer_invariants(buf, weights_of(buf)) == []


class TestTransmit:
    def test_sends_front(self):
        a, b = P(0, 1, 1, 5), P(1, 1, 2, 3)
        buf = SlotBuffer(1, (a, b), 2)
        sent, remaining = transmit(buf, 1)
        assert sent == a and remaining == (b,)

    def test_idle_on_empty(self):
        sent, remaining = transmit(SlotBuffer(4, (), 2), 4)
        assert sent is None and remaining == ()

    def test_front_on_weight_tie(self):
        a, b = P(0, 1, 2, 2), P(1, 1, 3, 2)
        buf = SlotBuffer(2, (a, b), 2)
        sent, _ = transmit(buf, 2)
        assert sent == a

    def test_asserts_front_heaviest(self):
        light, heavy = P(0, 1, 2, 1), P(1, 1, 2, 9)
        buf = SlotBuffer(1, (light, heavy), 2)
        with pytest.raises(AssertionError):
            transmit(buf, 1)

    def test_asserts_front_is_first_placed_rank(self):
        # placed must describe the buffer: its first rank is the front packet
        a, b = P(0, 1, 1, 5), P(1, 1, 2, 3)
        buf = SlotBuffer(1, (a, b), 2)
        trace = Trace(1, buf.packets())
        for placed in ([1, 0], [1], []):
            with pytest.raises(AssertionError, match="^front packet 0 is not the first placed rank at t=1$"):
                grq_transmit(buf, placed, weights_at(trace, placed), 1, trace)

    def test_front_check_survives_optimize_flag(self):
        # `python -O` strips assert statements; the front checks must still fire
        out = run_optimized("""
            from slotq.model import Packet, SlotBuffer, Trace
            from slotq.schedulers import grq_transmit
            light, heavy = Packet(0, 1, 2, 1), Packet(1, 1, 2, 9)
            trace = Trace(1, (light, heavy))  # ranks: heavy is 0, light is 1
            for placed in ([1, 0], [0, 1]):
                weights = [trace.rank_weight[r] for r in placed]
                try:
                    grq_transmit(SlotBuffer(1, (light, heavy), 2), placed, weights, 1, trace)
                except AssertionError as e:
                    print("raised", e)
        """)
        assert "raised front packet 0 is not heaviest at t=1" in out
        assert "raised front packet 0 is not the first placed rank at t=1" in out


def test_runner_checks_survive_optimize_flag():
    # each runner check must still fire under `python -O` with its message:
    # greedy's on a trace whose expiry index is emptied, so nothing expires,
    # and on one whose index names each packet a step after its deadline,
    # after an overflow and with a live packet held beside the expired one;
    # run_grq's with a transmit that keeps the sent packet among the survivors
    # (the next rebuild finds it past its deadline), with a rebuild whose
    # placed deadlines put a survivor at its deadline, and with hand-built
    # trimmed snapshots (stored prefix shorter than B) that break the rebuild
    # invariants: a lighter packet before a heavier one, a gap at the front
    # (also on a one-packet trace, where nothing else would notice), and a
    # rebuild misled by a tampered rank order; a hand-built rebuild result
    # carries the trace's deadline and weight columns at its placed ranks
    code = """
        import slotq.schedulers as s
        from slotq.model import Packet, SlotBuffer, validate_trace

        def attempt(run, trace):
            try:
                run(trace)
            except AssertionError as e:
                print("raised", e)

        def rebuilt(snapshot, placed, trace):
            return (snapshot, (), placed, [trace.rank_deadline[r] for r in placed],
                    [trace.rank_weight[r] for r in placed])

        for deadline in (2, 1):
            trace = validate_trace(2, [Packet(0, 1, deadline, 5), Packet(1, 1, 1, 3)])
            trace.__dict__["expiring_ranks"] = {}
            attempt(s.run_naive_greedy, trace)
        # B=3: the overflow drops packet 3 (deadline 9) at t=1, packet 2
        # (deadline 2) is never sent, and packet 4 (deadline 9, released at
        # t=2) is still held beside it when it should have expired
        trace = validate_trace(3, [Packet(0, 1, 1, 9), Packet(1, 1, 9, 8), Packet(2, 1, 2, 3),
                                   Packet(3, 1, 9, 1), Packet(4, 2, 9, 7)])
        trace.__dict__["expiring_ranks"] = {
            t + 1: ranks for t, ranks in trace.expiring_ranks.items()}
        attempt(s.run_naive_greedy, trace)
        # B=5, one send a step: the index drops packet 3 (deadline 5) early at
        # t=2 and names packet 4 (deadline 3) a step late, so only the held
        # deadlines themselves show packet 4 past its deadline at t=4
        trace = validate_trace(5, [Packet(0, 1, 1, 9), Packet(1, 1, 9, 8), Packet(2, 1, 9, 7),
                                   Packet(3, 1, 5, 2), Packet(4, 1, 3, 1)])
        trace.__dict__["expiring_ranks"] = {2: (3,), 4: (4,)}
        attempt(s.run_naive_greedy, trace)
        transmit = s.grq_transmit
        s.grq_transmit = lambda buf, placed, weights, t, trace: (
            transmit(buf, placed, weights, t, trace)[0], list(placed))
        attempt(s.run_grq, validate_trace(2, [Packet(0, 1, 1, 5), Packet(1, 1, 2, 3)]))
        s.grq_transmit = transmit
        rebuild = s.grq_rebuild

        def survivor_at_deadline(held, arrivals, t, trace):
            buf, rejections, placed, deadlines, weights = rebuild(held, arrivals, t, trace)
            return buf, rejections, placed, [t] * len(deadlines), weights

        s.grq_rebuild = survivor_at_deadline
        attempt(s.run_grq, validate_trace(2, [Packet(0, 1, 1, 5), Packet(1, 1, 2, 3)]))

        light, heavy = Packet(0, 1, 3, 1), Packet(1, 1, 1, 9)  # ranks: heavy 0, light 1
        for snapshot, placed in ((SlotBuffer(1, (light, heavy), 3), [1, 0]),
                                 (SlotBuffer(1, (None, heavy), 3), [0])):
            s.grq_rebuild = lambda held, arrivals, t, trace, out=(snapshot, placed): (
                rebuilt(*out, trace))
            attempt(s.run_grq, validate_trace(3, [light, heavy]))
        # only the rebuild at t=1 leaves the gap; the real one runs after it
        lone = Packet(1, 1, 3, 9)
        s.grq_rebuild = lambda held, arrivals, t, trace: (
            rebuilt(SlotBuffer(1, (None, lone), 3), [0], trace) if t == 1
            else rebuild(held, arrivals, t, trace))
        attempt(s.run_grq, validate_trace(3, [lone]))
        s.grq_rebuild = rebuild
        trace = validate_trace(3, [light, Packet(1, 1, 3, 9)])
        trace.__dict__.update(by_rank=(light, trace.by_id[1]), rank_weight=(1, 9))
        attempt(s.run_grq, trace)
    """
    out = run_optimized(code)
    assert "raised greedy holds an expired packet at t=2" in out
    assert "raised greedy holds packets after the last deadline" in out
    assert "raised greedy holds an expired packet at t=3" in out
    assert "raised greedy holds an expired packet at t=4" in out
    assert "raised packet 0 not live at t=2" in out
    assert "raised a survivor of t=1 is past its deadline" in out
    assert "raised front packet 0 is not heaviest at t=1" in out
    assert out.count("raised a survivor of t=1 is past its deadline") == 1
    assert out.count("raised front slot empty in a non-empty buffer at t=1") == 2
    assert ("raised rebuild at t=1 broke the buffer invariants: "
            "['slot 2: weight 9 exceeds weight 1 at slot 1']") in out
    plain = run_python(code)
    assert "optimize 0" in plain
    assert out.splitlines()[1:] == plain.splitlines()[1:]


def run_python(code, *flags):
    """stdout of `code` run by this interpreter with `flags` on this checkout's slotq."""
    code = "import sys\nprint('optimize', sys.flags.optimize)\n" + textwrap.dedent(code)
    src = str(Path(slotq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_optimized(code):
    """stdout of `code` run by `python -O` on this checkout's slotq."""
    out = run_python(code, "-O")
    assert "optimize 1" in out
    return out


class TestRunGrq:
    def test_tie_break_example(self):
        t = validate_trace(1, [P(1, 1, 1, 1), P(2, 1, 2, 1)])
        ts = run_grq(t)
        assert ts.send_time == {1: 1}
        assert ts.rejected_at == {2: (1, ADMISSION_REFUSED)}
        assert ts.steps[1].transmitted is None
        assert ts.total_weight == 1

    def test_killer_value(self):
        ts = run_grq(gen_killer(3, Fraction(1, 4)))
        assert ts.total_weight == Fraction(5, 2)
        weights = [ts.transmitted_weight(t) for t in (1, 2, 3)]
        assert weights == [1, Fraction(3, 4), Fraction(3, 4)]

    def test_empty_trace(self):
        ts = run_grq(validate_trace(2, []))
        assert ts.steps == () and ts.total_weight == 0

    def test_transcript_always_sound(self):
        for seed in range(40):
            trace = gen_random(GeneratorParams(
                n=7, horizon=6, buffer_size=1 + seed % 4, seed=seed))
            ts = run_grq(trace)
            assert check_transcript_invariants(ts) == []
            for rec in ts.steps:
                assert check_buffer_invariants(rec.slots, trace.scaled_weight) == []

    def test_preemption_recorded_at_rebuild_time(self):
        t = validate_trace(2, [P(0, 1, 2, 1), P(1, 1, 3, 2), P(2, 2, 2, 5)])
        ts = run_grq(t)
        # packet 0 survives step 1 in slot 2, then packet 2 (heavier, same
        # deadline window) takes label 2 at t=2 and squeezes it out
        assert ts.rejected_at[0] == (2, PREEMPTED)
        assert ts.send_time == {1: 1, 2: 2}
        assert ts.total_weight == 7


class TestRunNaiveGreedy:
    def test_killer_failure_mode(self):
        trace = gen_killer(3, Fraction(1, 4))
        ts = run_naive_greedy(trace)
        assert ts.total_weight == 1
        # the two light long-deadline packets are refused, two heavies expire
        causes = sorted(c for _, c in ts.rejected_at.values())
        assert causes == [ADMISSION_REFUSED, ADMISSION_REFUSED, EXPIRED, EXPIRED]

    def test_single_packet(self):
        ts = run_naive_greedy(validate_trace(1, [P(0, 1, 2, 7)]))
        assert ts.send_time == {0: 1} and ts.total_weight == 7

    def test_overflowless_tie(self):
        ts = run_naive_greedy(validate_trace(2, [P(0, 1, 1, 1), P(1, 1, 1, 2)]))
        assert ts.send_time == {1: 1}
        assert ts.rejected_at == {0: (1, EXPIRED)}
        assert ts.total_weight == 2

    def test_expiry_recorded_at_deadline_step(self):
        ts = run_naive_greedy(validate_trace(2, [P(0, 1, 1, 1), P(1, 1, 1, 2)]))
        step, cause = ts.rejected_at[0]
        assert step == 1 and cause == EXPIRED
        assert check_transcript_invariants(ts) == []

    def test_overflow_drops_lightest_largest_deadline_first(self):
        pkts = [P(0, 1, 5, 1), P(1, 1, 3, 1), P(2, 1, 4, 2)]
        ts = run_naive_greedy(validate_trace(2, pkts))
        # packet 0 and 1 tie at weight 1; larger deadline (packet 0) dropped
        assert ts.rejected_at[0] == (1, ADMISSION_REFUSED)
        assert ts.send_time[2] == 1 and ts.send_time[1] == 2

    def test_transcripts_sound_on_random_traces(self):
        for seed in range(40):
            trace = gen_random(GeneratorParams(
                n=8, horizon=6, buffer_size=1 + seed % 3, seed=1000 + seed))
            assert check_transcript_invariants(run_naive_greedy(trace)) == []


class TestSlotMonotonicity:
    def test_holds_on_random_runs(self):
        for seed in range(60):
            trace = gen_random(GeneratorParams(
                n=9, horizon=7, buffer_size=1 + seed % 4, seed=500 + seed))
            assert check_slot_monotonicity(run_grq(trace)) == []

    def test_detects_weight_drop(self):
        trace = validate_trace(2, [P(0, 1, 3, 5), P(1, 1, 3, 4), P(2, 2, 3, 1)])
        heavy, mid, light = trace.packets
        fake = Transcript(trace, (
            StepRecord(1, SlotBuffer(1, (heavy, mid), 2), (), 0),
            # label 2 held weight 4 at t=1 but only 1 now: a decrease
            StepRecord(2, SlotBuffer(2, (light,), 2), (), 2),
            StepRecord(3, SlotBuffer(3, (mid,), 2), (), 1),
        ))
        errs = check_slot_monotonicity(fake)
        assert len(errs) == 1 and "label 2" in errs[0]

    def test_detects_emptied_label(self):
        trace = validate_trace(2, [P(0, 1, 3, 5), P(1, 1, 3, 4)])
        heavy, mid = trace.packets
        fake = Transcript(trace, (
            StepRecord(1, SlotBuffer(1, (heavy, mid), 2), (), 0),
            StepRecord(2, SlotBuffer(2, (), 2), (), None),
            StepRecord(3, SlotBuffer(3, (mid,), 2), (), 1),
        ))
        assert any("empty" in e for e in check_slot_monotonicity(fake))


class TestGrqNeverExpires:
    def test_every_packet_terminates_exactly_once(self):
        # the partition property: transmitted or rejected, never neither/both
        for seed in range(80):
            trace = gen_random(GeneratorParams(
                n=10, horizon=8, buffer_size=1 + seed % 4, seed=3000 + seed))
            ts = run_grq(trace)
            assert check_transcript_invariants(ts) == []
            terminated = set(ts.send_time) | set(ts.rejected_at)
            assert terminated == set(trace.by_id)
            assert not (set(ts.send_time) & set(ts.rejected_at))
