from bisect import bisect_left
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slotq.generate import GeneratorParams, gen_killer, gen_random
from slotq.model import (
    ADMISSION_REFUSED,
    EXPIRED,
    PREEMPTED,
    Rejection,
    StepRecord,
    Trace,
    Transcript,
    check_transcript_invariants,
    validate_trace,
)
from slotq.schedulers import (
    check_slot_monotonicity,
    greedy,
    grq,
    grq_rebuild,
    run,
    run_grq,
    run_naive_greedy,
)
from support import P, ROOT, run_optimized, run_python, traces


def rebuild(buffered, arrivals, t, buffer_size):
    """grq's step (grq_rebuild and its checks) on the ranks of these packets
    within a trace of just them; the snapshot comes back as (label, packet)
    pairs, beside the rejections."""
    trace = Trace(buffer_size, (*buffered, *arrivals))
    rank = {p.id: r for r, p in enumerate(trace.by_rank)}
    _, slots, rej, _ = grq(
        tuple(sorted(rank[p.id] for p in buffered)), [rank[p.id] for p in arrivals], t, trace
    )
    return [(label, trace.by_rank[r]) for label, r in enumerate(slots, start=t)], rej


class TestRebuild:
    def test_tight_deadline_loses_to_heavier(self):
        a, b = P(0, 1, 2, 5), P(1, 1, 1, 3)
        occupied, rej = rebuild([], [a, b], t=1, buffer_size=2)
        assert occupied == [(1, a)]
        assert [r.packet_id for r in rej] == [1]
        assert rej[0].cause == ADMISSION_REFUSED

    def test_both_fit_when_heavy_is_tight(self):
        a, b = P(0, 1, 1, 5), P(1, 1, 2, 3)
        occupied, rej = rebuild([], [a, b], t=1, buffer_size=2)
        assert occupied == [(1, a), (2, b)]
        assert rej == ()

    def test_burst_placement(self):
        ones = [P(i, 1, 1, 1) for i in range(3)]
        soft = [P(3 + i, 1, 3, Fraction(3, 4)) for i in range(2)]
        occupied, rej = rebuild([], ones + soft, t=1, buffer_size=3)
        assert [p.weight for _, p in occupied] == [1, Fraction(3, 4), Fraction(3, 4)]
        assert sorted(r.packet_id for r in rej) == [1, 2]

    def test_buffered_packet_squeezed_out_is_preempted(self):
        held = P(0, 1, 2, 1)
        heavy = P(1, 2, 2, 5)
        occupied, rej = rebuild([held], [heavy], t=2, buffer_size=2)
        assert occupied == [(2, heavy)]
        assert [(r.packet_id, r.cause) for r in rej] == [(0, PREEMPTED)]

    def test_tie_break_prefers_earlier_deadline_then_id(self):
        a, b, c = P(5, 1, 3, 2), P(2, 1, 2, 2), P(1, 1, 3, 2)
        occupied, rej = rebuild([], [a, b, c], t=1, buffer_size=3)
        # equal weights: deadline 2 first, then ids 1, 5
        assert [p.id for _, p in occupied] == [2, 1, 5]

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
        trace = Trace(4, [P(i, 1, 1 + i % 3, 1 + i % 5) for i in range(6)])
        arrivals = list(range(len(trace.packets)))
        slots, _, refused = grq_rebuild([], arrivals, 1, trace)
        assert slots == (0, 2, 5) and refused == [1, 3, 4]
        # grq's step checks (a)-(d) accept it and send its front
        held, snapshot, rejections, sent = grq((), arrivals, 1, trace)
        assert (held, snapshot, sent) == (slots[1:], slots, trace.rank_id[0])
        assert [r.packet_id for r in rejections] == [trace.rank_id[r] for r in refused]


class TestTransmit:
    def test_sends_front(self):
        a, b = P(0, 1, 1, 5), P(1, 1, 2, 3)
        ts = run_grq(validate_trace(2, [a, b]))
        assert ts.step(1).slots == (0, 1) and ts.step(1).transmitted == 0
        # b survives into label 2 and is sent there
        assert ts.step(2).slots == (1,) and ts.step(2).transmitted == 1

    def test_idle_on_empty(self):
        ts = run_grq(validate_trace(2, [P(0, 4, 5, 1)]))
        assert [(rec.slots, rec.transmitted) for rec in ts.steps[:3]] == [((), None)] * 3
        assert ts.step(4).transmitted == 0

    def test_front_on_weight_tie(self):
        a, b = P(0, 1, 2, 2), P(1, 1, 3, 2)
        ts = run_grq(validate_trace(2, [a, b]))
        assert ts.step(1).transmitted == 0

    def test_asserts_front_heaviest(self, monkeypatch):
        trace = validate_trace(3, [P(0, 1, 3, 1), P(1, 1, 3, 9)])  # ranks: heavy 0, light 1
        # a rebuild that places the light packet before the heavy one
        monkeypatch.setattr("slotq.schedulers.grq_rebuild",
                            lambda held, arrivals, t, trace: ((1, 0), [3, 3], []))
        with pytest.raises(AssertionError, match=(
                "^rebuild at t=1: packet 1 in slot 2 does not rank below packet 0$")):
            run_grq(trace)

    def test_front_check_survives_optimize_flag(self):
        # `python -O` strips assert statements; the front check must still fire
        out = run_optimized("""
            import slotq.schedulers as s
            from slotq.model import Packet, validate_trace
            trace = validate_trace(3, [Packet(0, 1, 3, 1), Packet(1, 1, 3, 9)])
            # ranks: heavy is 0, light is 1; the rebuild puts light first
            s.grq_rebuild = lambda held, arrivals, t, trace: ((1, 0), [3, 3], [])
            try:
                s.run_grq(trace)
            except AssertionError as e:
                print("raised", e)
        """)
        assert "raised rebuild at t=1: packet 1 in slot 2 does not rank below packet 0" in out


def test_runner_checks_survive_optimize_flag():
    # each runner check must still fire under `python -O` with its message:
    # greedy's on a trace whose expiry index is emptied, so nothing expires,
    # and on one whose index names each packet a step after its deadline,
    # after an overflow and with a live packet held beside the expired one;
    # grq's with a rebuild whose snapshot repeats its front, with one whose
    # placed deadlines put a survivor at its deadline, with one that offers
    # the sent packet again a step later (the rebuild's liveness check),
    # with a hand-built result that puts a lighter packet before a heavier
    # one, with one that fills more slots than B, with one that refuses a
    # packet while a slot is open to it, with one that carries a packet past
    # the horizon on made-up deadlines (the loop's leftover check), and on a
    # tampered rank order (run_grq's per-run check)
    code = """
        import slotq.schedulers as s
        from slotq.model import Packet, validate_trace

        def attempt(run, trace):
            try:
                run(trace)
            except AssertionError as e:
                print("raised", e)

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
        rebuild = s.grq_rebuild

        def front_kept(held, arrivals, t, trace):
            slots, deadlines, refused = rebuild(held, arrivals, t, trace)
            return slots[:1] + slots, deadlines[:1] + deadlines, refused

        def survivor_at_deadline(held, arrivals, t, trace):
            slots, deadlines, refused = rebuild(held, arrivals, t, trace)
            return slots, [t] * len(deadlines), refused

        def sent_offered_again(held, arrivals, t, trace):
            return rebuild((*held, 0) if t > 1 else held, arrivals, t, trace)

        for patch in (front_kept, survivor_at_deadline, sent_offered_again):
            s.grq_rebuild = patch
            attempt(s.run_grq, validate_trace(2, [Packet(0, 1, 1, 5), Packet(1, 1, 2, 3)]))

        light, heavy = Packet(0, 1, 3, 1), Packet(1, 1, 1, 9)  # ranks: heavy 0, light 1
        trace = validate_trace(3, [light, heavy])
        s.grq_rebuild = lambda held, arrivals, t, trace: (
            (1, 0), [trace.rank_deadline[r] for r in (1, 0)], [])
        attempt(s.run_grq, trace)
        for size, result in ((1, ((0, 1), [2, 2], [])), (2, ((0,), [2], [1]))):
            s.grq_rebuild = lambda held, arrivals, t, trace: result
            attempt(s.run_grq, validate_trace(size, [Packet(0, 1, 2, 9), Packet(1, 1, 2, 1)]))
        s.grq_rebuild = lambda held, arrivals, t, trace: ((0, 1), [9, 9], [])
        attempt(s.run_grq, validate_trace(3, [Packet(0, 1, 1, 9), Packet(1, 1, 1, 1)]))
        s.grq_rebuild = rebuild
        trace = validate_trace(3, [light, Packet(1, 1, 3, 9)])
        trace.__dict__.update(by_rank=(light, trace.by_id[1]), rank_weight=(1, 9))
        attempt(s.run_grq, trace)
    """
    out = run_optimized(code)
    assert out.splitlines()[1:] == [
        "raised greedy holds an expired packet at t=2",
        "raised greedy holds packet 1 after the last deadline t=1",
        "raised greedy holds an expired packet at t=3",
        "raised greedy holds an expired packet at t=4",
        "raised rebuild at t=1: packet 0 in slot 2 does not rank below packet 0",
        "raised rebuild at t=1: packet 1 in slot 2 has deadline 1 < its label",
        "raised packet 0 not live at t=2",
        "raised rebuild at t=1: packet 1 in slot 2 does not rank below packet 0",
        "raised rebuild at t=1: packet 1 in slot 2 is past the last slot 1",
        "raised rebuild at t=1: packet 1 refused with slot 2 open",
        "raised grq holds packet 1 after the last deadline t=1",
        "raised packet 1 at rank 1 outweighs packet 0 at rank 0",
    ]
    plain = run_python(code)
    assert "optimize 0" in plain
    assert out.splitlines()[1:] == plain.splitlines()[1:]


def test_step_checks_catch_a_refusal_with_a_free_slot():
    # a rebuild mutated to refuse the last of three or more candidates when
    # it just arrived, even with a slot open to it, changes 805 of the
    # criterion-1-box sweep transcripts; run_grq must raise the refusal
    # check on each of them, plain and under `python -O`, and leave every
    # other run as it was.  Until the mutation first fires, the mutated run
    # is the true one, so it changes a transcript iff it fires.
    code = f"""
        sys.path.insert(0, {str(ROOT / "tests")!r})
        import slotq.schedulers as s
        from slotq.generate import gen_random
        from support import SWEEP_SIZE, _sweep_params
        rebuild, fired = s.grq_rebuild, []

        def refuses_last_arrival(held, arrivals, t, trace):
            slots, deadlines, refused = rebuild(held, arrivals, t, trace)
            if (len(held) + len(arrivals) >= 3
                    and slots[-1] == max(arrivals, default=-1) > max(held, default=-1)):
                fired.append(t)
                return slots[:-1], deadlines[:-1], [*refused, slots[-1]]
            return slots, deadlines, refused

        changed = caught = 0
        for i in range(SWEEP_SIZE):
            trace = gen_random(_sweep_params(i))
            want = s.run_grq(trace).steps
            fired.clear()
            s.grq_rebuild = refuses_last_arrival
            try:
                got = s.run_grq(trace).steps
            except AssertionError as e:
                caught += bool(fired) and "refused with slot" in str(e)
            else:
                if fired or got != want:
                    print("escaped", i)
            s.grq_rebuild = rebuild
            changed += bool(fired)
        print("changed", changed, "caught", caught)
    """
    for out in (run_python(code), run_optimized(code)):
        assert out.splitlines()[1:] == ["changed 805 caught 805"]


@given(traces(max_n=10, max_release=4), st.data())
@settings(max_examples=200, deadline=None)
def test_flipping_one_rebuild_decision_fails_the_step_checks(trace, data):
    # grq's checks hold iff the result is the prefix rule's: move any one
    # candidate of a true rebuild to the other list, and grq must raise
    steps, held = [], ()
    for t in range(1, trace.horizon + 1):
        arrivals = trace.arrival_ranks.get(t, ())
        if held or arrivals:
            steps.append((held, arrivals, t))
        held = grq(held, arrivals, t, trace)[0]
    assume(steps)
    held, arrivals, t = data.draw(st.sampled_from(steps))
    slots, deadlines, refused = grq_rebuild(held, arrivals, t, trace)
    r = data.draw(st.sampled_from(sorted([*held, *arrivals])))
    if r in slots:  # placed: drop it into the refused list
        i = slots.index(r)
        flipped = slots[:i] + slots[i + 1:], deadlines[:i] + deadlines[i + 1:], sorted([*refused, r])
    else:  # refused: place it among the slots, in rank order
        i = bisect_left(slots, r)
        flipped = ((*slots[:i], r, *slots[i:]),
                   [*deadlines[:i], trace.rank_deadline[r], *deadlines[i:]],
                   [x for x in refused if x != r])
    with patch("slotq.schedulers.grq_rebuild", lambda *args: flipped):
        with pytest.raises(AssertionError, match="^rebuild at t="):
            grq(held, arrivals, t, trace)


def test_leftover_check_reads_the_final_state():
    # a policy that sends one packet and records the other as expired but
    # keeps it: the events account for each packet once, the state does not
    trace = validate_trace(2, [P(0, 1, 1, 5), P(1, 1, 1, 3)])

    def expires_but_keeps(state, arrivals, t, trace):
        kept = arrivals[1]
        return (kept,), None, (Rejection(trace.rank_id[kept], EXPIRED),), trace.rank_id[arrivals[0]]

    expires_but_keeps.held = tuple
    with pytest.raises(AssertionError,
                       match="^expires_but_keeps holds packet 1 after the last deadline t=1$"):
        run(expires_but_keeps, trace)
    events = (StepRecord(1, None, (Rejection(1, EXPIRED),), 0),)
    assert check_transcript_invariants(Transcript(trace, events)) == []


def test_leftover_check_names_every_packet_held():
    # a policy that never sends and keeps each arrival in greedy's state
    # shape: the check names the ids left, ascending, and the last step
    trace = validate_trace(5, [P(7, 2, 4, 1), P(3, 1, 2, 9), P(5, 3, 3, 4)])

    def hoards(state, arrivals, t, trace):
        held = sorted([*(state[0] if state else ()), *arrivals])
        return (held, [trace.rank_deadline[r] for r in held]) if held else (), None, (), None

    hoards.held = greedy.held
    with pytest.raises(AssertionError,
                       match="^hoards holds packets 3, 5, 7 after the last deadline t=4$"):
        run(hoards, trace)


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
        weights = [ts.trace.by_id[ts.step(t).transmitted].weight for t in (1, 2, 3)]
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
            # each recorded snapshot is what grq's checked step makes of
            # the carried ranks and the step's arrivals
            held = ()
            for rec in ts.steps:
                held, slots, _, _ = grq(held, trace.arrival_ranks.get(rec.time, ()), rec.time, trace)
                assert slots == rec.slots

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
        heavy, mid, light = (trace.rank_id.index(p.id) for p in trace.packets)
        fake = Transcript(trace, (
            StepRecord(1, (heavy, mid), (), 0),
            # label 2 held weight 4 at t=1 but only 1 now: a decrease
            StepRecord(2, (light,), (), 2),
            StepRecord(3, (mid,), (), 1),
        ))
        errs = check_slot_monotonicity(fake)
        assert len(errs) == 1 and "label 2" in errs[0]

    def test_detects_emptied_label(self):
        trace = validate_trace(2, [P(0, 1, 3, 5), P(1, 1, 3, 4)])
        heavy, mid = (trace.rank_id.index(p.id) for p in trace.packets)
        fake = Transcript(trace, (
            StepRecord(1, (heavy, mid), (), 0),
            StepRecord(2, (), (), None),
            StepRecord(3, (mid,), (), 1),
        ))
        assert any("empty" in e for e in check_slot_monotonicity(fake))

    def test_greedy_transcript_raises(self):
        # greedy records no labeled snapshot (StepRecord.slots is None)
        greedy = run_naive_greedy(validate_trace(2, [P(0, 1, 3, 5), P(1, 1, 3, 4)]))
        with pytest.raises(AssertionError, match="^slot monotonicity needs labeled snapshots$"):
            check_slot_monotonicity(greedy)


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
