from fractions import Fraction

import pytest

from slotq.charging import (
    D_CHARGE,
    S_CHARGE,
    Charge,
    ChargeConstructionError,
    ChargeMap,
    assign_f_charges,
    build_charge_map,
    classify_charges,
    verify_charge_map,
)
from slotq.generate import GeneratorParams, gen_killer, gen_random
from slotq.model import Packet, StepRecord, Transcript, validate_trace
from slotq.oracle import OfflineSchedule, enumerate_feasible, optimal_bounded
from slotq.schedulers import run_grq
from slotq.traceio import parse_trace
from test_schedulers import run_optimized


def P(pid, r, d, w):
    return Packet(pid, r, d, Fraction(w))


def check_passed(report, number):
    return report.checks[number - 1].passed


class TestClassify:
    def test_self_charge(self):
        t = validate_trace(1, [P(0, 1, 2, 5)])
        grq = run_grq(t)  # sends packet 0 at step 1
        adv = OfflineSchedule.of(t, {0: 2})
        (c,) = classify_charges(grq, adv)
        assert (c.kind, c.target, c.source_time) == ("S", 1, 2)

    def test_downward_charge(self):
        t = validate_trace(2, [P(0, 1, 1, 5), P(1, 1, 1, 4)])
        grq = run_grq(t)  # sends the 5 at step 1
        adv = OfflineSchedule.of(t, {1: 1})
        (c,) = classify_charges(grq, adv)
        assert (c.kind, c.target) == ("D", 1)

    def test_equal_weights_classify_downward(self):
        t = validate_trace(1, [P(0, 1, 1, 3), P(1, 1, 1, 3)])
        grq = run_grq(t)  # sends packet 0 (tie-break by id)
        adv = OfflineSchedule.of(t, {1: 1})
        (c,) = classify_charges(grq, adv)
        assert c.kind == "D"

    def test_forward_charge_against_idle(self):
        t = validate_trace(1, [P(1, 1, 1, 1), P(2, 1, 2, 1)])
        grq = run_grq(t)  # sends 1@1, rejects 2 at t0=1, idles at 2
        adv = OfflineSchedule.of(t, {2: 2})
        (c,) = classify_charges(grq, adv)
        assert (c.kind, c.rejection_time, c.target) == ("F", 1, None)

    def test_grq_sending_later_still_downward(self):
        # adversary rushes a packet GRQ is still holding; front-is-heaviest
        # forces the same-step GRQ send to dominate it
        t = validate_trace(2, [P(0, 1, 3, 5), P(1, 1, 2, 4)])
        grq = run_grq(t)
        assert grq.send_time == {0: 1, 1: 2}
        adv = OfflineSchedule.of(t, {1: 1, 0: 2})
        kinds = {c.source_id: c.kind for c in classify_charges(grq, adv)}
        assert kinds == {1: "D", 0: "S"}

    def test_infeasible_adversary_asserted(self):
        t = validate_trace(1, [P(0, 1, 1, 1), P(1, 1, 2, 1)])
        grq = run_grq(t)
        with pytest.raises(AssertionError):
            classify_charges(grq, OfflineSchedule.of(t, {0: 1, 1: 2}))

    def test_infeasible_adversary_rejected_under_optimize_flag(self):
        # `python -O` strips assert statements; the feasibility check must still fire
        out = run_optimized("""
            from slotq.charging import build_charge_map
            from slotq.model import Packet, validate_trace
            from slotq.oracle import OfflineSchedule
            from slotq.schedulers import run_grq
            t = validate_trace(1, [Packet(0, 1, 1, 1), Packet(1, 1, 2, 1)])
            try:
                cmap = build_charge_map(run_grq(t), OfflineSchedule({0: 1, 1: 1}, 2))
                print("accepted", len(cmap.charges))
            except AssertionError as e:
                print("raised", e)
        """)
        assert "raised adversary schedule infeasible" in out
        assert "step 1: 2 packets assigned to one step" in out

    def test_missing_rejection_is_a_construction_error(self):
        # doctored transcript: GRQ "forgot" to reject the packet it never sent
        t = validate_trace(1, [P(0, 1, 2, 1)])
        fake = Transcript(t, (
            StepRecord(1, None, (), None),
            StepRecord(2, None, (), None),
        ))
        adv = OfflineSchedule.of(t, {0: 2})
        with pytest.raises(ChargeConstructionError):
            classify_charges(fake, adv)


class TestAssignment:
    def test_b1_forward_charge_lands_on_rejection_step(self):
        t = validate_trace(1, [P(1, 1, 1, 1), P(2, 1, 2, 1)])
        grq = run_grq(t)
        cmap = build_charge_map(grq, OfflineSchedule.of(t, {2: 2}))
        (c,) = cmap.charges
        assert (c.kind, c.target, c.rejection_time) == ("F", 1, 1)
        report = verify_charge_map(cmap, grq, OfflineSchedule.of(t, {2: 2}))
        assert report.passed

    def test_no_forward_charges_only_fixed(self):
        t = gen_killer(3, Fraction(1, 4))
        grq = run_grq(t)
        opt = optimal_bounded(t)
        cmap = build_charge_map(grq, opt)
        assert all(c.kind in ("S", "D") for c in cmap.charges)
        assert verify_charge_map(cmap, grq, opt).passed

    def test_two_forward_charges_spill_past_full_step(self):
        # one D-charge already sits on the rejection step; the first F joins
        # it (two charges), the second F must take the next transmitting step
        t = validate_trace(3, [
            P(0, 1, 1, 10), P(1, 1, 9, 9), P(2, 1, 9, 9),
            P(3, 1, 9, 8), P(4, 1, 9, 7),
        ])
        grq = run_grq(t)
        assert grq.send_time == {0: 1, 1: 2, 2: 3}
        assert grq.rejected_at == {3: (1, "admission-refused"),
                                   4: (1, "admission-refused")}
        adv = OfflineSchedule.of(t, {0: 1, 3: 4, 4: 5})
        cmap = build_charge_map(grq, adv)
        by_id = {c.source_id: c for c in cmap.charges}
        assert by_id[0].kind == "D" and by_id[0].target == 1
        assert by_id[3].kind == "F" and by_id[3].target == 1
        assert by_id[4].kind == "F" and by_id[4].target == 2
        report = verify_charge_map(cmap, grq, adv)
        assert report.passed, report.failures()

    def test_fixed_charges_block_slots_before_their_own_time(self):
        # An S-charge whose adversary time (6) lies far beyond the F group
        # being processed (t0=1) still occupies its target before placement
        # starts; otherwise both F-charges would pile onto step 1 and the
        # late S-charge would make three.
        t = validate_trace(3, [
            P(0, 1, 9, 10), P(1, 1, 9, 9), P(2, 1, 9, 8),
            P(3, 1, 9, 7), P(4, 1, 9, 6),
        ])
        grq = run_grq(t)
        assert grq.send_time == {0: 1, 1: 2, 2: 3}
        adv = OfflineSchedule.of(t, {3: 4, 4: 5, 0: 6})
        cmap = build_charge_map(grq, adv)
        by_id = {c.source_id: c for c in cmap.charges}
        assert by_id[0].kind == "S" and by_id[0].target == 1
        assert by_id[3].kind == "F" and by_id[3].target == 1
        assert by_id[4].kind == "F" and by_id[4].target == 2
        report = verify_charge_map(cmap, grq, adv)
        assert report.passed, report.failures()

    def test_unplaceable_forward_charge_raises(self):
        t = validate_trace(1, [P(1, 1, 1, 1), P(2, 1, 2, 1)])
        grq = run_grq(t)
        # forge a classification whose window [3, 3] holds no GRQ send
        fake = (Charge("F", 4, 2, None, rejection_time=3),)
        with pytest.raises(ChargeConstructionError):
            assign_f_charges(grq, fake)


class TestVerifierChecks:
    def _setup(self):
        t = validate_trace(1, [P(1, 1, 1, 1), P(2, 1, 2, 1)])
        grq = run_grq(t)
        adv = OfflineSchedule.of(t, {2: 2})
        return t, grq, adv, build_charge_map(grq, adv)

    def test_all_pass_on_reference_instance(self):
        _, grq, adv, cmap = self._setup()
        report = verify_charge_map(cmap, grq, adv)
        assert report.passed
        assert report.adversary_value == 1 and report.grq_value == 1
        assert [c.number for c in report.checks] == [1, 2, 3, 4, 5, 6, 7]

    def test_third_charge_on_target_fails_capacity(self):
        _, grq, adv, cmap = self._setup()
        extra = (
            Charge("D", 2, 2, target=1),
            Charge("D", 2, 2, target=1),
        )
        bad = ChargeMap(cmap.charges + extra)
        report = verify_charge_map(bad, grq, adv)
        assert not check_passed(report, 2)

    def test_missing_charge_fails_coverage(self):
        _, grq, adv, _ = self._setup()
        report = verify_charge_map(ChargeMap(()), grq, adv)
        assert not check_passed(report, 1)

    def test_duplicate_source_fails_coverage(self):
        _, grq, adv, cmap = self._setup()
        bad = ChargeMap(cmap.charges + cmap.charges)
        assert not check_passed(verify_charge_map(bad, grq, adv), 1)

    def test_foreign_source_fails_coverage(self):
        _, grq, adv, cmap = self._setup()
        bad = ChargeMap(cmap.charges + (Charge("D", 1, 1, target=1),))
        assert not check_passed(verify_charge_map(bad, grq, adv), 1)

    def test_charge_on_idle_step_fails_domination(self):
        _, grq, adv, cmap = self._setup()
        (c,) = cmap.charges
        bad = ChargeMap((c._replace(target=2),))  # GRQ idles at step 2
        report = verify_charge_map(bad, grq, adv)
        assert not check_passed(report, 3)

    def test_window_arithmetic_fails_on_shifted_rejection(self):
        _, grq, adv, cmap = self._setup()
        (c,) = cmap.charges
        bad = ChargeMap((c._replace(rejection_time=2),))
        report = verify_charge_map(bad, grq, adv)
        assert not check_passed(report, 4)  # t0 + B = 3 > source time 2
        assert not check_passed(report, 5)  # no rejection recorded at t0=2

    def test_forged_rejection_time_fails_evidence(self):
        t = validate_trace(2, [
            P(0, 1, 1, 10), P(1, 1, 6, 9), P(2, 1, 6, 8),
        ])
        grq = run_grq(t)
        assert grq.rejected_at[2][0] == 1
        adv = OfflineSchedule.of(t, {1: 1, 2: 5})
        cmap = build_charge_map(grq, adv)
        f = next(c for c in cmap.charges if c.kind == "F")
        others = tuple(c for c in cmap.charges if c.kind != "F")
        # t0=2 keeps the window arithmetic valid (2 + B = 4 <= 5, and GRQ
        # transmits at step 2) but lies about where the rejection happened
        bad = ChargeMap(others + (f._replace(rejection_time=2, target=2),))
        report = verify_charge_map(bad, grq, adv)
        assert check_passed(report, 4)
        assert not check_passed(report, 5)

    def test_bad_target_reported_not_crash(self):
        _, grq, adv, cmap = self._setup()
        (c,) = cmap.charges
        for target in (0, -3, 99, None):
            bad = ChargeMap((c._replace(target=target),))
            report = verify_charge_map(bad, grq, adv)
            assert not report.passed

    def test_unknown_kind_fails_domination(self):
        # the kind is checked by the verifier, not when a charge is made
        _, grq, adv, cmap = self._setup()
        (c,) = cmap.charges
        report = verify_charge_map(ChargeMap((Charge("X", *c[1:]),)), grq, adv)
        assert [n for n in range(1, 8) if not check_passed(report, n)] == [3]
        assert report.checks[2].violations == ("charge from packet 2: unknown kind 'X'",)

    def test_unknown_source_reported_not_crash(self):
        _, grq, adv, cmap = self._setup()
        bad = ChargeMap(cmap.charges + (Charge("D", 2, 99, target=2),))
        report = verify_charge_map(bad, grq, adv)
        assert report.checks[2].violations == (
            "D-charge from packet 99: no such packet in the trace",)
        assert not check_passed(report, 1)

    def test_zero_weight_send_at_idle_step_is_vacuous(self):
        t = validate_trace(1, [P(0, 1, 2, 0), P(1, 1, 1, 5)])
        grq = run_grq(t)
        assert grq.send_time == {1: 1}  # the zero-weight packet is rejected
        adv = OfflineSchedule.of(t, {0: 2})  # adversary sends it where GRQ idles
        cmap = build_charge_map(grq, adv)
        kinds = {c.source_id: (c.kind, c.target) for c in cmap.charges}
        assert kinds[0] == ("D", 2)  # idle target, weight 0 vs 0
        report = verify_charge_map(cmap, grq, adv)
        assert report.passed, report.failures()


class TestEndToEnd:
    def test_killer_charging_passes(self):
        for b, eps in ((2, Fraction(1, 2)), (3, Fraction(1, 4)), (6, Fraction(1, 10))):
            t = gen_killer(b, eps)
            grq = run_grq(t)
            opt = optimal_bounded(t)
            report = verify_charge_map(build_charge_map(grq, opt), grq, opt)
            assert report.passed, (b, report.failures())

    def test_bound_two_is_tight(self):
        # At B=2 the slot queue sends the w at t=1 and refuses the w-1 that
        # only t=1 could send; the optimum sends both, so the ratio is
        # (2w-1)/w, which tends to 2.  Four copies with w=16 lie in
        # criterion 8's box (n=8, horizon 8, B=2, weights <= 16) and reach
        # 31/16, above the 59/33 its search reports.  S- and D-charges
        # alone certify each instance.
        for w, copies in ((16, 4), (1000, 1)):
            trace = parse_trace("B 2\n" + "".join(
                f"p {2 * k} {t} {t + 1} {w}\np {2 * k + 1} {t} {t} {w - 1}\n"
                for k, t in enumerate(range(1, 2 * copies, 2))))
            grq, opt = run_grq(trace), optimal_bounded(trace)
            assert (grq.total_weight, opt.value) == (w * copies, (2 * w - 1) * copies)
            cmap = build_charge_map(grq, opt)
            report = verify_charge_map(cmap, grq, opt)
            assert report.passed and len(report.checks) == 7, report.failures()
            assert {c.kind for c in cmap.charges} == {S_CHARGE, D_CHARGE}
            if w == 16:
                assert (len(trace.packets), trace.horizon) == (8, 8)
                assert opt.value / grq.total_weight == Fraction(31, 16) > Fraction(59, 33)

    def test_random_traces_against_optimal_adversary(self):
        for seed in range(150):
            trace = gen_random(GeneratorParams(
                n=2 + seed % 7, horizon=4 + seed % 4,
                buffer_size=1 + seed % 4, seed=9000 + seed))
            grq = run_grq(trace)
            opt = optimal_bounded(trace)
            report = verify_charge_map(build_charge_map(grq, opt), grq, opt)
            assert report.passed, (seed, report.failures())

    def test_random_traces_against_every_feasible_adversary(self):
        for seed in range(25):
            trace = gen_random(GeneratorParams(
                n=1 + seed % 4, horizon=4, buffer_size=1 + seed % 3,
                seed=11000 + seed))
            grq = run_grq(trace)
            for adv in enumerate_feasible(trace, 200):
                report = verify_charge_map(build_charge_map(grq, adv), grq, adv)
                assert report.passed, (seed, adv.assignment, report.failures())

    def test_charge_weights_partition_adversary_value(self):
        for seed in range(40):
            trace = gen_random(GeneratorParams(
                n=6, horizon=6, buffer_size=2, seed=13000 + seed))
            grq = run_grq(trace)
            opt = optimal_bounded(trace)
            cmap = build_charge_map(grq, opt)
            total = sum(
                (trace.by_id[c.source_id].weight for c in cmap.charges),
                Fraction(0),
            )
            assert total == opt.value

    def test_per_target_load_at_most_double(self):
        for seed in range(40):
            trace = gen_random(GeneratorParams(
                n=7, horizon=5, buffer_size=3, seed=15000 + seed))
            grq = run_grq(trace)
            opt = optimal_bounded(trace)
            cmap = build_charge_map(grq, opt)
            load: dict[int, Fraction] = {}
            for c in cmap.charges:
                load[c.target] = load.get(c.target, 0) + trace.by_id[c.source_id].weight
            for target, total in load.items():
                pid = grq.step(target).transmitted
                assert total <= 2 * (0 if pid is None else trace.by_id[pid].weight)
