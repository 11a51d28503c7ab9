from dataclasses import replace
from fractions import Fraction

import pytest

from slotq import schedulers
from slotq.charging import value_ratio
from slotq.cli import main
from slotq.generate import GeneratorParams, gen_killer, gen_random
from slotq.model import Trace
from slotq.oracle import optimal_bounded
from slotq.schedulers import run_grq
from slotq.search import adversarial_search
from slotq.traceio import emit_trace


def competitive_ratio(trace):
    """The score adversarial_search gives a candidate."""
    return value_ratio(optimal_bounded(trace).value, run_grq(trace).total_weight)


class TestCompetitiveRatio:
    def test_killer_grq_is_optimal(self):
        assert competitive_ratio(gen_killer(3, Fraction(1, 4))) == 1

    def test_empty_trace(self):
        t = gen_random(GeneratorParams(n=0, horizon=3, buffer_size=1, seed=0))
        assert competitive_ratio(t) == 1

    def test_known_gap(self):
        # B=1: a light tight packet hides a heavy one behind it is impossible
        # for this policy, but simultaneous equal-deadline arrivals do cost.
        from slotq.model import Packet, validate_trace
        t = validate_trace(1, [
            Packet(0, 1, 1, 2), Packet(1, 1, 1, 1),
        ])
        # Online sends 2 and the 1 is refused; offline can do no better.
        assert competitive_ratio(t) == 1

    def test_ratio_at_least_one_on_random(self):
        for seed in range(40):
            t = gen_random(GeneratorParams(
                n=6, horizon=5, buffer_size=2, seed=seed))
            assert competitive_ratio(t) >= 1


class TestAdversarialSearch:
    PARAMS = GeneratorParams(n=6, horizon=5, buffer_size=2, seed=77)

    def test_deterministic(self):
        a = adversarial_search(self.PARAMS, iterations=40)
        b = adversarial_search(self.PARAMS, iterations=40)
        assert a.ratio == b.ratio
        assert emit_trace(a.trace) == emit_trace(b.trace)

    def test_bound_never_breached(self):
        res = adversarial_search(self.PARAMS, iterations=150)
        assert 1 <= res.ratio <= 2
        assert res.iterations == 150

    def test_result_trace_reproduces_ratio(self):
        res = adversarial_search(self.PARAMS, iterations=60)
        assert competitive_ratio(res.trace) == res.ratio

    def test_zero_iterations(self):
        res = adversarial_search(self.PARAMS, iterations=0)
        assert res.iterations == 0 and res.trace is None

    def test_search_improves_or_matches_single_draw(self):
        single = competitive_ratio(gen_random(self.PARAMS))
        res = adversarial_search(self.PARAMS, iterations=120)
        assert res.ratio >= min(single, 1)

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            adversarial_search(self.PARAMS, iterations=-1)

    def test_zero_online_value_is_a_fault(self, monkeypatch):
        # a slot queue that sends nothing of weight against a positive optimum
        def weightless_run(trace):
            return run_grq(Trace(trace.buffer_size,
                                 [replace(p, weight=Fraction(0)) for p in trace.packets]))

        monkeypatch.setattr("slotq.search.run_grq", weightless_run)
        with pytest.raises(AssertionError, match=r"^online value 0 against optimum \d"):
            adversarial_search(self.PARAMS, iterations=1)

    def test_unchecked_slot_queue_run_is_a_fault(self, monkeypatch, capsys):
        # a rebuild that drops its last refusal passes grq's step checks; only
        # the transcript check sees the lost packet, so no candidate is scored
        # before that check has passed
        real = schedulers.grq_rebuild

        def lossy(*args):
            slots, deadlines, refused = real(*args)
            return slots, deadlines, refused[:-1]

        monkeypatch.setattr(schedulers, "grq_rebuild", lossy)
        params = GeneratorParams(n=8, horizon=8, buffer_size=3, seed=7)
        lost = r"packet \d+: expected exactly one terminal event, got \[\]"
        with pytest.raises(AssertionError, match=rf"^slot queue on candidate \d+: {lost}"):
            adversarial_search(params, 300)
        argv = ["search", "--n", "8", "--horizon", "8", "--b", "3", "--seed", "7", "--iters", "300"]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith(
            "internal error: AssertionError: slot queue on candidate ")
