import inspect
import math
import sys
from dataclasses import FrozenInstanceError, fields, is_dataclass, make_dataclass, replace
from fractions import Fraction

import pytest

from slotq import schedulers
from slotq.model import (
    ADMISSION_REFUSED,
    EXPIRED,
    PREEMPTED,
    InvalidTraceError,
    Packet,
    Rejection,
    StepRecord,
    Trace,
    Transcript,
    check_transcript_invariants,
    validate_trace,
)
from slotq.traceio import emit_trace


def P(pid, r, d, w):
    return Packet(pid, r, d, Fraction(w))


# weight objects that several packets share
THIRD, FIVE_QUARTERS, ZERO = Fraction(1, 3), Fraction(5, 4), Fraction(0)


class TestPacket:
    def test_weight_coerced_to_fraction(self):
        p = Packet(0, 1, 2, 3)
        assert p.weight == Fraction(3) and isinstance(p.weight, Fraction)
        # only an int is converted; validate_trace reports anything else
        assert [Packet(0, 1, 2, w).weight for w in (True, 0.5, "1/2")] == [True, 0.5, "1/2"]

    def test_exact_decimal_string(self):
        assert Packet(0, 1, 1, Fraction("1.5")).weight == Fraction(3, 2)


# one instance per record type, and the values a replace() swaps in
RECORDS = {
    Packet: ((3, 1, 4, Fraction(5, 2)), dict(deadline=6, weight=Fraction(1, 3))),
    StepRecord: ((2, (0, 1), (Rejection(7, PREEMPTED),), 4), dict(slots=None, transmitted=None)),
    Rejection: ((7, EXPIRED), dict(cause=ADMISSION_REFUSED)),
}


def twin(cls):
    """A plain frozen dataclass with cls's name and fields: the generated behaviour."""
    return make_dataclass(cls.__name__, [(f.name, f.type) for f in fields(cls)], frozen=True)


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
class TestRecordContract:
    """The hand-written constructors behave like the generated ones."""

    def test_signature_is_the_fields(self, cls):
        sig = inspect.signature(cls)
        assert list(sig.parameters) == [f.name for f in fields(cls)]
        assert all(p.default is inspect.Parameter.empty for p in sig.parameters.values())
        assert sig == inspect.signature(twin(cls))

    def test_values_match_a_plain_dataclass(self, cls):
        args, changes = RECORDS[cls]
        plain = twin(cls)
        a, b = cls(*args), cls(*args)
        ta = plain(*args)
        assert is_dataclass(a) and a == b and a is not b and hash(a) == hash(b)
        assert repr(a) == repr(ta) and hash(a) == hash(ta)
        changed = replace(a, **changes)
        assert repr(changed) == repr(replace(ta, **changes))
        assert changed != a and replace(changed, **{k: getattr(a, k) for k in changes}) == a
        assert cls(**{f.name: getattr(a, f.name) for f in fields(cls)}) == a

    def test_fields_are_frozen(self, cls):
        a = cls(*RECORDS[cls][0])
        for f in fields(cls):
            with pytest.raises(FrozenInstanceError):
                setattr(a, f.name, None)
        assert a == cls(*RECORDS[cls][0])


def test_packet_converts_an_int_weight_only():
    assert type(Packet(0, 1, 1, 2).weight) is Fraction
    assert replace(Packet(0, 1, 1, Fraction(1)), weight=4).weight == Fraction(4)
    # a bool is left for validate_trace to report
    p = Packet(0, 1, 1, True)
    assert p.weight is True
    with pytest.raises(InvalidTraceError, match="weight True is not an int or a Fraction"):
        validate_trace(1, [p])


def test_interned_rejections_are_plain_values():
    cached = schedulers._rejection(5, PREEMPTED)
    assert cached is schedulers._rejection(5, PREEMPTED)
    assert cached == Rejection(5, PREEMPTED) and hash(cached) == hash(Rejection(5, PREEMPTED))
    assert type(cached) is Rejection and cached != schedulers._rejection(5, EXPIRED)
    maxsize = schedulers._rejection.cache_parameters()["maxsize"]
    assert maxsize is not None and 0 < maxsize <= 1 << 16


class TestValidateTrace:
    def test_valid(self):
        t = validate_trace(2, [P(0, 1, 2, 1)])
        assert t.horizon == 2
        assert t.by_id[0].deadline == 2

    def test_deadline_before_release(self):
        with pytest.raises(InvalidTraceError) as e:
            validate_trace(1, [P(0, 3, 2, 1)])
        assert any("deadline" in v for v in e.value.violations)

    def test_buffer_too_small(self):
        with pytest.raises(InvalidTraceError) as e:
            validate_trace(0, [])
        assert any("buffer size" in v for v in e.value.violations)

    @pytest.mark.parametrize("buffer_size", [2.5, True])
    def test_buffer_size_must_be_an_int(self, buffer_size):
        # a float B is no slot count, and a bool is an int to Python but
        # no buffer size
        packets = [P(0, 1, 2, 1), P(1, 1, 2, 1), P(2, 1, 3, 1), Packet(3, 1, 0, 1)]
        with pytest.raises(InvalidTraceError) as e:
            validate_trace(buffer_size, packets)
        assert e.value.violations == [
            f"buffer size must be an integer, got {buffer_size!r}",
            "packet 3: deadline 0 < release 1",
        ]

    def test_collects_all_violations(self):
        packets = [P(1, 1, 2, 1), P(1, 0, 1, 1), Packet(2, 1, 2, Fraction(-1))]
        with pytest.raises(InvalidTraceError) as e:
            validate_trace(0, packets)
        v = e.value.violations
        assert len(v) == 4  # B, duplicate id, release < 1, negative weight
        assert any("duplicate" in s for s in v)
        assert any("release" in s for s in v)
        assert any("negative" in s for s in v)

    def test_zero_weight_is_legal(self):
        t = validate_trace(1, [P(0, 1, 1, 0)])
        assert t.packets[0].weight == 0

    def test_negative_id(self):
        with pytest.raises(InvalidTraceError):
            validate_trace(1, [P(-1, 1, 1, 1)])

    def test_times_and_ids_must_be_ints(self):
        # the runners step through integer times; a float deadline made
        # run_grq raise TypeError; a bool id was written as `p True 1 2 1`,
        # which parse_trace refuses, so it did not survive a save and load
        packets = [Packet(0, 1, 2.0, 1), Packet(1, 1.5, 2, 1), Packet(2.0, 1, 2, 1),
                   Packet(3, "1", 2, 1), P(4, 1, 2, 1),
                   Packet(True, 1, 2, 1), Packet(5, True, 2, 1), Packet(6, 1, True, 1)]
        with pytest.raises(InvalidTraceError) as e:
            validate_trace(1, packets)
        assert e.value.violations == [
            "packet 0: id, release and deadline must be integers, got release 1, deadline 2.0",
            "packet 1: id, release and deadline must be integers, got release 1.5, deadline 2",
            "packet 2.0: id, release and deadline must be integers, got release 1, deadline 2",
            "packet 3: id, release and deadline must be integers, got release '1', deadline 2",
            "packet True: id, release and deadline must be integers, got release 1, deadline 2",
            "packet 5: id, release and deadline must be integers, got release True, deadline 2",
            "packet 6: id, release and deadline must be integers, got release 1, deadline True",
        ]

    def test_weights_must_be_ints_or_fractions(self):
        # Packet converts an int alone, so validation names None, text, a bool
        # and a float (0.1 is not exact) instead of the constructor raising
        packets = [Packet(0, 1, 2, None), Packet(1, 1, 2, "x"), Packet(2, 1, 2, 0.1),
                   Packet(3, 1, 2, True), Packet(4, 1, 2, 3), P(5, 1, 2, "1/3")]
        with pytest.raises(InvalidTraceError) as e:
            validate_trace(1, packets)
        assert e.value.violations == [
            "packet 0: weight None is not an int or a Fraction",
            "packet 1: weight 'x' is not an int or a Fraction",
            "packet 2: weight 0.1 is not an int or a Fraction",
            "packet 3: weight True is not an int or a Fraction",
        ]

    @pytest.mark.parametrize("weights", [
        [Fraction(10**5000)],
        [Fraction(1, 10**5000)],
        [Fraction(1, 10**2500 + 1), Fraction(1, 10**2500 + 3)],  # only their sum is too long
        [Fraction(10**4299 - 1)] * 11,  # only their total is
    ], ids=["numerator", "denominator", "common-denominator", "total"])
    def test_every_value_must_print(self, weights):
        # Python prints no int of more than sys.get_int_max_str_digits() digits
        packets = [P(i, 1, 2, w) for i, w in enumerate(weights)]
        with pytest.raises(InvalidTraceError) as e:
            validate_trace(2, packets)
        assert e.value.violations[0].startswith("weights do not print: Exceeds the limit")

    def test_values_at_the_digit_limit_print(self):
        limit = sys.get_int_max_str_digits()
        trace = validate_trace(1, [P(0, 1, 1, Fraction(10**limit - 1, 10**(limit - 1)))])
        assert len(emit_trace(trace)) > 2 * limit


class TestTrace:
    def test_empty_horizon(self):
        assert validate_trace(1, []).horizon == 0

    def test_weight_scaling_is_exact(self):
        t = validate_trace(1, [
            P(0, 1, 1, Fraction(1, 3)), P(1, 1, 1, Fraction(2, 6)),
            P(2, 1, 1, Fraction(333, 1000)), P(3, 1, 1, 2), P(4, 1, 1, 0),
        ])
        assert t.weight_denominator == 3000
        assert t.scaled_weight == {0: 1000, 1: 1000, 2: 999, 3: 6000, 4: 0}
        assert validate_trace(1, []).weight_denominator == 1

    @pytest.mark.parametrize("weights,objects", [
        # equal weights as distinct Fraction objects, mixed denominators
        ([Fraction(1, 3), Fraction(2, 6), Fraction(5, 4), Fraction(0), Fraction(5, 4),
          Fraction(1, 3), Fraction(0)], 7),
        # shared objects, as the parser and gen_random make them, beside an
        # equal weight that is an object of its own (2/6)
        ([THIRD, Fraction(2, 6), FIVE_QUARTERS, ZERO, FIVE_QUARTERS, THIRD, ZERO], 4),
        ([], 0),
    ])
    def test_weight_indexes_match_the_per_packet_definition(self, weights, objects):
        # the indexes work once per distinct weight object; however equal
        # weights are shared, they must equal the definition packet by packet
        t = validate_trace(2, [Packet(i, 1, 2, w) for i, w in enumerate(weights)])
        assert len({id(p.weight) for p in t.packets}) == objects
        d = math.lcm(*(p.weight.denominator for p in t.packets))
        assert t.weight_denominator == d
        assert t.scaled_weight == {p.id: p.weight * d for p in t.packets}
        assert all(type(s) is int for s in t.scaled_weight.values())
        view = t.relaxed
        assert view.weight_denominator is t.weight_denominator
        assert view.scaled_weight is t.scaled_weight

    def test_relaxed_view_computes_the_same_weight_indexes(self):
        # a view taken before the indexes exist computes its own, equal ones
        t = Trace(1, (P(0, 1, 1, Fraction(1, 3)), P(1, 1, 2, Fraction(2, 6)), P(2, 2, 2, 0)))
        view = t.relaxed
        assert (view.weight_denominator, view.scaled_weight) == (3, {0: 1, 1: 1, 2: 0})
        assert (t.weight_denominator, t.scaled_weight) == (3, {0: 1, 1: 1, 2: 0})

    def test_rank_is_weight_desc_deadline_asc_id_asc(self):
        t = validate_trace(1, [
            P(5, 1, 3, 2), P(2, 1, 2, 2), P(1, 1, 3, 2),
            P(0, 1, 9, Fraction(1, 3)), P(3, 2, 2, Fraction(333, 1000)), P(4, 1, 1, 3),
        ])
        assert [p.id for p in t.by_rank] == [4, 2, 1, 5, 0, 3]


def _single_step_transcript(trace, *steps):
    return Transcript(trace, tuple(steps))


class TestTranscriptSteps:
    """t outside 1..horizon raises one IndexError that names t and the range."""

    def _transcript(self):
        # what run_grq records on this trace: 5 sent at t=1, 3 at t=2
        trace = validate_trace(2, [P(0, 1, 1, 5), P(1, 2, 2, 3)])
        return Transcript(trace, (
            StepRecord(1, None, (), 0),
            StepRecord(2, None, (), 1),
        ))

    def test_in_range(self):
        ts = self._transcript()
        assert [ts.step(t).transmitted for t in (1, 2)] == [0, 1]

    @pytest.mark.parametrize("t", [0, 3, -1])
    def test_step_outside_horizon(self, t):
        with pytest.raises(IndexError, match=rf"^step {t} is outside the transcript's steps 1\.\.2$"):
            self._transcript().step(t)


class TestTranscriptInvariants:
    def _trace(self):
        return validate_trace(1, [P(0, 1, 2, 4)])

    def test_sent_packet_ok(self):
        t = self._trace()
        ts = _single_step_transcript(
            t,
            StepRecord(1, None, (), 0),
            StepRecord(2, None, (), None),
        )
        assert check_transcript_invariants(ts) == []
        assert ts.send_time == {0: 1}
        assert ts.scaled_sent == (4, 0)
        assert ts.total_weight == 4

    def test_missing_terminal_event(self):
        t = self._trace()
        ts = _single_step_transcript(
            t,
            StepRecord(1, None, (), None),
            StepRecord(2, None, (), None),
        )
        assert any("exactly one terminal" in v for v in check_transcript_invariants(ts))

    def test_event_outside_window(self):
        # horizon-3 trace so a step-3 send of packet 0 (deadline 2) is representable
        t3 = validate_trace(1, [P(0, 1, 2, 4), P(1, 3, 3, 1)])
        ts = Transcript(t3, (
            StepRecord(1, None, (), None),
            StepRecord(2, None, (), None),
            StepRecord(3, None, (Rejection(1, EXPIRED),), 0),
        ))
        assert any("outside window" in v for v in check_transcript_invariants(ts))

    def test_double_event(self):
        t = self._trace()
        ts = _single_step_transcript(
            t,
            StepRecord(1, None, (), 0),
            StepRecord(2, None, (Rejection(0, ADMISSION_REFUSED),), None),
        )
        assert any("exactly one terminal" in v for v in check_transcript_invariants(ts))

    def test_unknown_packet(self):
        t = self._trace()
        ts = _single_step_transcript(
            t,
            StepRecord(1, None, (), 7),
            StepRecord(2, None, (), 0),
        )
        assert any("unknown packet 7" in v for v in check_transcript_invariants(ts))

    def test_rejection_lookup_keeps_first(self):
        t = self._trace()
        ts = _single_step_transcript(
            t,
            StepRecord(1, None, (Rejection(0, ADMISSION_REFUSED),), None),
            StepRecord(2, None, (), None),
        )
        assert ts.rejected_at[0] == (1, ADMISSION_REFUSED)
        assert check_transcript_invariants(ts) == []
