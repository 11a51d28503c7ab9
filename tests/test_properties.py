"""Property-based checks over randomized instances.

Each property restates a contract the rest of the suite pins with examples:
structural soundness of transcripts, oracle ordering and exactness bounds,
charge-map verification, and format round-trips.  The last group feeds each
entry point JSON-like values and asserts a result or a typed error, and the
CLI an exit code that is not 3.
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from slotq.charging import build_charge_map, check_charges, verify_charge_map
from slotq.cli import main
from slotq.experiment import ConfigError, run_experiment
from slotq.generate import GeneratorParams, ParameterError, gen_killer, gen_random
from slotq.model import (
    EXPIRED,
    InvalidTraceError,
    Packet,
    check_transcript_invariants,
    validate_trace,
)
from slotq.oracle import (
    enumerate_feasible,
    optimal_bounded,
    verify_schedule,
)
from slotq.schedulers import check_slot_monotonicity, run_grq, run_naive_greedy
from slotq.traceio import TraceSyntaxError, emit_trace, parse_trace
from support import traces


@given(traces())
@settings(max_examples=150, deadline=None)
def test_grq_transcript_is_sound(trace):
    transcript = run_grq(trace)
    assert check_transcript_invariants(transcript) == []
    assert check_slot_monotonicity(transcript) == []


@given(traces())
@settings(max_examples=150, deadline=None)
def test_grq_never_expires_a_buffered_packet(trace):
    transcript = run_grq(trace)
    for rec in transcript.steps:
        assert all(r.cause != EXPIRED for r in rec.rejections)


@given(traces())
@settings(max_examples=150, deadline=None)
def test_greedy_transcript_is_sound(trace):
    assert check_transcript_invariants(run_naive_greedy(trace)) == []


@given(traces())
@settings(max_examples=100, deadline=None)
def test_oracle_dominates_both_online_algorithms(trace):
    opt = optimal_bounded(trace).value
    assert opt >= run_grq(trace).total_weight
    assert opt >= run_naive_greedy(trace).total_weight


@given(st.integers(0, 25), st.integers(1, 12), st.integers(0, 2**64 - 1))
@settings(max_examples=300, deadline=None)
def test_slot_queue_is_optimal_at_buffer_one(n, horizon, seed):
    # at B=1 nothing is carried past a step, so the optimum too sends at
    # most one packet of each step's arrivals, and the queue sends the heaviest
    trace = gen_random(GeneratorParams(
        n=n, horizon=horizon, buffer_size=1, seed=seed, burst=Fraction(1, 2)))
    assert run_grq(trace).total_weight == optimal_bounded(trace).value


@given(traces())
@settings(max_examples=100, deadline=None)
def test_unbounded_dominates_bounded(trace):
    assert optimal_bounded(trace).value <= optimal_bounded(trace.relaxed).value


@given(traces())
@settings(max_examples=75, deadline=None)
def test_big_buffer_closes_the_gap(trace):
    # a buffer as large as the packet count never binds
    big = validate_trace(max(len(trace.packets), 1), trace.packets)
    assert optimal_bounded(big).value == optimal_bounded(trace.relaxed).value


@given(traces())
@settings(max_examples=75, deadline=None)
def test_optimum_monotone_in_buffer_size(trace):
    bigger = validate_trace(trace.buffer_size + 1, trace.packets)
    assert optimal_bounded(trace).value <= optimal_bounded(bigger).value


@given(traces())
@settings(max_examples=100, deadline=None)
def test_oracle_outputs_verify_clean(trace):
    assert verify_schedule(trace, optimal_bounded(trace)) == []
    assert verify_schedule(trace.relaxed, optimal_bounded(trace.relaxed)) == []


@given(traces())
@settings(max_examples=100, deadline=None)
def test_charging_certifies_two_competitiveness(trace):
    grq = run_grq(trace)
    adv = optimal_bounded(trace)
    report = verify_charge_map(build_charge_map(grq, adv), grq, adv)
    assert report.passed, report.failures()
    assert adv.value <= 2 * grq.total_weight


@given(traces(max_n=5, max_release=4, max_span=3))
@settings(max_examples=40, deadline=None)
def test_charging_holds_against_arbitrary_feasible_adversaries(trace):
    grq = run_grq(trace)
    for adv in enumerate_feasible(trace, limit=60):
        report = verify_charge_map(build_charge_map(grq, adv), grq, adv)
        assert report.passed, (adv.assignment, report.failures())


@given(traces())
@settings(max_examples=150, deadline=None)
def test_qtrace_round_trip(trace):
    assert parse_trace(emit_trace(trace)) == trace


@given(traces(max_n=5, max_release=4, max_span=3))
@settings(max_examples=40, deadline=None)
def test_enumerated_schedules_are_feasible_and_distinct(trace):
    schedules = enumerate_feasible(trace, limit=80)
    seen = set()
    for s in schedules:
        assert verify_schedule(trace, s) == []
        key = tuple(sorted(s.assignment.items()))
        assert key not in seen
        seen.add(key)


@given(traces())
@settings(max_examples=50, deadline=None)
def test_all_zero_weights_flow_through(trace):
    # Degenerate all-zero instances must flow through the whole pipeline.
    zeroed = validate_trace(
        trace.buffer_size,
        [Packet(p.id, p.release, p.deadline, Fraction(0)) for p in trace.packets],
    )
    assert run_grq(zeroed).total_weight == 0
    assert optimal_bounded(zeroed).value == 0


# --- any input: a result or a typed error ----------------------------------

# JSON-like values plus Fractions; ints stay small, so no accepted value
# makes a trace walk a long horizon
json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 50), st.floats(),
    st.sampled_from(["3", "1/10", "0.5", "1/0", "x", ""]), st.text(max_size=3),
    st.fractions(-2, 50, max_denominator=8),
)


# True about one time in eight; shrinks to False
_rarely = st.sampled_from((False,) * 7 + (True,))


def _maybe(draw, valid):
    """A draw from `valid`, or rarely a JSON-like value."""
    return draw(json_values) if draw(_rarely) else draw(valid)


@st.composite
def generator_calls(draw):
    if draw(st.booleans()):
        return gen_killer, {"buffer_size": _maybe(draw, st.integers(2, 6)),
                            "eps": _maybe(draw, st.fractions(0, 1, max_denominator=10))}
    fields = {"n": _maybe(draw, st.integers(0, 12)), "horizon": _maybe(draw, st.integers(1, 50)),
              "buffer_size": _maybe(draw, st.integers(1, 6)),
              "seed": _maybe(draw, st.integers(-2**64, 2**64))}
    for key, valid in (("max_weight", st.integers(1, 16)),
                       ("max_span", st.none() | st.integers(0, 50)),
                       ("burst", st.fractions(0, 1, max_denominator=10))):
        if draw(st.booleans()):
            fields[key] = _maybe(draw, valid)
    return GeneratorParams, fields


@given(generator_calls())
@example((gen_killer, {"buffer_size": 2.5, "eps": Fraction(1, 2)}))
@settings(max_examples=100, deadline=None)
def test_generators_give_a_parameter_error_or_a_runnable_trace(call):
    make, fields = call
    try:
        made = make(**fields)
    except ParameterError:
        return
    trace = gen_random(made) if make is GeneratorParams else made
    grq = run_grq(trace)
    assert check_transcript_invariants(grq) == [] == check_slot_monotonicity(grq)
    assert check_transcript_invariants(run_naive_greedy(trace)) == []


@st.composite
def packet_lists(draw):
    """A buffer size and the (id, release, deadline, weight) of each packet."""
    packets = []
    for i in range(draw(st.integers(0, 6))):
        release = draw(st.integers(1, 12))
        packets.append((_maybe(draw, st.just(i)), _maybe(draw, st.just(release)),
                        _maybe(draw, st.integers(release, release + 6)),
                        _maybe(draw, st.fractions(0, 16, max_denominator=8))))
    return _maybe(draw, st.integers(1, 4)), packets


@given(packet_lists())
@example((1, [(True, 1, 2, 1)]))
@example((1, [(0, 1, 2, None)]))
@example((1, [(0, 1, 2, "x")]))
@example((1, [(0, 1, 2, 0.1)]))
@example((1, [(0, 1, 2, True)]))
@settings(max_examples=100, deadline=None)
def test_validation_gives_an_invalid_trace_error_or_a_certifiable_trace(args):
    buffer_size, fields = args
    try:
        trace = validate_trace(buffer_size, [Packet(*f) for f in fields])
    except InvalidTraceError:
        return
    # accepted: every weight was exact, an int or a Fraction (not a bool or a float)
    assert all(type(f[3]) in (int, Fraction) for f in fields), fields
    # emission writes packets in id order, so compare them by id
    reloaded = parse_trace(emit_trace(trace))
    assert (reloaded.buffer_size, reloaded.by_id) == (trace.buffer_size, trace.by_id)
    grq = run_grq(trace)
    assert check_transcript_invariants(grq) == [] == check_slot_monotonicity(grq)
    assert check_transcript_invariants(run_naive_greedy(trace)) == []
    adv = optimal_bounded(trace)
    assert adv.value <= optimal_bounded(trace.relaxed).value
    assert check_charges(grq, adv)[1] == []


def _declared(key, value) -> bool:
    """Whether a source field has the type the README declares for it."""
    if key in ("burst", "eps"):
        return type(value) in (int, Fraction, str)
    return type(value) is int or (key == "max_span" and value is None)


@st.composite
def configs(draw):
    sources = []
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            source = {"kind": "killer", "buffer_size": draw(st.integers(2, 5)),
                      "eps": draw(st.sampled_from(["1/10", "0.25", Fraction(1, 3)]))}
        else:
            source = {"kind": "random", "count": draw(st.integers(0, 2)),
                      "seed": draw(st.integers(-2, 2)), "n": draw(st.integers(0, 8)),
                      "horizon": draw(st.integers(1, 50)), "buffer_size": draw(st.integers(1, 4))}
            for key, valid in (("max_weight", st.integers(1, 16)),
                               ("max_span", st.none() | st.integers(0, 6)),
                               ("burst", st.sampled_from(["1/2", "0.25", 1, Fraction(1, 3)]))):
                if draw(st.booleans()):
                    source[key] = draw(valid)
        edit = draw(st.sampled_from(["keep", "keep", "replace", "drop", "add"]))
        if edit == "replace":
            source[draw(st.sampled_from(sorted(source)))] = draw(json_values)
        elif edit == "drop":
            del source[draw(st.sampled_from(sorted(source)))]
        elif edit == "add":
            source[draw(st.sampled_from(["max_wieght", "count", "eps"]))] = draw(json_values)
        sources.append(source)
    config = {"traces": sources}
    if draw(_rarely):
        config[draw(st.sampled_from(["verify", "algorithms", "oracles"]))] = draw(json_values)
    return config


@given(configs())
@example({"traces": [{"kind": "random", "n": 2.5, "horizon": 3, "buffer_size": 2}]})
@settings(max_examples=75, deadline=None)
def test_experiment_gives_a_config_error_or_a_full_report(config):
    try:
        report = run_experiment(config)
    except ConfigError:
        return
    # accepted: no key beyond the declared ones and no value converted on
    # the way, so each source gave exactly `count` traces of its own fields
    assert list(config) == ["traces"]
    for source in config["traces"]:
        assert all(_declared(k, v) for k, v in source.items() if k != "kind"), source
    assert len(report.rows) == sum(s.get("count", 1) for s in config["traces"])
    assert report.passed


@st.composite
def qtrace_texts(draw):
    lines = []
    heads = [_maybe(draw, st.just("p")) for _ in range(draw(st.integers(0, 6)))]
    for head in ["B", *heads]:
        width = 1 if head == "B" else 4
        if draw(_rarely):
            width = draw(st.integers(0, 5))
        tokens = [str(draw(st.integers(0, 12))) for _ in range(width)]
        if tokens and draw(_rarely):
            tokens[draw(st.integers(0, width - 1))] = str(draw(json_values))
        lines.append(" ".join([str(head), *tokens]))
    return "\n".join(lines)


# Python prints no int of more than sys.get_int_max_str_digits() (4,300)
# digits: a weight spelled with more, a weight whose exponent passes that
# limit, and two weights that print alone while their sum does not
UNPRINTABLE = ("B 1\np 0 1 2 " + "1" * 5000,
               "B 1\np 0 1 2 1e5000",
               f"B 2\np 0 1 2 1/{10**2500 + 1}\np 1 1 2 1/{10**2500 + 3}")


@given(qtrace_texts())
@example(UNPRINTABLE[0])
@example(UNPRINTABLE[1])
@example(UNPRINTABLE[2])
@settings(max_examples=150, deadline=None)
def test_parse_gives_a_syntax_error_an_invalid_trace_or_a_trace(text):
    try:
        trace = parse_trace(text)
    except (TraceSyntaxError, InvalidTraceError):
        return
    reloaded = parse_trace(emit_trace(trace))
    assert (reloaded.buffer_size, reloaded.by_id) == (trace.buffer_size, trace.by_id)


@given(qtrace_texts())
@example(UNPRINTABLE[0])
@example(UNPRINTABLE[1])
@example(UNPRINTABLE[2])
@settings(max_examples=100, deadline=None)
def test_cli_exits_0_1_or_2_on_any_trace_text(text):
    # exit 3 means a fault in slotq, never a finding about the input
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "t.qtrace")
        path.write_text(text)
        for argv in (["run"], ["oracle"], ["charge", "--enumerate", "3"]):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([argv[0], "--trace", str(path), *argv[1:]])
            assert code in (0, 1, 2), (argv, err.getvalue()[:200])
