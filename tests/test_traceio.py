import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotq.generate import GeneratorParams, gen_killer, gen_random
from slotq.model import InvalidTraceError, Packet, validate_trace
from slotq.traceio import TraceSyntaxError, emit_trace, load_trace, parse_trace


def reference_parse_trace(text):
    """The earlier parser: strip each line's comment and whitespace, then split."""
    buffer_size = None
    packets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "B":
            if buffer_size is not None:
                raise TraceSyntaxError(lineno, "duplicate B directive")
            if len(fields) != 2:
                raise TraceSyntaxError(lineno, f"expected 'B <int>', got {raw!r}")
            try:
                buffer_size = int(fields[1])
            except ValueError:
                raise TraceSyntaxError(lineno, f"buffer size {fields[1]!r} is not an integer") from None
        elif fields[0] == "p":
            if len(fields) != 5:
                raise TraceSyntaxError(
                    lineno, f"expected 'p <id> <release> <deadline> <weight>', got {raw!r}"
                )
            try:
                pid, release, deadline = map(int, fields[1:4])
            except ValueError:
                raise TraceSyntaxError(lineno, f"non-integer packet field in {raw!r}") from None
            try:
                weight = Fraction(fields[4])
            except (ValueError, ZeroDivisionError):
                raise TraceSyntaxError(lineno, f"unparseable weight {fields[4]!r}") from None
            packets.append(Packet(pid, release, deadline, weight))
        else:
            raise TraceSyntaxError(lineno, f"unknown directive {fields[0]!r}")
    if buffer_size is None:
        raise TraceSyntaxError(0, "missing B directive")
    return validate_trace(buffer_size, packets)


def parsed(parse, text):
    """The trace `parse` returns, or what it raised: type, message and line."""
    try:
        return "returned", parse(text)
    except TraceSyntaxError as e:
        return "raised", "TraceSyntaxError", str(e), e.line
    except InvalidTraceError as e:
        return "raised", "InvalidTraceError", e.violations


# fields good and bad: integers in several spellings, weights that Fraction
# reads and ones it refuses, and words
NUMBERS = ("0", "1", "2", "07", "+3", "-1", "12", "1_0", "\u0663")
WEIGHTS = NUMBERS + ("3/4", "2/6", "1.5", "0.25", "1/0", "w", "7.5.1", "-1/2", "1e2", "\u00b2")
WORDS = ("a", "x1", "p", "B", "q", "#")
SPACE = (" ", "  ", "\t", " \t ", "\u3000")


@st.composite
def trace_lines(draw):
    """One qtrace line: a directive of any arity, a comment, or blank, spaced any way."""
    kind = draw(st.sampled_from(("p",) * 5 + ("B", "other", "comment", "blank")))
    if kind == "blank":
        return draw(st.sampled_from(("",) + SPACE))
    if kind == "comment":
        return draw(st.sampled_from(SPACE + ("",))) + "# " + draw(st.sampled_from(WORDS))
    head = {"p": "p", "B": "B"}.get(kind) or draw(st.sampled_from(("q", "P", "b", "pp", "1")))
    arity = {"p": 4, "B": 1}.get(kind, 2)
    arity = draw(st.sampled_from((arity,) * 5 + (0, arity - 1, arity + 1)))
    fields = [draw(st.sampled_from(NUMBERS * 4 + WORDS[:2])) for _ in range(arity)]
    if kind == "p" and fields:
        fields[-1] = draw(st.sampled_from(WEIGHTS))
    tokens = [head, *fields]
    line = draw(st.sampled_from(("",) + SPACE))
    for i, token in enumerate(tokens):
        line += token + (draw(st.sampled_from(SPACE)) if i < len(tokens) - 1 else "")
    ending = draw(st.sampled_from(("", "", " ", "\t", "#x", " # w=2", "#", "\t#c # d")))
    return line + ending


@st.composite
def trace_texts(draw):
    """A trace whose lines are mostly well-formed packets, with at most a few bad ones."""
    lines = [f"p {i} 1 {1 + i % 3} {1 + i % 4}" for i in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(trace_lines()))
    for _ in range(draw(st.sampled_from((1, 1, 1, 1, 1, 0, 2)))):
        lines.insert(draw(st.integers(0, len(lines))), f"B {draw(st.integers(1, 3))}")
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return newline.join(lines) + draw(st.sampled_from((newline, "")))


@given(trace_texts())
@settings(max_examples=400, deadline=None)
def test_parse_matches_reference(text):
    assert parsed(parse_trace, text) == parsed(reference_parse_trace, text)


class TestParse:
    def test_minimal(self):
        t = parse_trace("B 2\np 0 1 2 1\np 1 1 1 3\n")
        assert t.buffer_size == 2 and len(t.packets) == 2

    def test_weight_forms(self):
        t = parse_trace("B 1\np 0 1 1 7\np 1 1 2 3/4\np 2 1 3 1.5\n")
        assert [p.weight for p in t.packets] == [
            Fraction(7), Fraction(3, 4), Fraction(3, 2)]

    @pytest.mark.parametrize("spelled", ["7", "07", "0", "1.5", "3/4", "+3", "٣", "1_000"])
    def test_weight_spellings_parse_like_fraction(self, spelled):
        weight = parse_trace(f"B 1\np 0 1 1 {spelled}\n").packets[0].weight
        assert type(weight) is Fraction and weight == Fraction(spelled)

    # a weight with more digits than Python converts to an int is unparseable
    # too, and so is one whose exponent passes that limit, whatever its
    # mantissa: it is refused before Fraction builds ten to its power, which
    # takes seconds at 3000000 and would take hours at 1000000000
    @pytest.mark.parametrize("spelled", ["w", "1/0", "²", "٣x", "7.5.1",
                                         pytest.param("1" * 5000, id="5000-digits"),
                                         "0e3000000", "1e3000000", "1E-3_000_000",
                                         "1e1000000000"])
    def test_bad_weights_fail_with_their_spelling(self, spelled):
        start = time.perf_counter()
        with pytest.raises(TraceSyntaxError) as e:
            parse_trace(f"B 1\np 0 1 1 {spelled}\n")
        assert time.perf_counter() - start < 0.5
        assert str(e.value) == f"line 2: unparseable weight {spelled!r}"

    @pytest.mark.parametrize("spelled", ["-3", "-1/2"])
    def test_negative_weights_fail_validation(self, spelled):
        with pytest.raises(InvalidTraceError) as e:
            parse_trace(f"B 1\np 0 1 1 {spelled}\n")
        assert e.value.violations == [f"packet 0: negative weight {Fraction(spelled)}"]

    @pytest.mark.parametrize("spelled", ["1e5000", "1e-100000"])
    def test_weights_that_would_not_print_fail_validation(self, spelled):
        # neither would print, and each exponent passes the digit limit, so it is unparseable
        with pytest.raises(TraceSyntaxError, match="unparseable weight"):
            parse_trace(f"B 1\np 0 1 1 {spelled}\n")

    def test_an_exponent_at_the_digit_limit_is_read(self):
        # ten to the limit is read, and has one digit too many to print
        limit = sys.get_int_max_str_digits()
        assert parse_trace(f"B 1\np 0 1 1 0e{limit}\n").packets[0].weight == 0
        with pytest.raises(InvalidTraceError, match="^weights do not print"):
            parse_trace(f"B 1\np 0 1 1 1e{limit}\n")

    def test_comments_and_blanks(self):
        text = "# qtrace v1\n\n# a comment\nB 1   # trailing\np 0 1 1 2 # w=2\n"
        t = parse_trace(text)
        assert t.buffer_size == 1 and t.packets[0].weight == 2

    def test_empty_instance(self):
        assert parse_trace("B 3\n").packets == ()

    @pytest.mark.parametrize("text,line,needle", [
        ("B 2\nq 0 1 1 1\n", 2, "unknown directive"),
        ("B 2\np 0 1 1\n", 2, "expected"),
        ("B x\n", 1, "not an integer"),
        ("B 2\np a 1 1 1\n", 2, "non-integer"),
        ("B 2\np 0 1 1 1/0\n", 2, "weight"),
        ("B 2\np 0 1 1 w\n", 2, "weight"),
        ("B 2\nB 3\n", 2, "duplicate B"),
        ("B\n", 1, "expected"),
    ])
    def test_syntax_errors_carry_line_numbers(self, text, line, needle):
        with pytest.raises(TraceSyntaxError) as e:
            parse_trace(text)
        assert e.value.line == line
        assert needle in str(e.value)

    def test_missing_buffer_directive(self):
        with pytest.raises(TraceSyntaxError):
            parse_trace("p 0 1 1 1\n")

    def test_semantic_errors_delegated(self):
        with pytest.raises(InvalidTraceError):
            parse_trace("B 1\np 0 1 1 1\np 0 1 1 1\n")
        with pytest.raises(InvalidTraceError):
            parse_trace("B 1\np 0 3 2 1\n")


class TestRoundTrip:
    def test_emit_parse_identity(self):
        for seed in range(25):
            t = gen_random(GeneratorParams(
                n=6, horizon=5, buffer_size=2, seed=seed))
            assert parse_trace(emit_trace(t)) == t

    def test_killer_round_trip(self):
        t = gen_killer(4, Fraction(1, 3))
        assert parse_trace(emit_trace(t)) == t

    def test_fractional_weights_round_trip(self):
        t = validate_trace(2, [
            Packet(0, 1, 2, Fraction(22, 7)), Packet(1, 1, 1, Fraction(0)),
        ])
        again = parse_trace(emit_trace(t))
        assert again == t
        assert "22/7" in emit_trace(t)

    def test_decimal_parses_to_same_value_as_fraction(self):
        assert parse_trace("B 1\np 0 1 1 0.25\n") == parse_trace("B 1\np 0 1 1 1/4\n")

    def test_emitted_bytes_stable(self):
        t = gen_random(GeneratorParams(n=5, horizon=4, buffer_size=2, seed=9))
        assert emit_trace(t) == emit_trace(parse_trace(emit_trace(t)))

    def test_file_round_trip(self, tmp_path):
        t = gen_random(GeneratorParams(n=4, horizon=4, buffer_size=1, seed=3))
        path = tmp_path / "x.qtrace"
        path.write_text(emit_trace(t))
        assert load_trace(path) == t
