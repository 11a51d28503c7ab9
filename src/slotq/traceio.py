"""qtrace v1 text format (README's "Trace format" section shows a file).

One directive per line: `B <size>` once, and `p <id> <release> <deadline>
<weight>` per packet; `#` starts a comment (whole-line or trailing), and
blank lines are ignored.  Weights accept integers, decimals, or num/den and
always become exact rationals (1.5 is exactly 3/2).  Emission
canonicalizes: header line, the B directive, then packets sorted by id,
weights printed as integers or num/den.  Parsing an emitted file yields an
equal trace; a parsed decimal re-emits as its exact fraction, which is the
same value.  A trace that parses emits.
"""

from fractions import Fraction
from pathlib import Path

from .model import Packet, Trace, read_rational, validate_trace

HEADER = "# qtrace v1"


class TraceSyntaxError(ValueError):
    """Malformed qtrace text; `line` is the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_trace(text: str) -> Trace:
    """Parse qtrace text into a validated Trace.

    Syntax problems raise TraceSyntaxError with the line number; semantic
    problems (duplicate ids, deadline before release, ...) are left to
    validate_trace and surface as InvalidTraceError.
    """
    buffer_size: int | None = None
    packets: list[Packet] = []
    weights: dict[str, Fraction] = {}  # one shared Fraction per spelling
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # one split per line; str.split() drops the whitespace strip() would
        fields = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not fields:
            continue
        directive = fields[0]
        if directive == "p":  # packet lines outnumber everything else
            if len(fields) != 5:
                raise TraceSyntaxError(
                    lineno, f"expected 'p <id> <release> <deadline> <weight>', got {raw!r}"
                )
            try:
                pid, release, deadline = int(fields[1]), int(fields[2]), int(fields[3])
            except ValueError:
                raise TraceSyntaxError(lineno, f"non-integer packet field in {raw!r}") from None
            w = fields[4]
            weight = weights.get(w)
            if weight is None:
                # a plain integer, the common case: int() is cheaper than Fraction's parser
                # and gives the same value; both raise ValueError past Python's digit limit
                try:
                    weight = Fraction(int(w)) if w.isascii() and w.isdigit() else read_rational(w)
                except (ValueError, ZeroDivisionError):
                    raise TraceSyntaxError(lineno, f"unparseable weight {w!r}") from None
                weights[w] = weight
            packets.append(Packet(pid, release, deadline, weight))
        elif directive == "B":
            if buffer_size is not None:
                raise TraceSyntaxError(lineno, "duplicate B directive")
            if len(fields) != 2:
                raise TraceSyntaxError(lineno, f"expected 'B <int>', got {raw!r}")
            try:
                buffer_size = int(fields[1])
            except ValueError:
                raise TraceSyntaxError(lineno, f"buffer size {fields[1]!r} is not an integer") from None
        else:
            raise TraceSyntaxError(lineno, f"unknown directive {directive!r}")
    if buffer_size is None:
        raise TraceSyntaxError(0, "missing B directive")
    return validate_trace(buffer_size, packets)


def emit_trace(trace: Trace) -> str:
    lines = [HEADER, f"B {trace.buffer_size}"]
    for p in sorted(trace.packets, key=lambda p: p.id):
        lines.append(f"p {p.id} {p.release} {p.deadline} {p.weight}")
    return "\n".join(lines) + "\n"


def load_trace(path: "str | Path") -> Trace:
    return parse_trace(Path(path).read_text())
