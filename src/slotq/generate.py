"""Deterministic instance generators.

Reproducibility contract: identical parameters + seed produce the identical
trace, byte-for-byte after emission, on any implementation of this tool.
That rules out a host language's default PRNG, so draws come from splitmix64
(the reference constants below) and each generated quantity consumes a fixed,
documented number of draws.

Block lanes.  SplitMix64 computes its outputs in blocks of _BLOCK, and each
draw takes the next buffered one, so the stream is the one-at-a-time stream,
output for output.  A block's states seed + k*gamma sit in 128-bit lanes of
one int, each lane holding a value below 2**64.  A lane has room for such a
value times a 64-bit constant, so each shift, xor, multiply and mask of the
finalizer is one int operation for the whole block; masking with _LANES
keeps the low 64 bits of every lane.  The lanes leave the int as
little-endian bytes, unpacked as little-endian words, so the outputs do not
depend on the host's byte order.
"""

import struct
from dataclasses import dataclass
from fractions import Fraction

from .model import Packet, Trace, read_rational, validate_trace

_MASK64 = (1 << 64) - 1
_DRAW_RANGE = 1 << 64  # the values one draw reaches
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# SplitMix64's outputs per block.  A block is computed whole, so a stream
# that stops short of its end wastes the rest: short streams want small
# blocks and long ones large blocks.
_BLOCK = 32
_ONES = sum(1 << 128 * k for k in range(_BLOCK))  # 1 in each lane
_LANES = _MASK64 * _ONES  # the low 64 bits of each lane
_STEPS = sum(((k + 1) * _GAMMA & _MASK64) << 128 * k for k in range(_BLOCK))
_BLOCK_BYTES = 16 * _BLOCK
_unpack_lanes = struct.Struct("<" + "Q8x" * _BLOCK).unpack  # each lane's low 64 bits


class ParameterError(ValueError):
    """A generator or search parameter out of its documented range."""


def require_int(name: str, value, least: "int | None" = None) -> int:
    """The integer rule: an int (never a bool, which Python counts as one) >= least."""
    if type(value) is not int:
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value}")
    return value


def require_rational(name: str, value) -> "int | Fraction":
    """The rational rule: an int or a Fraction, never a bool or a float (not exact)."""
    if type(value) not in (int, Fraction):
        raise ParameterError(f"{name} must be an integer or a Fraction, got {value!r}")
    return value


def parse_rational(name: str, value) -> "int | Fraction":
    """An exact rational from an int, a Fraction or text such as "1/10" or "0.5"
    (model.read_rational); other text (a zero denominator too, or a value too
    long for Python to print) and other values are a ParameterError."""
    if type(value) is not str:
        return require_rational(name, value)
    try:
        rational = read_rational(value)
        str(rational)  # raises ValueError past sys.get_int_max_str_digits() digits
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"invalid Fraction value: {value!r}") from None
    return rational


class SplitMix64:
    """splitmix64 stream: state advances by the golden-gamma constant, output
    is the standard two-round xor-multiply finalizer, computed in blocks
    (module docstring).  Draws below n use plain modulo — bias is irrelevant
    here, identical streams are the point.  Every draw, below(n) for any n,
    consumes exactly one 64-bit output, so below(n) reaches all of 0..n-1
    only for n <= 2**64.  below raises AssertionError for n < 1.

    `state` is the state of the last output computed, which ends the
    buffered block: up to _BLOCK - 1 outputs past the last one drawn.
    Before the first draw no block is computed, and it is the seed's.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64
        self._outputs = iter(())

    def next_u64(self) -> int:
        return self.below(1 << 64)  # every output is below 2**64: the modulo keeps it

    def below(self, n: int) -> int:
        if n < 1:
            raise AssertionError(f"below() needs n >= 1, got {n}")
        for z in self._outputs:  # the next buffered output, if one is left
            return z % n
        self._compute_block()
        return next(self._outputs) % n

    def _compute_block(self) -> None:
        """Buffer the _BLOCK outputs that follow `state` and advance it past them."""
        z = (self.state * _ONES + _STEPS) & _LANES  # lane k: state + (k + 1) * gamma
        self.state = (self.state + _BLOCK * _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) & _LANES) * _MIX1 & _LANES
        z = ((z ^ (z >> 27)) & _LANES) * _MIX2 & _LANES
        # the last shift moves the next lane's low bits into each lane's
        # high half, which the unpacking skips
        self._outputs = iter(_unpack_lanes((z ^ (z >> 31)).to_bytes(_BLOCK_BYTES, "little")))


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs for gen_random; also reused as the search space description.

    Weights are uniform integers in 1..max_weight (never zero).  Deadline
    span is uniform in 0..min(max_span, horizon - release) so deadlines stay
    within the horizon.  `burst` is the probability (an exact rational in
    [0, 1]) that a packet reuses the previous packet's release step, which
    clumps arrivals the way overload instances need.

    Integer fields follow require_int and `burst` require_rational; a bad
    type or range is a ParameterError.  Each release, span, weight and burst
    test is one SplitMix64 draw of one 64-bit output; so that every value in
    its range can be drawn, `horizon`, `max_weight` and the denominator of
    `burst` are at most 2**64.
    """

    n: int
    horizon: int
    buffer_size: int
    seed: int
    max_weight: int = 16
    max_span: "int | None" = None
    burst: Fraction = Fraction(0)

    def __post_init__(self):
        for name, least in (("n", 0), ("horizon", 1), ("buffer_size", 1), ("seed", None),
                            ("max_weight", 1)):
            require_int(name, getattr(self, name), least)
        if self.max_span is not None:
            require_int("max_span", self.max_span, 0)
        if not 0 <= require_rational("burst", self.burst) <= 1:
            raise ParameterError(f"burst must be in [0, 1], got {self.burst}")
        for name, bound in (("horizon", self.horizon), ("max_weight", self.max_weight),
                            ("burst denominator", self.burst.denominator)):
            if bound > _DRAW_RANGE:
                raise ParameterError(f"{name} must be at most 2**64, got {bound.bit_length()} bits")


def gen_random(params: GeneratorParams) -> Trace:
    """Pseudo-random trace, a pure function of params (seed included).

    Per packet, in order: one draw for the burst test (only when burst > 0),
    one for the release (skipped when the burst test hits), one for the
    deadline span, one for the weight.
    """
    draw = SplitMix64(params.seed).below
    horizon, max_weight = params.horizon, params.max_weight
    span = horizon if params.max_span is None else params.max_span
    burst_num, burst_den = params.burst.numerator, params.burst.denominator
    weights: dict[int, Fraction] = {}  # one Fraction per distinct weight
    packets: list[Packet] = []
    release = 1
    for i in range(params.n):
        # a burst hit keeps the previous packet's release
        if not (burst_num and draw(burst_den) < burst_num and i > 0):
            release = 1 + draw(horizon)
        cap = horizon - release
        if span < cap:
            cap = span
        deadline = release + draw(cap + 1)
        w = 1 + draw(max_weight)
        weight = weights.get(w)
        if weight is None:
            weight = weights[w] = Fraction(w)
        packets.append(Packet(i, release, deadline, weight))
    return validate_trace(params.buffer_size, packets)


def gen_killer(buffer_size: int, eps: Fraction) -> Trace:
    """The burst instance that sinks naive greedy.

    B packets (release 1, deadline 1, weight 1) arrive together with B-1
    packets (release 1, deadline B, weight 1-eps).  Keep-the-heaviest fills
    the buffer with the weight-1 packets, sends one, and lets the other B-1
    expire: total 1.  The optimum, and the slot queue, send one weight-1
    packet and then all B-1 others: total 1 + (B-1)(1-eps), so greedy's
    ratio grows linearly in B as eps shrinks.  `buffer_size` (>= 2) follows
    require_int and `eps` require_rational; either raises ParameterError.
    """
    require_int("buffer_size", buffer_size, 2)
    if not 0 < require_rational("eps", eps) < 1:
        raise ParameterError(f"eps must be in (0, 1), got {eps}")
    packets = [
        Packet(i, 1, 1, Fraction(1)) for i in range(buffer_size)
    ] + [
        Packet(buffer_size + j, 1, buffer_size, 1 - eps)
        for j in range(buffer_size - 1)
    ]
    return validate_trace(buffer_size, packets)
