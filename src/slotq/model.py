"""Data model for deadline packet scheduling in a size-limited buffer.

Time is discrete, starting at t = 1, and every step has two stages: packets
whose release time equals t arrive and admission decisions are made, then at
most one packet is transmitted.  A packet earns its weight only if it is sent
at some step within [release, deadline]; afterwards it is worthless.

Weights are exact rationals (fractions.Fraction), and nothing in this
package goes through floating point.  The hot loops compare
Trace.scaled_weight instead: each weight times the common denominator, an
integer that orders and sums exactly as the rational weight does, so no
decision rounds; a Fraction is built only for a value or a message.

Rank order.  The online schedulers process packets in Trace.by_rank order:
weight descending, then deadline ascending, then id ascending.  Ids are
unique, so the order is strict and total, and among equal weights the
tighter deadline goes first, which never hurts placement.

Immutability.  All types here are immutable values and the operations pure
functions, so distinct traces can be processed concurrently.  A `lazy`
attribute is computed from its immutable instance alone, so two threads
racing on a first access compute equal values, and either result serves.
Trace.relaxed differs from its trace only in buffer_size, which no other
lazy attribute reads, so the view may share every index the trace has.

Printability.  Python prints no int of more than
sys.get_int_max_str_digits() digits.  Each weight or sum of weights is s / D
with 0 <= s <= the total scaled weight and D the common denominator, so if D
and that total print, every value does; validate_trace checks those two.
Text becomes a rational through read_rational, which refuses a decimal
exponent past that limit: Fraction would build ten to its power first, at a
cost that grows faster than the exponent, and the limit does not guard it.

Packet and StepRecord, built once per packet and once per step, have their
own __init__ (_slot_setters), since the generated frozen __init__ calls
object.__setattr__ per field.  Both stay dataclasses, so replace, ==, hash,
repr and FrozenInstanceError behave as the generated ones do.
"""

import math
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from operator import attrgetter, le
from typing import Iterable

# Rejection causes recorded in transcripts.
ADMISSION_REFUSED = "admission-refused"  # arrival found no usable slot
PREEMPTED = "preempted"                  # buffered packet squeezed out at a rebuild
EXPIRED = "expired"                      # buffered packet reached its deadline unsent


class lazy:
    """An attribute computed on first access and stored in the instance
    __dict__, where later reads find it (a non-data descriptor).  Thread
    safety: module docstring.  functools.cached_property takes a lock on every
    first access on Python 3.10 and 3.11."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True, slots=True)
class Packet:
    """One unit-size packet: worth `weight` if sent during [release, deadline]."""

    id: int
    release: int
    deadline: int
    weight: Fraction

    def __init__(self, id: int, release: int, deadline: int, weight: Fraction) -> None:
        _set_id(self, id)
        _set_release(self, release)
        _set_deadline(self, deadline)
        # an int weight becomes a Fraction; never a bool: validate_trace reports one
        _set_weight(self, Fraction(weight) if type(weight) is int else weight)


def _slot_setters(cls) -> tuple:
    """The __set__ of each field's slot descriptor, in field order: each
    stores a field without the frozen class's __setattr__."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


_set_id, _set_release, _set_deadline, _set_weight = _slot_setters(Packet)
_id, _deadline, _weight = attrgetter("id"), attrgetter("deadline"), attrgetter("weight")


@dataclass(frozen=True)
class Trace:
    """A complete problem instance: buffer capacity plus every packet that will arrive."""

    buffer_size: int
    packets: tuple[Packet, ...]

    def __post_init__(self):
        object.__setattr__(self, "packets", tuple(self.packets))

    @lazy
    def horizon(self) -> int:
        """Last step worth simulating: the maximum deadline (0 for an empty trace)."""
        return max((p.deadline for p in self.packets), default=0)

    @lazy
    def by_id(self) -> dict[int, Packet]:
        return {p.id: p for p in self.packets}

    @lazy
    def weight_denominator(self) -> int:
        """Least common denominator of all weights (1 for an empty trace)."""
        return math.lcm(*[w.denominator for w in self._weights.values()])

    @lazy
    def scaled_weight(self) -> dict[int, int]:
        """Packet id -> weight * weight_denominator, an exact integer."""
        d = self.weight_denominator
        scaled = {k: w.numerator * (d // w.denominator) for k, w in self._weights.items()}
        return {p.id: scaled[id(p.weight)] for p in self.packets}

    @lazy
    def _weights(self) -> dict[int, Fraction]:
        """id(weight) -> weight, one entry per distinct weight object, so the
        weight indexes read Fraction's Python-level numerator and denominator
        once each.  The packets keep every weight alive, so no id is reused."""
        return {id(w): w for w in map(_weight, self.packets)}

    @lazy
    def relaxed(self) -> "Trace":
        """The same instance with a buffer so large that capacity never binds;
        it starts with every index this trace has (module docstring)."""
        view = Trace(max(self.buffer_size, len(self.packets), 1), self.packets)
        own = view.__dict__
        own.update({k: v for k, v in self.__dict__.items() if k not in own})
        return view

    @lazy
    def by_rank(self) -> tuple[Packet, ...]:
        """The packets in rank order (module docstring), weights compared as
        Trace.scaled_weight integers."""
        w = self.scaled_weight
        # stable sorts from the last key to the first; reverse=True keeps
        # equal weights in their order, and the first two keys are C-level
        order = sorted(self.packets, key=_id)
        order.sort(key=_deadline)
        order.sort(key=lambda p: w[p.id], reverse=True)
        return tuple(order)

    @lazy
    def rank_deadline(self) -> tuple[int, ...]:
        """Deadline of the packet at each rank (indexed like by_rank)."""
        return tuple([p.deadline for p in self.by_rank])

    @lazy
    def rank_release(self) -> tuple[int, ...]:
        """Release step of the packet at each rank (indexed like by_rank)."""
        return tuple([p.release for p in self.by_rank])

    @lazy
    def rank_id(self) -> tuple[int, ...]:
        """Id of the packet at each rank (indexed like by_rank)."""
        return tuple([p.id for p in self.by_rank])

    @lazy
    def rank_weight(self) -> tuple[int, ...]:
        """Trace.scaled_weight of the packet at each rank (indexed like by_rank)."""
        return tuple([self.scaled_weight[i] for i in self.rank_id])

    @lazy
    def arrival_ranks(self) -> dict[int, tuple[int, ...]]:
        """Release step -> ranks of the packets released then, ascending."""
        return _ranks_by_step(self.rank_release)

    @lazy
    def expiring_ranks(self) -> dict[int, tuple[int, ...]]:
        """Deadline step -> ranks of the packets whose deadline it is, ascending."""
        return _ranks_by_step(self.rank_deadline)

    @lazy
    def deadline_greedy(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """oracle.deadline_greedy of this trace, which Trace.relaxed shares, so
        the bounded and the unbounded optimum compute it once between them."""
        from .oracle import deadline_greedy  # oracle imports this module

        return deadline_greedy(self)


def _ranks_by_step(steps: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    """Step -> the ranks r with steps[r] == step, ascending."""
    out: dict[int, list[int]] = {}
    for r, t in enumerate(steps):
        out.setdefault(t, []).append(r)
    return {t: tuple(rs) for t, rs in out.items()}


class InvalidTraceError(ValueError):
    """Raised by validate_trace; carries the full list of violations."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


def validate_trace(buffer_size: int, packets: Iterable[Packet]) -> Trace:
    """Build a Trace, checking every model invariant.

    Collects ALL violations (an id, release, deadline or buffer_size that is
    a bool or not an int, per generate.require_int; a weight that is not a
    Fraction once Packet has converted an int; a duplicate id, deadline
    < release, negative weight, release < 1, buffer_size < 1) before raising
    InvalidTraceError, so callers can report a malformed instance in one pass.
    A sound trace whose values would not print is refused too (module
    docstring, "Printability").
    """
    packets = tuple(packets)
    violations: list[str] = []
    if type(buffer_size) is not int:
        violations.append(f"buffer size must be an integer, got {buffer_size!r}")
    elif buffer_size < 1:
        violations.append(f"buffer size must be >= 1, got {buffer_size}")
    seen: set[int] = set()
    for p in packets:
        if not (type(p.id) is int and type(p.release) is int and type(p.deadline) is int):
            violations.append(f"packet {p.id!r}: id, release and deadline must be integers, "
                              f"got release {p.release!r}, deadline {p.deadline!r}")
            continue
        if type(p.weight) is not Fraction:
            violations.append(f"packet {p.id}: weight {p.weight!r} is not an int or a Fraction")
            continue
        if p.id < 0:
            violations.append(f"packet {p.id}: id must be non-negative")
        if p.id in seen:
            violations.append(f"packet {p.id}: duplicate id")
        seen.add(p.id)
        if p.release < 1:
            violations.append(f"packet {p.id}: release {p.release} < 1")
        if p.deadline < p.release:
            violations.append(
                f"packet {p.id}: deadline {p.deadline} < release {p.release}"
            )
        if p.weight.numerator < 0:  # a Fraction keeps its sign in the numerator
            violations.append(f"packet {p.id}: negative weight {p.weight}")
    if violations:
        raise InvalidTraceError(violations)
    trace = Trace(buffer_size, packets)
    try:
        str(trace.weight_denominator), str(sum(trace.scaled_weight.values()))
    except ValueError as e:
        raise InvalidTraceError([f"weights do not print: {e}"]) from None
    return trace


def read_rational(text: str) -> Fraction:
    """Fraction(text), the one reader of rational text (module docstring,
    "Printability").  Raises ValueError where Fraction does, and for a
    decimal exponent whose magnitude exceeds sys.get_int_max_str_digits()
    while that limit is set."""
    _, e, exponent = text.lower().rpartition("e")
    limit = sys.get_int_max_str_digits()
    if e and limit and abs(int(exponent)) > limit:
        raise ValueError(f"exponent of {text!r} exceeds the limit of {limit}")
    return Fraction(text)


@dataclass(frozen=True, slots=True)
class Rejection:
    packet_id: int
    cause: str  # ADMISSION_REFUSED, PREEMPTED, or EXPIRED


@dataclass(frozen=True, slots=True)
class StepRecord:
    """What one algorithm decided during one time step: rejections and send.

    `slots` is the slot queue's snapshot after the arrival stage: the placed
    ranks, slot i labeled time + i (slotq.schedulers), () on an idle step,
    and None for other schedulers.
    `transmitted` is None on idle steps.  A step's arrivals are the trace's,
    and the buffer's contents follow from the events.
    """

    time: int
    slots: "tuple[int, ...] | None"
    rejections: tuple[Rejection, ...]
    transmitted: "int | None"

    def __init__(
        self,
        time: int,
        slots: "tuple[int, ...] | None",
        rejections: tuple[Rejection, ...],
        transmitted: "int | None",
    ) -> None:
        _set_time(self, time)
        _set_slots(self, slots)
        _set_rejections(self, rejections)
        _set_transmitted(self, transmitted)


_set_time, _set_slots, _set_rejections, _set_transmitted = _slot_setters(StepRecord)


@dataclass(frozen=True)
class Transcript:
    """Full per-step record of one algorithm run over one trace."""

    trace: Trace
    steps: tuple[StepRecord, ...]

    def step(self, t: int) -> StepRecord:
        """The record of step t; t outside 1..horizon raises IndexError."""
        if not 1 <= t <= len(self.steps):
            raise IndexError(f"step {t} is outside the transcript's steps 1..{len(self.steps)}")
        rec = self.steps[t - 1]
        if rec.time != t:
            raise AssertionError(f"step record {t - 1} is for t={rec.time}, not t={t}")
        return rec

    @lazy
    def send_time(self) -> dict[int, int]:
        """Packet id -> the step at which it was transmitted."""
        out: dict[int, int] = {}
        for rec in self.steps:
            if rec.transmitted is not None:
                out[rec.transmitted] = rec.time
        return out

    @lazy
    def rejected_at(self) -> dict[int, tuple[int, str]]:
        """Packet id -> (step, cause) of its recorded rejection."""
        out: dict[int, tuple[int, str]] = {}
        for rec in self.steps:
            for rej in rec.rejections:
                out.setdefault(rej.packet_id, (rec.time, rej.cause))
        return out

    @lazy
    def scaled_sent(self) -> tuple[int, ...]:
        """Trace.scaled_weight of the packet sent at each step, indexed t - 1; 0 when idle."""
        w = self.trace.scaled_weight
        return tuple(
            0 if r.transmitted is None else w[r.transmitted] for r in self.steps
        )

    @lazy
    def total_weight(self) -> Fraction:
        return Fraction(sum(self.scaled_sent), self.trace.weight_denominator)


def check_transcript_invariants(transcript: Transcript) -> list[str]:
    """Structural soundness of a transcript; empty list means sound.

    Every packet of the trace must terminate exactly once, as a transmission
    or a rejection, at a step within its [release, deadline] window; each step
    transmits at most one packet (structural, one field per step) and never a
    packet foreign to the trace.  Only a transcript that fails goes through
    _transcript_violations, which words every violation.
    """
    trace = transcript.trace
    ended: dict[int, int] = {}
    events = 0
    for rec in transcript.steps:
        t = rec.time
        if rec.transmitted is not None:
            ended[rec.transmitted] = t
            events += 1
        for rej in rec.rejections:
            ended[rej.packet_id] = t
            events += 1
    try:
        end = list(map(ended.__getitem__, trace.rank_id))  # in rank order
    except KeyError:  # a packet without a terminal event
        return _transcript_violations(transcript)
    # every packet has an event, and there are as many events as packets
    # and as distinct ids: each packet ends exactly once
    if (
        events == len(ended) == len(end)
        and all(map(le, trace.rank_release, end))
        and all(map(le, end, trace.rank_deadline))
    ):
        return []
    return _transcript_violations(transcript)


def _transcript_violations(transcript: Transcript) -> list[str]:
    """check_transcript_invariants' violations, worded one by one."""
    trace = transcript.trace
    out: list[str] = []
    events: dict[int, list[tuple[str, int]]] = {p.id: [] for p in trace.packets}

    for rec in transcript.steps:
        if rec.transmitted is not None:
            if rec.transmitted not in events:
                out.append(f"step {rec.time}: transmitted unknown packet {rec.transmitted}")
            else:
                events[rec.transmitted].append(("sent", rec.time))
        for rej in rec.rejections:
            if rej.packet_id not in events:
                out.append(f"step {rec.time}: rejected unknown packet {rej.packet_id}")
            else:
                events[rej.packet_id].append(("rejected", rec.time))

    for pid, evs in events.items():
        p = trace.by_id[pid]
        if len(evs) != 1:
            out.append(f"packet {pid}: expected exactly one terminal event, got {evs}")
            continue
        kind, t = evs[0]
        if not p.release <= t <= p.deadline:
            out.append(
                f"packet {pid}: {kind} at {t} outside window [{p.release}, {p.deadline}]"
            )
    return out
