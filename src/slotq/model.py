"""Data model for deadline packet scheduling in a size-limited buffer.

Time is discrete, starting at t = 1, and every step has two stages: packets
whose release time equals t arrive and admission decisions are made, then at
most one packet is transmitted.  A packet earns its weight only if it is sent
at some step within [release, deadline]; afterwards it is worthless.

Weights are exact rationals (fractions.Fraction).  The verifiers need exact
weight comparisons, so nothing in this package goes through floating point.
Trace.weight_denominator and Trace.scaled_weight, the integer view of the
weights that the hot loops compare, work once per distinct weight object
(Trace._weights), not once per packet.

The slot-queue scheduler names buffer positions after absolute time steps: a
buffer of size B at time t exposes the labels t..t+B-1 and transmits from the
slot labeled t.  Its filled slots always form a prefix of those labels, so a
snapshot is the tuple of the placed packets' ranks (positions in
Trace.by_rank), slot i labeled t + i, and the window size is
Trace.buffer_size.  Transcript is the full per-step record an algorithm run
leaves behind.

All types here are immutable values; the operations are pure functions, so
distinct traces can be processed concurrently without coordination.

Packet and StepRecord, built once per packet and once per step, are slotted
frozen dataclasses with their own __init__, which stores each field through
its slot descriptor's __set__ (_slot_setters).  The generated __init__ of a
frozen dataclass calls object.__setattr__ once per field, and Packet's int
conversion needed a __post_init__ on top.  With CPython 3.11.7 (timeit,
best of 7) a Packet costs 0.42 us against the generated 0.74 us, and a
StepRecord 0.40 us against 0.67 us.  Both stay dataclasses: their
signature is their fields, and dataclasses.replace, ==, hash, repr and
FrozenInstanceError behave as the generated ones do.  Rejection keeps the
generated __init__; the schedulers intern rejections instead.  Trace and
Transcript, built a few times per trace, and oracle.OfflineSchedule keep
theirs too.
"""

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from operator import attrgetter, le
from typing import Iterable

# Rejection causes recorded in transcripts.
ADMISSION_REFUSED = "admission-refused"  # arrival found no usable slot
PREEMPTED = "preempted"                  # buffered packet squeezed out at a rebuild
EXPIRED = "expired"                      # buffered packet reached its deadline unsent


class lazy:
    """An attribute computed on first access and then stored on the instance.

    functools.cached_property does the same, but on Python 3.10 and 3.11
    it takes an RLock on every first access, about 0.4 µs more per
    attribute, and a trace and its transcripts fill about twenty of them.
    The value goes straight into the instance __dict__, which a frozen
    dataclass allows; since this is a non-data descriptor, later reads
    find it there and never call __get__ again.  Two threads racing on a
    first access may both compute it, as on Python 3.12.  Every value is
    computed from the immutable instance alone, so either result serves.
    """

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
    """The __set__ of each field's slot descriptor, in field order.

    Calling one stores a field without the frozen class's __setattr__,
    which is how the record types' own __init__ fill a new instance.
    """
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
        """Packet id -> weight * weight_denominator, an exact integer.

        Scaled weights order and sum exactly like the rational weights, so hot
        loops can compare ints instead of Fractions without rounding anything.
        """
        d = self.weight_denominator
        scaled = {k: w.numerator * (d // w.denominator) for k, w in self._weights.items()}
        return {p.id: scaled[id(p.weight)] for p in self.packets}

    @lazy
    def _weights(self) -> dict[int, Fraction]:
        """id(weight) -> weight, one entry per distinct weight object.

        Fraction's numerator and denominator are Python-level properties,
        so the weight indexes read them once per entry; the parser and
        gen_random give equal weights one shared Fraction, so a 400-packet
        bulk-stream trace has at most 16 entries.  The packets keep every
        weight alive, so no id is reused while the trace lives.
        """
        return {id(w): w for w in map(_weight, self.packets)}

    @lazy
    def relaxed(self) -> "Trace":
        """The same instance with a buffer so large that capacity never binds.

        Dropping the capacity constraint is the same problem as B = packet
        count, so oracle.optimal_bounded on this view is the unbounded
        optimum.  No other lazy attribute depends on buffer_size, so the view
        starts with every index this trace has already computed; only the
        fields, which the view's own __init__ set, are not copied.
        """
        view = Trace(max(self.buffer_size, len(self.packets), 1), self.packets)
        own = view.__dict__
        own.update({k: v for k, v in self.__dict__.items() if k not in own})
        return view

    @lazy
    def by_rank(self) -> tuple[Packet, ...]:
        """The packets in the processing order of the online schedulers.

        The order is weight descending, then deadline ascending, then id
        ascending: a strict total order (ids are unique) that favors tight
        deadlines among equal weights, which never hurts placement.  Weights
        are compared as Trace.scaled_weight integers.
        """
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
        """The greedy set of the deadline matroid, with EDF's schedule of it.

        Returns (kept, steps).  The greedy takes the packets in rank order,
        up to the first of weight 0, and keeps each iff EDF still meets every
        window [release, deadline] with it added; `kept` lists the ranks it
        keeps, ascending, and steps[i] is EDF's send step of kept[i].  It
        does not depend on buffer_size, so the oracle reads it for the
        bounded and the unbounded optimum (Trace.relaxed shares it once
        computed).
        """
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
    A sound trace whose values would not print is refused too.
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
    # Python prints no int of more than sys.get_int_max_str_digits() digits; each
    # weight or sum of weights is s / D with 0 <= s <= the total scaled weight and
    # D the common denominator, so if D and the total print, every value does
    try:
        str(trace.weight_denominator), str(sum(trace.scaled_weight.values()))
    except ValueError as e:
        raise InvalidTraceError([f"weights do not print: {e}"]) from None
    return trace


@dataclass(frozen=True, slots=True)
class Rejection:
    packet_id: int
    cause: str  # ADMISSION_REFUSED, PREEMPTED, or EXPIRED


@dataclass(frozen=True, slots=True)
class StepRecord:
    """What one algorithm did during one time step.

    `slots` is the post-arrival-stage buffer for schedulers that keep a
    labeled one, None otherwise: its packets' positions in Trace.by_rank,
    the one in slot i labeled time + i; an idle step's is ().
    `transmitted` is None on idle steps.  The record holds the step's
    decisions only, its rejections and send; its arrivals are the trace's,
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
    packet foreign to the trace.

    One pass over the steps collects the terminal events into one
    id -> step dict.  Builtins then decide the rest in rank order against
    Trace.rank_release and rank_deadline.  Only a transcript that fails goes
    through _transcript_violations, which words every violation.  (Builtin
    passes over the steps were tried and lost: one attribute read per step
    costs as much as this loop's whole step.)
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
