"""Adversarial search for high offline-vs-online ratios.

Seeded random restarts mixed with small mutations of the best instance found
so far (nudge one packet's weight, deadline, or release).  The score of a
candidate is bounded-optimum value over slot-queue value, computed exactly
by charging.value_ratio, and only for a slot-queue run that passed
check_transcript_invariants and check_slot_monotonicity: a run that fails
them is a fault in slotq, raised as AssertionError, not a score.
The search never clips or hides a score: if an instance ever scored above 2
it would be returned as found — that would be a counterexample to the
competitiveness bound, which is precisely what the search exists to hunt for.
"""

from dataclasses import dataclass, replace
from fractions import Fraction

from .charging import value_ratio
from .generate import GeneratorParams, SplitMix64, gen_random, require_int
from .model import Trace, check_transcript_invariants, validate_trace
from .oracle import optimal_bounded
from .schedulers import check_slot_monotonicity, run_grq

RESTART_EVERY = 4


@dataclass(frozen=True)
class SearchResult:
    trace: "Trace | None"
    ratio: Fraction
    iterations: int


def _mutate(trace: Trace, rng: SplitMix64, params: GeneratorParams) -> Trace:
    """One small random edit; always returns a valid trace."""
    packets = list(trace.packets)
    if not packets:
        return trace
    i = rng.below(len(packets))
    p = packets[i]
    op = rng.below(3)
    if op == 0:
        p = replace(p, weight=Fraction(1 + rng.below(params.max_weight)))
    elif op == 1:
        span = params.horizon - p.release
        p = replace(p, deadline=p.release + rng.below(span + 1))
    else:
        release = 1 + rng.below(params.horizon)
        deadline = release + rng.below(params.horizon - release + 1)
        p = replace(p, release=release, deadline=deadline)
    packets[i] = p
    return validate_trace(trace.buffer_size, packets)


def adversarial_search(params: GeneratorParams, iterations: int) -> SearchResult:
    """Hunt for the worst ratio reachable within the parameter box.

    Every RESTART_EVERY-th candidate is a fresh random trace; the others
    mutate the best instance so far.  Deterministic for fixed inputs.
    Raises AssertionError when a candidate's slot-queue run fails its
    checks (module docstring).
    """
    require_int("iterations", iterations, 0)
    rng = SplitMix64(params.seed)
    best_trace: Trace | None = None
    best_ratio = Fraction(1)
    for it in range(iterations):
        if best_trace is None or it % RESTART_EVERY == 0:
            candidate = gen_random(replace(params, seed=rng.next_u64()))
        else:
            candidate = _mutate(best_trace, rng, params)
        grq = run_grq(candidate)
        violations = check_transcript_invariants(grq) + check_slot_monotonicity(grq)
        if violations:
            raise AssertionError(f"slot queue on candidate {it}: {'; '.join(violations)}")
        ratio = value_ratio(optimal_bounded(candidate).value, grq.total_weight)
        if best_trace is None or ratio > best_ratio:
            best_trace, best_ratio = candidate, ratio
    return SearchResult(best_trace, best_ratio, iterations)
