"""slotq: a workbench for deadline packet scheduling in a size-B buffer.

Library layout:

  model       problem instances, slot buffers, transcripts, validity checks
  schedulers  the slot-queue online algorithm and a naive greedy baseline
  oracle      exact offline optima (capacity-bounded and unbounded),
              schedule verification, feasible-schedule enumeration
  charging    S/D/F charge-map construction and the seven-check verifier
  generate    deterministic instance generators (killer family, seeded random)
  traceio     qtrace v1 text format
  search      adversarial search for high offline/online ratios
  experiment  config-driven pipeline with CSV/JSON reports
  cli         the `slotq` command

`import slotq` loads the core only; search, experiment and cli are submodules.
"""

from .charging import (
    Charge,
    ChargeConstructionError,
    ChargeMap,
    ChargeReport,
    assign_f_charges,
    build_charge_map,
    classify_charges,
    verify_charge_map,
)
from .generate import GeneratorParams, ParameterError, SplitMix64, gen_killer, gen_random
from .model import (
    ADMISSION_REFUSED,
    EXPIRED,
    PREEMPTED,
    InvalidTraceError,
    Packet,
    Rejection,
    SlotBuffer,
    StepRecord,
    Trace,
    Transcript,
    check_buffer_invariants,
    check_transcript_invariants,
    validate_trace,
)
from .oracle import (
    OfflineSchedule,
    enumerate_feasible,
    optimal_bounded,
    optimal_unbounded,
    relax_capacity,
    verify_schedule,
)
from .schedulers import (
    check_slot_monotonicity,
    grq_rebuild,
    grq_transmit,
    run_grq,
    run_naive_greedy,
)
from .traceio import TraceSyntaxError, emit_trace, load_trace, parse_trace, save_trace

__version__ = "0.1.0"

__all__ = [
    "ADMISSION_REFUSED",
    "EXPIRED",
    "PREEMPTED",
    "Charge",
    "ChargeConstructionError",
    "ChargeMap",
    "ChargeReport",
    "GeneratorParams",
    "InvalidTraceError",
    "OfflineSchedule",
    "Packet",
    "ParameterError",
    "Rejection",
    "SlotBuffer",
    "SplitMix64",
    "StepRecord",
    "Trace",
    "TraceSyntaxError",
    "Transcript",
    "assign_f_charges",
    "build_charge_map",
    "check_buffer_invariants",
    "check_slot_monotonicity",
    "check_transcript_invariants",
    "classify_charges",
    "emit_trace",
    "enumerate_feasible",
    "gen_killer",
    "gen_random",
    "grq_rebuild",
    "grq_transmit",
    "load_trace",
    "optimal_bounded",
    "optimal_unbounded",
    "parse_trace",
    "relax_capacity",
    "run_grq",
    "run_naive_greedy",
    "save_trace",
    "validate_trace",
    "verify_charge_map",
    "verify_schedule",
]
