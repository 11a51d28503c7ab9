"""slotq: a workbench for deadline packet scheduling in a size-B buffer.

Library layout:

  model       problem instances, transcripts, validity checks
  schedulers  the slot-queue online algorithm and a naive greedy baseline
  oracle      exact offline optima (capacity-bounded and unbounded),
              schedule verification, feasible-schedule enumeration
  charging    S/D/F charge-map construction and the seven-check verifier
  generate    deterministic instance generators (killer family, seeded random)
  traceio     qtrace v1 text format
  search      adversarial search for high offline/online ratios
  experiment  config-driven pipeline with CSV/JSON reports
  cli         the `slotq` command

`import slotq` loads no layer: import each one as a submodule, such as
`slotq.model` or `from slotq import oracle`.
"""

__version__ = "0.1.0"
