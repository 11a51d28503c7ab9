"""Record the reference output digests of the default seed into reference.json.

    python3 slotbench/record_reference.py

Run from the root of a source checkout.  Every trace of each recorded
workload's default-seed pool goes through its pipeline once; the run refuses
to record a workload on which any trace fails.  sparse-horizon has no
reference while optimal_bounded raises on its traces.
"""

import json
import sys

import run

RECORDED = ("acceptance-box", "bulk-stream")


def main() -> int:
    run.import_program()
    from pipeline import PIPELINES, Run, combine, digest
    from workloads import WORKLOADS

    reference = {"seed": run.DEFAULT_SEED}
    for name in RECORDED:
        workload = WORKLOADS[name]
        texts = run.setup(workload, run.DEFAULT_SEED, None)
        digests = []
        for i, text in enumerate(texts):
            result = Run()
            PIPELINES[workload.pipeline](result, text)
            if result.failed:
                sys.exit(f"{name} trace {i} failed: {result.errors or result.violations}")
            digests.append(digest(result))
        reference[name] = {"digest": combine(digests), "traces": digests}
        print(f"{name}: digest {reference[name]['digest']} over {len(digests)} traces")
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
