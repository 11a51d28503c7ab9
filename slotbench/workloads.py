"""Benchmark workloads: seeded trace pools and the pipeline each one runs.

A workload's pool is a pure function of its fields and the seed.  Traces are
drawn with slotq's own generator and handed to the program as qtrace text.
"""

from dataclasses import dataclass
from fractions import Fraction

from slotq.generate import GeneratorParams, SplitMix64


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pipeline: str          # key of pipeline.PIPELINES
    pool: int              # distinct traces per pass
    warmup: int            # traces run before timing, part of set-up
    # acceptance box: n in 0..n_max, B in 1..b_max, horizon in 1..horizon_max
    n_max: int = 0
    b_max: int = 0
    horizon_max: int = 0
    # fixed-shape traces: buffer sizes cycle over `buffers`
    n: int = 0
    horizon: int = 0
    buffers: tuple[int, ...] = ()
    max_span: "int | None" = None
    burst: Fraction = Fraction(0)
    max_weight: int = 16

    def params(self, seed: int) -> list[GeneratorParams]:
        """Generator parameters of the pool, in pool order."""
        rng = SplitMix64(seed ^ (sum(map(ord, self.name)) << 32))
        out = []
        for i in range(self.pool):
            if self.n_max:
                # stratified over the box, so every seed draws the same mix of shapes
                cells = (self.n_max + 1) * self.b_max * self.horizon_max
                g = i % cells
                n = g % (self.n_max + 1)
                buffer_size = 1 + (g // (self.n_max + 1)) % self.b_max
                horizon = 1 + g // ((self.n_max + 1) * self.b_max)
            else:
                n, horizon = self.n, self.horizon
                buffer_size = self.buffers[i % len(self.buffers)]
            out.append(GeneratorParams(
                n=n, horizon=horizon, buffer_size=buffer_size, seed=rng.next_u64(),
                max_weight=self.max_weight, max_span=self.max_span, burst=self.burst,
            ))
        return out

    def order(self, seed: int) -> list[int]:
        """Seeded shuffle of the pool indices: the order traces are run in."""
        rng = SplitMix64(seed + 0x5EED)
        idx = list(range(self.pool))
        for i in range(len(idx) - 1, 0, -1):
            j = rng.below(i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        return idx


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="acceptance-box",
            why="criterion-1 box (n<=10, B 1..4, horizon<=8, weights 1..16) through the full "
                "certification pipeline; the traffic of the acceptance suite and `slotq experiment`",
            pipeline="certify",
            pool=11 * 4 * 8,   # one trace per cell of the box
            warmup=32,
            n_max=10, b_max=4, horizon_max=8,
        ),
        Workload(
            name="bulk-stream",
            why="large overloaded bursty traces (5 packets/step, B 128 and 192) through both "
                "schedulers and their checks, as `slotq run`; the schedulers' per-step work dominates",
            pipeline="stream",
            pool=32,
            warmup=2,
            n=400, horizon=80, buffers=(128, 192), burst=Fraction(1, 2),
        ),
        Workload(
            name="sparse-horizon",
            why="48 packets over 20,000 steps with windows up to 5,000 through the certification "
                "pipeline; per-step work dominates, and optimal_bounded recurses once per step",
            pipeline="certify",
            pool=20,
            warmup=1,
            n=48, horizon=20_000, buffers=(8,), max_span=5_000,
        ),
    )
}
