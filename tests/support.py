"""Helpers the test modules share; no test module imports another.  Their
checks raise AssertionError explicitly: pytest rewrites the assert
statements of test modules only, and `python -O` strips the others."""

import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

import slotq
from slotq import schedulers
from slotq.generate import GeneratorParams, SplitMix64
from slotq.model import Packet, Trace, validate_trace

ROOT = Path(__file__).resolve().parents[1]  # the checkout
CODELINES = ROOT / "tools" / "codelines.py"
SRC = str(Path(slotq.__file__).resolve().parents[1])  # the directory slotq loads from


def P(pid, r, d, w):
    return Packet(pid, r, d, Fraction(w))


# equal values spelled differently, and near-equal values next to them
SPELLED = (
    "1/3", "2/6", "333/1000", "1/2", "0.5", "2/4", "1", "3/3", "1.0",
    "5/7", "10/14", "7", "14/2", "0", "0/5", "5/4", "1.25",
)
weights = st.one_of(
    st.sampled_from(SPELLED),
    st.fractions(min_value=0, max_value=16, max_denominator=12).map(str),
)


@st.composite
def traces(draw, max_n=8, max_b=4, max_release=6, max_span=4):
    b = draw(st.integers(1, max_b))
    n = draw(st.integers(0, max_n))
    packets = []
    for i in range(n):
        release = draw(st.integers(1, max_release))
        deadline = release + draw(st.integers(0, max_span))
        weight = draw(st.fractions(
            min_value=0, max_value=16, max_denominator=8))
        packets.append(Packet(i, release, deadline, weight))
    return validate_trace(b, packets)


def weightless_run(trace):
    """A slot queue that sends nothing of weight against a positive optimum."""
    return schedulers.run_grq(Trace(trace.buffer_size,
                                    [replace(p, weight=Fraction(0)) for p in trace.packets]))


def lose_last_refusal(monkeypatch):
    """Patch grq_rebuild to drop its last refusal, leaving that packet
    neither placed nor refused; grq's step checks pass it."""
    real = schedulers.grq_rebuild

    def lossy(*args):
        slots, deadlines, refused = real(*args)
        return slots, deadlines, refused[:-1]

    monkeypatch.setattr(schedulers, "grq_rebuild", lossy)


SWEEP_SIZE = 10_000   # criterion floor; every sweep criterion re-asserts it
SWEEP_SALT = 20_260_815


def _sweep_params(i: int) -> GeneratorParams:
    """Parameter box: n <= 10, B in 1..4, horizon <= 8, integer weights 1..16."""
    rng = SplitMix64(SWEEP_SALT + i)
    n = rng.below(11)
    buffer_size = 1 + rng.below(4)
    horizon = 1 + rng.below(8)
    return GeneratorParams(
        n=n, horizon=horizon, buffer_size=buffer_size,
        seed=rng.next_u64(), max_weight=16,
    )


def checkout_env():
    """The environment with this checkout's src first on PYTHONPATH and no
    PYTHONOPTIMIZE, so a child interpreter runs these sources with only the
    flags its command line gives."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_python(code, *flags):
    """stdout of `code` run by this interpreter with `flags` on this checkout's slotq."""
    code = "import sys\nprint('optimize', sys.flags.optimize)\n" + textwrap.dedent(code)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=checkout_env()
    )
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return proc.stdout


def run_optimized(code):
    """stdout of `code` run by `python -O` on this checkout's slotq."""
    out = run_python(code, "-O")
    if "optimize 1" not in out:
        raise AssertionError(out)
    return out
