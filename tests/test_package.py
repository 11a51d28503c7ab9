"""The package root loads no layer and the CLI the core layers only, each in a fresh interpreter."""

import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import slotq

SRC = str(Path(slotq.__file__).resolve().parents[1])


@pytest.mark.parametrize("statement", [
    "import slotq",
    "from slotq import *",  # the root re-exports no name, so this binds none
    "from slotq import charging, generate, model, oracle, schedulers, traceio",
    "import slotq.cli",  # experiment and search load only in their subcommands
])
def test_import_leaves_experiment_and_search_unloaded(statement):
    code = (f"import sys; sys.path.insert(0, {SRC!r}); {statement}; "
            "print([m for m in ('slotq.experiment', 'slotq.search') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_package_root_loads_no_layer():
    # the root holds its docstring and __version__; every layer is a submodule
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import slotq; "
            "print(slotq.__version__, [m for m in sys.modules if m.startswith('slotq.')])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0.1.0 []\n", "")


@pytest.mark.parametrize("command", ["run", "oracle", "charge"])
def test_trace_commands_leave_experiment_and_search_unloaded(command, tmp_path):
    trace = tmp_path / "killer.qtrace"
    trace.write_text("# qtrace v1\nB 2\np 0 1 1 1\np 1 1 1 1\np 2 1 2 1/2\n")
    code = (f"import sys; sys.path.insert(0, {SRC!r}); from slotq.cli import main; "
            f"code = main([{command!r}, '--trace', {str(trace)!r}]); "
            "print(code, [m for m in ('slotq.experiment', 'slotq.search') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stdout.splitlines()[-1], done.stderr) == (0, "0 []", "")


# a timing, a speed-up factor, a memory size or the interpreter it was measured on
MEASUREMENT = re.compile(r"timeit|best of|CPython 3|\d ?(us|µs|ns|ms|MB)\b|\d(x|×)\b")
LAYOUT = {tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def prose_lines(path):
    """(line number, text) of every comment and docstring line of one file: a
    docstring is a statement made of string literals alone."""
    statement = []
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.string
            elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if statement and all(s.type == tokenize.STRING for s in statement):
                    for s in statement:
                        yield from enumerate(s.string.splitlines(), start=s.start[0])
                statement = []
            elif tok.type not in LAYOUT:
                statement.append(tok)


def test_no_measurement_in_comments_or_docstrings():
    # figures belong in CHANGES.md; the source keeps a mechanism's reason
    found = [f"{path.name}:{n}: {text.strip()}"
             for path in sorted(Path(SRC, "slotq").glob("*.py"))
             for n, text in prose_lines(path) if MEASUREMENT.search(text)]
    assert found == []
