import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import slotq
from slotq import schedulers
from slotq.charging import ChargeConstructionError
from slotq.cli import main
from slotq.generate import gen_killer, gen_random, GeneratorParams
from slotq.traceio import emit_trace, parse_trace


@pytest.fixture
def killer_trace(tmp_path):
    path = tmp_path / "killer.qtrace"
    path.write_text(emit_trace(gen_killer(3, Fraction(1, 4))))
    return str(path)


@pytest.fixture
def random_trace(tmp_path):
    t = gen_random(GeneratorParams(n=6, horizon=5, buffer_size=2, seed=21))
    path = tmp_path / "random.qtrace"
    path.write_text(emit_trace(t))
    return str(path)


class TestRun:
    def test_grq_total(self, killer_trace, capsys):
        assert main(["run", "--trace", killer_trace]) == 0
        out = capsys.readouterr().out
        assert "grq total: 5/2" in out
        assert out.startswith("step,")  # csv on stdout before the summary

    def test_greedy_total(self, killer_trace, capsys):
        assert main(["run", "--trace", killer_trace, "--algo", "greedy"]) == 0
        assert "greedy total: 1" in capsys.readouterr().out

    def test_json_to_file(self, killer_trace, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(["run", "--trace", killer_trace,
                     "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["total"] == "5/2"
        assert payload["violations"] == []
        assert [r["step"] for r in payload["rows"]] == [1, 2, 3]

    @pytest.mark.parametrize("algo", ["grq", "greedy"])
    def test_arrivals_column_lists_released_ids(self, algo, random_trace, tmp_path):
        out = tmp_path / "run.json"
        assert main(["run", "--trace", random_trace, "--algo", algo,
                     "--format", "json", "--out", str(out)]) in (0, 1)
        trace = parse_trace(Path(random_trace).read_text())
        assert [r["arrivals"] for r in json.loads(out.read_text())["rows"]] == [
            " ".join(str(p.id) for p in sorted(trace.packets, key=lambda p: p.id)
                     if p.release == t)
            for t in range(1, trace.horizon + 1)
        ]


class TestOracle:
    def test_bounded(self, killer_trace, capsys):
        assert main(["oracle", "--trace", killer_trace]) == 0
        assert "bounded optimum: 5/2" in capsys.readouterr().out

    def test_unbounded(self, killer_trace, capsys):
        assert main(["oracle", "--trace", killer_trace,
                     "--algo", "unbounded"]) == 0
        # Capacity lifted: all three unit packets fit at step 1..1? No — same
        # deadline, one send per step.  Value stays 1 + 2*(3/4) = 5/2.
        assert "unbounded optimum: 5/2" in capsys.readouterr().out

    def test_assignment_rows(self, killer_trace, tmp_path):
        out = tmp_path / "oracle.json"
        assert main(["oracle", "--trace", killer_trace,
                     "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["value"] == "5/2"
        assert len(payload["rows"]) == 3


class TestEmptyTable:
    """A CSV table with no rows still has its header row."""

    @pytest.mark.parametrize("text, argv, out", [
        ("B 2\n", ("run",), "step,arrivals,transmitted,weight,rejections\ngrq total: 0\n"),
        ("B 2\n", ("run", "--algo", "greedy"),
         "step,arrivals,transmitted,weight,rejections\ngreedy total: 0\n"),
        ("B 1\n", ("oracle",), "packet,step,weight\nbounded optimum: 0\n"),
        ("B 1\np 0 1 1 0\n", ("oracle", "--algo", "unbounded"),
         "packet,step,weight\nunbounded optimum: 0\n"),
    ], ids=["grq", "greedy", "bounded", "unbounded"])
    def test_header_without_rows(self, text, argv, out, tmp_path, capsys):
        path = tmp_path / "t.qtrace"
        path.write_text(text)
        assert main([*argv, "--trace", str(path)]) == 0
        assert capsys.readouterr().out == out


class TestLongHorizon:
    """Two packets whose windows span 1,500 steps; B = 1 holds only one."""

    @pytest.fixture
    def long_trace(self, tmp_path):
        path = tmp_path / "long.qtrace"
        path.write_text("B 1\np 0 1 1500 1\np 1 1 1500 2\n")
        return str(path)

    def test_oracle(self, long_trace, capsys):
        assert main(["oracle", "--trace", long_trace]) == 0
        assert "bounded optimum: 2" in capsys.readouterr().out
        assert main(["oracle", "--trace", long_trace, "--algo", "unbounded"]) == 0
        assert "unbounded optimum: 3" in capsys.readouterr().out

    def test_charge(self, long_trace, capsys):
        assert main(["charge", "--trace", long_trace]) == 0
        assert capsys.readouterr().out.count(": pass") == 7

    def test_charge_against_enumerated_adversaries(self, long_trace, capsys):
        assert main(["charge", "--trace", long_trace, "--enumerate", "5"]) == 0
        assert "enumerated adversaries checked: 5, failures: 0" in capsys.readouterr().out


class TestCharge:
    def test_all_checks_pass(self, killer_trace, capsys):
        assert main(["charge", "--trace", killer_trace]) == 0
        out = capsys.readouterr().out
        assert out.count(": pass") == 7
        assert "FAIL" not in out
        assert "adversary value 5/2" in out

    def test_enumerated_adversaries(self, random_trace, capsys):
        assert main(["charge", "--trace", random_trace,
                     "--enumerate", "25"]) == 0
        out = capsys.readouterr().out
        assert "enumerated adversaries checked:" in out
        assert "failures: 0" in out

    def test_report_file(self, killer_trace, tmp_path):
        out = tmp_path / "charge.json"
        assert main(["charge", "--trace", killer_trace,
                     "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["checks"]) == 7
        assert all(c["passed"] for c in payload["checks"])

    def test_construction_error_is_a_violation(self, killer_trace, tmp_path, monkeypatch,
                                               capsys):
        def unbuildable(grq, adv):
            raise ChargeConstructionError("forced")

        monkeypatch.setattr("slotq.charging.build_charge_map", unbuildable)
        out = tmp_path / "charge.json"
        assert main(["charge", "--trace", killer_trace, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "violation: construction: forced\n")
        assert not out.exists()  # no report was built, so none is written

    def test_lossy_rebuild_is_a_violation(self, tmp_path, monkeypatch, capsys):
        # a rebuild that drops its last refusal leaves packet 2 neither placed
        # nor refused; grq's step checks and all seven charge checks pass, so
        # only the transcript check finds it, in charge as in run
        real = schedulers.grq_rebuild

        def lossy(*args):
            slots, deadlines, refused = real(*args)
            return slots, deadlines, refused[:-1]

        monkeypatch.setattr(schedulers, "grq_rebuild", lossy)
        path = tmp_path / "lossy.qtrace"
        path.write_text("B 2\np 0 1 2 5\np 1 1 2 5\np 2 1 2 1\n")
        lost = "packet 2: expected exactly one terminal event, got []"
        assert main(["charge", "--trace", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out.count(": pass") == 7
        assert captured.err == f"violation: transcript: {lost}\n"
        assert main(["run", "--trace", str(path)]) == 1
        assert capsys.readouterr().err == f"violation: {lost}\n"


class TestGen:
    def test_killer_stdout(self, capsys):
        assert main(["gen", "killer", "--b", "3", "--eps", "1/4"]) == 0
        assert parse_trace(capsys.readouterr().out) == gen_killer(3, Fraction(1, 4))

    def test_random_to_file_deterministic(self, tmp_path):
        a, b = tmp_path / "a.qtrace", tmp_path / "b.qtrace"
        argv = ["gen", "random", "--n", "5", "--horizon", "4",
                "--b", "2", "--seed", "9"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()
        assert len(parse_trace(a.read_text()).packets) == 5

    def test_bad_killer_args(self, capsys):
        assert main(["gen", "killer", "--b", "1", "--eps", "1/4"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gen", "killer", "--b", "3", "--eps", "1/0"],
        ["gen", "random", "--n", "3", "--horizon", "4", "--b", "2", "--burst", "1/0"],
    ])
    def test_zero_denominator_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.endswith(": invalid Fraction value: '1/0'\n")


@pytest.mark.parametrize("argv", [
    ["gen", "killer", "--b", "3", "--eps", "1e-5000"],
    ["gen", "random", "--n", "3", "--horizon", "4", "--b", "2", "--burst", "1e5000"],
])
def test_a_rational_too_long_to_print_is_a_usage_error(argv, capsys):
    # refused where it is parsed: the range check's message could not print it
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(f": invalid Fraction value: {argv[-1]!r}\n")


class TestSearch:
    def test_small_search(self, capsys):
        assert main(["search", "--n", "5", "--horizon", "4", "--b", "2",
                     "--seed", "3", "--iters", "25"]) == 0
        out = capsys.readouterr().out
        assert "worst ratio:" in out and "iterations: 25" in out

    def test_worst_trace_written(self, tmp_path, capsys):
        out = tmp_path / "worst.qtrace"
        assert main(["search", "--n", "5", "--horizon", "4", "--b", "2",
                     "--seed", "3", "--iters", "25", "--out", str(out)]) == 0
        assert parse_trace(out.read_text()).buffer_size == 2


class TestExperiment:
    def test_csv_stdout(self, tmp_path, capsys):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "traces": [{"kind": "killer", "buffer_size": 3, "eps": "1/4"}],
        }))
        assert main(["experiment", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("index,") and "5/2" in out

    def test_json_to_file(self, tmp_path, capsys):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "traces": [{"kind": "random", "count": 3, "seed": 2,
                        "n": 4, "horizon": 4, "buffer_size": 2}],
        }))
        out = tmp_path / "report.json"
        assert main(["experiment", "--config", str(config),
                     "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["aggregate"]["traces"] == 3
        assert "max ratio" in capsys.readouterr().out

    def test_bad_config_exit_2(self, tmp_path, capsys):
        config = tmp_path / "exp.json"
        config.write_text('{"traces": [{"kind": "bogus"}]}')
        assert main(["experiment", "--config", str(config)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"algorithms": null}',
        '{"oracles": 5}',
        '{"algorithms": "grq"}',
        '{"traces": [{"kind": "killer", "buffer_size": 3, "eps": 1e400}]}',
        '{"traces": [{"kind": "random", "n": 3, "horizon": 3, "buffer_size": 2, "burst": 1e400}]}',
        '{"traces": [{"kind": "random", "n": 1e400, "horizon": 3, "buffer_size": 2}]}',
        '{"traces": [{"kind": "random", "count": 1e400, "n": 3, "horizon": 3, "buffer_size": 2}]}',
        '{"traces": [{"kind": "random", "n": 4, "horizon": 30, "buffer_size": 2, "max_span": 1e400}]}',
        '{"verify": "false"}',
        '{"verify": false, "traces": [{"kind": "killer", "buffer_size": 3, "eps": "1/4"}]}',
        '{"traces": [{"kind": "random", "n": 2.5, "horizon": 3, "buffer_size": 2}]}',
        '{"counterexample_dir": 5, "traces": [{"kind": "killer", "buffer_size": 3, "eps": "1/4"}]}',
    ])
    def test_malformed_config_is_a_usage_error(self, text, tmp_path, capsys):
        config = tmp_path / "exp.json"
        config.write_text(text)
        assert main(["experiment", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""


class TestUsageErrors:
    def test_missing_trace_file(self, capsys):
        assert main(["run", "--trace", "/nonexistent.qtrace"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_syntax_error_in_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.qtrace"
        bad.write_text("B 2\np 0 1\n")
        assert main(["run", "--trace", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_semantic_error_in_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.qtrace"
        bad.write_text("B 1\np 0 4 2 1\n")
        assert main(["run", "--trace", str(bad)]) == 2

    @pytest.mark.parametrize("argv", [
        ["gen", "random", "--n", "-1", "--horizon", "4", "--b", "2"],
        ["search", "--n", "3", "--horizon", "4", "--b", "2", "--iters", "-1"],
        ["run", "--trace", "."],
        ["charge", "--trace", ".", "--enumerate", "-1"],
    ])
    def test_parameter_out_of_range(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_enumerate_rejected_before_any_output(self, killer_trace, capsys):
        assert main(["charge", "--trace", killer_trace, "--enumerate", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --enumerate must be >= 0, got -1\n"
        assert captured.out == ""

    def test_trace_file_not_text(self, tmp_path, capsys):
        bad = tmp_path / "bad.qtrace"
        bad.write_bytes(b"B 1\n\xff\xfe\n")
        assert main(["run", "--trace", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_no_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestInternalErrors:
    def test_unexpected_exception_exits_3(self, killer_trace, monkeypatch, capsys):
        def broken(trace):
            raise RuntimeError("stage broke")

        monkeypatch.setattr("slotq.cli.optimal_bounded", broken)
        assert main(["oracle", "--trace", killer_trace]) == 3
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError: stage broke\n"
        assert captured.out == ""

    @pytest.mark.parametrize("algo", ["bounded", "unbounded"])
    def test_oracle_self_check_exits_3(self, algo, killer_trace, monkeypatch, capsys):
        # `slotq oracle` reports no violations of its own: the oracle's
        # verification raises, which is an internal error
        monkeypatch.setattr("slotq.oracle.verify_schedule", lambda trace, schedule: ["forced"])
        assert main(["oracle", "--trace", killer_trace, "--algo", algo]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "internal error: AssertionError: optimum infeasible: ['forced']\n")
        assert captured.out == ""

    def test_internal_value_error_is_not_a_usage_error(self, killer_trace, monkeypatch, capsys):
        def broken(trace):
            raise ValueError("stage broke")

        monkeypatch.setattr("slotq.cli.optimal_bounded", broken)
        assert main(["oracle", "--trace", killer_trace]) == 3
        captured = capsys.readouterr()
        assert captured.err == "internal error: ValueError: stage broke\n"
        assert captured.out == ""


def checkout_env():
    """The environment with this checkout's src first on PYTHONPATH and no
    PYTHONOPTIMIZE, so a child interpreter runs these sources with only the
    flags its command line gives.  Every test that starts one uses it."""
    src = str(Path(slotq.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point(tmp_path):
    # One end-to-end check that `python3 -m slotq` wires up to the same CLI.
    proc = subprocess.run(
        [sys.executable, "-m", "slotq", "gen", "killer", "--b", "3",
         "--eps", "1/4"],
        capture_output=True, text=True, env=checkout_env(),
    )
    assert proc.returncode == 0
    assert parse_trace(proc.stdout) == gen_killer(3, Fraction(1, 4))


# The README's experiment config.
README_CONFIG = {
    "traces": [
        {"kind": "random", "count": 100, "seed": 7,
         "n": 8, "horizon": 6, "buffer_size": 3, "max_weight": 16},
        {"kind": "killer", "buffer_size": 10, "eps": "1/10"},
    ],
}
KILLER = ("--trace", "killer.qtrace")

# Each README CLI example: its arguments, the file it writes (None: stdout
# only), and the first 12 hex digits of the sha256 of its exit code, stdout,
# stderr and that file.  A refactor of the pipeline must leave every byte
# of these as it is.
README_EXAMPLES = {
    "gen-killer": (("gen", "killer", "--b", "10", "--eps", "1/10", "--out", "killer.qtrace"),
                   "killer.qtrace", "739161f03da0"),
    "grq-csv": (("run", *KILLER, "--algo", "grq", "--format", "csv"), None, "e0535f06ad91"),
    "grq-json": (("run", *KILLER, "--algo", "grq", "--format", "json"), None, "185d99335068"),
    "greedy-csv": (("run", *KILLER, "--algo", "greedy", "--format", "csv"), None, "8877281c01c7"),
    "greedy-json": (("run", *KILLER, "--algo", "greedy", "--format", "json"), None, "1a93b6a9d27a"),
    "oracle-bounded-csv": (("oracle", *KILLER, "--algo", "bounded"), None, "47667abf366c"),
    "oracle-bounded-json": (("oracle", *KILLER, "--algo", "bounded", "--format", "json"),
                            None, "5cb5e008e617"),
    "oracle-unbounded-csv": (("oracle", *KILLER, "--algo", "unbounded"), None, "16b9d50e2d5b"),
    "oracle-unbounded-json": (("oracle", *KILLER, "--algo", "unbounded", "--format", "json"),
                              None, "b1a8f019ff28"),
    "charge-enumerate": (("charge", *KILLER, "--enumerate", "50"), None, "603d1ebf78d2"),
    "charge-out-csv": (("charge", *KILLER, "--enumerate", "50", "--out", "charge.csv"),
                       "charge.csv", "d4f6793486b1"),
    "charge-out-json": (("charge", *KILLER, "--enumerate", "50", "--format", "json",
                         "--out", "charge.json"), "charge.json", "897c70758442"),
    "gen-random": (("gen", "random", "--n", "8", "--horizon", "6", "--b", "2", "--seed", "1",
                    "--out", "r.qtrace"), "r.qtrace", "0c9bd776e77a"),
    "search": (("search", "--n", "8", "--horizon", "8", "--b", "3", "--seed", "7",
                "--iters", "10000", "--out", "worst.qtrace"), "worst.qtrace", "71feb564962d"),
    "experiment-csv": (("experiment", "--config", "exp.json", "--out", "report.csv"),
                       "report.csv", "234786c80047"),
    "experiment-json": (("experiment", "--config", "exp.json", "--format", "json",
                         "--out", "report.json"), "report.json", "53b6f5cfe04e"),
}


@pytest.mark.parametrize("example", list(README_EXAMPLES))
def test_readme_run_examples_identical_under_optimize_flag(tmp_path, example):
    # every README CLI example gives the recorded output; `python -O` strips
    # assert statements, so the checks raise explicitly and nothing changes
    argv, written, digest = README_EXAMPLES[example]
    env = checkout_env()
    (tmp_path / "exp.json").write_text(json.dumps(README_CONFIG, indent=2) + "\n")

    def slotq_cli(*flags):
        done = subprocess.run([sys.executable, *flags, "-m", "slotq", *argv],
                              capture_output=True, env=env, cwd=tmp_path)
        output = b"" if written is None else (tmp_path / written).read_bytes()
        return done.returncode, done.stdout, done.stderr, output

    gen = subprocess.run([sys.executable, "-m", "slotq", *README_EXAMPLES["gen-killer"][0]],
                         capture_output=True, env=env, cwd=tmp_path)
    assert gen.returncode == 0, gen.stderr
    plain, optimized = slotq_cli(), slotq_cli("-O")
    assert plain[0] == 0, plain[2]
    assert optimized == plain
    assert hashlib.sha256(repr(plain).encode()).hexdigest()[:12] == digest
