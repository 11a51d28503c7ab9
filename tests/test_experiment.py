import csv
import io
import json
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from slotq.experiment import (
    ConfigError,
    evaluate_trace,
    load_config,
    report_to_csv,
    report_to_json,
    run_experiment,
    trace_digest,
)
from slotq.generate import GeneratorParams, gen_killer, gen_random
from slotq.charging import ChargeConstructionError
from slotq.cli import main
from slotq.model import Packet, validate_trace
from slotq.traceio import parse_trace
from support import weightless_run

SMALL = {
    "traces": [
        {"kind": "random", "count": 6, "seed": 11,
         "n": 5, "horizon": 5, "buffer_size": 2},
        {"kind": "killer", "buffer_size": 3, "eps": "1/4"},
    ],
}


class TestEvaluateTrace:
    def test_killer_row_values(self):
        row = evaluate_trace(gen_killer(10, Fraction(1, 10)))
        assert row.greedy_value == 1
        assert row.bounded_value == Fraction(91, 10)
        assert row.grq_value == Fraction(91, 10)
        assert row.ratio == 1
        assert row.charging == "pass"
        assert not row.failed

    def test_single_packet(self):
        t = validate_trace(1, [Packet(0, 1, 1, 5)])
        row = evaluate_trace(t)
        assert row.grq_value == row.bounded_value == row.unbounded_value == 5
        assert row.n == 1 and row.buffer_size == 1

    def test_charge_construction_error_fails_the_row(self, monkeypatch):
        def unbuildable(grq, adv):
            raise ChargeConstructionError("forced")

        monkeypatch.setattr("slotq.charging.build_charge_map", unbuildable)
        row = evaluate_trace(gen_killer(3, Fraction(1, 4)))
        assert row.failed and row.charging == "fail"
        assert row.violations == ("charging: construction: forced",)

    def test_zero_online_value_is_a_fault(self, monkeypatch):
        monkeypatch.setattr("slotq.experiment.run_grq", weightless_run)
        # the charge verifier would flag the weightless run as well; this
        # test pins the ratio rule's two violations alone
        monkeypatch.setattr("slotq.experiment.check_charges", lambda grq, adv: (None, []))
        row = evaluate_trace(gen_killer(3, Fraction(1, 4)))
        assert row.failed and row.ratio is None
        assert row.violations == (
            "ratio: online value 0 against optimum 5/2",
            "ratio: optimum 5/2 exceeds twice GRQ value 0",
        )

    def test_digest_is_stable_and_content_addressed(self):
        a = gen_killer(3, Fraction(1, 4))
        b = gen_killer(3, Fraction(1, 4))
        c = gen_killer(3, Fraction(1, 5))
        assert trace_digest(a) == trace_digest(b) != trace_digest(c)
        assert len(trace_digest(a)) == 12


class TestRunExperiment:
    def test_small_pipeline_passes(self):
        report = run_experiment(SMALL)
        assert report.passed and report.violation_count == 0
        assert len(report.rows) == 7
        assert report.max_ratio is not None and report.max_ratio <= 2
        assert 1 <= report.mean_ratio <= report.max_ratio

    def test_deterministic(self):
        a, b = run_experiment(SMALL), run_experiment(SMALL)
        assert a == b

    def test_killer_only(self):
        report = run_experiment(
            {"traces": [{"kind": "killer", "buffer_size": 10, "eps": "1/10"}]})
        (row,) = report.rows
        assert row.bounded_value / row.greedy_value == Fraction(91, 10)
        assert report.max_ratio == 1  # grq matches the optimum here

    def test_empty_config(self):
        report = run_experiment({})
        assert report.rows == () and report.passed
        assert report.max_ratio is None and report.mean_ratio is None

    @pytest.mark.parametrize("config", [
        {"traces": "nope"},
        {"traces": [{"count": 1}]},
        {"traces": [{"kind": "bogus"}]},
        {"traces": [{"kind": "random", "n": 3}]},  # missing horizon etc.
        {"traces": [{"kind": "killer", "buffer_size": 1, "eps": "1/2"}]},
        {"traces": [{"kind": "killer", "buffer_size": 3, "eps": "7/2"}]},
        {"traces": [{"kind": "killer", "buffer_size": 3, "eps": "1/0"}]},
        {"traces": [{"kind": "random", "n": 3, "horizon": 3, "buffer_size": 2, "burst": "1/0"}]},
        # the selection knobs are gone: each is an unknown key, so an old
        # config that turned the verifier off fails instead of running it
        {"algorithms": ["grq", "quantum"]},
        {"oracles": ["exactish"]},
        {"algorithms": None},
        {"oracles": 5},
        {"verify": False, "traces": [{"kind": "killer", "buffer_size": 3, "eps": "1/4"}]},
        {"verify": True},
        # JSON's 1e400 loads as infinity, a float, which no field takes
        {"traces": [{"kind": "killer", "buffer_size": 3, "eps": float("inf")}]},
        {"traces": [{"kind": "killer", "buffer_size": float("inf"), "eps": "1/4"}]},
        {"traces": [{"kind": "random", "n": 3, "horizon": 3, "buffer_size": 2,
                     "burst": float("inf")}]},
        {"traces": [{"kind": "random", "n": float("inf"), "horizon": 3, "buffer_size": 2}]},
        {"traces": [{"kind": "random", "count": float("inf"), "n": 3, "horizon": 3,
                     "buffer_size": 2}]},
        {"traces": [{"kind": "random", "n": 3, "horizon": 3, "buffer_size": 2,
                     "max_span": float("inf")}]},
        {"traces": [{"kind": "random", "n": 3, "horizon": 3, "buffer_size": 2,
                     "max_span": float("nan")}]},
        {"verify": "false"},
        {"verify": 0},
        # each field's type is its constructor's: nothing is truncated
        # (n 2.5 as n=2, count 2.9 as two traces) or converted (n "3")
        {"traces": [{"kind": "random", "n": 2.5, "horizon": 3, "buffer_size": 2}]},
        {"traces": [{"kind": "random", "count": 2.9, "n": 3, "horizon": 3, "buffer_size": 2}]},
        {"traces": [{"kind": "random", "count": -1, "n": 3, "horizon": 3, "buffer_size": 2}]},
        {"traces": [{"kind": "random", "seed": 1.7, "n": 3, "horizon": 3, "buffer_size": 2}]},
        {"traces": [{"kind": "random", "n": "3", "horizon": 3, "buffer_size": 2}]},
        {"traces": [{"kind": "random", "n": True, "horizon": 3, "buffer_size": 2}]},
        {"traces": [{"kind": "killer", "buffer_size": 2.5, "eps": "1/2"}]},
        {"traces": [{"kind": "random", "n": 3, "horizon": 3, "buffer_size": 2, "burst": 0.5}]},
        {"traces": [{"kind": "random", "n": 3, "horizon": 3, "buffer_size": 2,
                     "max_wieght": 4}]},
        {"traces": [{"kind": "killer", "buffer_size": 3, "eps": "1/4", "count": 2}]},
        {"counterexample_dir": 5},
        {"counterexample_dir": ["out"]},
        # one setting: run_experiment(counterexample_dir=), the CLI's --counterexamples
        {"counterexample_dir": "out"},
    ])
    def test_bad_configs(self, config):
        with pytest.raises(ConfigError):
            run_experiment(config)

    def test_a_mean_ratio_that_would_not_print_is_refused(self, tmp_path):
        # 2,000 rows of 64-bit weights: the exact mean's denominator, the lcm
        # of about 300 rows' ones, has more digits than Python prints, so
        # writing the report raised ValueError and the CLI exited 3
        config = {"traces": [{"kind": "random", "count": 2000, "seed": 1, "n": 8,
                              "horizon": 3, "buffer_size": 2, "max_weight": 2**64}]}
        with pytest.raises(ConfigError, match="^the mean_ratio of 2000 rows has more digits"):
            run_experiment(config)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["experiment", "--config", str(path)]) == 2

    def test_an_exponent_past_the_digit_limit_is_refused_at_once(self):
        # refused before Fraction builds ten to its power, which takes seconds
        config = {"traces": [{"kind": "random", "n": 3, "horizon": 3, "buffer_size": 2,
                              "burst": "1e3000000"}]}
        start = time.perf_counter()
        with pytest.raises(ConfigError) as e:
            run_experiment(config)
        assert time.perf_counter() - start < 0.5
        assert str(e.value) == "trace source 0: invalid Fraction value: '1e3000000'"

    def test_max_span_is_an_integer_field(self):
        # a float span is refused, not truncated: it would give packets
        # deadlines such as 6.5, which no runner can step through
        base = {"kind": "random", "count": 3, "n": 6, "horizon": 30, "buffer_size": 2}
        with pytest.raises(ConfigError, match="max_span must be an integer, got 2.5"):
            run_experiment({"traces": [{**base, "max_span": 2.5}]})
        assert run_experiment({"traces": [{**base, "max_span": 2}]}).passed

    @pytest.mark.parametrize("config,named", [
        ({"verify": False}, "unknown config key 'verify'"),
        ({"traces": [{"kind": "random", "n": 3, "horizon": 3, "buffer_size": 2,
                      "max_wieght": 4}]}, "trace source 0: unknown field 'max_wieght'"),
        ({"traces": [{"kind": "random", "n": 3, "buffer_size": 2}]},
         "trace source 0: missing field 'horizon'"),
        ({"traces": [{"kind": "killer", "buffer_size": 3}]},
         "trace source 0: missing field 'eps'"),
    ])
    def test_a_bad_key_is_named(self, config, named):
        with pytest.raises(ConfigError, match=named):
            run_experiment(config)

    def test_names_must_be_a_list_not_a_string(self):
        with pytest.raises(ConfigError, match="'traces' must be a list"):
            run_experiment({"traces": "random"})

    def test_sources_match_their_constructors(self):
        # the config adds only count (seed + k per copy) and the default seed
        # 0; every other field is the constructor's, burst and eps as text too
        report = run_experiment({"traces": [
            {"kind": "random", "count": 2, "n": 5, "horizon": 6, "buffer_size": 2,
             "burst": "1/2"},
            {"kind": "killer", "buffer_size": 3, "eps": "0.25"},
        ]})
        expected = [
            gen_random(GeneratorParams(n=5, horizon=6, buffer_size=2, seed=k,
                                       burst=Fraction(1, 2)))
            for k in (0, 1)
        ] + [gen_killer(3, Fraction(1, 4))]
        assert [r.digest for r in report.rows] == [trace_digest(t) for t in expected]

    @pytest.mark.parametrize("which", ["bounded", "unbounded"])
    def test_oracle_self_check_fails_the_row(self, which, tmp_path, monkeypatch):
        # the oracle verifies its own schedule, on the trace and on its
        # relaxed view; a violation there raises inside the oracle, and the
        # experiment records it as a failed row
        import slotq.oracle as oracle

        real = oracle.verify_schedule

        def strict(trace, schedule):
            broken = trace.buffer_size == len(trace.packets)  # the relaxed view
            return ["forced"] if broken == (which == "unbounded") else real(trace, schedule)

        monkeypatch.setattr(oracle, "verify_schedule", strict)
        report = run_experiment(
            {"traces": [{"kind": "killer", "buffer_size": 3, "eps": "1/4"}]},
            counterexample_dir=tmp_path,
        )
        (row,) = report.rows
        assert row.failed and not report.passed
        assert row.violations == (f"{which} oracle: optimum infeasible: ['forced']",)
        # with no bounded optimum there is nothing to charge against
        assert row.charging == ("skipped" if which == "bounded" else "pass")
        assert (row.bounded_value is None) == (which == "bounded")
        assert (row.unbounded_value is None) == (which == "unbounded")
        assert len(list(tmp_path.glob("*.qtrace"))) == 1

    @pytest.mark.parametrize("runner, what", [("run_grq", "slot queue"),
                                              ("run_naive_greedy", "greedy")])
    def test_runner_self_check_fails_its_row(self, runner, what, tmp_path, monkeypatch, capsys):
        # a runner's self-check raises inside the runner; like the oracle's,
        # it fails only the row it ran on, and the trace is persisted
        import slotq.experiment as ex

        config = {"traces": [{"kind": "killer", "buffer_size": b, "eps": "1/4"}
                             for b in (2, 3, 4)]}
        clean = run_experiment(config).rows
        real = getattr(ex, runner)

        def broken(trace):
            if trace.buffer_size == 3:
                raise AssertionError("forced")
            return real(trace)

        monkeypatch.setattr(ex, runner, broken)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "report.csv"
        assert main(["experiment", "--config", str(path), "--out", str(out),
                     "--counterexamples", str(tmp_path / "cx")]) == 1
        capsys.readouterr()
        report = run_experiment(config)
        first, row, last = report.rows
        assert (first, last) == (clean[0], clean[2])
        assert row.violations == (f"{what}: forced",)
        assert [p.name for p in (tmp_path / "cx").glob("*.qtrace")] == [
            f"trace-00001-{row.digest}.qtrace"]
        cells = list(csv.DictReader(io.StringIO(out.read_text())))[1]
        if what == "slot queue":  # nothing to take a ratio of or to charge
            assert row.grq_value is None and row.ratio is None and row.charging == "skipped"
            assert cells["grq"] == cells["ratio"] == ""
            assert replace(row, grq_value=clean[1].grq_value, ratio=clean[1].ratio,
                           charging="pass", violations=()) == clean[1]
        else:
            assert row.greedy_value is None and cells["greedy"] == ""
            assert replace(row, greedy_value=clean[1].greedy_value, violations=()) == clean[1]

    def test_counterexamples_persisted(self, tmp_path, monkeypatch):
        # Force a failure by breaking the 2x check through a monkeypatched
        # scheduler value; the row must land on disk as a loadable trace.
        import dataclasses

        import slotq.experiment as ex

        real = ex.evaluate_trace

        def sabotage(trace, index=0, **kw):
            row = real(trace, index=index, **kw)
            return dataclasses.replace(row, violations=("forced",))

        monkeypatch.setattr(ex, "evaluate_trace", sabotage)
        report = ex.run_experiment(
            {"traces": [{"kind": "killer", "buffer_size": 2, "eps": "1/2"}]},
            counterexample_dir=tmp_path,
        )
        assert not report.passed
        traces = list(tmp_path.glob("*.qtrace"))
        notes = list(tmp_path.glob("*.violations.txt"))
        assert len(traces) == 1 and len(notes) == 1
        reloaded = parse_trace(traces[0].read_text())
        assert reloaded == gen_killer(2, Fraction(1, 2))
        assert "forced" in notes[0].read_text()

        # an empty directory name persists nothing, as no name does
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        for where in ("", None):
            assert not ex.run_experiment(
                {"traces": [{"kind": "killer", "buffer_size": 2, "eps": "1/2"}]},
                counterexample_dir=where).passed
        assert list(cwd.iterdir()) == []


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text(json.dumps(SMALL))
        assert load_config(p) == SMALL

    def test_bad_json(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_integer_too_long_to_convert(self, tmp_path):
        # past Python's digit limit json.loads raises a ValueError, not a JSONDecodeError
        p = tmp_path / "config.json"
        p.write_text('{"traces": [{"kind": "killer", "buffer_size": ' + "3" * 5000 + "}]}")
        with pytest.raises(ConfigError, match="^config is not valid JSON: Exceeds the limit"):
            load_config(p)

    def test_non_object_root(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(p)


class TestSerialization:
    def test_csv_shape_and_rationals(self):
        report = run_experiment(SMALL)
        rows = list(csv.reader(io.StringIO(report_to_csv(report))))
        header, body = rows[0], rows[1:1 + len(report.rows)]
        assert header[:4] == ["index", "digest", "n", "buffer_size"]
        assert len(body) == len(report.rows)
        killer_row = body[-1]
        assert killer_row[header.index("bounded_opt")] == "5/2"
        assert rows[-1][0] == "aggregate"

    def test_json_round_trips_values(self):
        report = run_experiment(SMALL)
        payload = json.loads(report_to_json(report))
        assert payload["aggregate"]["traces"] == 7
        assert payload["aggregate"]["violations"] == 0
        killer = payload["rows"][-1]
        assert Fraction(killer["bounded_opt"]) == Fraction(5, 2)
        assert all(Fraction(r["ratio"]) <= 2 for r in payload["rows"])

    def test_empty_report_serializes(self):
        report = run_experiment({})
        assert "aggregate" in report_to_csv(report)
        assert json.loads(report_to_json(report))["rows"] == []
