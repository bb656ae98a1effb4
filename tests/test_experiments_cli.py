import argparse
import csv
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from oracles import min_max_lp, weighted_kkt_gap, weighted_objective
from seisrate import cli, experiments, simplex
from seisrate.cli import build_parser, main
from seisrate.errors import CapacityLimitError, InstanceFormatError
from seisrate.experiments import ExperimentSpec, GwSizingSpec, run_experiment, run_gw_sizing
from seisrate.model import fixture_path, load_instance
from seisrate.rates import EvaluationMode, evaluation_mode
from seisrate.search import (ALGORITHMS, SearchBudget, exhaustive_search, run_algorithm,
                             simulated_annealing)


def write_spec(path, **overrides):
    doc = {
        "algorithms": ["es", "dpso", "as"],
        "budgets": [[4, 6]],
        "replications": 2,
        "master_seed": 11,
        "num_gps": 4,
        "num_gws": 2,
        "output_dir": str(path.parent),
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def schedule_miss(gateways, doc):
    """Largest gap between Q and the mix of the CLI schedule's SIC corners,
    over 1 + sum Q; the corners come from the capacity formula here."""
    received = np.array(doc["powers_mW"]) / 1000.0 * gateways.gains ** 2
    fractions = np.array([entry["fraction"] for entry in doc["schedule"]])
    assert fractions.min() >= 0.0
    assert fractions.sum() == pytest.approx(1.0, abs=1e-9)
    mixed = np.zeros(gateways.num_gws)
    for entry, lam in zip(doc["schedule"], fractions):
        order = [i - 1 for i in entry["order"]]
        assert sorted(order) == list(range(gateways.num_gws))
        for k, i in enumerate(order):
            interference = received[order[k + 1:]].sum()
            mixed[i] += lam * math.log2(
                1 + received[i] / (gateways.noise_power + interference))
    q = gateways.queue_rates
    return float(np.abs(mixed - q).max() / (1.0 + q.sum()))


class TestExperimentSpec:
    def test_from_json_round_trip(self, tmp_path):
        spec = ExperimentSpec.from_json(write_spec(tmp_path / "s.json"))
        assert spec.algorithms == ("es", "dpso", "as")
        assert spec.budgets == ((4, 6),)
        assert spec.replications == 2

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("key", ["gp_power_mw", "noise_power_mw"])
    def test_non_finite_power_exits_invalid(self, tmp_path, capsys, key, value):
        # json writes Infinity and NaN, and reads them back as floats
        path = write_spec(tmp_path / "s.json", **{key: value})
        assert main(["experiment", "run", str(path)]) == 2
        assert f"spec field {key!r}: must be finite" in capsys.readouterr().err

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"budgets": [[2, 2]]}))
        with pytest.raises(InstanceFormatError, match="algorithms"):
            ExperimentSpec.from_json(path)

    def test_unknown_algorithm_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentSpec(algorithms=("genetic",), budgets=((2, 2),),
                           num_gps=3, num_gws=2)

    def test_needs_instance_or_dimensions(self):
        with pytest.raises(ValueError):
            ExperimentSpec(algorithms=("dpso",), budgets=((2, 2),))

    def test_accepts_every_registered_algorithm(self):
        spec = ExperimentSpec(algorithms=tuple(ALGORITHMS), budgets=((2, 2),),
                              num_gps=3, num_gws=2)
        assert set(spec.algorithms) == set(ALGORITHMS)
        for name in ("ES", "pso", "aco", ""):
            with pytest.raises(ValueError, match="unknown algorithm"):
                ExperimentSpec(algorithms=(name,), budgets=((2, 2),),
                               num_gps=3, num_gws=2)

    @pytest.mark.parametrize("evaluator", ["fixed-order", "lp",
                                           "descending-gain-corner", "lp-exact"])
    def test_accepted_evaluators(self, evaluator):
        spec = ExperimentSpec(algorithms=("dpso",), budgets=((2, 2),),
                              num_gps=3, num_gws=2, evaluator=evaluator)
        assert (spec.mode().order_policy == "lp-exact") == evaluator.startswith("lp")

    def test_unknown_evaluator_exits_invalid(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.json", evaluator="LP")
        assert main(["experiment", "run", str(spec)]) == 2
        assert "unknown evaluator 'LP'" in capsys.readouterr().err
        assert not (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize("key", ["evaluater", "es_cap"])
    def test_unknown_key_exits_invalid(self, tmp_path, capsys, key):
        # a misspelt key, and a key that specs no longer take
        spec = write_spec(tmp_path / "s.json", **{key: "lp"})
        with pytest.raises(InstanceFormatError, match=repr(key)):
            ExperimentSpec.from_json(spec)
        assert main(["experiment", "run", str(spec)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize("command", ["run", "gw-sizing"])
    @pytest.mark.parametrize("doc", ["[]", "5", "null", '"x"'])
    def test_top_level_not_an_object_exits_invalid(self, tmp_path, capsys,
                                                    command, doc):
        spec = tmp_path / "s.json"
        spec.write_text(doc)
        assert main(["experiment", command, str(spec)]) == 2
        assert "top level must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("run", "replications", None),
        ("run", "gp_power_mw", "x"),
        ("run", "num_gps", "3"),
        ("run", "algorithms", "as"),
        ("run", "budgets", [[4, 6, 1]]),
        ("run", "evaluator", ["lp"]),
        ("gw-sizing", "gp_counts", 3),
        ("gw-sizing", "replications", None),
        ("gw-sizing", "budget", [4, "6"]),
    ])
    def test_wrong_json_type_exits_invalid(self, tmp_path, capsys, command,
                                           key, value):
        path = tmp_path / "s.json"
        if command == "run":
            write_spec(path, **{key: value})
        else:
            doc = {"gp_counts": [2], "gw_counts": [1], "budget": [2, 2],
                   "replications": 1, "output_dir": str(tmp_path), key: value}
            path.write_text(json.dumps(doc))
        assert main(["experiment", command, str(path)]) == 2
        assert f"field {key!r}: expected" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]

    @pytest.mark.parametrize("command, key, value", [
        ("run", "aco_heuristic", "gw-averag"),
        ("run", "num_gps", 0),
        ("run", "gp_power_mw", -1.0),
        ("run", "budgets", [[0, 5]]),
        ("run", "master_seed", -1),
        ("gw-sizing", "budget", [0, 3]),
        ("gw-sizing", "master_seed", -1),
        ("gw-sizing", "scenario", 3),
    ])
    def test_out_of_range_value_exits_before_any_output(self, tmp_path, capsys,
                                                        command, key, value):
        path, out = tmp_path / "s.json", tmp_path / "out"
        if command == "run":
            write_spec(path, output_dir=str(out), **{key: value})
        else:
            path.write_text(json.dumps({"gp_counts": [2], "gw_counts": [1],
                                        "output_dir": str(out), key: value}))
        assert main(["experiment", command, str(path)]) == 2
        assert f"field {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_lists_the_accepted_keys(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        for key in ExperimentSpec.KEYS + GwSizingSpec.KEYS:
            assert f"`{key}`" in readme, key


class TestRunExperiment:
    def test_outputs_and_determinism(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        a_dir.mkdir()
        b_dir.mkdir()
        for d in (a_dir, b_dir):
            run_experiment(ExperimentSpec.from_json(
                write_spec(d / "s.json", output_dir=str(d))))
        a_summary = read_csv(a_dir / "summary.csv")
        assert a_summary == read_csv(b_dir / "summary.csv")
        assert read_csv(a_dir / "traces.csv") == read_csv(b_dir / "traces.csv")
        # one summary row per (algorithm, budget)
        assert len(a_summary) == 1 + 3

    def test_es_rows_have_zero_mse(self, tmp_path):
        run_experiment(ExperimentSpec.from_json(write_spec(tmp_path / "s.json")))
        rows = read_csv(tmp_path / "summary.csv")
        header, data = rows[0], rows[1:]
        mse_col = header.index("mse_vs_es")
        es_row = next(r for r in data if r[0] == "es")
        assert float(es_row[mse_col]) == 0.0
        for r in data:
            assert float(r[mse_col]) >= 0.0

    def test_different_seeds_differ(self, tmp_path):
        a = run_experiment(ExperimentSpec.from_json(
            write_spec(tmp_path / "a.json", master_seed=1)))
        b = run_experiment(ExperimentSpec.from_json(
            write_spec(tmp_path / "b.json", master_seed=2)))
        assert a != b

    def test_fixture_instance_reaches_known_optimum(self, tmp_path):
        spec = ExperimentSpec(
            algorithms=("es",), budgets=((1, 1),),
            instance_path=str(fixture_path("channel_3x2.json")),
            evaluator="lp", output_dir=str(tmp_path),
        )
        rows = run_experiment(spec)
        assert float(rows[0][4]) == pytest.approx(3.813, abs=1e-3)

    def test_es_rows_are_the_optimum_behind_mse(self, tmp_path):
        spec = ExperimentSpec.from_json(write_spec(
            tmp_path / "s.json", budgets=[[4, 6], [2, 3]], replications=3))
        run_experiment(spec)
        optima = [exhaustive_search(spec.channel_for(r), spec.mode())[1]
                  for r in range(spec.replications)]
        traces = read_csv(tmp_path / "traces.csv")[1:]
        es_rows = [row for row in traces if row[0] == "es"]
        assert len(es_rows) == (6 + 3) * 3
        for _, _, _, r, _, value in es_rows:
            assert float(value) == optima[int(r)]
        summary = read_csv(tmp_path / "summary.csv")[1:]
        assert len(summary) == 3 * 2
        for algo, m, i, _, _, _, mse in summary:
            finals = [float(row[5]) for row in traces
                      if row[:3] == [algo, m, i] and int(row[4]) == int(i) - 1]
            assert float(mse) == np.mean((np.array(finals) - optima) ** 2)

    def test_es_over_the_cap_exits_before_any_search(self, tmp_path, capsys,
                                                     monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran before the capacity check")

        monkeypatch.setattr(experiments, "run_algorithm", no_search)
        spec = write_spec(tmp_path / "s.json", algorithms=["as", "es"],
                          num_gps=30, num_gws=5, replications=1)
        with pytest.raises(CapacityLimitError):
            run_experiment(ExperimentSpec.from_json(spec))
        assert main(["experiment", "run", str(spec)]) == 4
        assert "capacity exceeded" in capsys.readouterr().err
        assert not (tmp_path / "traces.csv").exists()
        assert not (tmp_path / "summary.csv").exists()

    def test_es_over_the_cap_creates_no_output_dir(self, tmp_path, capsys):
        outdir = tmp_path / "tmp" / "x"
        spec = write_spec(tmp_path / "s.json", algorithms=["es"], num_gps=30,
                          num_gws=5, replications=1, output_dir=str(outdir))
        assert main(["experiment", "run", str(spec)]) == 4
        assert "capacity exceeded" in capsys.readouterr().err
        assert not outdir.exists()
        assert not outdir.parent.exists()

    def test_over_the_cap_without_es_leaves_mse_empty(self, tmp_path):
        rows = run_experiment(ExperimentSpec.from_json(write_spec(
            tmp_path / "s.json", algorithms=["as"], num_gps=30, num_gws=1,
            replications=1)))
        assert [row[-1] for row in rows] == [""]

    def test_lp_over_the_space_cap_without_es_leaves_mse_empty(self, tmp_path,
                                                               monkeypatch):
        # 9 x 2 fits the fixed-order cap, not the lp-exact one: no ES runs
        def no_es(*args):
            raise AssertionError("exhaustive search ran")

        monkeypatch.setattr(experiments, "exhaustive_search", no_es)
        rows = run_experiment(ExperimentSpec.from_json(write_spec(
            tmp_path / "s.json", algorithms=["as"], budgets=[[2, 2]],
            evaluator="lp", num_gps=9, num_gws=2, replications=1)))
        assert [row[-1] for row in rows] == [""]

    def test_instance_campaign_searches_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(channel, mode):
            calls.append(channel)
            return exhaustive_search(channel, mode)

        monkeypatch.setattr(experiments, "exhaustive_search", counted)
        inst = fixture_path("channel_3x2.json")
        spec = write_spec(tmp_path / "s.json", instance=str(inst),
                          algorithms=["es", "dpso"], replications=3)
        run_experiment(ExperimentSpec.from_json(spec))
        assert len(calls) == 1
        optimum = exhaustive_search(load_instance(inst), EvaluationMode())[1]
        es_rows = [row for row in read_csv(tmp_path / "traces.csv")[1:]
                   if row[0] == "es"]
        assert [int(row[3]) for row in es_rows] == [0] * 6 + [1] * 6 + [2] * 6
        assert {float(row[5]) for row in es_rows} == {optimum}

    def test_holds_at_most_one_es_table(self, tmp_path, monkeypatch):
        # each search's values are gone before the next search starts, and
        # the metaheuristics get the values of their own channel
        tables, given = [], []

        def tracked(channel, mode):
            assert all(ref() is None for ref in tables)
            result = exhaustive_search(channel, mode)
            tables.append(weakref.ref(result.values))
            return result

        def recorded(*args, es_values=None, **kwargs):
            given.append(es_values is not None and es_values is tables[-1]())
            return run_algorithm(*args, es_values=es_values, **kwargs)

        monkeypatch.setattr(experiments, "exhaustive_search", tracked)
        monkeypatch.setattr(experiments, "run_algorithm", recorded)
        run_experiment(ExperimentSpec.from_json(write_spec(
            tmp_path / "s.json", algorithms=["es", "dpso", "sa"],
            budgets=[[4, 6], [2, 3]], replications=3)))
        assert len(tables) == 3
        assert given == [True] * 12

    def test_missing_instance_is_named_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        spec = write_spec(tmp_path / "s.json", instance=str(tmp_path / "none.json"),
                          output_dir=str(out))
        assert main(["experiment", "run", str(spec)]) == 2
        assert "'instance'" in capsys.readouterr().err
        assert not out.exists()

    def test_trace_lengths_match_budget(self, tmp_path):
        run_experiment(ExperimentSpec.from_json(write_spec(tmp_path / "s.json")))
        rows = read_csv(tmp_path / "traces.csv")[1:]
        dpso_rows = [r for r in rows if r[0] == "dpso" and r[3] == "0"]
        assert len(dpso_rows) == 6
        values = [float(r[5]) for r in dpso_rows]
        assert values == sorted(values)


class TestGwSizing:
    def test_sweep_outputs(self, tmp_path):
        spec = GwSizingSpec(
            gp_counts=(2, 4), gw_counts=(1, 2), algorithm="as",
            budget=(4, 4), replications=2, master_seed=5,
            output_dir=str(tmp_path), required_kbps=50.0,
        )
        rows, supported = run_gw_sizing(spec)
        assert len(rows) == 4
        assert set(supported) == {1, 2}
        csv_rows = read_csv(tmp_path / "gw_sizing.csv")
        assert len(csv_rows) == 5
        doc = json.loads((tmp_path / "gw_sizing_supported.json").read_text())
        assert doc["required_kbps"] == 50.0

    def test_rate_conversion_uses_bandwidth(self, tmp_path):
        spec = GwSizingSpec(
            gp_counts=(3,), gw_counts=(1,), budget=(4, 4),
            replications=2, master_seed=5, output_dir=str(tmp_path),
            bandwidth_khz=200.0,
        )
        rows, _ = run_gw_sizing(spec)
        mean_sum = float(rows[0][4])
        assert float(rows[0][5]) == pytest.approx(mean_sum / 3 * 200.0)

    def test_unknown_key_exits_invalid(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"gp_counts": [2], "gw_counts": [1],
                                    "required_kpbs": 50.0,
                                    "output_dir": str(tmp_path)}))
        with pytest.raises(InstanceFormatError, match="'required_kpbs'"):
            GwSizingSpec.from_json(path)
        assert main(["experiment", "gw-sizing", str(path)]) == 2
        assert "'required_kpbs'" in capsys.readouterr().err
        assert not (tmp_path / "gw_sizing.csv").exists()

    def test_validation(self, tmp_path, capsys):
        with pytest.raises(ValueError):
            GwSizingSpec(gp_counts=(), gw_counts=(1,))
        with pytest.raises(ValueError):
            GwSizingSpec(gp_counts=(2,), gw_counts=(1,), required_kbps=0.0)
        with pytest.raises(ValueError, match="replications"):
            GwSizingSpec(gp_counts=(3,), gw_counts=(2,), replications=0)
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"gp_counts": [3], "gw_counts": [2],
                                    "replications": 0,
                                    "output_dir": str(tmp_path)}))
        assert main(["experiment", "gw-sizing", str(path)]) == 2
        assert "replications must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "gw_sizing.csv").exists()


class TestCli:
    def test_closed_stdout_pipe_exits_zero(self, tmp_path):
        """A reader that stops after the first line, as `| head -1` does,
        leaves the run a success: exit 0, nothing on stderr."""
        instance = tmp_path / "g.json"
        assert main(["gen", "--kind", "gateways", "--gws", "512", "--seed", "1",
                     "--out", str(instance)]) == 0
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        # the answer holds a 512-entry schedule, far past a pipe's buffer
        proc = subprocess.Popen(
            [sys.executable, "-m", "seisrate.cli", "stage2", "min-max",
             "--instance", str(instance)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert stderr == b""

    def test_gen_and_stage1_round_trip(self, tmp_path, capsys):
        inst = tmp_path / "ch.json"
        assert main(["gen", "--kind", "channel", "--gps", "3", "--gws", "2",
                     "--seed", "4", "--out", str(inst)]) == 0
        load_instance(inst)
        out = tmp_path / "res.json"
        assert main(["stage1", "optimize", "--instance", str(inst),
                     "--algo", "es", "--evaluator", "lp",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["best_sum_rate"] > 0
        assert np.array(doc["assignment"]).shape == (3, 2)

    def test_stage1_fixture_lp_optimum(self, capsys):
        assert main(["stage1", "optimize",
                     "--instance", str(fixture_path("channel_3x2.json")),
                     "--algo", "es", "--evaluator", "lp"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["best_sum_rate"] == pytest.approx(3.813, abs=1e-3)
        assert doc["assignment"] == [[1, 0], [1, 1], [0, 1]]

    def test_stage1_metaheuristic_flags(self, capsys):
        assert main(["stage1", "optimize",
                     "--instance", str(fixture_path("channel_3x2.json")),
                     "--algo", "mmas", "--scenario", "2",
                     "--particles", "5", "--iters", "8", "--seed", "3",
                     "--aco-heuristic", "gw-average+gp-deactivation"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["evaluations"] == 40
        assert len(doc["trace"]) == 8

    def test_stage1_sa_tmax_reaches_the_annealer(self, tmp_path, capsys):
        inst = tmp_path / "ch.json"
        assert main(["gen", "--kind", "channel", "--gps", "8", "--gws", "2",
                     "--seed", "1", "--out", str(inst)]) == 0
        capsys.readouterr()
        assert main(["stage1", "optimize", "--instance", str(inst), "--algo", "sa",
                     "-M", "10", "-I", "20", "--seed", "3", "--sa-tmax", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        channel, mode = load_instance(inst), evaluation_mode("fixed-order", 1)
        cool, hot = (simulated_annealing(channel, SearchBudget(
            10, 20, sa_max_temperature=tmax, seed=3), mode) for tmax in (5.0, None))
        assert doc["trace"] == cool.best_per_iteration.tolist()
        assert doc["evaluations"] == cool.evaluations
        # the default start temperature, M*I = 200, anneals another way
        assert doc["trace"] != hot.best_per_iteration.tolist()

    def test_stage2_min_total(self, capsys):
        assert main(["stage2", "min-total", "--instance",
                     str(fixture_path("gateways_small_buffer.json"))]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_mW"] == pytest.approx(211.405, rel=1e-3)
        assert doc["order"] == [3, 7, 6, 5, 1, 4, 8, 2]

    def test_stage2_min_max_with_schedule(self, capsys):
        assert main(["stage2", "min-max", "--instance",
                     str(fixture_path("gateways_small_buffer.json"))]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["peak_mW"] == pytest.approx(46.06, rel=1e-2)
        fractions = [e["fraction"] for e in doc["schedule"]]
        assert sum(fractions) == pytest.approx(1.0)

    def test_stage2_weighted(self, capsys):
        assert main(["stage2", "weighted", "--instance",
                     str(fixture_path("gateways_large_buffer.json"))]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_mW"] == pytest.approx(5000.0, rel=1e-6)
        assert doc["objective"] >= 2.63

    @pytest.mark.parametrize("doc, message", [
        ("[0.5, null, 0.5]", "finite and nonnegative"),
        ("[NaN, 0.5, 0.5]", "finite and nonnegative"),
        ("[1.5, -0.5, 0]", "finite and nonnegative"),
        ('{"1": 0.5, "2": 0.5}', "JSON list of numbers"),
        ('["a", 0.5, 0.5]', "JSON list of numbers"),
    ])
    def test_stage2_weighted_bad_weights_exit_invalid(self, tmp_path, capsys,
                                                      doc, message):
        inst, weights = tmp_path / "gw.json", tmp_path / "w.json"
        assert main(["gen", "--kind", "gateways", "--gws", "3",
                     "--out", str(inst)]) == 0
        weights.write_text(doc)
        assert main(["stage2", "weighted", "--instance", str(inst),
                     "--weights", str(weights), "--total-cap-mw", "100"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    @pytest.mark.parametrize("cap_mw", ["nan", "inf"])
    def test_stage2_weighted_non_finite_cap_exits_invalid(self, tmp_path, capsys,
                                                          cap_mw):
        inst = tmp_path / "gw.json"
        assert main(["gen", "--kind", "gateways", "--gws", "3",
                     "--out", str(inst)]) == 0
        assert main(["stage2", "weighted", "--instance", str(inst),
                     "--total-cap-mw", cap_mw]) == 2
        captured = capsys.readouterr()
        assert "finite positive total power cap" in captured.err
        assert captured.out == ""

    @pytest.mark.filterwarnings("error")
    def test_stage2_weighted_snr_past_the_float_range(self, tmp_path, capsys):
        # 1e307 W on a gain of 2 over 1 mW of noise: an SNR of 4e310
        inst = tmp_path / "gw.json"
        inst.write_text(json.dumps({"kind": "gateways", "N": 2, "Q": [1.0, 1.0],
                                    "G": [1.0, 2.0], "N0_mW": 1.0,
                                    "Ptotal_max_W": 1e307}))
        assert main(["stage2", "weighted", "--instance", str(inst)]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("capacity exceeded: ")
        assert captured.out == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("problem", ["min-total", "min-max"])
    @pytest.mark.parametrize("cap_mw, code", [(None, 4), (1.0, 3)])
    def test_stage2_overflowing_powers_warn_nothing(self, tmp_path, capsys,
                                                   problem, cap_mw, code):
        # N0 = 1e308 mW and gains of 1e-3: no power fits in a float, so
        # exit 4, or 3 under a cap; stderr holds the message and no warning
        inst = tmp_path / "gw.json"
        assert main(["gen", "--kind", "gateways", "--gws", "4", "--seed", "1",
                     "--out", str(inst)]) == 0
        doc = json.loads(inst.read_text())
        doc.update({"N0_mW": 1e308, "G": [0.001] * 4})
        if cap_mw is not None:
            doc["Pmax_mW"] = cap_mw
        inst.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["stage2", problem, "--instance", str(inst)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "does not fit in a float" in captured.err
        assert "Warning" not in captured.err and "inf W" not in captured.err

    def test_stage2_min_max_twelve_gateways(self, tmp_path):
        # the 2^N-row epigraph LP once used here ran for minutes at N = 12
        inst, out = tmp_path / "gw.json", tmp_path / "res.json"
        assert main(["gen", "--kind", "gateways", "--gws", "12", "--seed", "12",
                     "--out", str(inst)]) == 0
        assert main(["stage2", "min-max", "--instance", str(inst),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        ref_peak = min_max_lp(load_instance(inst))
        assert doc["peak_mW"] == pytest.approx(ref_peak * 1000.0, rel=1e-9)
        assert max(doc["powers_mW"]) == doc["peak_mW"]
        assert schedule_miss(load_instance(inst), doc) <= 1e-9

    @pytest.mark.parametrize("gws", [40, 64])
    def test_stage2_min_max_schedule_at_large_received_powers(self, tmp_path, gws):
        # corner rates taken from a running suffix sum once went negative
        # here: 64 gateways exited 2 with a math domain error, and 40 gave
        # no schedule
        inst, out = tmp_path / "gw.json", tmp_path / "res.json"
        assert main(["gen", "--kind", "gateways", "--gws", str(gws),
                     "--seed", "3", "--out", str(inst)]) == 0
        assert main(["stage2", "min-max", "--instance", str(inst),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["schedule"]) <= gws
        assert schedule_miss(load_instance(inst), doc) <= 1e-9

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("problem", ["min-total", "min-max"])
    def test_stage2_powers_past_the_float_range_exit_capacity(self, tmp_path, capsys,
                                                              problem):
        # at N0 = 1e308 mW the powers fit in W, but not in mW: JSON would
        # carry Infinity, which is not JSON
        inst = tmp_path / "gw.json"
        assert main(["gen", "--kind", "gateways", "--gws", "4", "--seed", "1",
                     "--n0-mw", "1e308", "--out", str(inst)]) == 0
        capsys.readouterr()
        assert main(["stage2", problem, "--instance", str(inst)]) == 4
        captured = capsys.readouterr()
        assert "does not fit in a float" in captured.err and captured.out == ""

    @pytest.mark.filterwarnings("error")
    def test_stage2_received_power_past_the_float_range(self, tmp_path, capsys):
        # the power 4.095e307 mW fits in a float, so min-total answers; its
        # received power does not, so min-max has no schedule and exits 4
        inst = tmp_path / "gw.json"
        inst.write_text(json.dumps({"kind": "gateways", "N": 1, "Q": [12.0],
                                    "G": [100.0], "N0_mW": 1e308}))
        assert main(["stage2", "min-total", "--instance", str(inst)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["powers_mW"] == [pytest.approx(4.095e307, rel=1e-12)]
        assert main(["stage2", "min-max", "--instance", str(inst)]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "Warning" not in captured.err
        assert "received power does not fit in a float" in captured.err

    def test_stage2_weighted_sixty_four_gateways(self, tmp_path):
        inst, out = tmp_path / "gw.json", tmp_path / "res.json"
        assert main(["gen", "--kind", "gateways", "--gws", "64", "--seed", "64",
                     "--ptotal-max-mw", "1000", "--out", str(inst)]) == 0
        assert main(["stage2", "weighted", "--instance", str(inst),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        gw = load_instance(inst)
        weights = gw.queue_rates / gw.queue_rates.sum()
        powers = np.array(doc["powers_mW"]) / 1000.0
        assert powers.min() >= 0.0
        assert powers.sum() == pytest.approx(1.0, rel=1e-9)
        assert doc["objective"] == pytest.approx(
            weighted_objective(gw, weights, powers), rel=1e-9)
        assert weighted_kkt_gap(gw, weights, powers) <= 1e-9

    def test_experiment_run_subcommand(self, tmp_path):
        spec = write_spec(tmp_path / "s.json", algorithms=["dpso"],
                          replications=1)
        assert main(["experiment", "run", str(spec)]) == 0
        assert (tmp_path / "summary.csv").exists()

    def test_experiment_sizing_subcommand(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "gp_counts": [2], "gw_counts": [1], "budget": [3, 3],
            "replications": 1, "output_dir": str(tmp_path),
        }))
        assert main(["experiment", "gw-sizing", str(path)]) == 0
        assert (tmp_path / "gw_sizing.csv").exists()

    def test_exit_invalid_on_missing_file(self, capsys):
        assert main(["stage1", "optimize", "--instance", "/no/such.json",
                     "--algo", "es"]) == 2

    def test_exit_invalid_on_wrong_instance_kind(self, capsys):
        assert main(["stage2", "min-total", "--instance",
                     str(fixture_path("channel_3x2.json"))]) == 2

    def test_exit_infeasible(self, tmp_path, capsys):
        bad = tmp_path / "gw.json"
        bad.write_text(json.dumps({
            "kind": "gateways", "N": 2, "Q": [3.0, 3.0], "G": [1.0, 1.0],
            "N0_mW": 1.0, "Pmax_mW": 1.0,
        }))
        assert main(["stage2", "min-total", "--instance", str(bad)]) == 3

    def test_algo_choices_are_the_registry(self):
        def subcommands(parser):
            return next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices

        optimize = subcommands(subcommands(build_parser())["stage1"])["optimize"]
        algo = next(a for a in optimize._actions if a.dest == "algo")
        assert set(algo.choices) == set(ALGORITHMS)

    def test_exit_capacity_on_oversized_lp(self, tmp_path, capsys, monkeypatch):
        # about 32 of 64 geophones decoded on each of three gateways, 2^32
        # subset rows each if written out: past two gateways the simplex
        # solves it by cuts, and exits 4 with no traceback once the pivot
        # cap is below what the cuts need
        inst = tmp_path / "wide.json"
        argv = ["stage1", "optimize", "--instance", str(inst), "--algo", "sa",
                "--evaluator", "lp", "--particles", "1", "--iters", "1"]
        assert main(["gen", "--kind", "channel", "--gps", "64", "--gws", "3",
                     "--out", str(inst)]) == 0
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 3)
        assert main(argv) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("capacity exceeded: ") and "more than 3 simplex pivots" in err
        assert "Traceback" not in err

    def test_exit_capacity_on_oversized_es(self, tmp_path, capsys):
        inst = tmp_path / "big.json"
        assert main(["gen", "--kind", "channel", "--gps", "30", "--gws", "5",
                     "--out", str(inst)]) == 0
        assert main(["stage1", "optimize", "--instance", str(inst),
                     "--algo", "es"]) == 4
