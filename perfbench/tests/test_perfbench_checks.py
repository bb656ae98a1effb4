"""Each checker accepts seisrate's answer and rejects a deliberately
wrong one."""

import copy
import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
from seisrate import cli, experiments, model, search  # noqa: E402
from seisrate.rates import EvaluationMode  # noqa: E402


def _gateway_doc(tmp_path, n, seed, **caps):
    path = tmp_path / f"gw{n}-{seed}.json"
    model.save_instance(model.generate_gateways(n, seed, noise_power=1e-3, **caps), path)
    return path, json.loads(path.read_text())


def _answer(tmp_path, problem, path):
    out = tmp_path / f"{problem}.out.json"
    assert cli.main(["stage2", problem, "--instance", str(path), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _scaled(doc, index, factor):
    bad = copy.deepcopy(doc)
    bad["powers_mW"][index] *= factor
    return bad


class TestMinTotal:
    def test_accepts_and_rejects_powers_off_by_1e_6(self, tmp_path):
        path, instance = _gateway_doc(tmp_path, 5, 3)
        doc = _answer(tmp_path, "min-total", path)
        assert checks.check_min_total(instance, doc) == []
        for i in range(5):
            for factor in (1 - 1e-6, 1 + 1e-6):
                assert checks.check_min_total(instance, _scaled(doc, i, factor))


class TestMinMax:
    def _solved(self, tmp_path):
        for seed in range(20):
            path, instance = _gateway_doc(tmp_path, 4, seed)
            doc = _answer(tmp_path, "min-max", path)
            if "schedule" in doc:
                return instance, doc
        pytest.fail("no instance with a schedule among 20 seeds")

    def test_accepts_answer_with_schedule(self, tmp_path):
        instance, doc = self._solved(tmp_path)
        assert checks.check_min_max(instance, doc) == ([], False)

    def test_rejects_powers_off_by_1e_6(self, tmp_path):
        instance, doc = self._solved(tmp_path)
        top = int(np.argmax(doc["powers_mW"]))
        assert checks.check_min_max(instance, _scaled(doc, top, 1 + 1e-6))[0]
        assert checks.check_min_max(instance, _scaled(doc, top, 1 - 1e-6))[0]

    def test_rejects_schedule_that_misses_q(self, tmp_path):
        instance, doc = self._solved(tmp_path)
        bad = copy.deepcopy(doc)
        first = bad["schedule"][0]
        first["order"] = list(reversed(first["order"]))
        if first["order"] == doc["schedule"][0]["order"]:  # one gateway only
            pytest.skip("a single order cannot be altered")
        assert checks.check_min_max(instance, bad)[0]

    def test_rejects_fractions_not_summing_to_one(self, tmp_path):
        instance, doc = self._solved(tmp_path)
        bad = copy.deepcopy(doc)
        bad["schedule"][0]["fraction"] += 1e-6
        assert checks.check_min_max(instance, bad)[0]

    def test_counts_a_schedule_miss_without_failing_the_powers(self, tmp_path):
        instance, doc = self._solved(tmp_path)
        missed = {k: v for k, v in doc.items() if k != "schedule"}
        missed["schedule_error"] = "no schedule"
        assert checks.check_min_max(instance, missed) == ([], True)


class TestWeighted:
    def test_accepts_answer_and_rejects_a_worse_one(self, tmp_path):
        path, instance = _gateway_doc(tmp_path, 6, 2, total_power_cap=1.0)
        doc = _answer(tmp_path, "weighted", path)
        assert checks.check_weighted(instance, doc) == []
        bad = copy.deepcopy(doc)
        bad["powers_mW"] = [p * (1 - 1e-3) for p in doc["powers_mW"]]
        assert checks.check_weighted(instance, bad)
        bad = copy.deepcopy(doc)
        bad["objective"] *= 1 + 1e-6
        assert checks.check_weighted(instance, bad)


class TestStage1:
    def test_exhaustive_answer_and_wrong_values(self):
        channel = model.generate_rayleigh(5, 2, 1e-3, 1e-3, 7)
        for scenario in (1, 2):
            assignment, value = search.exhaustive_search(
                channel, EvaluationMode.scenario(scenario))
            args = (channel.gains, 1e-3, 1e-3, scenario == 2)
            rng = np.random.default_rng(0)
            assert checks.check_exhaustive(*args, assignment.flags, value, rng) == []
            assert checks.check_exhaustive(*args, assignment.flags, value * (1 + 1e-9), rng)
            none = np.zeros((5, 2), dtype=bool)
            assert checks.check_exhaustive(*args, none, 0.0, rng)

    def test_independent_evaluator_matches_seisrate(self):
        from seisrate.rates import evaluate_fixed_order_batch
        channel = model.generate_rayleigh(6, 3, 1e-3, 1e-3, 1)
        flags = np.random.default_rng(1).random((64, 6, 3)) < 0.5
        for scenario in (1, 2):
            _, ref = evaluate_fixed_order_batch(channel, flags.astype(np.int8),
                                                EvaluationMode.scenario(scenario))
            ours = checks.fixed_order_sums(channel.gains, 1e-3, 1e-3, flags, scenario == 2)
            assert np.allclose(ours, ref, rtol=1e-13, atol=0)

    def test_lp_answer_and_sum_rate_off_by_1e_6(self, tmp_path):
        path = tmp_path / "ch.json"
        model.save_instance(model.generate_rayleigh(6, 2, 1e-3, 1e-3, 4), path)
        out = tmp_path / "out.json"
        assert cli.main(["stage1", "optimize", "--instance", str(path), "--algo", "as",
                         "--evaluator", "lp", "-M", "3", "-I", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        gains = model.load_instance(path).gains
        assert checks.check_stage1_doc(doc, gains, 1e-3, 1e-3, False, "lp") == []
        bad = copy.deepcopy(doc)
        bad["best_sum_rate"] *= 1 + 1e-6
        bad["trace"][-1] = bad["best_sum_rate"]
        assert checks.check_stage1_doc(bad, gains, 1e-3, 1e-3, False, "lp")


class TestCampaign:
    ALGOS = ("es", "dpso", "sa", "baseline")
    BUDGETS = ((3, 4),)

    def _rows(self, tmp_path):
        spec = experiments.ExperimentSpec(
            algorithms=self.ALGOS, budgets=self.BUDGETS, replications=2,
            master_seed=5, num_gps=4, num_gws=2, output_dir=str(tmp_path))
        experiments.run_experiment(spec)
        with open(tmp_path / "traces.csv", newline="") as fh:
            traces = list(csv.DictReader(fh))
        with open(tmp_path / "summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        return traces, summary

    def _check(self, traces, summary):
        return checks.check_campaign(traces, summary, self.ALGOS, self.BUDGETS, 2, True)

    def test_accepts_campaign(self, tmp_path):
        assert self._check(*self._rows(tmp_path)) == []

    def test_rejects_sum_rate_above_es(self, tmp_path):
        traces, summary = self._rows(tmp_path)
        es = max(float(r["best_sum_rate"]) for r in traces if r["algorithm"] == "es")
        last = [r for r in traces if r["algorithm"] == "dpso"][-1]
        last["best_sum_rate"] = repr(es * 1.01)
        assert self._check(traces, summary)

    def test_rejects_decreasing_trace_and_missing_rows(self, tmp_path):
        traces, summary = self._rows(tmp_path)
        sa = [r for r in traces if r["algorithm"] == "sa"]
        sa[-1]["best_sum_rate"] = repr(float(sa[-2]["best_sum_rate"]) - 0.1)
        assert self._check(traces, summary)
        assert self._check(traces[:-1], summary)
