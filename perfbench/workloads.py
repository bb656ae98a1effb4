"""The benchmark's workloads.

A workload turns the workload seed into instance files and spec files
(`prepare`) and returns its fixed list of operations.  Each operation is
one call into a public seisrate entry point; `run` is the timed call,
`collect` reads its answer back and `check` judges that answer with the
oracles in checks.py.  Everything but `run` happens outside the timed
region.

The seisrate modules are reached through their module objects at call
time (`experiments.run_experiment`, `cli.main`, ...), so the traced run
sees the calls once tracer.py has wrapped those names.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import checks
from seisrate import cli, experiments, model, search
from seisrate.rates import EvaluationMode

GP_POWER_W = 1e-3
NOISE_W = 1e-3
ALL_ALGORITHMS = ("es", "dpso", "ampso", "as", "mmas", "sa", "baseline")
METAHEURISTICS = ("dpso", "ampso", "as", "mmas", "sa")


@dataclass
class Op:
    """One operation: `run` is timed, the rest is not."""

    name: str
    run: Callable[[], Any]
    collect: Callable[[Any], Any]
    check: Callable[[Any], list]
    fingerprint: Callable[[Any], str]
    # filled by check: figures the runner reports besides pass/fail
    notes: dict = field(default_factory=dict)


def _seed(seed, *parts):
    """A 32-bit seed for one instance, derived from the workload seed."""
    return int(np.random.SeedSequence((seed, *parts)).generate_state(1)[0])


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cli_op(name, argv, check, notes=None):
    """An operation that runs `seisrate <argv>` in process; the JSON answer
    it prints is kept in memory, as a caller reading a pipe would."""
    def run():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(argv)
        return code, out.getvalue()

    def collect(result):
        code, text = result
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return text

    return Op(name, run, collect, lambda text: check(json.loads(text)), _digest,
              {} if notes is None else notes)


# ------------------------------------------------------------ stage1-campaign

# spec (a): the paper's small-network regime, with the exhaustive optimum
SPEC_A = {"algorithms": list(ALL_ALGORITHMS), "budgets": [[10, 600], [1, 60]],
          "scenario": 1, "num_gps": 8, "num_gws": 2}
# spec (b): heuristic adaptation on a larger network, ACO priors, no ES
SPEC_B = {"algorithms": [a for a in ALL_ALGORITHMS if a != "es"],
          "budgets": [[100, 40]], "scenario": 2, "num_gps": 40, "num_gws": 4,
          "aco_heuristic": "gw-average+gp-deactivation"}
CAMPAIGN_RUNS = (("a", 2), ("b", 1))   # (spec, one-replication runs per pass)


def _campaign_op(name, spec_doc, spec_path, outdir):
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec_doc, fh, indent=2)
    spec = experiments.ExperimentSpec.from_json(spec_path)
    notes = {}

    def collect(_):
        return ((outdir / "traces.csv").read_text(encoding="utf-8"),
                (outdir / "summary.csv").read_text(encoding="utf-8"))

    def check(texts):
        traces = list(csv.DictReader(texts[0].splitlines()))
        summary = list(csv.DictReader(texts[1].splitlines()))
        has_es = "es" in spec_doc["algorithms"]
        problems = checks.check_campaign(
            traces, summary, spec_doc["algorithms"],
            [tuple(b) for b in spec_doc["budgets"]], spec_doc["replications"],
            has_es)
        if has_es and not problems:
            notes["gaps_pct"] = checks.optimality_gaps(traces, METAHEURISTICS)
        return problems

    return Op(name, lambda: experiments.run_experiment(spec), collect, check,
              lambda texts: _digest("\n".join(texts)), notes)


def prepare_campaign(seed, workdir):
    ops = []
    for label, runs in CAMPAIGN_RUNS:
        for r in range(runs):
            outdir = workdir / f"campaign-{label}{r}"
            outdir.mkdir(parents=True)
            spec_doc = dict(SPEC_A if label == "a" else SPEC_B,
                            replications=1, master_seed=_seed(seed, 1, r, ord(label)),
                            output_dir=str(outdir))
            ops.append(_campaign_op(f"campaign-{label}{r}", spec_doc,
                                    workdir / f"spec-{label}{r}.json", outdir))
    return ops


# ---------------------------------------------------------- stage1-exhaustive

# (K, N, scenario) with K*N = 20..21: each search enumerates 2^20..2^21
# assignments.  An odd count of searches with distinct costs puts the
# median and the p90 inside one search's samples, not between two.
EXHAUSTIVE_CASES = ((10, 2, 1), (10, 2, 2), (7, 3, 2), (5, 4, 1), (5, 4, 2))


def _channel_file(workdir, name, num_gps, num_gws, seed):
    path = workdir / f"{name}.json"
    channel = model.generate_rayleigh(num_gps, num_gws, GP_POWER_W, NOISE_W, seed)
    model.save_instance(channel, path)
    return path


def prepare_exhaustive(seed, workdir):
    workdir.mkdir(parents=True)
    ops = []
    for k, n, scenario in EXHAUSTIVE_CASES:
        name = f"es-{k}x{n}-s{scenario}"
        channel = model.load_instance(
            _channel_file(workdir, name, k, n, _seed(seed, 2, k, n, scenario)))
        mode = EvaluationMode.scenario(scenario)

        def check(result, channel=channel, scenario=scenario, k=k, n=n):
            flags, value = result
            rng = np.random.default_rng(_seed(seed, 3, k, n, scenario))
            return checks.check_exhaustive(
                channel.gains, channel.gp_power, channel.noise_power,
                scenario == 2, flags, value, rng)

        ops.append(Op(
            name,
            lambda channel=channel, mode=mode: search.exhaustive_search(channel, mode),
            lambda result: (result[0].flags.copy(), result[1]),
            check,
            lambda result: _digest(result[0].tobytes().hex() + repr(result[1])),
        ))
    return ops


# ---------------------------------------------------------------- stage1-lp

# geophones, with 2 gateways; at K = 10..12 one rare 2^K-row LP decides
# the run time and memory, so figures varied by 30-190% between seeds
LP_SIZES = (6, 7, 8)
LP_CHANNELS = 6                        # channels per size and scenario
LP_ALGORITHMS = ("dpso", "as", "sa")
LP_BUDGET = (5, 10)


def prepare_lp(seed, workdir):
    workdir.mkdir(parents=True)
    ops = []
    for k in LP_SIZES:
        for scenario, c in [(s, c) for s in (1, 2) for c in range(LP_CHANNELS)]:
            path = _channel_file(workdir, f"ch-{k}-s{scenario}-{c}", k, 2,
                                 _seed(seed, 4, k, scenario, c))
            doc = _read_json(path)
            gains = np.array(doc["H"], dtype=float)
            for algo in LP_ALGORITHMS:
                name = f"lp-{k}x2-s{scenario}-{c}-{algo}"
                argv = ["stage1", "optimize", "--instance", str(path),
                        "--algo", algo, "--evaluator", "lp",
                        "--scenario", str(scenario),
                        "--particles", str(LP_BUDGET[0]), "--iters", str(LP_BUDGET[1]),
                        "--seed", str(_seed(seed, 5, k, scenario, c))]

                def check(answer, gains=gains, scenario=scenario):
                    return checks.check_stage1_doc(answer, gains, GP_POWER_W, NOISE_W,
                                                   scenario == 2, "lp")

                ops.append(_cli_op(name, argv, check))
    return ops


# ---------------------------------------------------------------- stage2-cli

MIN_TOTAL_SIZES = range(2, 11)
MIN_MAX_SIZES = range(2, 9)
WEIGHTED_SIZES = range(2, 21)
# The call mix sets where solve_ms_p50 and solve_ms_p90 fall.  Extra
# min-total calls (about 3 ms each, nearly all CLI and JSON work) make the
# median a small call; extra min-max calls at the paper's gateway count,
# N = 8, whose 2^N-row LP takes about 0.3 s, make up the slow tenth.
# Second instances of the costliest sizes average out their
# instance-to-instance cost.
MIN_TOTAL_PER_SIZE = 3
MIN_MAX_EXTRA_AT_8 = 9
WEIGHTED_EXTRA_SIZES = (14, 15, 16)
TOTAL_CAP_W = 1.0
FIXTURES = (("gateways_small_buffer.json", ("min-total", "min-max")),
            ("gateways_large_buffer.json", ("weighted",)))


def _stage2_check(problem, instance, notes):
    def check(answer):
        if problem == "min-total":
            return checks.check_min_total(instance, answer)
        if problem == "min-max":
            problems, notes["schedule_missed"] = checks.check_min_max(instance, answer)
            return problems
        return checks.check_weighted(instance, answer)
    return check


def _gateway_file(workdir, name, num_gws, seed):
    path = workdir / f"{name}.json"
    gateways = model.generate_gateways(num_gws, seed, noise_power=NOISE_W,
                                       total_power_cap=TOTAL_CAP_W)
    model.save_instance(gateways, path)
    return path


def prepare_stage2(seed, workdir):
    workdir.mkdir(parents=True)
    calls = []                         # (instance file, problem)
    for n in WEIGHTED_SIZES:
        path = _gateway_file(workdir, f"gw-{n}", n, _seed(seed, 6, n))
        calls += [(path, problem) for problem, sizes in (
            ("min-total", MIN_TOTAL_SIZES), ("min-max", MIN_MAX_SIZES),
            ("weighted", WEIGHTED_SIZES)) if n in sizes]
    for n in MIN_TOTAL_SIZES:
        for r in range(1, MIN_TOTAL_PER_SIZE):
            calls.append((_gateway_file(workdir, f"gw-{n}-{r}", n, _seed(seed, 8, n, r)),
                          "min-total"))
    for r in range(MIN_MAX_EXTRA_AT_8):
        calls.append((_gateway_file(workdir, f"gw-8-x{r}", 8, _seed(seed, 7, r)),
                      "min-max"))
    for n in WEIGHTED_EXTRA_SIZES:
        calls.append((_gateway_file(workdir, f"gw-{n}-x", n, _seed(seed, 9, n)),
                      "weighted"))
    for name, problems in FIXTURES:
        path = workdir / name
        path.write_text(model.fixture_path(name).read_text(encoding="utf-8"),
                        encoding="utf-8")
        calls += [(path, problem) for problem in problems]
    ops = []
    for path, problem in calls:
        notes = {}
        check = _stage2_check(problem, _read_json(path), notes)
        ops.append(_cli_op(f"{problem}-{path.stem}",
                           ["stage2", problem, "--instance", str(path)], check, notes))
    return ops


WORKLOADS = {
    "stage1-campaign": prepare_campaign,
    "stage1-exhaustive": prepare_exhaustive,
    "stage1-lp": prepare_lp,
    "stage2-cli": prepare_stage2,
}
