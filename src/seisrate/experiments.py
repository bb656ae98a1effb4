"""Multi-seed experiment campaigns: convergence traces, summary statistics
and gateway-sizing sweeps, emitted as CSV.

All randomness derives from a single master seed: the channel of
replication r uses SeedSequence((master, r)) and each (algorithm, budget,
replication) run uses SeedSequence((master, r, algo_index, budget_index)).
Campaigns are therefore exactly reproducible.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CapacityLimitError, InstanceFormatError
from .model import (ChannelMatrix, _integer, _list_of, _number, _read_field,
                    _string, generate_rayleigh, load_instance)
from .rates import ORDER_FIXED, EvaluationMode, evaluation_mode
from .search import (
    ALGORITHMS,
    AcoParams,
    PsoParams,
    SearchBudget,
    exhaustive_refusal,
    exhaustive_search,
    run_algorithm,
    scenario_heuristic,
)

TRACE_HEADER = ["algorithm", "budget_m", "budget_i", "replication",
                "iteration", "best_sum_rate"]
SUMMARY_HEADER = ["algorithm", "budget_m", "budget_i", "replications",
                  "mean_final", "std_final", "mse_vs_es"]
SIZING_HEADER = ["algorithm", "num_gws", "num_gps", "replications",
                 "mean_sum_rate", "mean_gp_rate_kbps", "bandwidth_khz"]


def _seed_from(parts):
    return int(np.random.SeedSequence(tuple(parts)).generate_state(1)[0])


def _positive(value):
    if not value > 0:
        raise ValueError("must be positive")


def _check_field(key, validate, *args):
    """validate(*args), its ValueError re-raised naming the spec field."""
    try:
        validate(*args)
    except ValueError as exc:
        raise ValueError(f"spec field {key!r}: {exc}") from None


def _check_run_values(spec, budget_key, budgets):
    """The budgets, seed and powers both specs need before any output."""
    for m, i in budgets:
        _check_field(budget_key, SearchBudget, m, i)
    _check_field("master_seed", _seed_from, (spec.master_seed,))
    _check_field("gp_power_mw", _positive, spec.gp_power)
    _check_field("noise_power_mw", _positive, spec.noise_power)


def _read_spec(path, kind, keys):
    """Reader for a JSON spec document: a key outside `keys` is an error,
    not ignored.  The returned field(key, convert, default) reads one key
    as model._read_field does, naming the key in every error."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{path}: top level must be an object")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise InstanceFormatError(
            f"{kind} spec has unknown field(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(keys)}")

    return functools.partial(_read_field, f"{kind} spec", doc)


def _budget(value):
    """An [M, I] pair of integers."""
    pair = _list_of(_integer)(value)
    if len(pair) != 2:
        raise ValueError(f"expected an [M, I] pair, got {json.dumps(value)}")
    return pair


@dataclass(frozen=True)
class ExperimentSpec:
    """Stage-1 campaign description (see README for the JSON layout)."""

    algorithms: tuple
    budgets: tuple                      # (M, I) pairs
    replications: int = 1
    master_seed: int = 0
    scenario: int = 1
    evaluator: str = ORDER_FIXED
    instance_path: str | None = None
    num_gps: int | None = None
    num_gws: int | None = None
    gp_power: float = 1e-3
    noise_power: float = 1e-3
    output_dir: str = "."
    aco_heuristic: str | None = None    # default: adapted per scenario

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}")
        self.mode()   # rejects an unknown evaluator or scenario
        if self.instance_path is None and (self.num_gps is None or self.num_gws is None):
            raise ValueError("either instance_path or num_gps/num_gws is required")
        _check_field("aco_heuristic", self.aco_params)
        _check_run_values(self, "budgets", self.budgets)
        for key in ("num_gps", "num_gws"):
            if getattr(self, key) is not None:
                _check_field(key, _positive, getattr(self, key))

    KEYS = ("algorithms", "budgets", "replications", "master_seed", "scenario",
            "evaluator", "instance", "num_gps", "num_gws", "gp_power_mw",
            "noise_power_mw", "output_dir", "aco_heuristic")

    @classmethod
    def from_json(cls, path):
        field = _read_spec(path, "experiment", cls.KEYS)
        return cls(
            algorithms=field("algorithms", _list_of(_string)),
            budgets=field("budgets", _list_of(_budget)),
            replications=field("replications", _integer, 1),
            master_seed=field("master_seed", _integer, 0),
            scenario=field("scenario", _integer, 1),
            evaluator=field("evaluator", _string, ORDER_FIXED),
            instance_path=field("instance", _string, None),
            num_gps=field("num_gps", _integer, None),
            num_gws=field("num_gws", _integer, None),
            gp_power=field("gp_power_mw", _number, 1.0) / 1000.0,
            noise_power=field("noise_power_mw", _number, 1.0) / 1000.0,
            output_dir=field("output_dir", _string, "."),
            aco_heuristic=field("aco_heuristic", _string, None),
        )

    def mode(self):
        return evaluation_mode(self.evaluator, self.scenario)

    def aco_params(self):
        if self.aco_heuristic is None:
            return AcoParams(heuristic_mode=scenario_heuristic(self.scenario))
        return AcoParams(heuristic_mode=self.aco_heuristic)

    def channel_for(self, replication):
        if self.instance_path is not None:
            try:
                instance = load_instance(self.instance_path)
            except (OSError, InstanceFormatError) as exc:
                raise InstanceFormatError(f"spec field 'instance': {exc}") from None
            if not isinstance(instance, ChannelMatrix):
                raise InstanceFormatError(
                    "spec field 'instance': stage-1 experiments need a channel instance")
            return instance
        return generate_rayleigh(
            self.num_gps, self.num_gws, self.gp_power, self.noise_power,
            _seed_from((self.master_seed, replication)),
        )


def run_experiment(spec, write_traces=True):
    """Execute the campaign; returns summary rows and writes CSV files.

    Exhaustive search runs once per distinct channel (once per replication,
    or once for an instance file), when the search space fits its cap; a
    requested `es` over the cap raises CapacityLimitError before any
    search runs or output_dir is created.  Its optimum gives the `es`
    rows and the mean-squared error column, which compares each
    algorithm's final value with it and is empty when ES did not run.
    When ES keeps every assignment's value (ExhaustiveResult.values), the
    metaheuristics on that channel look their values up.  Replications
    run one after another, so at most one channel's values are held.
    """
    mode = spec.mode()
    aco = spec.aco_params()
    pso = PsoParams()

    # an instance campaign replicates one channel: load and search it once
    distinct = ([spec.channel_for(0)] if spec.instance_path is not None
                else [spec.channel_for(r) for r in range(spec.replications)])
    refusal = exhaustive_refusal(distinct[0], mode)
    if refusal and "es" in spec.algorithms:
        raise CapacityLimitError(refusal)
    outdir = Path(spec.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    run_es = refusal is None
    optima = np.empty(spec.replications) if run_es else None

    histories = {}          # (algorithm, budget, replication) indices -> trace
    es = None
    for r in range(spec.replications):
        channel = distinct[r % len(distinct)]
        if run_es:
            if r < len(distinct):
                es = None           # the last channel's values go first
                es = exhaustive_search(channel, mode)
            optima[r] = es[1]
        for ai, algo in enumerate(spec.algorithms):
            for bi, (m, i) in enumerate(spec.budgets):
                if algo == "es":
                    history = np.full(i, optima[r])
                else:
                    budget = SearchBudget(m, i, seed=_seed_from(
                        (spec.master_seed, r, ai, bi)))
                    history = run_algorithm(
                        algo, channel, budget, mode, pso_params=pso,
                        aco_params=aco, es_values=None if es is None else es.values,
                    ).best_per_iteration
                histories[ai, bi, r] = history

    summary_rows = []
    for ai, algo in enumerate(spec.algorithms):
        for bi, (m, i) in enumerate(spec.budgets):
            finals = np.array([histories[ai, bi, r][-1]
                               for r in range(spec.replications)])
            mse = ""
            if optima is not None:
                mse = repr(float(np.mean((finals - optima) ** 2)))
            summary_rows.append([
                algo, m, i, spec.replications,
                repr(float(finals.mean())), repr(float(finals.std())), mse,
            ])

    if write_traces:
        _write_csv(outdir / "traces.csv", TRACE_HEADER, (
            [algo, m, i, r, it, repr(float(val))]
            for ai, algo in enumerate(spec.algorithms)
            for bi, (m, i) in enumerate(spec.budgets)
            for r in range(spec.replications)
            for it, val in enumerate(histories[ai, bi, r])))
    _write_csv(outdir / "summary.csv", SUMMARY_HEADER, summary_rows)
    return summary_rows


@dataclass(frozen=True)
class GwSizingSpec:
    """Sweep of geophone counts against gateway counts.

    Rates convert from bps/Hz to kbps through the configured bandwidth;
    a deployment cell "supports" its geophones when the average per-GP
    rate stays at or above the required kbps.
    """

    gp_counts: tuple
    gw_counts: tuple
    algorithm: str = "as"
    budget: tuple = (30, 30)
    replications: int = 10
    master_seed: int = 0
    scenario: int = 1
    required_kbps: float = 144.0
    bandwidth_khz: float = 200.0
    gp_power: float = 1e-3
    noise_power: float = 1e-3
    output_dir: str = "."

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not self.gp_counts or not self.gw_counts:
            raise ValueError("gp_counts and gw_counts must be nonempty")
        if min(self.gp_counts) < 1 or min(self.gw_counts) < 1:
            raise ValueError("counts must be positive")
        if self.required_kbps <= 0 or self.bandwidth_khz <= 0:
            raise ValueError("required_kbps and bandwidth_khz must be positive")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        _check_field("scenario", EvaluationMode.scenario, self.scenario)
        _check_run_values(self, "budget", [self.budget])

    KEYS = ("gp_counts", "gw_counts", "algorithm", "budget", "replications",
            "master_seed", "scenario", "required_kbps", "bandwidth_khz",
            "gp_power_mw", "noise_power_mw", "output_dir")

    @classmethod
    def from_json(cls, path):
        field = _read_spec(path, "sizing", cls.KEYS)
        return cls(
            gp_counts=field("gp_counts", _list_of(_integer)),
            gw_counts=field("gw_counts", _list_of(_integer)),
            algorithm=field("algorithm", _string, "as"),
            budget=field("budget", _budget, (30, 30)),
            replications=field("replications", _integer, 10),
            master_seed=field("master_seed", _integer, 0),
            scenario=field("scenario", _integer, 1),
            required_kbps=float(field("required_kbps", _number, 144.0)),
            bandwidth_khz=float(field("bandwidth_khz", _number, 200.0)),
            gp_power=field("gp_power_mw", _number, 1.0) / 1000.0,
            noise_power=field("noise_power_mw", _number, 1.0) / 1000.0,
            output_dir=field("output_dir", _string, "."),
        )


def run_gw_sizing(spec):
    """Run the sweep; returns (rows, supported) where supported maps each
    gateway count to the largest geophone count meeting the threshold."""
    outdir = Path(spec.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    mode = EvaluationMode.scenario(spec.scenario)
    aco = AcoParams(heuristic_mode=scenario_heuristic(spec.scenario))
    m, i = spec.budget
    rows = []
    supported = {}
    for n in spec.gw_counts:
        supported[n] = None
        for k in spec.gp_counts:
            sums = np.empty(spec.replications)
            for r in range(spec.replications):
                channel = generate_rayleigh(
                    k, n, spec.gp_power, spec.noise_power,
                    _seed_from((spec.master_seed, n, k, r)),
                )
                budget = SearchBudget(m, i, seed=_seed_from(
                    (spec.master_seed, n, k, r, 1)))
                trace = run_algorithm(spec.algorithm, channel, budget, mode,
                                      aco_params=aco)
                sums[r] = trace.best_sum_rate
            mean_sum = float(sums.mean())
            gp_rate_kbps = mean_sum / k * spec.bandwidth_khz
            rows.append([spec.algorithm, n, k, spec.replications,
                         repr(mean_sum), repr(gp_rate_kbps),
                         repr(spec.bandwidth_khz)])
            if gp_rate_kbps >= spec.required_kbps:
                supported[n] = max(supported[n] or 0, k)
    _write_csv(outdir / "gw_sizing.csv", SIZING_HEADER, rows)
    with open(outdir / "gw_sizing_supported.json", "w", encoding="utf-8") as fh:
        json.dump({"required_kbps": spec.required_kbps,
                   "bandwidth_khz": spec.bandwidth_khz,
                   "max_supported_gps": {str(n): supported[n] for n in supported}},
                  fh, indent=2)
        fh.write("\n")
    return rows, supported


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
