"""Multi-seed experiment campaigns: convergence traces, summary statistics
and gateway-sizing sweeps, emitted as CSV.

All randomness derives from a single master seed: the channel of
replication r uses SeedSequence((master, r)) and each (algorithm, budget,
replication) run uses SeedSequence((master, r, algo_index, budget_index)).
Campaigns are therefore exactly reproducible.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InstanceFormatError
from .model import ChannelMatrix, generate_rayleigh, load_instance
from .rates import ORDER_FIXED, EvaluationMode, evaluation_mode, search_space_size
from .search import (
    ALGORITHMS,
    EXHAUSTIVE_CAP,
    AcoParams,
    PsoParams,
    SearchBudget,
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

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        try:
            return cls(
                algorithms=tuple(doc["algorithms"]),
                budgets=tuple((int(m), int(i)) for m, i in doc["budgets"]),
                replications=int(doc.get("replications", 1)),
                master_seed=int(doc.get("master_seed", 0)),
                scenario=int(doc.get("scenario", 1)),
                evaluator=doc.get("evaluator", ORDER_FIXED),
                instance_path=doc.get("instance"),
                num_gps=doc.get("num_gps"),
                num_gws=doc.get("num_gws"),
                gp_power=doc.get("gp_power_mw", 1.0) / 1000.0,
                noise_power=doc.get("noise_power_mw", 1.0) / 1000.0,
                output_dir=doc.get("output_dir", "."),
                aco_heuristic=doc.get("aco_heuristic"),
            )
        except KeyError as exc:
            raise InstanceFormatError(f"experiment spec missing field {exc}")

    def mode(self):
        return evaluation_mode(self.evaluator, self.scenario)

    def aco_params(self):
        if self.aco_heuristic is None:
            return AcoParams(heuristic_mode=scenario_heuristic(self.scenario))
        return AcoParams(heuristic_mode=self.aco_heuristic)

    def channel_for(self, replication):
        if self.instance_path is not None:
            instance = load_instance(self.instance_path)
            if not isinstance(instance, ChannelMatrix):
                raise InstanceFormatError("stage-1 experiments need a channel instance")
            return instance
        return generate_rayleigh(
            self.num_gps, self.num_gws, self.gp_power, self.noise_power,
            _seed_from((self.master_seed, replication)),
        )


def run_experiment(spec, write_traces=True):
    """Execute the campaign; returns summary rows and writes CSV files.

    Exhaustive search runs once per replication, when `es` is requested or
    the search space fits its cap; a requested `es` over the cap raises
    CapacityLimitError before any search runs.  Its optimum gives the `es`
    rows and the mean-squared error column, which compares each
    algorithm's final value with it and is empty when ES did not run.
    """
    outdir = Path(spec.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    mode = spec.mode()
    aco = spec.aco_params()
    pso = PsoParams()

    channels = [spec.channel_for(r) for r in range(spec.replications)]
    es_values = None
    if "es" in spec.algorithms or search_space_size(
            channels[0].num_gps, channels[0].num_gws) <= EXHAUSTIVE_CAP:
        es_values = np.array([exhaustive_search(ch, mode)[1] for ch in channels])

    trace_rows = []
    summary_rows = []
    for ai, algo in enumerate(spec.algorithms):
        for bi, (m, i) in enumerate(spec.budgets):
            finals = np.empty(spec.replications)
            for r in range(spec.replications):
                if algo == "es":
                    history = np.full(i, es_values[r])
                else:
                    budget = SearchBudget(m, i, seed=_seed_from(
                        (spec.master_seed, r, ai, bi)))
                    history = run_algorithm(algo, channels[r], budget, mode,
                                            pso_params=pso,
                                            aco_params=aco).best_per_iteration
                finals[r] = history[-1]
                for it, val in enumerate(history):
                    trace_rows.append([algo, m, i, r, it, repr(float(val))])
            mse = ""
            if es_values is not None:
                mse = repr(float(np.mean((finals - es_values) ** 2)))
            summary_rows.append([
                algo, m, i, spec.replications,
                repr(float(finals.mean())), repr(float(finals.std())), mse,
            ])

    if write_traces:
        _write_csv(outdir / "traces.csv", TRACE_HEADER, trace_rows)
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
        if not self.gp_counts or not self.gw_counts:
            raise ValueError("gp_counts and gw_counts must be nonempty")
        if min(self.gp_counts) < 1 or min(self.gw_counts) < 1:
            raise ValueError("counts must be positive")
        if self.required_kbps <= 0 or self.bandwidth_khz <= 0:
            raise ValueError("required_kbps and bandwidth_khz must be positive")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        try:
            return cls(
                gp_counts=tuple(doc["gp_counts"]),
                gw_counts=tuple(doc["gw_counts"]),
                algorithm=doc.get("algorithm", "as"),
                budget=tuple(doc.get("budget", (30, 30))),
                replications=int(doc.get("replications", 10)),
                master_seed=int(doc.get("master_seed", 0)),
                scenario=int(doc.get("scenario", 1)),
                required_kbps=float(doc.get("required_kbps", 144.0)),
                bandwidth_khz=float(doc.get("bandwidth_khz", 200.0)),
                gp_power=doc.get("gp_power_mw", 1.0) / 1000.0,
                noise_power=doc.get("noise_power_mw", 1.0) / 1000.0,
                output_dir=doc.get("output_dir", "."),
            )
        except KeyError as exc:
            raise InstanceFormatError(f"sizing spec missing field {exc}")


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
