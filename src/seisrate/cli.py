"""Command-line front end.

Subcommands:
  gen                generate a random instance file
  stage1 optimize    run one decoding-assignment search on a channel
  stage2 min-total | min-max | weighted
  experiment run     multi-seed campaign from a JSON spec
  experiment gw-sizing

Exit codes: 0 success, 2 invalid input, 3 infeasible, 4 capacity exceeded.
A reader that closes stdout early (`| head`) is not an error: exit 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .delivery import (
    max_weighted_sum,
    min_max_power,
    min_total_power_closed_form,
    time_share_decompose,
    weights_from_queues,
)
from .errors import (
    CapacityLimitError,
    DecompositionError,
    InfeasibleProblemError,
    InstanceFormatError,
)
from .experiments import ExperimentSpec, GwSizingSpec, run_experiment, run_gw_sizing
from .model import (
    ChannelMatrix,
    GatewayState,
    MW_PER_W,
    generate_gateways,
    generate_rayleigh,
    load_instance,
    save_instance,
)
from .rates import evaluation_mode
from .search import ALGORITHMS, HEURISTICS, AcoParams, SearchBudget, run_algorithm

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_CAPACITY = 4


def _emit(doc, out_path):
    text = json.dumps(doc, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_gen(args):
    if args.kind == "channel":
        instance = generate_rayleigh(
            args.gps, args.gws, args.p_mw / MW_PER_W, args.n0_mw / MW_PER_W,
            args.seed, scale=args.rayleigh_scale,
        )
    else:
        instance = generate_gateways(
            args.gws, args.seed,
            q_low=args.q_low, q_high=args.q_high,
            noise_power=args.n0_mw / MW_PER_W,
            per_gw_power_cap=None if args.pmax_mw is None else args.pmax_mw / MW_PER_W,
            total_power_cap=(None if args.ptotal_max_mw is None
                             else args.ptotal_max_mw / MW_PER_W),
            scale=args.rayleigh_scale,
        )
    save_instance(instance, args.out)
    return EXIT_OK


def _cmd_stage1(args):
    instance = load_instance(args.instance)
    if not isinstance(instance, ChannelMatrix):
        raise InstanceFormatError("stage1 needs a channel instance")
    mode = evaluation_mode(args.evaluator, args.scenario)
    budget = SearchBudget(args.particles, args.iters,
                          sa_max_temperature=args.sa_tmax, seed=args.seed)
    aco = AcoParams(heuristic_mode=args.aco_heuristic,
                    evaporation=args.evaporation)
    trace = run_algorithm(args.algo, instance, budget, mode, aco_params=aco)
    doc = {
        "algorithm": args.algo,
        "evaluator": args.evaluator,
        "scenario": args.scenario,
        "best_sum_rate": trace.best_sum_rate,
        "assignment": trace.best_assignment.flags.tolist(),
        "evaluations": trace.evaluations,
        "trace": [float(v) for v in trace.best_per_iteration],
    }
    _emit(doc, args.out)
    return EXIT_OK


def _stage2_instance(args):
    instance = load_instance(args.instance)
    if not isinstance(instance, GatewayState):
        raise InstanceFormatError("stage2 needs a gateways instance")
    return instance


def _milliwatts(*watts):
    """The powers in mW, as floats; CapacityLimitError when one of them
    does not fit in a float, which JSON could not carry."""
    mw = [float(w) * MW_PER_W for w in watts]
    if not all(map(math.isfinite, mw)):
        raise CapacityLimitError("a power in mW does not fit in a float")
    return mw


def _cmd_stage2_min_total(args):
    gw = _stage2_instance(args)
    allocation, order = min_total_power_closed_form(gw)
    *powers_mw, total_mw = _milliwatts(*allocation.powers, allocation.total)
    _emit({
        "problem": "min-total",
        "powers_mW": powers_mw,
        "total_mW": total_mw,
        "order": [i + 1 for i in order],
    }, args.out)
    return EXIT_OK


def _cmd_stage2_min_max(args):
    gw = _stage2_instance(args)
    allocation, peak = min_max_power(gw)
    *powers_mw, total_mw, peak_mw = _milliwatts(*allocation.powers,
                                                allocation.total, peak)
    schedule = time_share_decompose(gw, allocation)
    _emit({
        "problem": "min-max",
        "powers_mW": powers_mw,
        "total_mW": total_mw,
        "peak_mW": peak_mw,
        "schedule": [
            {"order": [i + 1 for i in order], "fraction": lam}
            for order, lam in schedule.entries
        ],
    }, args.out)
    return EXIT_OK


def _cmd_stage2_weighted(args):
    gw = _stage2_instance(args)
    if args.weights:
        with open(args.weights, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        try:
            weights = np.array(doc, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InstanceFormatError(
                f"{args.weights}: weights must be a JSON list of numbers") from exc
    else:
        weights = weights_from_queues(gw.queue_rates)
    cap = gw.total_power_cap
    if args.total_cap_mw is not None:
        cap = args.total_cap_mw / MW_PER_W
    solution = max_weighted_sum(gw, weights, cap)
    *powers_mw, total_mw = _milliwatts(*solution.powers.powers, solution.powers.total)
    _emit({
        "problem": "weighted",
        "powers_mW": powers_mw,
        "total_mW": total_mw,
        "order": [i + 1 for i in solution.decoding_order],
        "off_set": sorted(i + 1 for i in solution.off_set),
        "rates": solution.rates.tolist(),
        "weights": solution.weights.tolist(),
        "objective": solution.objective,
    }, args.out)
    return EXIT_OK


def _cmd_experiment_run(args):
    spec = ExperimentSpec.from_json(args.spec)
    run_experiment(spec)
    return EXIT_OK


def _cmd_experiment_sizing(args):
    spec = GwSizingSpec.from_json(args.spec)
    run_gw_sizing(spec)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="seisrate",
        description="Two-stage sum-rate and power allocation optimizer "
                    "for wireless sensor acquisition networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument("--kind", choices=("channel", "gateways"), default="channel")
    gen.add_argument("--gps", type=int, default=8)
    gen.add_argument("--gws", type=int, default=2)
    gen.add_argument("--p-mw", type=float, default=1.0)
    gen.add_argument("--n0-mw", type=float, default=1.0)
    gen.add_argument("--q-low", type=float, default=0.5)
    gen.add_argument("--q-high", type=float, default=1.5)
    gen.add_argument("--pmax-mw", type=float, default=None)
    gen.add_argument("--ptotal-max-mw", type=float, default=None)
    gen.add_argument("--rayleigh-scale", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    stage1 = sub.add_parser("stage1", help="geophone decoding optimization")
    s1sub = stage1.add_subparsers(dest="stage1_command", required=True)
    opt = s1sub.add_parser("optimize")
    opt.add_argument("--instance", required=True)
    opt.add_argument("--algo", required=True, choices=tuple(ALGORITHMS))
    opt.add_argument("--evaluator", choices=("fixed-order", "lp"),
                     default="fixed-order")
    opt.add_argument("--scenario", type=int, choices=(1, 2), default=1)
    opt.add_argument("--particles", "-M", type=int, default=30)
    opt.add_argument("--iters", "-I", type=int, default=30)
    opt.add_argument("--sa-tmax", type=float, default=None)
    opt.add_argument("--aco-heuristic", default="gw-average",
                     choices=HEURISTICS)
    opt.add_argument("--evaporation", type=float, default=0.1)
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--out", default=None)
    opt.set_defaults(func=_cmd_stage1)

    stage2 = sub.add_parser("stage2", help="gateway-to-data-center delivery")
    s2sub = stage2.add_subparsers(dest="stage2_command", required=True)
    for name, func, extra_weighted in (
        ("min-total", _cmd_stage2_min_total, False),
        ("min-max", _cmd_stage2_min_max, False),
        ("weighted", _cmd_stage2_weighted, True),
    ):
        p = s2sub.add_parser(name)
        p.add_argument("--instance", required=True)
        p.add_argument("--out", default=None)
        if extra_weighted:
            p.add_argument("--weights", default=None,
                           help="JSON file with a weight vector")
            p.add_argument("--total-cap-mw", type=float, default=None)
        p.set_defaults(func=func)

    experiment = sub.add_parser("experiment", help="multi-seed campaigns")
    esub = experiment.add_subparsers(dest="experiment_command", required=True)
    run = esub.add_parser("run")
    run.add_argument("spec")
    run.set_defaults(func=_cmd_experiment_run)
    sizing = esub.add_parser("gw-sizing")
    sizing.add_argument("spec")
    sizing.set_defaults(func=_cmd_experiment_sizing)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceFormatError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (InfeasibleProblemError, DecompositionError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except CapacityLimitError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


def cli_entry():
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; devnull on fd 1 keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_OK
    raise SystemExit(status)


if __name__ == "__main__":
    cli_entry()
