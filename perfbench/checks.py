"""Output checks for the benchmark, built on oracles that share no code
with seisrate.

Every checker returns a list of problems (empty when the answer passes).
The oracles re-derive each answer from the instance alone: the SIC rate
formulas are written out again here, and the LPs and the weighted-sum
problem are solved with scipy.  scipy is imported lazily, so that it is
never loaded while a timed region runs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

MW_PER_W = 1000.0

# relative tolerances, chosen so that a power off by 1e-6 relative fails
POWER_RTOL = 1e-9
OPTIMUM_RTOL = 1e-9
RATE_ATOL = 1e-9
# SLSQP may stop short of the optimum, so seisrate's weighted objective
# must not fall below it by more than this, and may exceed it
WEIGHTED_RTOL = 1e-9


# ---------------------------------------------------------------- stage 1

def fixed_order_sums(gains, p, n0, flags, silent):
    """Sum-rates of a (B, K, N) batch of assignments under descending-gain
    SIC, written as dense interference matrices.

    A geophone's rate is its smallest SIC bound over the gateways that
    decode it; undecoded geophones interfere at every gateway unless
    `silent` holds and no gateway decodes them.
    """
    flags = np.asarray(flags, dtype=bool)
    b, k, n = flags.shape
    h2 = np.asarray(gains, dtype=float) ** 2
    transmitting = flags.any(axis=2) if silent else np.ones((b, k), dtype=bool)
    bound = np.full((b, k), np.inf)
    for i in range(n):
        rank = np.empty(k, dtype=int)
        rank[np.argsort(-gains[:, i], kind="stable")] = np.arange(k)
        # after[j, m]: m is decoded after j at gateway i, so it interferes
        after = (rank[None, :] > rank[:, None]) * h2[None, :, i]
        dec = flags[:, :, i]
        inter = p * (dec @ after.T) + p * ((~dec & transmitting) @ h2[:, i])[:, None]
        with np.errstate(divide="ignore"):
            r = np.log2(1.0 + p * h2[:, i][None, :] / (n0 + inter))
        bound = np.minimum(bound, np.where(dec, r, np.inf))
    return np.where(np.isfinite(bound), bound, 0.0).sum(axis=1)


def lp_sum_rate(gains, p, n0, flags, silent):
    """Exact sum-rate of one assignment: maximise the geophone rates over
    every subset constraint of every gateway's decoded set (scipy HiGHS)."""
    from scipy.optimize import linprog

    flags = np.asarray(flags, dtype=bool)
    k, n = flags.shape
    h2 = np.asarray(gains, dtype=float) ** 2
    decoded_any = flags.any(axis=1)
    transmitting = decoded_any if silent else np.ones(k, dtype=bool)
    rows, rhs = [], []
    for i in range(n):
        decoded = np.flatnonzero(flags[:, i])
        noise = n0 + p * h2[~flags[:, i] & transmitting, i].sum()
        for r in range(1, decoded.size + 1):
            for subset in itertools.combinations(decoded.tolist(), r):
                row = np.zeros(k)
                row[list(subset)] = 1.0
                rows.append(row)
                rhs.append(math.log2(1.0 + p * h2[list(subset), i].sum() / noise))
    if not rows:
        return 0.0
    bounds = [(0, None) if decoded_any[j] else (0, 0) for j in range(k)]
    res = linprog(-np.ones(k), A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"linprog failed: {res.message}")
    return -res.fun


def _close(a, b, rtol, atol=0.0):
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def check_trace(values, label):
    """A best-so-far trace never decreases."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return [f"{label}: empty trace"]
    if np.any(np.diff(values) < 0):
        return [f"{label}: best-so-far trace decreases"]
    return []


def check_exhaustive(gains, p, n0, silent, flags, value, rng, samples=4096):
    """The returned assignment re-evaluates to the returned value, which
    is no lower than decode-all or any of `samples` random assignments."""
    problems = []
    flags = np.asarray(flags, dtype=bool)
    again = fixed_order_sums(gains, p, n0, flags[None], silent)[0]
    if not _close(again, value, 1e-12, 1e-12):
        problems.append(f"assignment re-evaluates to {again!r}, not {value!r}")
    k, n = flags.shape
    every = fixed_order_sums(gains, p, n0, np.ones((1, k, n), dtype=bool), silent)[0]
    if every > value * (1 + 1e-12) + 1e-12:
        problems.append(f"decode-all reaches {every!r} > exhaustive {value!r}")
    sample = rng.random((samples, k, n)) < 0.5
    top = float(fixed_order_sums(gains, p, n0, sample, silent).max())
    if top > value * (1 + 1e-12) + 1e-12:
        problems.append(f"a random assignment reaches {top!r} > exhaustive {value!r}")
    return problems


def check_stage1_doc(doc, gains, p, n0, silent, evaluator):
    """A `stage1 optimize` answer: consistent trace, and for the LP
    evaluator a best value equal to the scipy LP on the enumerated rows."""
    problems = check_trace(doc["trace"], doc["algorithm"])
    best = doc["best_sum_rate"]
    if doc["trace"] and doc["trace"][-1] != best:
        problems.append("best_sum_rate differs from the last trace value")
    flags = np.array(doc["assignment"], dtype=bool)
    if evaluator == "lp":
        ref = lp_sum_rate(gains, p, n0, flags, silent)
        if not _close(best, ref, OPTIMUM_RTOL, 1e-12):
            problems.append(f"best_sum_rate {best!r} != linprog {ref!r}")
    else:
        ref = fixed_order_sums(gains, p, n0, flags[None], silent)[0]
        if not _close(best, ref, 1e-12, 1e-12):
            problems.append(f"best_sum_rate {best!r} != re-evaluation {ref!r}")
    return problems


def check_campaign(trace_rows, summary_rows, algorithms, budgets, replications,
                   has_es):
    """Campaign CSVs: row counts, non-decreasing traces, and no run ending
    above the exhaustive optimum of its replication."""
    problems = []
    want_traces = len(algorithms) * sum(i for _, i in budgets) * replications
    if len(trace_rows) != want_traces:
        problems.append(f"traces.csv has {len(trace_rows)} rows, expected {want_traces}")
    if len(summary_rows) != len(algorithms) * len(budgets):
        problems.append(f"summary.csv has {len(summary_rows)} rows, "
                        f"expected {len(algorithms) * len(budgets)}")
    runs = {}
    for row in trace_rows:
        key = (row["algorithm"], int(row["budget_m"]), int(row["budget_i"]),
               int(row["replication"]))
        runs.setdefault(key, []).append((int(row["iteration"]),
                                         float(row["best_sum_rate"])))
    finals = {}
    for key, points in runs.items():
        points.sort()
        problems += check_trace([v for _, v in points], "/".join(map(str, key)))
        finals[key] = points[-1][1]
    if has_es:
        es = {key[1:]: v for key, v in finals.items() if key[0] == "es"}
        for key, v in finals.items():
            ref = es.get(key[1:])
            if ref is None:
                problems.append(f"no exhaustive optimum for {key}")
            elif v > ref * (1 + 1e-12) + 1e-12:
                problems.append(f"{key} ends at {v!r}, above the exhaustive {ref!r}")
    return problems


def optimality_gaps(trace_rows, metaheuristics):
    """(ES - final)/ES of every metaheuristic run, in percent."""
    finals, es = {}, {}
    for row in trace_rows:
        key = (row["algorithm"], row["budget_m"], row["budget_i"], row["replication"])
        finals[key] = float(row["best_sum_rate"])  # rows are in iteration order
        if row["algorithm"] == "es":
            es[key[1:]] = float(row["best_sum_rate"])
    return [100.0 * (es[key[1:]] - v) / es[key[1:]]
            for key, v in finals.items() if key[0] in metaheuristics]


# ---------------------------------------------------------------- stage 2

def subset_rows(q, g, n0):
    """Every subset S of the gateways with queued data: rows a and rhs b of
    sum_{i in S} P_i g_i^2 >= N0 (2^Q(S) - 1)."""
    members = [i for i in range(len(q)) if q[i] > 0]
    rows, rhs = [], []
    for r in range(1, len(members) + 1):
        for subset in itertools.combinations(members, r):
            row = np.zeros(len(q))
            row[list(subset)] = g[list(subset)] ** 2
            rows.append(row)
            rhs.append(n0 * (2.0 ** sum(q[list(subset)]) - 1.0))
    return np.array(rows), np.array(rhs)


def check_deliverable(q, g, n0, powers):
    """Powers are nonnegative and meet every subset constraint."""
    if np.any(powers < 0):
        return ["negative power"]
    a, b = subset_rows(q, g, n0)
    short = b - a @ powers
    worst = int(np.argmax(short / b))
    if short[worst] > POWER_RTOL * b[worst]:
        return [f"subset constraint {worst} missed by {short[worst] / b[worst]:.3g} relative"]
    return []


def min_total_reference(q, g, n0, cap):
    from scipy.optimize import linprog

    a, b = subset_rows(q, g, n0)
    res = linprog(np.ones(len(q)), A_ub=-a, b_ub=-b, bounds=[(0, cap)] * len(q),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"linprog failed: {res.message}")
    return res.fun


def min_max_reference(q, g, n0, cap):
    """Smallest peak power that delivers Q: min t over (P, t) with P_i <= t."""
    from scipy.optimize import linprog

    a, b = subset_rows(q, g, n0)
    n = len(q)
    a_ub = np.vstack([np.hstack([-a, np.zeros((len(b), 1))]),
                      np.hstack([np.eye(n), -np.ones((n, 1))])])
    b_ub = np.concatenate([-b, np.zeros(n)])
    c = np.zeros(n + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * n + [(0, cap)],
                  method="highs")
    if not res.success:
        raise RuntimeError(f"linprog failed: {res.message}")
    return res.fun


def sic_rates(g, n0, powers, order):
    """Rates at one decoding order: the k-th decoded gateway sees every
    gateway decoded after it as interference."""
    rates = np.zeros(len(g))
    received = powers * g ** 2
    for k, i in enumerate(order):
        rest = sum(received[j] for j in order[k + 1:])
        rates[i] = math.log2(1.0 + received[i] / (n0 + rest))
    return rates


def check_schedule(q, g, n0, powers, schedule):
    """Fractions >= 0 that sum to one and mix corner rates into Q."""
    problems = []
    n = len(q)
    fractions = np.array([entry["fraction"] for entry in schedule])
    if np.any(fractions < -1e-12):
        problems.append("negative time fraction")
    if abs(fractions.sum() - 1.0) > 1e-9:
        problems.append(f"time fractions sum to {fractions.sum()!r}")
    mixed = np.zeros(n)
    for entry in schedule:
        order = [i - 1 for i in entry["order"]]
        if sorted(order) != list(range(n)):
            problems.append(f"order {entry['order']} is not a permutation")
            return problems
        mixed += entry["fraction"] * sic_rates(g, n0, powers, order)
    miss = float(np.max(np.abs(mixed - q)))
    if miss > 1e-8:
        problems.append(f"schedule misses Q by {miss:.3g}")
    return problems


def _watts(doc, name):
    """A power field of an instance file, in watts (None when absent)."""
    if doc.get(name + "_W") is not None:
        return doc[name + "_W"]
    mw = doc.get(name + "_mW")
    return None if mw is None else mw / MW_PER_W


def _gateway_arrays(gw):
    return (np.array(gw["Q"], dtype=float), np.array(gw["G"], dtype=float),
            _watts(gw, "N0"), _watts(gw, "Pmax"), _watts(gw, "Ptotal_max"))


def check_min_total(gw, doc):
    q, g, n0, cap, _ = _gateway_arrays(gw)
    powers = np.array(doc["powers_mW"]) / MW_PER_W
    problems = check_deliverable(q, g, n0, powers)
    total = float(powers.sum())
    ref = min_total_reference(q, g, n0, cap)
    if not _close(total, ref, OPTIMUM_RTOL):
        problems.append(f"total {total!r} W != linprog {ref!r} W")
    if not _close(doc["total_mW"], total * MW_PER_W, 1e-12):
        problems.append("total_mW is not the sum of powers_mW")
    return problems


def check_min_max(gw, doc):
    """Returns (problems, schedule_missed)."""
    q, g, n0, cap, _ = _gateway_arrays(gw)
    powers = np.array(doc["powers_mW"]) / MW_PER_W
    peak = doc["peak_mW"] / MW_PER_W
    problems = check_deliverable(q, g, n0, powers)
    if powers.max() > peak * (1 + 1e-12):
        problems.append(f"a power {float(powers.max())!r} W exceeds the peak {peak!r} W")
    ref = min_max_reference(q, g, n0, cap)
    if not _close(peak, ref, OPTIMUM_RTOL):
        problems.append(f"peak {peak!r} W != linprog {ref!r} W")
    if "schedule" in doc:
        problems += check_schedule(q, g, n0, powers, doc["schedule"])
        return problems, False
    if "schedule_error" not in doc:
        problems.append("neither a schedule nor a schedule_error")
    return problems, True


def weighted_objective(weights, g, n0, powers):
    """Weighted sum-rate at the corner that decodes the lightest weight
    first: sum_k (w_k - w_{k+1}) log2(1 + prefix_k / N0), weights sorted
    in descending order."""
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
    w = np.array([weights[i] for i in order] + [0.0])
    prefix = np.cumsum(np.asarray(powers)[order] * g[order] ** 2)
    return float(np.sum((w[:-1] - w[1:]) * np.log2(1.0 + prefix / n0)))


def weighted_reference(weights, g, n0, cap):
    from scipy.optimize import minimize

    n = len(weights)
    res = minimize(lambda p: -weighted_objective(weights, g, n0, p),
                   np.full(n, cap / n), method="SLSQP", bounds=[(0, cap)] * n,
                   constraints=[{"type": "ineq", "fun": lambda p: cap - p.sum()}],
                   options={"ftol": 1e-14, "maxiter": 1000})
    return -res.fun


def check_weighted(gw, doc):
    q, g, n0, _, cap = _gateway_arrays(gw)
    weights = q / q.sum()
    powers = np.array(doc["powers_mW"]) / MW_PER_W
    problems = []
    if np.any(powers < 0) or powers.sum() > cap * (1 + 1e-9):
        problems.append("powers are negative or exceed the total cap")
    order = [i - 1 for i in doc["order"]]
    rates = sic_rates(g, n0, powers, order)
    if np.max(np.abs(rates - np.array(doc["rates"]))) > RATE_ATOL:
        problems.append("rates are not the SIC rates of the returned order")
    value = float(weights @ rates)
    if not _close(doc["objective"], value, 1e-12, 1e-12):
        problems.append(f"objective {doc['objective']!r} != recomputed {value!r}")
    ref = weighted_reference(weights, g, n0, cap)
    if value < ref - WEIGHTED_RTOL * abs(ref):
        problems.append(f"objective {value!r} below the SLSQP optimum {ref!r}")
    if value > weighted_objective(weights, g, n0, powers) * (1 + 1e-12) + 1e-12:
        problems.append("objective above the weight-sorted corner at these powers")
    return problems
