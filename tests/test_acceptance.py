"""Acceptance gate: one test per top-level criterion, each printing a
single PASS/FAIL line.  Sub-checks accumulate into a failure list so a
criterion reports every miss at once instead of stopping at the first.

The published reference constants (``PAPER_*``) are never edited.  Where
the paper contradicts its own inputs, a probe asserts the contradiction
(it fails if a later reading makes the published value reachable), and
the program is checked against an independent oracle instead."""

import itertools
import math
import sys

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import minimize, nnls

from conftest import (
    PAPER_H,
    SMALL_BUFFER_Q,
    random_channel,
    random_gateways,
)
from oracles import lp_constraint_slacks, min_total_lp, sic_corner_rates
from seisrate.delivery import (
    corner_rates,
    max_weighted_sum,
    min_max_power,
    min_total_power_closed_form,
    time_share_decompose,
)
from seisrate.model import ChannelMatrix, GatewayState, generate_rayleigh, load_instance, save_instance
from seisrate.rates import (
    DecodingAssignment,
    EvaluationMode,
    evaluate_fixed_order,
    evaluate_lp,
    search_space_size,
)
from seisrate.search import (
    TAU_MAX,
    TAU_MIN,
    AcoParams,
    SearchBudget,
    exhaustive_search,
    max_min_ant_system,
    no_optimization_baseline,
    run_algorithm,
)
from seisrate.experiments import ExperimentSpec, run_experiment

METAHEURISTICS = ("dpso", "ampso", "as", "mmas", "sa")

# published small-network min-total powers, mW
PAPER_MIN_TOTAL_MW = [13.61, 5.893, 94.85, 10.02, 26.11, 18.88, 29.85, 12.20]
# published time-sharing table: 1-based decoding order -> percent of the slot
PAPER_TIME_SHARES = [
    ((1, 2, 3, 4, 5, 6, 7, 8), 22.38),
    ((7, 6, 5, 4, 3, 2, 1, 8), 3.11),
    ((7, 8, 1, 2, 3, 4, 5, 6), 5.94),
    ((6, 7, 8, 1, 2, 3, 4, 5), 15.63),
    ((5, 6, 7, 8, 1, 2, 3, 4), 14.77),
    ((4, 5, 6, 7, 8, 1, 2, 3), 20.93),
    ((3, 4, 5, 6, 7, 8, 1, 2), 1.14),
    ((2, 3, 4, 5, 6, 7, 8, 1), 16.37),
]
# published large-network weighted-sum point
PAPER_WEIGHTS = [0.177, 0.028, 0.147, 0.199, 0.072, 0.045, 0.146, 0.187]
PAPER_WEIGHTED_RATES = [0.0087, 0.0, 1.33, 10.146, 0.0, 0.0, 0.5047, 1.853]
PAPER_WEIGHTED_OFF = {2, 5, 6}
PAPER_WEIGHTED_ORDER = (7, 3, 1, 8, 4)


_STATUS_CAPTURE = None


@pytest.fixture(autouse=True)
def _status_capture(capfd):
    global _STATUS_CAPTURE
    _STATUS_CAPTURE = capfd
    yield
    _STATUS_CAPTURE = None


def _finish(num, description, failures):
    status = "PASS" if not failures else "FAIL"
    line = f"[ACCEPTANCE {num:02d}] {status}: {description}"
    # bypass pytest capture so every criterion line is visible in the run log
    if _STATUS_CAPTURE is not None:
        with _STATUS_CAPTURE.disabled():
            print(line, file=sys.stderr, flush=True)
    else:
        print(line, file=sys.stderr, flush=True)
    if failures:
        pytest.fail(
            f"criterion {num} ({description}):\n  " + "\n  ".join(failures),
            pytrace=False,
        )


def _check(failures, condition, message):
    if not condition:
        failures.append(message)


def test_criterion_01_decode_all_rates(paper_channel):
    failures = []
    rv, total = evaluate_fixed_order(
        paper_channel, DecodingAssignment.all_ones(3, 2), EvaluationMode()
    )
    for j, expected in enumerate([0.776, 1.335, 0.372]):
        _check(failures, abs(rv.rates[j] - expected) <= 1e-3,
               f"rate {j}: {rv.rates[j]:.4f} vs {expected}")
    _check(failures, abs(total - 2.483) <= 1e-3,
           f"sum {total:.4f} vs 2.483")
    _finish(1, "decode-all fixed-order rates on the 3x2 fixture", failures)


def test_criterion_02_lp_optimum(paper_channel):
    failures = []
    f_star = DecodingAssignment(np.array([[1, 0], [1, 1], [0, 1]]))
    _, lp_total = evaluate_lp(paper_channel, f_star)
    _check(failures, abs(lp_total - 3.813) <= 1e-3,
           f"LP value {lp_total:.4f} vs 3.813")
    assignment, es_total = exhaustive_search(
        paper_channel, EvaluationMode(order_policy="lp-exact")
    )
    _check(failures, abs(es_total - lp_total) <= 1e-12,
           f"ES optimum {es_total!r} != LP value {lp_total!r}")
    _check(failures, np.array_equal(assignment.flags, f_star.flags),
           f"ES assignment {assignment.flags.tolist()}")
    _finish(2, "LP evaluation optimum over all 64 assignments", failures)


def test_criterion_03_search_space_size():
    failures = []
    _check(failures, search_space_size(3, 2) == 64, "(3,2) != 64")
    big = search_space_size(30, 5)
    _check(failures, big == 2 ** 150, "(30,5) != 2^150")
    _check(failures, isinstance(big, int), "result is not an exact integer")
    _check(failures, f"{float(big):.3e}".startswith("1.427e+45"),
           f"leading digits {float(big):.3e}")
    _finish(3, "exact search-space size", failures)


def test_criterion_04_min_total_case_study(small_buffer_gateways):
    failures = []
    alloc, order = min_total_power_closed_form(small_buffer_gateways)
    mw = alloc.powers * 1000.0
    for i, expected in enumerate(PAPER_MIN_TOTAL_MW):
        _check(failures, abs(mw[i] - expected) <= 0.005 * expected,
               f"P{i + 1} = {mw[i]:.3f} mW vs {expected} (0.5%)")
    _check(failures, abs(mw.sum() - 211.405) <= 0.001 * 211.405,
           f"total {mw.sum():.3f} mW vs 211.405 (0.1%)")
    convex = min_total_lp(small_buffer_gateways)
    rel = np.abs(convex - alloc.powers) / np.maximum(alloc.powers, 1e-30)
    _check(failures, rel.max() <= 1e-6,
           f"linprog vs closed form relative gap {rel.max():.2e}")
    _check(failures, order == (2, 6, 5, 4, 0, 3, 7, 1),
           f"order {tuple(i + 1 for i in order)}")
    _finish(4, "min-total power case study", failures)


def _sic_corner(gateways, powers, order):
    """Rates of one SIC decoding order from the capacity formula: the
    gateway decoded k-th treats every gateway decoded after it as noise."""
    received = np.asarray(powers, dtype=float) * gateways.gains ** 2
    rates = np.zeros(gateways.num_gws)
    for k, i in enumerate(order):
        interference = received[list(order[k + 1:])].sum()
        rates[i] = math.log2(
            1 + received[i] / (gateways.noise_power + interference))
    return rates


def _hull_residual(gateways, powers, orders):
    """Least-squares distance from Q to the convex hull of the SIC corners
    of `orders`: nonnegative fractions, with a row asking them to sum to 1."""
    corners = np.column_stack(
        [_sic_corner(gateways, powers, order) for order in orders])
    a = np.vstack([corners, np.ones(len(orders))])
    b = np.append(gateways.queue_rates, 1.0)
    return nnls(a, b)[1]


def test_criterion_05_min_max_case_study(small_buffer_gateways):
    failures = []
    gw = small_buffer_gateways
    alloc, peak = min_max_power(gw)
    mw = alloc.powers * 1000.0
    _check(failures, np.all(np.abs(mw - 46.06) <= 0.01 * 46.06),
           f"powers {np.round(mw, 3).tolist()} vs 46.06 mW (1%)")
    _check(failures, abs(mw.sum() - 368.5) <= 0.01 * 368.5,
           f"total {mw.sum():.2f} mW vs 368.5 (1%)")
    binding = math.log2(
        1 + (alloc.powers * small_buffer_gateways.gains ** 2).sum() / 1e-3
    )
    _check(failures, abs(binding - 9.415) <= 1e-3,
           f"full-set log term {binding:.4f} vs sum Q 9.415")

    # The published time shares cannot be reproduced from their own inputs:
    # their mix misses Q by 1.29 bps/Hz at gateway 2, and Q lies outside the
    # hull of the published orders' corners however the orders are read
    # (nnls residual 0.32 as listed or inverted, 1.41 reversed).  So the
    # shares are not compared; this probe fails if that ever changes.
    q = gw.queue_rates
    published = [tuple(i - 1 for i in order) for order, _ in PAPER_TIME_SHARES]
    shares = np.array([percent for _, percent in PAPER_TIME_SHARES]) / 100.0
    published_mix = sum(share * _sic_corner(gw, alloc.powers, order)
                        for order, share in zip(published, shares))
    miss = np.abs(published_mix - q).max()
    _check(failures, miss > 0.1,
           f"published shares now meet Q to {miss:.3g} bps/Hz; compare them")
    readings = {
        "as listed": published,
        "reversed": [order[::-1] for order in published],
        "inverted": [tuple(int(i) for i in np.argsort(order))
                     for order in published],
    }
    for reading, orders in readings.items():
        residual = _hull_residual(gw, alloc.powers, orders)
        _check(failures, residual > 0.1,
               f"Q is {residual:.3g} from the hull of the published orders "
               f"read {reading}; compare the published shares")

    # The program's own schedule, which need not use the published orders,
    # must mix the SIC corners into Q with at most one order per gateway.
    schedule = time_share_decompose(gw, alloc)
    _check(failures, len(schedule.entries) <= gw.num_gws,
           f"{len(schedule.entries)} orders for {gw.num_gws} gateways")
    fractions = schedule.fractions
    _check(failures,
           fractions.min() >= 0 and abs(fractions.sum() - 1.0) <= 1e-9,
           f"fractions {fractions.tolist()} are not a distribution")
    mixed = sum(lam * _sic_corner(gw, alloc.powers, order)
                for order, lam in schedule.entries)
    gap = np.abs(mixed - q).max()
    _check(failures, gap <= 1e-9, f"schedule misses Q by {gap:.3g} bps/Hz")
    _finish(5, "min-max power case study with time sharing", failures)


def _weighted_sum_oracle(gateways, weights, cap):
    """SLSQP maximizer of the weighted sum rate over the powers.  For fixed
    powers the best SIC corner decodes the lightest weight first, so the
    objective is sum_k (w_(k) - w_(k+1)) log2(1 + Y_k/N0), with Y_k the
    received power of the k heaviest gateways.

    Returns (objective, off set, decoding order)."""
    n = gateways.num_gws
    heavy_first = sorted(range(n), key=lambda i: -weights[i])
    g2 = gateways.gains ** 2

    def neg_objective(p):
        value = 0.0
        prefix = 0.0
        for k, i in enumerate(heavy_first):
            w_next = weights[heavy_first[k + 1]] if k + 1 < n else 0.0
            prefix += p[i] * g2[i]
            value += (weights[i] - w_next) * math.log2(
                1 + prefix / gateways.noise_power)
        return -value

    ref = minimize(
        neg_objective, np.full(n, cap / n), method="SLSQP",
        bounds=[(0, cap)] * n,
        constraints=[{"type": "ineq", "fun": lambda p: cap - p.sum()}],
        options={"ftol": 1e-12, "maxiter": 1000},
    )
    if not ref.success:
        raise RuntimeError(f"SLSQP oracle failed: {ref.message}")
    off = {i for i in range(n) if ref.x[i] < 1e-6 * cap}
    order = tuple(i for i in reversed(heavy_first) if i not in off)
    return -ref.fun, off, order


def test_criterion_06_weighted_sum_case_study(large_buffer_gateways):
    failures = []
    gw = large_buffer_gateways
    sol = max_weighted_sum(gw)
    paper_objective = float(
        np.dot(PAPER_WEIGHTS, PAPER_WEIGHTED_RATES)
    )
    _check(failures,
           abs(sol.objective - paper_objective) <= 0.01 * paper_objective,
           f"objective {sol.objective:.4f} vs {paper_objective:.4f} (1%)")
    _check(failures,
           abs(sol.powers.powers.sum() - 5.0) <= 1e-6 * 5.0,
           f"total power {sol.powers.powers.sum():.6f} W vs 5 W")

    # The published point is feasible (4.9886 W) but strictly dominated:
    # its exact-weight objective 2.63712 is 0.83% below the maximum
    # 2.659145.  With distinct weights the objective is strictly concave in
    # the prefix received powers, so the maximizer, its off set and its
    # order are unique and the published structure is not compared.
    weights = gw.queue_rates / gw.queue_rates.sum()
    order = [i - 1 for i in PAPER_WEIGHTED_ORDER]
    off = [i - 1 for i in sorted(PAPER_WEIGHTED_OFF)]
    _check(failures,
           sorted(order + off) == list(range(gw.num_gws))
           and all(PAPER_WEIGHTED_RATES[i] == 0.0 for i in off),
           "published off set and order do not partition the gateways")
    g2 = gw.gains ** 2
    published_powers = np.zeros(gw.num_gws)
    interference = 0.0
    for i in reversed(order):
        received = (gw.noise_power + interference) * (
            2.0 ** PAPER_WEIGHTED_RATES[i] - 1.0)
        published_powers[i] = received / g2[i]
        interference += received
    spent = published_powers.sum()
    _check(failures, spent <= 5.0,
           f"published point needs {spent:.4f} W, above the 5 W cap")
    published_value = float(weights @ PAPER_WEIGHTED_RATES)
    _check(failures, published_value <= (1 - 0.005) * sol.objective,
           f"published objective {published_value:.5f} is within 0.5% of "
           f"{sol.objective:.5f}; compare the published structure")

    oracle_value, oracle_off, oracle_order = _weighted_sum_oracle(
        gw, weights, 5.0)
    _check(failures,
           abs(sol.objective - oracle_value) <= 1e-6 * oracle_value,
           f"objective {sol.objective:.9f} vs SLSQP {oracle_value:.9f}")
    _check(failures, sol.off_set == oracle_off,
           f"off set {sorted(i + 1 for i in sol.off_set)} vs SLSQP "
           f"{sorted(i + 1 for i in oracle_off)}")
    _check(failures, sol.decoding_order == oracle_order,
           f"order {tuple(i + 1 for i in sol.decoding_order)} vs SLSQP "
           f"{tuple(i + 1 for i in oracle_order)}")
    _finish(6, "weighted-sum case study", failures)


def test_criterion_07_decoding_order_optimality():
    failures = []
    rng = np.random.default_rng(7)
    checked = 0
    for case in range(200):
        n = int(rng.integers(2, 6))
        gw = random_gateways(n, 10_000 + case)
        alloc, _ = min_total_power_closed_form(gw)
        total = alloc.powers.sum()
        q = gw.queue_rates
        g2 = gw.gains ** 2
        for perm in itertools.permutations(range(n)):
            other = 0.0
            suffix = 0.0
            for i in reversed(perm):
                new_suffix = suffix + q[i]
                other += 1e-3 * (2.0 ** new_suffix - 2.0 ** suffix) / g2[i]
                suffix = new_suffix
            if total > other + 1e-9:
                failures.append(
                    f"case {case}: order beats closed form by {total - other:.2e}"
                )
                break
        checked += 1
    _check(failures, checked == 200, "expected 200 instances")
    _finish(7, "descending-gain order beats every permutation (200 instances)",
            failures)


def test_criterion_08_oracle_dominance():
    failures = []
    mode = EvaluationMode()
    rng = np.random.default_rng(8)
    for case in range(50):
        channel = random_channel(6, 2, 20_000 + case)
        _, optimum = exhaustive_search(channel, mode)
        budget = SearchBudget(5, 20, seed=30_000 + case)
        for name in METAHEURISTICS:
            trace = run_algorithm(name, channel, budget, mode)
            if trace.best_sum_rate > optimum:
                failures.append(
                    f"case {case}: {name} {trace.best_sum_rate:.6f} "
                    f"> ES {optimum:.6f}"
                )
            flags = trace.best_assignment
            _, fixed = evaluate_fixed_order(channel, flags, mode)
            _, lp = evaluate_lp(channel, flags)
            if lp < fixed - 1e-9:
                failures.append(f"case {case}: LP {lp:.6f} < fixed {fixed:.6f}")
        for _ in range(5):
            flags = DecodingAssignment(
                (rng.random((6, 2)) < 0.5).astype(np.int8))
            _, fixed = evaluate_fixed_order(channel, flags, mode)
            _, lp = evaluate_lp(channel, flags)
            if lp < fixed - 1e-9:
                failures.append(
                    f"case {case}: sampled LP {lp:.6f} < fixed {fixed:.6f}")
    _finish(8, "metaheuristics never beat the exhaustive oracle (50 instances)",
            failures)


def test_criterion_09_small_network_regime():
    failures = []
    mode = EvaluationMode()
    big = {"dpso": [], "as": []}
    small = {name: [] for name in METAHEURISTICS}
    es = []
    for case in range(100):
        channel = random_channel(8, 2, 40_000 + case)
        # the searches read ES's values, as a campaign's do: same bits
        result = exhaustive_search(channel, mode)
        es.append(result[1])
        for name in big:
            trace = run_algorithm(
                name, channel, SearchBudget(10, 600, seed=50_000 + case), mode,
                es_values=result.values)
            big[name].append(trace.best_sum_rate)
        for name in small:
            trace = run_algorithm(
                name, channel, SearchBudget(1, 60, seed=60_000 + case), mode,
                es_values=result.values)
            small[name].append(trace.best_sum_rate)
    es = np.array(es)
    for name, values in big.items():
        ratio = float(np.mean(np.array(values) / es))
        _check(failures, ratio >= 0.95,
               f"{name} at M=10,I=600: mean ratio {ratio:.4f} < 0.95")
    for name, values in small.items():
        ratio = float(np.mean(np.array(values) / es))
        _check(failures, ratio >= 0.70,
               f"{name} at M=1,I=60: mean ratio {ratio:.4f} < 0.70")
    _finish(9, "8x2 statistical regime over 100 seeds", failures)


def test_criterion_10_heuristic_adaptation_ordering():
    failures = []
    mode = EvaluationMode.scenario(2)
    adapted, plain, baseline = [], [], []
    for case in range(50):
        channel = random_channel(40, 4, 70_000 + case)
        budget = SearchBudget(100, 40, seed=80_000 + case)
        adapted.append(run_algorithm(
            "as", channel, budget, mode,
            aco_params=AcoParams(
                heuristic_mode="gw-average+gp-deactivation")).best_sum_rate)
        plain.append(run_algorithm(
            "as", channel, budget, mode,
            aco_params=AcoParams(heuristic_mode="none")).best_sum_rate)
        baseline.append(no_optimization_baseline(channel, mode)[1])
    for label, other in (("without the prior", plain),
                         ("decode-all baseline", baseline)):
        diff = np.array(adapted) - np.array(other)
        t_stat, p_two = stats.ttest_rel(adapted, other)
        p_one = p_two / 2 if t_stat > 0 else 1 - p_two / 2
        _check(failures, diff.mean() > 0 and p_one < 0.05,
               f"adapted vs {label}: mean gain {diff.mean():.4f}, "
               f"one-sided p {p_one:.3g}")
    _finish(10, "prior-adaptation ordering at 95% confidence (50 seeds)",
            failures)


# ----- criterion 11: invariant suites at >= 1000 cases each ---------------


def _invariants_instances(failures, tmp_path):
    for case in range(1000):
        seed = 100_000 + case
        a = generate_rayleigh(3, 2, 1e-3, 1e-3, seed)
        b = generate_rayleigh(3, 2, 1e-3, 1e-3, seed)
        if a != b:
            failures.append(f"generation not deterministic at seed {seed}")
            break
    path = tmp_path / "roundtrip.json"
    rng = np.random.default_rng(0)
    for case in range(1000):
        gains = rng.random((2, 2)) * rng.choice([1e-6, 1.0, 1e6])
        ch = ChannelMatrix(2, 2, gains, float(rng.uniform(1e-6, 1.0)),
                          float(rng.uniform(1e-6, 1.0)))
        save_instance(ch, path)
        if load_instance(path) != ch:
            failures.append(f"round trip not exact at case {case}")
            break


def _invariants_rates(failures):
    mode = EvaluationMode()
    rng = np.random.default_rng(1)
    for case in range(1000):
        channel = random_channel(5, 1, 110_000 + case)
        flags = np.zeros((5, 1), dtype=np.int8)
        flags[:3] = 1
        full = sic_corner_rates(channel, DecodingAssignment(flags), 0, (0, 1, 2))
        sub = ChannelMatrix(4, 1, channel.gains[:4], 1e-3, 1e-3)
        reduced = sic_corner_rates(sub, DecodingAssignment(flags[:4]), 0,
                                   (0, 1, 2))
        if not np.all(reduced >= full - 1e-12):
            failures.append(f"corner monotonicity broken at case {case}")
            break
    for case in range(1000):
        channel = random_channel(4, 2, 120_000 + case)
        flags = DecodingAssignment((rng.random((4, 2)) < 0.6).astype(np.int8))
        rv, fixed = evaluate_fixed_order(channel, flags, mode)
        _, lp = evaluate_lp(channel, flags)
        if lp < fixed - 1e-9:
            failures.append(f"LP dominance broken at case {case}")
            break
        slacks = lp_constraint_slacks(channel, flags, rv, mode)
        if slacks.size and slacks.min() < -1e-9:
            failures.append(f"corner feasibility broken at case {case}")
            break
        from seisrate.rates import RateVector

        shrunk = RateVector(rv.rates * rng.random(4))
        slacks = lp_constraint_slacks(channel, flags, shrunk, mode)
        if slacks.size and slacks.min() < -1e-9:
            failures.append(f"downward closure broken at case {case}")
            break
    count = 0
    for k in range(1, 65):
        for n in range(1, 65):
            if search_space_size(k, n) != 2 ** (k * n):
                failures.append(f"size identity broken at ({k},{n})")
                break
            count += 1
    _check(failures, count == 64 * 64, "size identity grid incomplete")
    for case in range(1000):
        channel = random_channel(4, 2, 130_000 + case)
        full = DecodingAssignment.all_ones(4, 2)
        _, s1 = evaluate_fixed_order(channel, full, EvaluationMode.scenario(1))
        _, s2 = evaluate_fixed_order(channel, full, EvaluationMode.scenario(2))
        if s1 != s2:
            failures.append(f"scenario equivalence broken at case {case}")
            break


def _invariants_search(failures):
    mode = EvaluationMode()
    es_cache = {}
    runs = 0
    for case in range(200):
        channel = random_channel(3, 2, 140_000 + case % 25)
        key = case % 25
        if key not in es_cache:
            es_cache[key] = exhaustive_search(channel, mode)[1]
        optimum = es_cache[key]
        budget = SearchBudget(2, 3, seed=150_000 + case)
        for name in METAHEURISTICS:
            trace = run_algorithm(name, channel, budget, mode)
            runs += 1
            flags = trace.best_assignment.flags
            if not np.isin(flags, (0, 1)).all() or flags.shape != (3, 2):
                failures.append(f"{name} case {case}: malformed assignment")
            _, re_eval = evaluate_fixed_order(channel, trace.best_assignment,
                                              mode)
            if abs(re_eval - trace.best_sum_rate) > 1e-9:
                failures.append(f"{name} case {case}: stale reported sum")
            if trace.best_sum_rate > optimum + 1e-9:
                failures.append(f"{name} case {case}: beats the oracle")
            if np.any(np.diff(trace.best_per_iteration) < 0):
                failures.append(f"{name} case {case}: decreasing trace")
            limit = budget.evaluation_budget
            if name == "sa":
                from seisrate.search import SA_RESTART_CYCLES

                limit += SA_RESTART_CYCLES
            if trace.evaluations > limit:
                failures.append(f"{name} case {case}: budget exceeded")
            again = run_algorithm(name, channel, budget, mode)
            if not np.array_equal(again.best_assignment.flags, flags) or \
                    again.best_sum_rate != trace.best_sum_rate:
                failures.append(f"{name} case {case}: nondeterministic")
        if failures:
            break
    _check(failures, failures or runs == 1000, f"expected 1000 runs, got {runs}")
    tables = []
    for rep in range(10):
        channel = random_channel(3, 2, 160_000 + rep)
        max_min_ant_system(channel, SearchBudget(2, 100, seed=rep), AcoParams(),
                           observer=tables.append)
    _check(failures, len(tables) == 1000, "expected 1000 pheromone snapshots")
    for tau in tables:
        if tau.min() < TAU_MIN - 1e-12 or tau.max() > TAU_MAX + 1e-12:
            failures.append("pheromones escaped the clamp")
            break


def _invariants_delivery(failures):
    rng = np.random.default_rng(2)
    for case in range(1000):
        n = int(rng.integers(2, 5))
        gw = random_gateways(n, 170_000 + case)
        alloc, _ = min_total_power_closed_form(gw)
        q = gw.queue_rates
        g2 = gw.gains ** 2
        best_other = min(
            sum(1e-3 * (2.0 ** (s := sum(q[list(perm[j:])])) -
                        2.0 ** sum(q[list(perm[j + 1:])])) / g2[perm[j]]
                for j in range(n))
            for perm in itertools.permutations(range(n))
        )
        if alloc.powers.sum() > best_other + 1e-9:
            failures.append(f"case {case}: closed form not optimal")
            break
        peak_alloc, peak = min_max_power(gw)
        if peak_alloc.powers.sum() < alloc.powers.sum() - 1e-9:
            failures.append(f"case {case}: min-max total below min-total")
            break
        for powers in (alloc.powers, peak_alloc.powers):
            lhs = np.array([
                (powers * g2)[list(subset)].sum()
                for r in range(1, n + 1)
                for subset in itertools.combinations(range(n), r)
            ])
            rhs = np.array([
                1e-3 * (2.0 ** q[list(subset)].sum() - 1.0)
                for r in range(1, n + 1)
                for subset in itertools.combinations(range(n), r)
            ])
            if (lhs - rhs).min() < -1e-9:
                failures.append(f"case {case}: subset constraint violated")
                break
    for case in range(1000):
        n = 4
        gw = random_gateways(n, 180_000 + case)
        powers = rng.uniform(0.01, 0.2, n)
        lam_true = rng.dirichlet(np.ones(n))
        orders = [tuple(int(i) for i in rng.permutation(n)) for _ in range(n)]
        q = sum(l * corner_rates(gw, powers, o)
                for l, o in zip(lam_true, orders))
        target = GatewayState(n, q, gw.gains, 1e-3)
        schedule = time_share_decompose(target, powers)
        fractions = np.array([l for _, l in schedule.entries])
        if fractions.min() < 0 or abs(fractions.sum() - 1.0) > 1e-12:
            failures.append(f"case {case}: schedule fractions invalid")
            break
        mixed = sum(l * corner_rates(target, powers, o)
                    for o, l in schedule.entries)
        if np.abs(mixed - q).max() > 1e-9:
            failures.append(f"case {case}: schedule misses the target rates")
            break
    for case in range(1000):
        gw = random_gateways(4, 190_000 + case)
        w = gw.queue_rates / gw.queue_rates.sum()
        lo = max_weighted_sum(gw, w, 0.05).objective
        hi = max_weighted_sum(gw, w, 0.05 * rng.uniform(1.0, 10.0)).objective
        if hi < lo - 1e-9:
            failures.append(f"case {case}: objective decreased with the cap")
            break


def _invariants_experiments(failures, tmp_path):
    outdirs = []
    for tag in ("first", "second"):
        outdir = tmp_path / tag
        spec = ExperimentSpec(
            algorithms=METAHEURISTICS, budgets=((2, 3), (3, 2)),
            replications=100, master_seed=77, num_gps=3, num_gws=2,
            output_dir=str(outdir),
        )
        run_experiment(spec)
        outdirs.append(outdir)
    for name in ("traces.csv", "summary.csv"):
        first = (outdirs[0] / name).read_text()
        second = (outdirs[1] / name).read_text()
        if first != second:
            failures.append(f"{name} differs between identical campaigns")
    header = (outdirs[0] / "summary.csv").read_text().splitlines()[0]
    _check(failures,
           header == "algorithm,budget_m,budget_i,replications,"
                     "mean_final,std_final,mse_vs_es",
           f"summary schema changed: {header}")


def test_criterion_11_invariant_suites(tmp_path):
    failures = []
    _invariants_instances(failures, tmp_path)
    _invariants_rates(failures)
    _invariants_search(failures)
    _invariants_delivery(failures)
    _invariants_experiments(failures, tmp_path)
    _finish(11, "module invariant suites at >= 1000 cases each", failures)
