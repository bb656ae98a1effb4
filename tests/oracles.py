"""Exponential-size reference solvers for both stages.

`seisrate.delivery` solves min-total power in closed form, and min-max
power and the weighted sum rate by one sort plus block pooling.  These
oracles solve the same problems the way the library once did, by
enumerating every subset, so the tests can check the fast solvers against
them on small instances.  The stage-2 oracles share no code with the
library.

`tree_time_share` is the time-sharing decomposition the library ran
before its chain of tight sets: a tree of sub-problems recombined
bottom-up, which the chain must reproduce entry for entry.

For stage 1, `link_capacity` and `sic_corner_rates` give a link's capacity
and one gateway's SIC bounds for any decoding order, as loops over the
formulas; `lp_constraint_slacks` and `best_corner_sum` check the two rate
evaluators from first principles, and `brute_force_exhaustive` is the
exhaustive search the library once ran: every flat flag pattern through
`evaluate_fixed_order_batch`.  It shares the evaluator on purpose, since
the pattern-table search must reproduce that evaluator's sums bit for bit.
`two_gateway_lp` gives the LP's optimum for two gateways without building
or solving it: the theorem `rates._lp_sum_rate` uses, written apart from
it on the raw gains with numpy sums, and only for nonzero gains at
gateway 1.  `reference_solve_lp` is the dual simplex loop that
`simplex.solve_lp` replaced, all in numpy, and `reference_lp_value` builds
its groups as `rates._lp_optimum` once did: every LP must get the same x
and value bits from both.  Up to two gateways the library no longer runs
the simplex, and `reference_lp_value` is the LP value its closed form is
checked against.
"""

import itertools
import math

import numpy as np
from scipy.optimize import linprog, minimize

from seisrate.rates import UNDECODED_SILENT, evaluate_fixed_order_batch
from seisrate.simplex import _TOL, _violated_prefixes

LN2 = math.log(2.0)


def subset_masks(num):
    """Every nonempty subset of range(num) as a 0/1 row."""
    return np.array(list(itertools.product((0.0, 1.0), repeat=num))[1:])


def min_max_lp(gateways):
    """Smallest peak power from the epigraph LP over all 2^N - 1 subset
    constraints sum_S P_i g_i^2 >= N0 (2^Q(S) - 1), solved by scipy.

    Returns None when the per-gateway cap makes the problem infeasible.
    """
    q = gateways.queue_rates
    members = [i for i in range(gateways.num_gws) if q[i] > 0]
    if not members:
        return 0.0
    m = len(members)
    masks = subset_masks(m)
    g2 = gateways.gains[members] ** 2
    rhs = 2.0 ** (masks @ q[members]) - 1.0
    cap = gateways.per_gw_power_cap
    n0 = gateways.noise_power
    # variables (P_members, t) in units of N0, so that the solver's absolute
    # feasibility tolerance is relative to the requirements; minimize t
    a_ub = np.vstack([np.hstack([-masks * g2, np.zeros((len(masks), 1))]),
                      np.hstack([np.eye(m), -np.ones((m, 1))])])
    b_ub = np.concatenate([-rhs, np.zeros(m)])
    c = np.zeros(m + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(0, None)] * m + [(0, None if cap is None else cap / n0)],
                  method="highs")
    if res.status == 2:
        return None
    if not res.success:
        raise RuntimeError(f"linprog failed: {res.message}")
    return res.fun * n0


def min_total_lp(gateways):
    """Powers minimizing the total over all 2^N - 1 subset constraints
    sum_S P_i g_i^2 >= N0 (2^Q(S) - 1) and the per-gateway cap, solved by
    scipy in units of N0 like min_max_lp.

    Returns None when the per-gateway cap makes the problem infeasible.
    """
    q = gateways.queue_rates
    members = [i for i in range(gateways.num_gws) if q[i] > 0]
    powers = np.zeros(gateways.num_gws)
    if not members:
        return powers
    m = len(members)
    masks = subset_masks(m)
    g2 = gateways.gains[members] ** 2
    rhs = 2.0 ** (masks @ q[members]) - 1.0
    cap = gateways.per_gw_power_cap
    n0 = gateways.noise_power
    res = linprog(np.ones(m), A_ub=-masks * g2, b_ub=-rhs,
                  bounds=[(0, None if cap is None else cap / n0)] * m,
                  method="highs")
    if res.status == 2:
        return None
    if not res.success:
        raise RuntimeError(f"linprog failed: {res.message}")
    powers[members] = res.x * n0
    return powers


def subset_gaps(gateways, powers):
    """Received power minus requirement, N0 (2^Q(S) - 1), for every
    nonempty subset S of the gateways with queued data."""
    q = gateways.queue_rates
    members = [i for i in range(gateways.num_gws) if q[i] > 0]
    masks = subset_masks(len(members))
    received = powers[members] * gateways.gains[members] ** 2
    rhs = gateways.noise_power * (2.0 ** (masks @ q[members]) - 1.0)
    return masks @ received - rhs, rhs


def weighted_objective(gateways, weights, powers):
    """Weighted sum rate at the corner that decodes the lightest weight
    first: sum_k (w_(k) - w_(k+1)) log2(1 + Y_k/N0), where Y_k is the
    received power of the k heaviest gateways."""
    heavy_first = sorted(range(gateways.num_gws), key=lambda i: (-weights[i], i))
    w = np.append(np.asarray(weights)[heavy_first], 0.0)
    prefix = np.cumsum(np.asarray(powers)[heavy_first]
                       * gateways.gains[heavy_first] ** 2)
    return float(np.sum((w[:-1] - w[1:])
                        * np.log2(1.0 + prefix / gateways.noise_power)))


def weighted_kkt_gap(gateways, weights, powers):
    """Largest relative KKT violation of the weighted-sum problem at powers
    that spend the budget.  The corner objective is concave in the powers,
    so a zero gap certifies a global maximum: no gateway's marginal gain
    exceeds lam, the largest one, and every gateway with power reaches it."""
    heavy_first = sorted(range(gateways.num_gws), key=lambda i: (-weights[i], i))
    w = np.append(np.asarray(weights)[heavy_first], 0.0)
    g2 = gateways.gains[heavy_first] ** 2
    prefix = np.cumsum(np.asarray(powers)[heavy_first] * g2)
    # P_i enters every prefix from its own position on
    slopes = (w[:-1] - w[1:]) / (LN2 * (gateways.noise_power + prefix))
    grad = np.empty(gateways.num_gws)
    grad[heavy_first] = g2 * np.cumsum(slopes[::-1])[::-1]
    lam = grad.max()
    return float((lam - grad[np.asarray(powers) > 0].min()) / lam)


def weighted_support_enumeration(gateways, weights, total_cap):
    """Exact maximizer of the weighted sum rate by enumerating supports.

    With the decoding order fixed by the weights, the objective is concave
    in the prefix received powers, so for each candidate support (set of
    gateways with positive power) the stationarity conditions plus the
    binding cap form a linear system with a closed form.  Keeping the best
    feasible candidate over all 2^n supports gives the global optimum.
    """
    n = gateways.num_gws
    g2 = gateways.gains ** 2
    n0 = gateways.noise_power
    active = [i for i in range(n) if weights[i] > 0 and g2[i] > 0]
    order_desc = sorted(active, key=lambda i: (-weights[i], i))
    na = len(order_desc)
    if na == 0:
        return np.zeros(n)
    # coefficient of log2(1 + prefix_k/N0): weight drop at position k
    w_sorted = [weights[i] for i in order_desc]
    coeff = [w_sorted[k] - (w_sorted[k + 1] if k + 1 < na else 0.0)
             for k in range(na)]
    best_value = -math.inf
    best_p = np.zeros(n)
    for mask in range(1, 1 << na):
        positions = [k for k in range(na) if (mask >> k) & 1]
        s = len(positions)
        gains = [g2[order_desc[k]] for k in positions]
        # weight drop accumulated until the next active position
        c = []
        for j, m in enumerate(positions):
            stop = positions[j + 1] if j + 1 < s else na
            c.append(sum(coeff[m:stop]))
        if any(cj <= 0 for cj in c):
            continue
        d = [1.0 / gains[j] - (1.0 / gains[j + 1] if j + 1 < s else 0.0)
             for j in range(s)]
        if any(dj <= 0 for dj in d):
            continue
        # stationarity: c_j / (ln2 (N0 + Y_j)) = mu d_j  =>  N0 + Y_j = a_j/mu
        a = [c[j] / (LN2 * d[j]) for j in range(s)]
        numer = a[0] / gains[0] + sum(
            (a[j] - a[j - 1]) / gains[j] for j in range(1, s))
        mu = numer / (total_cap + n0 / gains[0])
        if mu <= 0:
            continue
        y = [aj / mu - n0 for aj in a]
        if y[0] <= 0 or any(y[j] <= y[j - 1] for j in range(1, s)):
            continue
        p = np.zeros(n)
        prev = 0.0
        for j, m in enumerate(positions):
            p[order_desc[m]] = (y[j] - prev) / gains[j]
            prev = y[j]
        value = weighted_objective(gateways, weights, p)
        if value > best_value:
            best_value = value
            best_p = p
    return best_p


def weighted_slsqp(gateways, weights, total_cap):
    """Weighted sum rate at the SLSQP maximizer over the powers."""
    n = gateways.num_gws
    res = minimize(
        lambda p: -weighted_objective(gateways, weights, p),
        np.full(n, total_cap / n), method="SLSQP",
        bounds=[(0, total_cap)] * n,
        constraints=[{"type": "ineq", "fun": lambda p: total_cap - p.sum()}],
        options={"ftol": 1e-14, "maxiter": 2000},
    )
    if not res.success:
        raise RuntimeError(f"SLSQP failed: {res.message}")
    return -res.fun


def _tree_capacity(received, noise):
    return math.log1p(received / noise) / LN2


def _tree_tightest_prefix(items, rates, received, noise):
    """(order, k, slack) of the least-slack proper prefix of the items
    sorted by rates_i / w_i descending."""
    order = sorted(items, key=lambda i: -rates[i] / received[i])
    best_k, best = 0, math.inf
    w = r = 0.0
    for k, i in enumerate(order[:-1], 1):
        w += received[i]
        r += rates[i]
        slack = _tree_capacity(w, noise) - r
        if slack < best:
            best_k, best = k, slack
    return order, best_k, best


def _tree_interleave(first, last):
    """Pair two schedules on [0, 1] by their cumulative fractions: each
    piece decodes an order of `first` and then an order of `last`."""
    ends_first = list(itertools.accumulate(lam for _, lam in first))
    ends_last = list(itertools.accumulate(lam for _, lam in last))
    ends_first[-1] = ends_last[-1] = 1.0
    pieces, start, i, j = [], 0.0, 0, 0
    while i < len(first) and j < len(last):
        end = min(ends_first[i], ends_last[j])
        if end > start:
            pieces.append((first[i][0] + last[j][0], end - start))
            start = end
        i += ends_first[i] == end
        j += ends_last[j] == end
    return pieces


def _tree_line_search(items, order, rates, received, noise):
    """(alpha, z, z's order, k) for the step from the greedy vertex of
    `order` through `rates` onto a tight set, or None."""
    vertex, w = {}, 0.0
    for i in order:
        vertex[i] = _tree_capacity(received[i], noise + w)
        w += received[i]
    step = {i: rates[i] - vertex[i] for i in items}
    alpha = min(((_tree_capacity(received[i], noise) - rates[i]) / step[i]
                 for i in items if step[i] > 0), default=None)
    while alpha is not None:
        z = {i: rates[i] + alpha * step[i] for i in items}
        z_order, k, slack = _tree_tightest_prefix(items, z, received, noise)
        if slack >= 0:
            return alpha, z, z_order, k
        tight = z_order[:k]
        shorter = ((_tree_capacity(sum(received[i] for i in tight), noise)
                    - sum(rates[i] for i in tight))
                   / sum(step[i] for i in tight))
        if not shorter < alpha:
            return alpha, z, z_order, k
        alpha = shorter
    return None


def tree_time_share(gateways, powers):
    """(order, fraction) entries of the time-sharing schedule for Q at the
    powers, built the way the library once built it: a tree of
    sub-problems, each split on a tight prefix or line-searched onto one,
    whose schedules are interleaved bottom-up by cumulative fraction.
    Gateways without received power are decoded first in every order.
    Assumes Q is on the base; checks nothing."""
    p = np.asarray(powers, dtype=float)
    q = gateways.queue_rates
    received = p * gateways.gains ** 2
    n = gateways.num_gws
    idle = tuple(i for i in range(n) if received[i] <= 0)
    live = [i for i in range(n) if received[i] > 0]
    if not live:
        return [(idle, 1.0)]
    tol = 1e-12 * (1.0 + float(q.sum()))
    power = {i: float(received[i]) for i in live}
    problems = [(live, {i: float(q[i]) for i in live}, gateways.noise_power)]
    schedules, plans = [], []
    for items, rates, noise in problems:
        plan = schedule = None
        if len(items) == 1:
            schedule = [((items[0],), 1.0)]
        else:
            order, k, slack = _tree_tightest_prefix(items, rates, power, noise)
            alpha, vertex_order = 0.0, None
            if slack > tol:
                vertex_order = tuple(reversed(order))
                moved = _tree_line_search(items, order, rates, power, noise)
                if moved is None:
                    schedule = [(vertex_order, 1.0)]
                else:
                    alpha, rates, order, k = moved
            if schedule is None:
                plan = (len(problems), alpha, vertex_order)
                tight = order[:k]
                problems.append((tight, rates, noise))
                problems.append((order[k:], rates,
                                 noise + sum(power[i] for i in tight)))
        schedules.append(schedule)
        plans.append(plan)
    for index in reversed(range(len(problems))):
        if plans[index] is None:
            continue
        child, alpha, vertex_order = plans[index]
        mixed = _tree_interleave(schedules[child + 1], schedules[child])
        if alpha:
            share = 1.0 / (1.0 + alpha)
            mixed = ([(o, lam * share) for o, lam in mixed]
                     + [(vertex_order, alpha * share)])
        schedules[index] = mixed
    return [(idle + order, lam) for order, lam in schedules[0]]


def link_capacity(signal_power, gain, noise_plus_interference):
    """Point-to-point capacity log2(1 + S*gain^2 / (N0 + I)) in bps/Hz."""
    if signal_power < 0 or gain < 0:
        raise ValueError("signal_power and gain must be nonnegative")
    if noise_plus_interference <= 0:
        raise ValueError("noise_plus_interference must be positive")
    return math.log2(1.0 + signal_power * gain * gain / noise_plus_interference)


def sic_corner_rates(channel, assignment, gw_index, permutation):
    """SIC rate bounds at one gateway for the given decoding permutation,
    with every geophone the gateway does not decode interfering.

    Returns the bounds in permutation order (first decoded first).  The
    permutation must be exactly the decoded set of that gateway.
    """
    flags = assignment.flags
    perm = list(permutation)
    decoded = set(np.nonzero(flags[:, gw_index])[0].tolist())
    if len(perm) != len(set(perm)) or set(perm) != decoded:
        raise ValueError("permutation must be a bijection on the decoded set")
    h2 = channel.gains[:, gw_index] ** 2
    p, n0 = channel.gp_power, channel.noise_power
    undecoded = [m for m in range(channel.num_gps) if m not in decoded]
    base_int = p * sum(h2[m] for m in undecoded)
    out = np.empty(len(perm))
    for k, j in enumerate(perm):
        later = p * sum(h2[m] for m in perm[k + 1:])
        out[k] = math.log2(1.0 + p * h2[j] / (n0 + later + base_int))
    return out


def _interference(channel, flags, gw, mode):
    """N0 plus the received power of the geophones that gateway gw does
    not decode but that transmit: all of them, or under the silent policy
    only those decoded somewhere."""
    k = channel.num_gps
    p, h2 = channel.gp_power, channel.gains[:, gw] ** 2
    on = flags.any(axis=1) if mode.undecoded_gp_policy == UNDECODED_SILENT \
        else np.ones(k, dtype=bool)
    return channel.noise_power + p * sum(h2[m] for m in range(k)
                                         if not flags[m, gw] and on[m])


def lp_constraint_slacks(channel, assignment, rate_vector, mode):
    """Slack log2(1 + P h2(S) / (N0 + I)) - r(S) of every subset
    constraint of every gateway's decoded set, at the given rates."""
    f = assignment.flags.astype(bool)
    p = channel.gp_power
    slacks = []
    for i in range(channel.num_gws):
        decoded = np.nonzero(f[:, i])[0].tolist()
        noise = _interference(channel, f, i, mode)
        h2 = channel.gains[:, i] ** 2
        for size in range(1, len(decoded) + 1):
            for subset in itertools.combinations(decoded, size):
                sig = p * sum(h2[j] for j in subset)
                slacks.append(math.log2(1.0 + sig / noise)
                              - sum(rate_vector.rates[j] for j in subset))
    return np.array(slacks)


def best_corner_sum(channel, assignment, mode):
    """Max over all per-gateway decoding permutations of the min-across-GW
    corner sum.  Exponential; for small decoded sets only."""
    f = assignment.flags.astype(bool)
    k, n = f.shape
    p = channel.gp_power
    corners = []
    for i in range(n):
        decoded = np.nonzero(f[:, i])[0].tolist()
        noise = _interference(channel, f, i, mode)
        h2 = channel.gains[:, i] ** 2
        options = []
        for perm in itertools.permutations(decoded):
            options.append({j: math.log2(1.0 + p * h2[j] / (
                noise + p * sum(h2[m] for m in perm[pos + 1:])))
                for pos, j in enumerate(perm)})
        corners.append(options)
    best = -np.inf
    for choice in itertools.product(*corners):
        total = sum(min(bounds[j] for bounds in choice if j in bounds)
                    for j in range(k) if f[j].any())
        best = max(best, float(total))
    return best


def brute_force_exhaustive(channel, mode, batch=1 << 14):
    """(flags, value) of the fixed-order optimum: every flat flag pattern
    in lexicographic order (row-major, most significant bit first) through
    evaluate_fixed_order_batch in batches of `batch`, where a batch's first
    maximizer replaces the best only when strictly larger."""
    k, n = channel.num_gps, channel.num_gws
    total = 1 << (k * n)
    shifts = np.arange(k * n - 1, -1, -1)
    best, best_flags = -np.inf, None
    for start in range(0, total, batch):
        index = np.arange(start, min(start + batch, total))
        flags = ((index[:, None] >> shifts) & 1).reshape(-1, k, n)
        _, sums = evaluate_fixed_order_batch(channel, flags, mode)
        t = int(np.argmax(sums))
        if sums[t] > best:
            best, best_flags = float(sums[t]), flags[t].astype(np.int8)
    return best_flags, best


def two_gateway_lp(channel, flags, mode):
    """Optimum of the exact sum-rate LP of a two-gateway assignment, by
    Edmonds' polymatroid intersection theorem rather than an LP.

    Gateway i's rate polymatroid over its decoded set D_i is
    f_i(S) = log2(1 + P h2_i(S) / noise_i), and the LP maximizes x(V),
    V = D_1 | D_2, over both.  Edmonds (1970): the maximum is the minimum
    over S of f_1(S) + f_2(V - S), finite only for S = (V - D_2) | T with T
    a subset of F = D_1 & D_2.  f_1 + f_2 is concave and increasing in the
    two received-power sums, so the minimum lies at a vertex of their
    zonotope facing the origin: a prefix T of F sorted by h2_j2 / h2_j1,
    descending.  O(d log d); needs nonzero gains at gateway 1.
    """
    f = np.asarray(flags).astype(bool)
    if f.shape[1] != 2:
        raise ValueError("two gateways only")
    p, h2 = channel.gp_power, channel.gains ** 2
    both = np.flatnonzero(f[:, 0] & f[:, 1])
    order = both[np.argsort(-(h2[both, 1] / h2[both, 0]), kind="stable")]
    # received power at gateway 1 of (V - D_2) | T and at gateway 2 of
    # (V - D_1) | (F - T), for the prefixes T of order, shortest first
    at1 = h2[f[:, 0] & ~f[:, 1], 0].sum() + np.concatenate(
        ([0.0], np.cumsum(h2[order, 0])))
    at2 = h2[f[:, 1] & ~f[:, 0], 1].sum() + np.concatenate(
        (np.cumsum(h2[order[::-1], 1])[::-1], [0.0]))
    values = (np.log2(1.0 + p * at1 / _interference(channel, f, 0, mode))
              + np.log2(1.0 + p * at2 / _interference(channel, f, 1, mode)))
    return float(values.min())


def _reference_pivot(tableau, leave, enter):
    """Make column `enter` the unit vector of row `leave`."""
    pivot_row = tableau[leave] / tableau[leave, enter]
    tableau -= np.outer(tableau[:, enter], pivot_row)
    tableau[leave] = pivot_row


def reference_solve_lp(groups):
    """simplex.solve_lp's (x, sum(x)) from the same dual simplex with the
    start tableau built by fancy indexing, Bland's ratio test on numpy
    arrays and np.outer pivots; no pivot cap."""
    n = 1 + max(max(members) for members, _ in groups)
    smallest = [math.inf] * n
    for members, weights in groups:
        for j, w in zip(members, weights):
            smallest[j] = min(smallest[j], w)
    x0 = [math.log2(1.0 + w) for w in smallest]

    tableau = np.zeros((n + 1, 2 * n + 1))
    rows = np.arange(n)
    tableau[rows, 0] = 1.0
    tableau[rows, rows + 1] = -1.0
    tableau[rows, rows + n + 1] = 1.0
    tableau[n, 0] = -sum(x0)
    tableau[n, 1:n + 1] = x0
    basis = np.arange(n + 1, 2 * n + 1)
    while True:
        negative = (tableau[n, 1:] < -_TOL).nonzero()[0]
        if negative.size == 0:
            prefixes, slacks = _violated_prefixes(groups,
                                                  tableau[n, 1:n + 1].tolist())
            if not prefixes:
                break
            a = np.zeros((n, len(prefixes)))
            for col, prefix in enumerate(prefixes):
                a[prefix, col] = 1.0
            cuts = np.empty((n + 1, len(prefixes)))
            cuts[:n] = -tableau[:n, 1:n + 1] @ a
            cuts[n] = slacks
            tableau = np.hstack((tableau, cuts))
            continue
        enter = int(negative[0]) + 1
        col = tableau[:n, enter]
        cand = (col > _TOL).nonzero()[0]
        ratios = tableau[cand, 0] / col[cand]
        least = ratios.min()
        ties = cand[ratios <= least + _TOL * (1 + abs(least))]
        leave = ties[basis[ties].argmin()]
        _reference_pivot(tableau, leave, enter)
        basis[leave] = enter

    x = tableau[n, 1:n + 1].copy()
    return x, float(x.sum())


def reference_lp_value(channel, flags, mode):
    """The exact LP's sum-rate at (K, N) flags, its groups built with
    mixed fancy indexing and solved by reference_solve_lp."""
    f = flags.astype(bool)
    variables = np.flatnonzero(f.any(axis=1))
    if variables.size == 0:
        return 0.0
    h2 = channel.gains ** 2
    p, n0 = channel.gp_power, channel.noise_power
    active = (f.any(axis=1) if mode.undecoded_gp_policy == UNDECODED_SILENT
              else np.ones(f.shape[0], dtype=bool))
    groups = []
    for i in range(f.shape[1]):
        decoded = np.flatnonzero(f[:, i])
        if decoded.size:
            noise = n0 + p * float(h2[~f[:, i] & active, i].sum())
            groups.append((variables.searchsorted(decoded).tolist(),
                           (p * h2[decoded, i] / noise).tolist()))
    return reference_solve_lp(groups)[1]
