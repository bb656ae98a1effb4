"""Dense dual simplex with cut generation for the exact-LP evaluator.

solve_lp(groups) maximizes sum(x) over x >= 0 subject to x(S) <=
log2(1 + w_g(S)) for every group g = (members, weights) and every nonempty
subset S of its members, where w_g(S) sums the weights of S.  In
rates._lp_optimum a group is a gateway's SIC rate polymatroid: the
geophones it decodes, weighted by P h^2 / noise.  The program reaches it
only past two gateways: up to two, rates has the value and a rate vector
in closed form, and the tests keep this solver there as a reference.

The sum(2^d_g - 1) subset rows are never written out.  The solver works on
the dual, min f @ y s.t. A^T y - s = 1, y, s >= 0, in an (n + 1)-row
tableau that starts from each variable's tightest singleton column, an
identity basis feasible at y = 1; the objective-row entries of the surplus
columns s are the primal x.  Each round pivots to the optimum over the
known columns, then prices the others (Kelley, 1960): log2(1 + w) is
concave in the modular w(S), so at each group the least slack
log2(1 + w(S)) - x(S) lies on a prefix of the members sorted by x_j / w_j,
descending, and prefix_slacks scans them; stage 2's time-sharing schedule
runs the same scan.  Every prefix with slack below -_TOL is appended as a
column, entries -(surplus block) @ a for its indicator a and reduced cost
its slack, and the basis stays feasible.
With no violated prefix left, x is optimal.  Pivots follow Bland's rule:
almost every pivot of the larger LPs is degenerate, and the most negative
reduced cost stalls there (568 pivots against 68 on a 40 x 3 decode-all).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityLimitError, SeisrateError

LN2 = math.log(2.0)
_TOL = 1e-9
# A call that reaches this cap ends about 1.2 s in at 300 geophones on 3
# gateways (one BLAS thread, 2 vCPUs).  Random assignments of 6-8 x 3 take
# 2-10 pivots, 40 x 3 36-72 and 150 x 3 470-1420; 300 x 3 decode-all
# takes 297, and a random 300 x 3 assignment reaches the cap.
MAX_PIVOTS = 1500


def _pivot(tableau, leave, enter):
    """Make column `enter` the unit vector of row `leave`."""
    pivot_row = tableau[leave] / tableau[leave, enter]
    tableau -= tableau[:, enter, None] * pivot_row
    tableau[leave] = pivot_row


def capacity(received, noise):
    """log2(1 + received / noise), the rate of a set with that received power."""
    return math.log1p(received / noise) / LN2


def prefix_slacks(items, x, w, noise):
    """(order, weights, slacks): the items sorted by x_i / w_i, descending
    (+-inf by the sign of x_i where w_i = 0, ties in the given order), and
    for each prefix S of that order its weight w(S) and its slack
    capacity(w(S), noise) - x(S), both summed in order.

    capacity is concave in the modular w(S), so over all subsets the
    least slack is one of these prefixes' or the empty set's 0
    (Fujishige, 2005).
    """
    order = sorted(items, reverse=True,
                   key=lambda i: x[i] / w[i] if w[i] else math.copysign(math.inf, x[i]))
    weights, slacks, w_sum, x_sum = [], [], 0.0, 0.0
    for i in order:
        w_sum += w[i]
        x_sum += x[i]
        weights.append(w_sum)
        slacks.append(capacity(w_sum, noise) - x_sum)
    return order, weights, slacks


def _violated_prefixes(groups, x):
    """(prefixes, slacks): at each group, every prefix of prefix_slacks at
    unit noise whose slack is below -_TOL."""
    prefixes, slacks = [], []
    for members, weights in groups:
        order, _, scan = prefix_slacks(members, x, dict(zip(members, weights)), 1.0)
        for k, slack in enumerate(scan, 1):
            if slack < -_TOL:
                prefixes.append(order[:k])
                slacks.append(slack)
    return prefixes, slacks


def solve_lp(groups):
    """(x, sum(x)) at the maximum of sum(x) over the groups' polymatroids
    (see the module docstring); every variable belongs to some group.

    Raises CapacityLimitError after MAX_PIVOTS pivots.
    """
    n = 1 + max(max(members) for members, _ in groups)
    smallest = [math.inf] * n
    for members, weights in groups:
        for j, w in zip(members, weights):
            smallest[j] = min(smallest[j], w)
    x0 = [math.log2(1.0 + w) for w in smallest]

    # columns: right-hand side, s (n), y (the singletons, then the cuts);
    # the last row holds the reduced costs of min f @ y and minus its value
    tableau = np.zeros((n + 1, 2 * n + 1))
    tableau[:n, 0] = 1.0
    # rows are 2n + 1 long, so row r's s_r and y_r lie r (2n + 2) into
    # the flat view, plus 1 and n + 1
    flat = tableau.reshape(-1)
    flat[1:n * (2 * n + 2):2 * n + 2] = -1.0
    flat[n + 1:n * (2 * n + 2):2 * n + 2] = 1.0
    tableau[n, 0] = -sum(x0)
    tableau[n, 1:n + 1] = x0
    basis = list(range(n + 1, 2 * n + 1))
    pivots = 0
    while True:
        # Bland's rule: the first column with a negative reduced cost
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
        if pivots == MAX_PIVOTS:
            raise CapacityLimitError(
                f"the exact LP over {n} geophones needs more than "
                f"{MAX_PIVOTS} simplex pivots")
        enter = int(negative[0]) + 1
        # the ratio test runs on scalars of the candidate rows, a handful
        # even in wide LPs: cheaper than numpy calls, the same quotients
        col = tableau[:n, enter]
        cand = (col > _TOL).nonzero()[0].tolist()
        if not cand:
            # an unbounded dual means an infeasible primal, which x = 0 rules out
            raise SeisrateError("simplex found an empty ratio test")
        ratios = [tableau[r, 0] / col[r] for r in cand]
        least = min(ratios)
        limit = least + _TOL * (1 + abs(least))
        # Bland's tie-break: smallest basis index among minimal ratios
        leave = min((r for r, ratio in zip(cand, ratios) if ratio <= limit),
                    key=basis.__getitem__)
        _pivot(tableau, leave, enter)
        basis[leave] = enter
        pivots += 1

    x = tableau[n, 1:n + 1].copy()
    return x, float(x.sum())
