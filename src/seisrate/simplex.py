"""Dense tableau simplex for the exact-LP evaluator's sum-rate LPs.

solve_lp maximizes c @ x subject to A @ x <= b, x >= 0, where c > 0,
b >= 0 and, for every variable j, some row of A is the unit vector e_j.
rates._lp_optimum's LPs have that form: one row per nonempty subset of
each gateway's decoded set, the singletons among them.

It solves the dual,  min b @ y  subject to  A^T y - s = c,  y, s >= 0,
whose tableau has n + 1 rows for n variables (the geophones decoded
somewhere: 12 at rates.LP_ROW_CAP on one gateway) however many rows A
has.  For each variable, the singleton row with the smallest b gives a
y column equal to e_j, so these columns form an identity basis with
y = c > 0, already feasible: there is one phase and no artificial
variable.  At the optimum, the objective-row entries of the surplus
columns s are the simplex multipliers, which are the primal optimum x.

Entering variable: most negative reduced cost, switching to Bland's rule
after a fixed number of pivots to rule out cycling.  Each pivot is one
rank-1 update of the whole tableau.
"""

from __future__ import annotations

import numpy as np

from .errors import SeisrateError

_TOL = 1e-9
# pivots by the most negative reduced cost, per tableau row and column,
# before Bland's rule takes over
DANTZIG_PIVOTS_PER_DIM = 50


def _pivot(tableau, leave, enter):
    """Make column `enter` the unit vector of row `leave`."""
    pivot_row = tableau[leave] / tableau[leave, enter]
    tableau -= np.outer(tableau[:, enter], pivot_row)
    tableau[leave] = pivot_row


def _singleton_basis(a, b):
    """For each variable j, the index of the row equal to e_j with the
    smallest right-hand side."""
    singleton = np.flatnonzero((np.count_nonzero(a, axis=1) == 1)
                               & (a.sum(axis=1) == 1.0))
    var_of = a[singleton].argmax(axis=1)
    basis = np.empty(a.shape[1], dtype=int)
    for j in range(a.shape[1]):
        own = singleton[var_of == j]
        if own.size == 0:
            raise ValueError(f"variable {j} has no singleton row")
        basis[j] = own[b[own].argmin()]
    return basis


def solve_lp(c, a_ub, b_ub):
    """(x, c @ x) at the maximum of c @ x subject to a_ub @ x <= b_ub, x >= 0.

    Raises ValueError unless c > 0, b_ub >= 0 and every variable has a
    singleton row (see the module docstring).
    """
    c = np.asarray(c, dtype=float)
    a = np.atleast_2d(np.asarray(a_ub, dtype=float))
    b = np.asarray(b_ub, dtype=float)
    m, n = a.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("inconsistent LP dimensions")
    if not (c > 0).all():
        raise ValueError("objective coefficients must be positive")
    if not (b >= 0).all():
        raise ValueError("right-hand sides must be nonnegative")
    basis = _singleton_basis(a, b)

    # columns: y (m), s (n), right-hand side; the last row holds the
    # reduced costs of min b @ y and minus its value
    tableau = np.zeros((n + 1, m + n + 1))
    tableau[:n, :m] = a.T
    tableau[:n, m:m + n] = -np.eye(n)
    tableau[:n, -1] = c
    b_basic = b[basis]
    tableau[n, :m] = b - a @ b_basic
    tableau[n, m:m + n] = b_basic
    tableau[n, -1] = -(b_basic @ c)

    cost = tableau[n, :-1]
    rhs = tableau[:n, -1]
    cols = m + n
    max_dantzig = DANTZIG_PIVOTS_PER_DIM * (n + cols)
    for it in range(200 * (n + cols) + 10_000):
        if it < max_dantzig:
            enter = int(cost.argmin())
            if cost[enter] >= -_TOL:
                break
        else:  # Bland: first negative reduced cost
            neg = np.flatnonzero(cost < -_TOL)
            if neg.size == 0:
                break
            enter = int(neg[0])
        col = tableau[:n, enter]
        cand = np.flatnonzero(col > _TOL)
        if cand.size == 0:
            # an unbounded dual means an infeasible primal, which b >= 0 rules out
            raise SeisrateError("simplex found an empty ratio test")
        ratios = rhs[cand] / col[cand]
        best = ratios.argmin()
        if it < max_dantzig:
            leave = cand[best]
        else:
            # Bland tie-break: smallest basis index among minimal ratios
            ties = cand[ratios <= ratios[best] + _TOL * (1 + abs(ratios[best]))]
            leave = ties[basis[ties].argmin()]
        _pivot(tableau, leave, enter)
        basis[leave] = enter
    else:
        raise SeisrateError("simplex failed to converge (pivot limit reached)")

    x = tableau[n, m:m + n].copy()
    return x, float(c @ x)
