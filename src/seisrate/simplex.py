"""Dense two-phase tableau simplex for the small LPs used in this package.

Solves   min (or max)  c @ x   subject to   A @ x <= b,  x >= 0.

Rows with negative b get an artificial variable and a phase-1 solve.
Entering variable: most negative reduced cost, switching to Bland's rule
after a fixed number of pivots to rule out cycling.  Each pivot is one
rank-1 update restricted to the rows and columns it changes.
"""

from __future__ import annotations

import numpy as np

from .errors import SeisrateError

_TOL = 1e-9


class LpInfeasible(SeisrateError):
    """The LP constraint set is empty."""


class LpUnbounded(SeisrateError):
    """The LP objective is unbounded over the feasible set."""


def _pivot(tableau, leave, enter):
    """Scale row `leave` so its `enter` entry is 1, then eliminate column
    `enter` from the other rows by one rank-1 update,
    tableau -= outer(factor, pivot_row).

    The update touches only the rows with a nonzero factor and the columns
    where the pivot row is nonzero: the nonbasic columns, the leaving
    variable's and the right-hand side, so its temporary is at most
    m x (nonbasic + 2), never m x m.  Each touched entry gets the same
    multiply and subtract as in a row-by-row elimination.  A row-by-row
    elimination would subtract factor * 0 from a skipped entry, which
    changes no value: at most a -0 entry turns +0, and in evaluate_lp's
    LPs (b >= 0, c > 0) no entry is ever -0.
    """
    pivot_row = tableau[leave]
    pivot_row /= pivot_row[enter]
    factor = tableau[:, enter].copy()
    factor[leave] = 0.0
    rows = factor.nonzero()[0][:, None]
    cols = pivot_row.nonzero()[0]
    tableau[rows, cols] -= factor[rows] * pivot_row[cols]


def _run_simplex(tableau, basis, num_cols, tol):
    """Pivot until optimal. tableau rows: m constraints + 1 objective row.

    The objective row holds reduced costs of a minimization; optimality is
    all reduced costs >= -tol.
    """
    m = len(basis)
    max_dantzig = 50 * (m + num_cols)
    max_total = 200 * (m + num_cols) + 10_000
    cost = tableau[-1, :num_cols]
    rhs = tableau[:m, -1]
    for it in range(max_total):
        if it < max_dantzig:
            enter = int(cost.argmin())
            if cost[enter] >= -tol:
                return
        else:  # Bland: first negative reduced cost
            neg = np.nonzero(cost < -tol)[0]
            if neg.size == 0:
                return
            enter = int(neg[0])
        col = tableau[:m, enter]
        cand = (col > tol).nonzero()[0]
        if cand.size == 0:
            raise LpUnbounded("unbounded pivot column")
        ratios = rhs[cand] / col[cand]
        best = ratios.argmin()
        if it < max_dantzig:
            leave = int(cand[best])
        else:
            # Bland tie-break: smallest basis index among minimal ratios
            ties = cand[ratios <= ratios[best] + tol * (1 + abs(ratios[best]))]
            leave = int(ties[basis[ties].argmin()])
        _pivot(tableau, leave, enter)
        basis[leave] = enter
    raise SeisrateError("simplex failed to converge (pivot limit reached)")


def solve_lp(c, a_ub, b_ub, maximize=False, tol=_TOL):
    """Solve the LP; returns (x, objective_value).

    Raises LpInfeasible / LpUnbounded accordingly.
    """
    c = np.asarray(c, dtype=float)
    a = np.atleast_2d(np.asarray(a_ub, dtype=float))
    b = np.asarray(b_ub, dtype=float)
    m, n = a.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("inconsistent LP dimensions")

    art_rows = (b < 0).nonzero()[0]
    n_art = art_rows.size
    tableau = np.zeros((m + 1, n + m + n_art + 1))
    tableau[:m, :n] = a
    tableau[:m, -1] = b
    rows = np.arange(m)
    tableau[rows, n + rows] = 1.0            # slack identity, no m x m temporary
    basis = n + rows

    if n_art:
        # negate the rows with b < 0 and give each an artificial variable,
        # then phase 1 minimizes the sum of artificials
        arts = n + m + np.arange(n_art)
        tableau[art_rows, :n] *= -1.0
        tableau[art_rows, n + art_rows] = -1.0
        tableau[art_rows, -1] *= -1.0
        tableau[art_rows, arts] = 1.0
        basis[art_rows] = arts
        tableau[-1, arts] = 1.0
        for r in art_rows:
            tableau[-1] -= tableau[r]
        _run_simplex(tableau, basis, n + m + n_art, tol)
        if tableau[-1, -1] < -tol * (1 + np.abs(b).max(initial=1.0)):
            raise LpInfeasible("phase-1 optimum is positive")
        # drive any artificial still in the basis out of it
        for r in (basis >= n + m).nonzero()[0]:
            cand = (np.abs(tableau[r, :n + m]) > tol).nonzero()[0]
            if cand.size:
                _pivot(tableau, r, cand[0])
                basis[r] = cand[0]
        tableau[:, n + m:n + m + n_art] = 0.0

    # phase 2 objective row
    obj = -c if maximize else c
    tableau[-1, :] = 0.0
    tableau[-1, :n] = obj
    for r in (basis < n).nonzero()[0]:
        if obj[basis[r]] != 0.0:
            tableau[-1] -= obj[basis[r]] * tableau[r]
    _run_simplex(tableau, basis, n + m, tol)

    x = np.zeros(n)
    in_basis = basis < n
    x[basis[in_basis]] = tableau[:m, -1][in_basis]
    return x, float(c @ x)
