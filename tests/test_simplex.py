import numpy as np
import pytest
from scipy.optimize import linprog

from seisrate import simplex
from seisrate.simplex import LpInfeasible, LpUnbounded, solve_lp


def test_basic_maximization():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6
    x, v = solve_lp([1, 1], [[1, 2], [3, 1]], [4, 6], maximize=True)
    assert v == pytest.approx(2.8)
    assert x == pytest.approx([1.6, 1.2])


def test_negative_rhs_needs_phase_one():
    # min x + y s.t. x + y >= 2  (written as -x - y <= -2)
    x, v = solve_lp([1, 1], [[-1, -1]], [-2])
    assert v == pytest.approx(2.0)


def test_infeasible():
    with pytest.raises(LpInfeasible):
        solve_lp([1], [[1], [-1]], [1, -3])


def test_unbounded():
    with pytest.raises(LpUnbounded):
        solve_lp([1], [[-1]], [0], maximize=True)


def test_degenerate_zero_rhs():
    x, v = solve_lp([1, -1], [[1, 0], [0, 1], [1, 1]], [0, 1, 1])
    assert v == pytest.approx(-1.0)


@pytest.mark.parametrize("seed", range(30))
def test_matches_reference_solver(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 15, 2)
    a = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    c = rng.normal(size=n)
    ref = linprog(c, A_ub=a, b_ub=b, bounds=(0, None), method="highs")
    try:
        x, v = solve_lp(c, a, b)
    except LpInfeasible:
        assert ref.status == 2
        return
    except LpUnbounded:
        assert ref.status == 3
        return
    assert ref.success
    assert np.all(a @ x <= b + 1e-7)
    assert np.all(x >= -1e-12)
    assert v == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)


@pytest.mark.parametrize("seed", range(24))
def test_matches_reference_solver_at_subset_lp_shape(seed):
    # evaluate_lp's LPs: up to about 500 rows of 0/1 subset indicators over
    # 4-12 variables, b >= 0 (some rows tight at 0), max of a positive sum
    rng = np.random.default_rng(seed + 1000)
    n = int(rng.integers(4, 13))
    m = int(rng.integers(n, 501))
    a = (rng.random((m, n)) < rng.uniform(0.2, 0.8)).astype(float)
    a[:n] = np.eye(n)                        # every variable bounded
    if seed % 3 == 2:
        a[n:] *= rng.uniform(0.1, 2.0, (m - n, n))
    b = rng.uniform(0.0, 5.0, m)
    b[rng.random(m) < 0.05] = 0.0
    c = np.ones(n) if seed % 2 else rng.uniform(0.1, 2.0, n)
    ref = linprog(-c, A_ub=a, b_ub=b, bounds=(0, None), method="highs")
    x, v = solve_lp(c, a, b, maximize=True)
    assert ref.success
    assert v == pytest.approx(-ref.fun, abs=1e-9, rel=1e-9)
    assert np.all(a @ x <= b + 1e-9)
    assert np.all(x >= -1e-12)


def test_artificial_left_basic_after_phase_one(monkeypatch):
    # min 2x s.t. x <= 1 and x >= 1 twice: phase 1 ends at x = 1 with both
    # artificials still basic at zero, so they are pivoted out before phase 2
    inside, outside_pivots = [], []
    run, pivot = simplex._run_simplex, simplex._pivot

    def spy_run(*args):
        inside.append(True)
        try:
            run(*args)
        finally:
            inside.pop()

    def spy_pivot(tableau, leave, enter):
        if not inside:
            outside_pivots.append((leave, enter))
        pivot(tableau, leave, enter)

    monkeypatch.setattr(simplex, "_run_simplex", spy_run)
    monkeypatch.setattr(simplex, "_pivot", spy_pivot)
    c, a, b = [2.0], [[1.0], [-1.0], [-1.0]], [1.0, -1.0, -1.0]
    x, v = solve_lp(c, a, b)
    assert outside_pivots                    # the drive-out path ran
    ref = linprog(c, A_ub=a, b_ub=b, bounds=(0, None), method="highs")
    assert v == pytest.approx(ref.fun, abs=1e-12)
    assert x == pytest.approx([1.0], abs=1e-12)


def test_cycling_example_ends_under_blands_rule(monkeypatch):
    # Beale's example cycles under the most-negative-cost rule; the solver
    # switches to Bland's rule after 50 * (m + n + m) pivots and finishes
    pivots = []
    pivot = simplex._pivot

    def counting_pivot(tableau, leave, enter):
        pivots.append(enter)
        pivot(tableau, leave, enter)

    monkeypatch.setattr(simplex, "_pivot", counting_pivot)
    c = [0.75, -20.0, 0.5, -6.0]
    a = [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]]
    b = [0.0, 0.0, 1.0]
    x, v = solve_lp(c, a, b, maximize=True)
    assert len(pivots) > 50 * (3 + 4 + 3)
    ref = linprog(-np.array(c), A_ub=a, b_ub=b, bounds=(0, None), method="highs")
    assert v == pytest.approx(-ref.fun, abs=1e-12)
    assert x == pytest.approx(ref.x, abs=1e-12)
