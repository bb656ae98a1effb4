import numpy as np
import pytest
from scipy.optimize import linprog

from seisrate import simplex
from seisrate.simplex import solve_lp


def test_basic_maximization():
    # max x + y s.t. x <= 2, y <= 2, x + 2y <= 4, 3x + y <= 6
    x, v = solve_lp([1, 1], [[1, 0], [0, 1], [1, 2], [3, 1]], [2, 2, 4, 6])
    assert v == pytest.approx(2.8)
    assert x == pytest.approx([1.6, 1.2])


def test_degenerate_zero_rhs():
    x, v = solve_lp([1, 1], [[1, 0], [0, 1], [1, 1]], [0, 1, 1])
    assert v == pytest.approx(1.0)
    assert x == pytest.approx([0.0, 1.0])


def _check_against_reference(c, a, b):
    ref = linprog(-c, A_ub=a, b_ub=b, bounds=(0, None), method="highs")
    x, v = solve_lp(c, a, b)
    assert ref.success
    assert v == pytest.approx(-ref.fun, abs=1e-9, rel=1e-9)
    assert np.all(a @ x <= b + 1e-9)
    assert np.all(x >= -1e-12)


@pytest.mark.parametrize("seed", range(30))
def test_matches_reference_solver(seed):
    # rows of either sign and any scale besides one singleton row per
    # variable, shuffled in among them
    rng = np.random.default_rng(seed)
    n, m = rng.integers(1, 15, 2)
    a = np.vstack([np.eye(n), rng.normal(size=(m, n))])
    b = rng.uniform(0.0, 3.0, m + n)
    perm = rng.permutation(m + n)
    _check_against_reference(rng.uniform(0.1, 2.0, n), a[perm], b[perm])


def _subset_shape_lp(seed):
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
    return c, a, b


@pytest.mark.parametrize("seed", range(24))
def test_matches_reference_solver_at_subset_lp_shape(seed):
    _check_against_reference(*_subset_shape_lp(seed))


@pytest.mark.parametrize("seed", range(24))
def test_blands_rule_matches_reference_solver(seed, monkeypatch):
    # no pivot by the most negative reduced cost: Bland's rule from the start
    monkeypatch.setattr(simplex, "DANTZIG_PIVOTS_PER_DIM", 0)
    _check_against_reference(*_subset_shape_lp(seed))


def test_duplicate_singleton_rows_start_from_the_tightest(monkeypatch):
    # x <= 3 and x <= 1 both bound x: the basis starts on the second row,
    # which is already optimal
    pivots = []
    monkeypatch.setattr(simplex, "_pivot", lambda *args: pivots.append(args))
    x, v = solve_lp([1.0], [[1.0], [1.0]], [3.0, 1.0])
    assert v == 1.0 and x == pytest.approx([1.0])
    assert not pivots


@pytest.mark.parametrize("c, a, b, message", [
    ([1.0, 0.0], np.eye(2), [1.0, 1.0], "positive"),
    ([1.0, -1.0], np.eye(2), [1.0, 1.0], "positive"),
    ([1.0, 1.0], np.eye(2), [1.0, -0.5], "nonnegative"),
    ([1.0, 1.0], np.eye(2), [1.0, np.nan], "nonnegative"),
    ([1.0, 1.0], [[1.0, 0.0], [1.0, 1.0]], [1.0, 1.0], "variable 1"),
    ([1.0, 1.0], [[1.0, 0.0], [0.0, 2.0]], [1.0, 1.0], "variable 1"),
    ([1.0], [[1.0]], [1.0, 2.0], "dimensions"),
])
def test_rejects_lps_outside_its_form(c, a, b, message):
    with pytest.raises(ValueError, match=message):
        solve_lp(c, a, b)
