import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from oracles import reference_solve_lp
from seisrate import simplex
from seisrate.errors import CapacityLimitError
from seisrate.simplex import solve_lp


def subset_rows(groups, n):
    """(a, b): every subset constraint of every group, written out."""
    rows, rhs = [], []
    for members, weights in groups:
        for size in range(1, len(members) + 1):
            for subset in itertools.combinations(range(len(members)), size):
                row = np.zeros(n)
                row[[members[t] for t in subset]] = 1.0
                rows.append(row)
                rhs.append(math.log2(1.0 + sum(weights[t] for t in subset)))
    return np.array(rows), np.array(rhs)


def test_basic_maximization():
    # max x + y s.t. x <= 2, y <= 2, x + y <= log2(7) (weights 3, 3) and,
    # from a second group, y <= 1
    x, v = solve_lp([([0, 1], [3.0, 3.0]), ([1], [1.0])])
    assert v == pytest.approx(math.log2(7.0), rel=1e-15)
    assert x.sum() == v
    assert 0 <= x[1] <= 1 + 1e-12 and x[0] <= 2 + 1e-12


def test_degenerate_zero_rhs():
    # a zero weight bounds its variable at log2(1) = 0
    x, v = solve_lp([([0, 1], [0.0, 1.0])])
    assert v == pytest.approx(1.0)
    assert x == pytest.approx([0.0, 1.0])


def _check_against_reference(groups):
    n = 1 + max(max(members) for members, _ in groups)
    a, b = subset_rows(groups, n)
    ref = linprog(-np.ones(n), A_ub=a, b_ub=b, bounds=(0, None), method="highs")
    x, v = solve_lp(groups)
    assert ref.success
    assert v == pytest.approx(-ref.fun, abs=1e-9, rel=1e-9)
    assert np.all(a @ x <= b + 1e-9)
    assert np.all(x >= -1e-12)


def _random_groups(rng, n, num_groups, density):
    """Groups over variables 0 .. n-1, each variable in at least one;
    weights over eight orders of magnitude, a few of them zero."""
    member = rng.random((num_groups, n)) < density
    member[rng.integers(num_groups, size=n), np.arange(n)] = True
    groups = []
    for row in member:
        members = np.flatnonzero(row)
        if members.size:
            weights = np.exp(rng.uniform(-9.0, 9.0, members.size))
            weights[rng.random(members.size) < 0.05] = 0.0
            groups.append((members.tolist(), weights.tolist()))
    return groups


@pytest.mark.parametrize("seed", range(30))
def test_matches_reference_solver(seed):
    rng = np.random.default_rng(seed)
    n, num_groups = int(rng.integers(1, 11)), int(rng.integers(1, 5))
    _check_against_reference(_random_groups(rng, n, num_groups,
                                            rng.uniform(0.2, 0.9)))


def _gateway_groups(seed, density):
    # rates._lp_optimum's groups: 4-12 geophones, 1-3 gateways, weights
    # P h^2 / (N0 + interference) for Rayleigh gains at P = N0
    rng = np.random.default_rng(seed + 1000)
    n, num_groups = int(rng.integers(4, 13)), int(rng.integers(1, 4))
    h2 = rng.rayleigh(size=(n, num_groups)) ** 2
    decoded = rng.random((n, num_groups)) < density
    decoded[np.arange(n), rng.integers(num_groups, size=n)] = True
    groups = []
    for i in range(num_groups):
        members = np.flatnonzero(decoded[:, i])
        noise = 1.0 + h2[~decoded[:, i], i].sum()
        if members.size:
            groups.append((members.tolist(), (h2[members, i] / noise).tolist()))
    return groups


@pytest.mark.parametrize("seed", range(24))
def test_matches_reference_solver_at_subset_lp_shape(seed):
    _check_against_reference(_gateway_groups(seed, 0.5))


@pytest.mark.parametrize("seed", range(24))
def test_blands_rule_matches_reference_solver(seed):
    # every geophone decoded at every gateway: almost every pivot is
    # degenerate, which is where a rule without Bland's would cycle
    _check_against_reference(_gateway_groups(seed, 1.0))


@pytest.mark.parametrize("seed", range(40))
def test_same_bits_as_the_reference_loop(seed):
    # zero weights, duplicate singletons, 1-3 groups, up to 40 variables
    rng = np.random.default_rng(seed + 2000)
    n = int(rng.integers(1, 41))
    groups = _random_groups(rng, n, int(rng.integers(1, 4)), rng.uniform(0.2, 0.9))
    singles = rng.integers(n, size=3).tolist()
    for case in (groups, groups + [([j], [float(w)]) for j, w in
                                   zip(singles, rng.exponential(size=3))],
                 _gateway_groups(seed, 0.5), _gateway_groups(seed, 1.0)):
        x, v = solve_lp(case)
        ref_x, ref_v = reference_solve_lp(case)
        assert x.tobytes() == ref_x.tobytes()
        assert np.float64(v).tobytes() == np.float64(ref_v).tobytes()


def test_duplicate_singleton_rows_start_from_the_tightest(monkeypatch):
    # x <= log2(8) = 3, x <= log2(2) = 1 and x <= log2(4) = 2 all bound x:
    # the basis starts on the second, which is already optimal
    pivots = []
    monkeypatch.setattr(simplex, "_pivot", lambda *args: pivots.append(args))
    x, v = solve_lp([([0], [7.0]), ([0], [1.0]), ([0], [3.0])])
    assert v == 1.0 and x == pytest.approx([1.0])
    assert not pivots


def test_pivot_cap(monkeypatch):
    # a call that needs p pivots runs under MAX_PIVOTS = p and raises
    # CapacityLimitError under p - 1
    groups = _gateway_groups(3, 1.0)
    pivot, pivots = simplex._pivot, []
    monkeypatch.setattr(simplex, "_pivot",
                        lambda *args: pivots.append(args) or pivot(*args))
    _, v = solve_lp(groups)
    needed = len(pivots)
    assert needed > 1
    monkeypatch.setattr(simplex, "MAX_PIVOTS", needed)
    assert solve_lp(groups)[1] == v
    monkeypatch.setattr(simplex, "MAX_PIVOTS", needed - 1)
    with pytest.raises(CapacityLimitError, match="simplex pivots"):
        solve_lp(groups)
