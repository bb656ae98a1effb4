"""Achievable-rate mathematics for the geophone-to-gateway stage.

Two evaluators are provided for a decoding assignment:

* evaluate_fixed_order: each gateway decodes its chosen set in descending
  gain order; a geophone's rate is the minimum of its bounds across the
  gateways that decode it.  Polynomial cost, used by the metaheuristics.
* evaluate_lp: the exact optimum of the sum-rate over the intersection of
  the per-gateway MAC polytopes (one constraint per nonempty subset of
  each decoded set).  Exponential constraint count, used as the reference.

The undecoded-geophone policy distinguishes the two operating scenarios:
"interferes" (every geophone always transmits) and "silent" (a geophone
decoded nowhere is switched off and causes no interference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import CapacityLimitError
from .model import ChannelMatrix
from .simplex import solve_lp

ORDER_FIXED = "descending-gain-corner"
ORDER_LP = "lp-exact"
UNDECODED_INTERFERES = "interferes"
UNDECODED_SILENT = "silent"

# evaluate_lp builds 2^d_i - 1 subset rows for a gateway decoding d_i
# geophones, and the dense tableau grows about 4x per decoded geophone.
# 4095 rows (d = 12 on one gateway, or 11 on each of two) take about 0.4 s
# and 0.3 GB peak RSS on a 2-core machine; one more geophone, 4x that.
LP_ROW_CAP = 4095

# evaluator names of the CLI and campaign specs; the order policies
# themselves are accepted as well
EVALUATORS = {"fixed-order": ORDER_FIXED, "lp": ORDER_LP,
              ORDER_FIXED: ORDER_FIXED, ORDER_LP: ORDER_LP}


@dataclass(frozen=True, eq=False)
class DecodingAssignment:
    """Binary K x N matrix; entry (j, i) = 1 iff gateway i decodes geophone j."""

    flags: np.ndarray

    def __post_init__(self):
        flags = np.array(self.flags, dtype=np.int8)
        if flags.ndim != 2:
            raise ValueError("flags must be a 2-D matrix")
        if not np.isin(flags, (0, 1)).all():
            raise ValueError("flags entries must be 0 or 1")
        flags.setflags(write=False)
        object.__setattr__(self, "flags", flags)

    @property
    def num_gps(self):
        return self.flags.shape[0]

    @property
    def num_gws(self):
        return self.flags.shape[1]

    def __eq__(self, other):
        if not isinstance(other, DecodingAssignment):
            return NotImplemented
        return np.array_equal(self.flags, other.flags)

    @classmethod
    def all_ones(cls, num_gps, num_gws):
        return cls(np.ones((num_gps, num_gws), dtype=np.int8))

    @classmethod
    def all_zeros(cls, num_gps, num_gws):
        return cls(np.zeros((num_gps, num_gws), dtype=np.int8))


@dataclass(frozen=True, eq=False)
class RateVector:
    """Per-geophone normalized rates in bps/Hz."""

    rates: np.ndarray

    def __post_init__(self):
        rates = np.array(self.rates, dtype=float)
        if rates.ndim != 1 or np.any(rates < 0):
            raise ValueError("rates must be a nonnegative vector")
        rates.setflags(write=False)
        object.__setattr__(self, "rates", rates)

    @property
    def sum_rate(self):
        return float(self.rates.sum())

    def __eq__(self, other):
        if not isinstance(other, RateVector):
            return NotImplemented
        return np.array_equal(self.rates, other.rates)


@dataclass(frozen=True)
class EvaluationMode:
    """Which evaluator to use and how undecoded geophones behave."""

    order_policy: str = ORDER_FIXED
    undecoded_gp_policy: str = UNDECODED_INTERFERES

    def __post_init__(self):
        if self.order_policy not in (ORDER_FIXED, ORDER_LP):
            raise ValueError(f"unknown order_policy {self.order_policy!r}")
        if self.undecoded_gp_policy not in (UNDECODED_INTERFERES, UNDECODED_SILENT):
            raise ValueError(
                f"unknown undecoded_gp_policy {self.undecoded_gp_policy!r}"
            )

    @classmethod
    def scenario(cls, number, order_policy=ORDER_FIXED):
        """Scenario 1: undecoded geophones interfere; scenario 2: silent."""
        if number == 1:
            return cls(order_policy, UNDECODED_INTERFERES)
        if number == 2:
            return cls(order_policy, UNDECODED_SILENT)
        raise ValueError("scenario must be 1 or 2")


def evaluation_mode(evaluator, scenario):
    """EvaluationMode for an evaluator name (see EVALUATORS) and scenario."""
    if evaluator not in EVALUATORS:
        raise ValueError(f"unknown evaluator {evaluator!r}; "
                         f"expected one of {', '.join(EVALUATORS)}")
    return EvaluationMode.scenario(scenario, EVALUATORS[evaluator])


def link_capacity(signal_power, gain, noise_plus_interference):
    """Point-to-point capacity log2(1 + S*gain^2 / (N0 + I)) in bps/Hz."""
    if signal_power < 0 or gain < 0:
        raise ValueError("signal_power and gain must be nonnegative")
    if noise_plus_interference <= 0:
        raise ValueError("noise_plus_interference must be positive")
    return math.log2(1.0 + signal_power * gain * gain / noise_plus_interference)


def _decoding_order(gains_col):
    """Descending-gain order of geophone indices; ties to the lower index."""
    return np.argsort(-gains_col, kind="stable")


def _active_mask(flags, policy):
    """Which geophones transmit: all of them, or only those decoded somewhere."""
    if policy == UNDECODED_SILENT:
        return flags.any(axis=-1)
    return np.ones(flags.shape[:-1], dtype=bool)


def sic_corner_rates(channel, assignment, gw_index, permutation):
    """SIC rate bounds at one gateway for the given decoding permutation.

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
    active = _active_mask(flags, UNDECODED_INTERFERES)
    # callers needing scenario-2 semantics go through the evaluators
    undecoded = [m for m in range(channel.num_gps) if m not in decoded]
    base_int = p * sum(h2[m] for m in undecoded if active[m])
    out = np.empty(len(perm))
    for k, j in enumerate(perm):
        later = p * sum(h2[m] for m in perm[k + 1:])
        out[k] = math.log2(1.0 + p * h2[j] / (n0 + later + base_int))
    return out


def evaluate_fixed_order_batch(channel, flags_batch, mode):
    """Sum-rates of a batch of assignments under descending-gain SIC.

    flags_batch: (B, K, N) binary array. Returns (rates (B, K), sums (B,)).
    """
    flags = np.asarray(flags_batch)
    if flags.ndim != 3 or flags.shape[1:] != (channel.num_gps, channel.num_gws):
        raise ValueError("flags_batch must be (B, K, N) matching the channel")
    f = flags.astype(bool)
    b, k, n = f.shape
    h2 = channel.gains ** 2
    p, n0 = channel.gp_power, channel.noise_power
    active = _active_mask(f, mode.undecoded_gp_policy)  # (B, K)
    bounds = np.full((b, k), np.inf)
    for i in range(n):
        order = _decoding_order(channel.gains[:, i])
        fi = f[:, order, i]                      # decoded flags, decode order
        h2i = h2[order, i]
        undec = (~fi) & active[:, order]
        base_int = p * (undec @ h2i)             # (B,)
        w = fi * h2i
        suffix = np.cumsum(w[:, ::-1], axis=1)[:, ::-1] - w
        denom = n0 + p * suffix + base_int[:, None]
        with np.errstate(divide="ignore"):
            r = np.log2(1.0 + p * h2i / denom)
        gw_bound = np.full((b, k), np.inf)
        gw_bound[:, order] = np.where(fi, r, np.inf)
        np.minimum(bounds, gw_bound, out=bounds)
    rates = np.where(np.isfinite(bounds), bounds, 0.0)
    return rates, rates.sum(axis=1)


def evaluate_fixed_order(channel, assignment, mode=EvaluationMode()):
    """(RateVector, sum_rate) for one assignment under descending-gain SIC."""
    rates, sums = evaluate_fixed_order_batch(
        channel, assignment.flags[None, :, :], mode
    )
    return RateVector(rates[0]), float(sums[0])


def _lp_constraints(channel, flags, mode):
    """Rows (a, rhs) of the subset sum-rate constraints over the variables
    (geophones decoded somewhere)."""
    f = flags.astype(bool)
    k, n = f.shape
    h2 = channel.gains ** 2
    p, n0 = channel.gp_power, channel.noise_power
    active = _active_mask(f, mode.undecoded_gp_policy)
    sizes = f.sum(axis=0).tolist()
    total_rows = sum((1 << d) - 1 for d in sizes)
    if total_rows > LP_ROW_CAP:
        raise CapacityLimitError(
            f"decoded sets of sizes {sizes} need {total_rows} subset rows; "
            f"lp-exact caps them at {LP_ROW_CAP}"
        )
    variables = np.nonzero(f.any(axis=1))[0]
    var_pos = {int(j): t for t, j in enumerate(variables)}
    rows, rhs = [], []
    for i in range(n):
        decoded = np.nonzero(f[:, i])[0]
        d = decoded.size
        if d == 0:
            continue
        undec = ~f[:, i] & active
        base_int = p * float(h2[undec, i].sum())
        h2d = h2[decoded, i]
        for mask in range(1, 1 << d):
            sel = [(mask >> t) & 1 for t in range(d)]
            sig = p * float(sum(h2d[t] for t in range(d) if sel[t]))
            row = np.zeros(variables.size)
            for t in range(d):
                if sel[t]:
                    row[var_pos[int(decoded[t])]] = 1.0
            rows.append(row)
            rhs.append(math.log2(1.0 + sig / (n0 + base_int)))
    return variables, np.array(rows), np.array(rhs)


def evaluate_lp(channel, assignment, mode=EvaluationMode(ORDER_LP)):
    """(RateVector, sum_rate) at the exact optimum of the subset-constraint LP."""
    flags = assignment.flags
    if flags.shape != (channel.num_gps, channel.num_gws):
        raise ValueError("assignment dimensions do not match the channel")
    variables, a, rhs = _lp_constraints(channel, flags, mode)
    rates = np.zeros(channel.num_gps)
    if variables.size == 0:
        return RateVector(rates), 0.0
    x, value = solve_lp(np.ones(variables.size), a, rhs, maximize=True)
    rates[variables] = np.maximum(x, 0.0)
    return RateVector(rates), float(value)


def evaluate(channel, assignment, mode=EvaluationMode()):
    """Dispatch on mode.order_policy."""
    if mode.order_policy == ORDER_LP:
        return evaluate_lp(channel, assignment, mode)
    return evaluate_fixed_order(channel, assignment, mode)


def lp_constraint_slacks(channel, assignment, rate_vector, mode=EvaluationMode()):
    """Slack rhs - a @ r of every subset constraint at the given rates."""
    variables, a, rhs = _lp_constraints(channel, assignment.flags, mode)
    if variables.size == 0:
        return np.array([])
    return rhs - a @ rate_vector.rates[variables]


def best_corner_sum(channel, assignment, mode=EvaluationMode()):
    """Max over all per-gateway decoding permutations of the min-across-GW
    corner sum.  Exponential; an oracle for small decoded sets only."""
    f = assignment.flags.astype(bool)
    k, n = f.shape
    decoded_sets = [np.nonzero(f[:, i])[0].tolist() for i in range(n)]
    best = -np.inf

    def corner_bounds(i, perm):
        h2 = channel.gains[:, i] ** 2
        p, n0 = channel.gp_power, channel.noise_power
        active = _active_mask(f, mode.undecoded_gp_policy)
        undec = [m for m in range(k) if not f[m, i] and active[m]]
        base = p * sum(h2[m] for m in undec)
        out = {}
        for pos, j in enumerate(perm):
            later = p * sum(h2[m] for m in perm[pos + 1:])
            out[j] = math.log2(1.0 + p * h2[j] / (n0 + later + base))
        return out

    def recurse(i, bounds):
        nonlocal best
        if i == n:
            rates = np.zeros(k)
            for j in range(k):
                if f[j].any():
                    rates[j] = min(bounds[t][j] for t in range(n) if f[j, t])
            best = max(best, float(rates.sum()))
            return
        if not decoded_sets[i]:
            recurse(i + 1, bounds + [{}])
            return
        for perm in permutations(decoded_sets[i]):
            recurse(i + 1, bounds + [corner_bounds(i, perm)])

    recurse(0, [])
    return best


def search_space_size(num_gps, num_gws):
    """Number of decoding assignments, [sum_i C(K, i)]^N = 2^(K*N), exact."""
    if num_gps < 0 or num_gws < 0:
        raise ValueError("dimensions must be nonnegative")
    return sum(math.comb(num_gps, i) for i in range(num_gps + 1)) ** num_gws
