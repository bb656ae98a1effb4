"""Achievable-rate mathematics for the geophone-to-gateway stage.

Two evaluators are provided for a decoding assignment:

* evaluate_fixed_order: each gateway decodes its chosen set in descending
  gain order; a geophone's rate is the minimum of its bounds across the
  gateways that decode it.  Polynomial cost, used by the metaheuristics.
* evaluate_lp: the exact optimum of the sum-rate over the intersection of
  the per-gateway MAC polytopes (one constraint per nonempty subset of
  each decoded set).  simplex.solve_lp generates only the violated
  constraints, each a prefix of a decoded set sorted by rate over
  received power, so no exponential row set is built; used as the
  reference.

The undecoded-geophone policy distinguishes the two operating scenarios:
"interferes" (every geophone always transmits) and "silent" (a geophone
decoded nowhere is switched off and causes no interference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ChannelMatrix
from .simplex import solve_lp

ORDER_FIXED = "descending-gain-corner"
ORDER_LP = "lp-exact"
UNDECODED_INTERFERES = "interferes"
UNDECODED_SILENT = "silent"

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


def gateway_bounds(channel, gw_index, decoded, transmitting):
    """SIC rate bounds at one gateway under descending-gain decoding.

    decoded, transmitting: (..., K) boolean, one geophone per entry of the
    last axis; decoded says whether this gateway decodes the geophone,
    transmitting whether it is on, so that it interferes here when it is
    not decoded.  Returns bounds of the same shape, inf where the geophone
    is not decoded here: a (K,) row runs through the same operations as a
    (B, K) batch.

    Every sum runs sequentially along the last axis, in decode order, so a
    row's bounds do not depend on the batch it is evaluated in: a BLAS
    product or numpy's pairwise sum may add a row in another order
    depending on the batch's shape.
    """
    order, inverse, h2, ph2 = channel.decode_table[gw_index]
    p, n0 = channel.gp_power, channel.noise_power
    fi = decoded[..., order]                 # decoded flags, decode order
    undec = ~fi & transmitting[..., order]
    base_int = p * (undec * h2).cumsum(axis=-1)[..., -1:]
    w = fi * h2
    suffix = w[..., ::-1].cumsum(axis=-1)[..., ::-1] - w
    denom = n0 + p * suffix + base_int
    r = np.log2(1.0 + ph2 / denom)           # denom >= n0 > 0
    return np.where(fi, r, np.inf)[..., inverse]


def combine_bounds(gateway_rows):
    """(rates, sums) from the gateway_bounds of every gateway, (K,) rows
    or (B, K) batches.

    A geophone's rate is the minimum of its bounds across gateways, and 0
    where none decodes it (every bound inf); sums are the totals along the
    last axis, each added left to right so that it does not depend on the
    batch.  The minimum is taken in place in the first gateway's array.
    """
    rows = iter(gateway_rows)
    bounds = next(rows)
    for gw in rows:
        np.minimum(bounds, gw, out=bounds)
    rates = np.where(np.isfinite(bounds), bounds, 0.0)
    return rates, rates.cumsum(axis=-1)[..., -1]


def evaluate_fixed_order_batch(channel, flags_batch, mode):
    """Sum-rates of a batch of assignments under descending-gain SIC.

    flags_batch: (B, K, N) binary array. Returns (rates (B, K), sums (B,)).
    A geophone's rate is the minimum of its gateway_bounds over the
    gateways that decode it, and 0 when none does.
    """
    flags = np.asarray(flags_batch)
    if flags.ndim != 3 or flags.shape[1:] != (channel.num_gps, channel.num_gws):
        raise ValueError("flags_batch must be (B, K, N) matching the channel")
    f = flags.astype(bool)
    active = _active_mask(f, mode.undecoded_gp_policy)  # (B, K)
    return combine_bounds(gateway_bounds(channel, i, f[:, :, i], active)
                          for i in range(channel.num_gws))


def evaluate_fixed_order(channel, assignment, mode=EvaluationMode()):
    """(RateVector, sum_rate) for one assignment under descending-gain SIC."""
    rates, sums = evaluate_fixed_order_batch(
        channel, assignment.flags[None, :, :], mode
    )
    return RateVector(rates[0]), float(sums[0])


def _lp_optimum(channel, flags, mode):
    """(rates, sum_rate) at the optimum of the exact LP for a (K, N) 0/1
    flag matrix; rates is a plain (K,) array.

    The variables are the geophones decoded somewhere, and each gateway
    that decodes any is one group of solve_lp: its decoded geophones,
    weighted by P h^2 / (N0 + the received power of the geophones that
    transmit but are not decoded there).
    """
    f = flags.astype(bool)
    rates = np.zeros(channel.num_gps)
    variables = np.flatnonzero(f.any(axis=1))
    if variables.size == 0:
        return rates, 0.0
    h2 = channel.gains ** 2
    p, n0 = channel.gp_power, channel.noise_power
    active = _active_mask(f, mode.undecoded_gp_policy)
    groups = []
    for i in range(f.shape[1]):
        decoded = np.flatnonzero(f[:, i])
        if decoded.size:
            noise = n0 + p * float(h2[~f[:, i] & active, i].sum())
            groups.append((variables.searchsorted(decoded).tolist(),
                           (p * h2[decoded, i] / noise).tolist()))
    x, value = solve_lp(groups)
    rates[variables] = np.maximum(x, 0.0)
    return rates, value


def evaluate_lp(channel, assignment, mode=EvaluationMode(ORDER_LP)):
    """(RateVector, sum_rate) at the exact optimum of the subset-constraint
    LP; CapacityLimitError beyond simplex.MAX_PIVOTS pivots."""
    flags = assignment.flags
    if flags.shape != (channel.num_gps, channel.num_gws):
        raise ValueError("assignment dimensions do not match the channel")
    rates, value = _lp_optimum(channel, flags, mode)
    return RateVector(rates), value


def evaluate(channel, assignment, mode=EvaluationMode()):
    """Dispatch on mode.order_policy."""
    if mode.order_policy == ORDER_LP:
        return evaluate_lp(channel, assignment, mode)
    return evaluate_fixed_order(channel, assignment, mode)


def search_space_size(num_gps, num_gws):
    """Number of decoding assignments, [sum_i C(K, i)]^N = 2^(K*N), exact."""
    if num_gps < 0 or num_gws < 0:
        raise ValueError("dimensions must be nonnegative")
    return sum(math.comb(num_gps, i) for i in range(num_gps + 1)) ** num_gws
