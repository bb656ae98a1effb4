"""Achievable-rate mathematics for the geophone-to-gateway stage.

Two evaluators are provided for a decoding assignment:

* evaluate_fixed_order: each gateway decodes its chosen set in descending
  gain order; a geophone's rate is the minimum of its bounds across the
  gateways that decode it.  Polynomial cost, used by the metaheuristics.
* evaluate_lp: the exact optimum of the sum-rate over the intersection of
  the per-gateway MAC polytopes (one constraint per nonempty subset of
  each decoded set), with its rate vector; used as the reference.  Up to
  two gateways it is closed form: one sort of the geophones decoded at
  both (polymatroid intersection) gives the value, and two SIC corners
  give a rate vector that attains it.  Past two gateways simplex.solve_lp
  generates only the violated constraints, each a prefix of a decoded set
  sorted by rate over received power that simplex.prefix_slacks scans, so
  no exponential row set is built.

The searches need only the value, _lp_sum_rate, which shares the sort and
the prefix sums with evaluate_lp (_ratio_prefixes) but builds no rates.

The undecoded-geophone policy distinguishes the two operating scenarios:
"interferes" (every geophone always transmits) and "silent" (a geophone
decoded nowhere is switched off and causes no interference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .model import _fields_equal, _frozen_array
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
        flags = _frozen_array(self.flags, np.int8)
        if flags.ndim != 2:
            raise ValueError("flags must be a 2-D matrix")
        if not np.isin(flags, (0, 1)).all():
            raise ValueError("flags entries must be 0 or 1")
        object.__setattr__(self, "flags", flags)

    @property
    def num_gps(self):
        return self.flags.shape[0]

    @property
    def num_gws(self):
        return self.flags.shape[1]

    __eq__ = _fields_equal

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
        rates = _frozen_array(self.rates)
        if rates.ndim != 1 or np.any(rates < 0):
            raise ValueError("rates must be a nonnegative vector")
        object.__setattr__(self, "rates", rates)

    @property
    def sum_rate(self):
        return float(self.rates.sum())

    __eq__ = _fields_equal


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


def _active_mask(flags, policy):
    """Which geophones transmit: all of them, or only those decoded somewhere.

    One logical_or per gateway: flags.any(axis=-1) reduces one N-entry row
    at a time, about 9 times as slow on a (100, 40, 4) batch.
    """
    if policy == UNDECODED_SILENT:
        active = flags[..., 0].astype(bool)
        for i in range(1, flags.shape[-1]):
            np.logical_or(active, flags[..., i], out=active)
        return active
    return np.ones(flags.shape[:-1], dtype=bool)


def gateway_bounds(channel, gw_index, decoded, transmitting):
    """SIC rate bounds at gateway gw_index, or at every gateway when it is
    None, under descending-gain decoding.

    transmitting: (..., K) boolean, one geophone per entry of the last
    axis, whether it is on, so that it interferes where it is not decoded.
    decoded: (..., K) boolean for one gateway, whether it decodes each
    geophone; (..., N, K) for every gateway, row i gateway i's.  Returns
    bounds of decoded's shape, inf where a geophone is not decoded: a (K,)
    row runs through the same operations as a (B, K) batch, and row i of
    the every-gateway pass through those of gateway i's own call.

    Every sum runs sequentially along the last axis, in decode order, so a
    row's bounds do not depend on the batch it is evaluated in: a BLAS
    product or numpy's pairwise sum may add a row in another order
    depending on the batch's shape.
    """
    if gw_index is None:
        order, inverse, h2, ph2 = channel.decode_arrays
        at = (np.arange(channel.num_gws)[:, None],)     # row i gathers at i
    else:
        order, inverse, h2, ph2 = channel.decode_table[gw_index]
        at = ()
    p, n0 = channel.gp_power, channel.noise_power
    fi = decoded[(..., *at, order)]          # decoded flags, decode order
    undec = np.greater(transmitting[..., order], fi)   # on, not decoded
    base_int = p * np.add.accumulate(undec * h2, axis=-1)[..., -1:]
    w = fi * h2
    suffix = np.add.accumulate(w[..., ::-1], axis=-1)[..., ::-1] - w
    denom = n0 + p * suffix + base_int
    r = np.log2(1.0 + ph2 / denom)           # denom >= n0 > 0
    return np.where(fi, r, np.inf)[(..., *at, inverse)]


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
    return rates, np.add.accumulate(rates, axis=-1)[..., -1]


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


def _gateway_weights(channel, f, mode):
    """Per gateway, the (K,) weights of its SIC rate polymatroid,
    P h^2 / (N0 + the received power of the geophones that transmit but
    are not decoded there), for a (K, N) boolean flag matrix f."""
    p, n0 = channel.gp_power, channel.noise_power
    active = _active_mask(f, mode.undecoded_gp_policy)
    return [p * h2 / (n0 + p * float(h2[~column & active].sum()))
            for column, h2 in zip(f.T, channel.squared_gains)]


def _ratio_prefixes(w, f):
    """(order, values) of a two-gateway assignment: its weights w =
    (w_1, w_2) and its (K, 2) boolean flags f.

    order lists C, the geophones decoded at both gateways, by w_2 / w_1,
    descending (+inf where w_1 = 0, ties in index order).  values[t] is
    log2(1 + w_1(S)) + log2(1 + w_2(V - S)) for S the geophones decoded
    only at gateway 1 plus T, the first t of the order; each weight sum
    adds nonnegative terms, so none cancels.
    """
    (w1, w2), (d1, d2) = w, f.T
    w1l, w2l = w1.tolist(), w2.tolist()
    order = sorted((d1 & d2).nonzero()[0].tolist(), reverse=True,
                   key=lambda j: w2l[j] / w1l[j] if w1l[j] else math.inf)
    at1 = accumulate((w1l[j] for j in order), initial=float(w1[d1 > d2].sum()))
    at2 = list(accumulate((w2l[j] for j in reversed(order)),
                          initial=float(w2[d2 > d1].sum())))[::-1]
    return order, [math.log2(1.0 + u) + math.log2(1.0 + v) for u, v in zip(at1, at2)]


def _lp_optimum(channel, flags, mode):
    """(rates, sum_rate) at the optimum of the exact LP for a (K, N) 0/1
    flag matrix; rates is a plain (K,) array.

    Up to two gateways the optimum is two SIC corners of T, the first
    prefix of _ratio_prefixes with the least value, and the value is that
    least value.  Gateway 1 serves T and the geophones only it decodes,
    decoding T first in ascending w_2 / w_1 order; gateway 2 serves C - T,
    first and in descending order, then its own.  A served geophone's rate
    is log2(1 + w_j / (1 + the w of those decoded after j there)), so each
    gateway's rates sum to log2(1 + w(its set)) and the two sums to the
    value.  Past two gateways the variables are the geophones decoded
    somewhere, and each gateway that decodes any is one group of
    simplex.solve_lp: its decoded geophones with their _gateway_weights.
    """
    f = flags.astype(bool)
    rates = np.zeros(channel.num_gps)
    w = _gateway_weights(channel, f, mode)
    if len(w) <= 2:
        if len(w) == 1:     # and a second gateway that decodes nothing
            w, f = w * 2, np.column_stack((f, np.zeros_like(f)))
        order, values = _ratio_prefixes(w, f)
        t = values.index(min(values))
        d1, d2 = f.T
        for served, wg in ((order[:t][::-1] + (d1 > d2).nonzero()[0].tolist(), w[0]),
                           (order[t:] + (d2 > d1).nonzero()[0].tolist(), w[1])):
            after = 0.0
            for j in reversed(served):
                rates[j] = math.log2(1.0 + wg[j] / (1.0 + after))
                after += wg[j]
        return rates, values[t]
    variables = np.flatnonzero(f.any(axis=1))
    if variables.size == 0:
        return rates, 0.0
    groups = [(variables.searchsorted(column.nonzero()[0]).tolist(),
               wg[column].tolist()) for column, wg in zip(f.T, w) if column.any()]
    x, value = solve_lp(groups)
    rates[variables] = np.maximum(x, 0.0)
    return rates, value


def _lp_sum_rate(channel, flags, mode):
    """The exact LP's optimal sum-rate for a (K, N) 0/1 flag matrix, the
    value of _lp_optimum without its rates.

    Switched on the gateway count N.  For N <= 2 it is closed form, by
    Edmonds' polymatroid intersection theorem (1970): the maximum of x(V)
    over two polymatroids f_1, f_2 is the minimum over S of
    f_1(S) + f_2(V - S).  With f_g(S) = log2(1 + w_g(S)) on gateway g's
    decoded set, S holds every geophone decoded only at gateway 1, none
    decoded only at gateway 2, and a set T of those decoded at both, C.
    The sum is concave and increasing in (w_1(T), w_2(C - T)), so its
    minimum lies on one of the |C| + 1 prefixes T of C that
    _ratio_prefixes values.  At N = 1 the value is log2(1 + w(D)).  For
    N >= 3, where no such min-max theorem holds, it is _lp_optimum's
    value from the simplex.
    """
    f = flags.astype(bool)
    if f.shape[1] > 2:
        return _lp_optimum(channel, f, mode)[1]
    w = _gateway_weights(channel, f, mode)
    if len(w) == 1:
        return math.log2(1.0 + float(w[0][f[:, 0]].sum()))
    return min(_ratio_prefixes(w, f)[1])


def evaluate_lp(channel, assignment, mode=EvaluationMode(ORDER_LP)):
    """(RateVector, sum_rate) at the exact optimum of the subset-constraint
    LP; past two gateways, CapacityLimitError beyond simplex.MAX_PIVOTS
    pivots."""
    flags = assignment.flags
    if flags.shape != (channel.num_gps, channel.num_gws):
        raise ValueError("assignment dimensions do not match the channel")
    rates, value = _lp_optimum(channel, flags, mode)
    return RateVector(rates), value


def search_space_size(num_gps, num_gws):
    """Number of decoding assignments, [sum_i C(K, i)]^N = 2^(K*N), exact."""
    if num_gps < 0 or num_gws < 0:
        raise ValueError("dimensions must be nonnegative")
    return 2 ** (num_gps * num_gws)
