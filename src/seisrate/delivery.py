"""Gateway-to-data-center power and rate allocation.

Three problems over one multiple access channel at the data center:

* min_total_power: deliver the queue rates Q with minimal total power.
  Solved in closed form by decoding in descending channel gain order and
  binding the suffix sum-rate constraints, and numerically as an LP over
  all subset constraints for cross-checking.
* min_max_power: minimize the largest per-gateway power.  Solved in
  closed form by sorting the gateways by q_i/g_i^2 and pooling prefixes
  into the lexicographically optimal base of the power region, with a
  time-sharing decomposition that mixes decoding orders so the target
  rate point is met exactly.
* max_weighted_sum: allocate a total power budget to maximize a weighted
  sum of gateway rates; concave in the powers once the rate polytope is
  collapsed to its weight-sorted corner, solved exactly by
  pool-adjacent-violators over the prefix received powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, InfeasibleProblemError
from .model import GatewayState
from .simplex import LpInfeasible, solve_lp

LN2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class PowerAllocation:
    """Per-gateway transmit powers in watts."""

    powers: np.ndarray

    def __post_init__(self):
        powers = np.array(self.powers, dtype=float)
        if powers.ndim != 1 or np.any(powers < 0):
            raise ValueError("powers must be a nonnegative vector")
        powers.setflags(write=False)
        object.__setattr__(self, "powers", powers)

    @property
    def total(self):
        return float(self.powers.sum())

    def __eq__(self, other):
        if not isinstance(other, PowerAllocation):
            return NotImplemented
        return np.array_equal(self.powers, other.powers)


@dataclass(frozen=True)
class TimeShareSchedule:
    """(decoding order, time fraction) pairs; fractions sum to one."""

    entries: tuple

    def __post_init__(self):
        entries = tuple((tuple(order), float(lam)) for order, lam in self.entries)
        if any(lam < -1e-12 for _, lam in entries):
            raise ValueError("time fractions must be nonnegative")
        if abs(sum(lam for _, lam in entries) - 1.0) > 1e-9:
            raise ValueError("time fractions must sum to 1")
        object.__setattr__(self, "entries", entries)

    @property
    def orders(self):
        return [order for order, _ in self.entries]

    @property
    def fractions(self):
        return np.array([lam for _, lam in self.entries])


@dataclass(frozen=True)
class WeightedRateSolution:
    powers: PowerAllocation
    rates: np.ndarray
    weights: np.ndarray
    decoding_order: tuple
    off_set: frozenset

    @property
    def objective(self):
        return float(self.weights @ self.rates)


def _required_rate_power(q_sum):
    """2^sum - 1, the linear-scale SNR needed for a sum rate q_sum."""
    return math.pow(2.0, q_sum) - 1.0


def descending_gain_order(gateways, active=None):
    """Gateway indices sorted by descending gain, ties to the lower index."""
    n = gateways.num_gws
    idx = range(n) if active is None else active
    return tuple(sorted(idx, key=lambda i: (-gateways.gains[i], i)))


def min_total_power_closed_form(gateways):
    """(PowerAllocation, decoding order) minimizing total power.

    Decoding follows descending channel gains; each suffix sum-rate
    constraint binds, which pins every power down.  Gateways with zero
    queues transmit nothing and are left out of the order.
    """
    q = gateways.queue_rates
    g = gateways.gains
    n0 = gateways.noise_power
    active = [i for i in range(gateways.num_gws) if q[i] > 0]
    for i in active:
        if g[i] == 0:
            raise InfeasibleProblemError(
                f"gateway {i} has queued data but zero channel gain"
            )
    order = descending_gain_order(gateways, active)
    powers = np.zeros(gateways.num_gws)
    suffix_q = 0.0
    # walk the order backwards: the last-decoded gateway is interference-free
    for k in range(len(order) - 1, -1, -1):
        i = order[k]
        new_suffix = suffix_q + q[i]
        powers[i] = n0 * (_required_rate_power(new_suffix)
                          - _required_rate_power(suffix_q)) / g[i] ** 2
        suffix_q = new_suffix
    cap = gateways.per_gw_power_cap
    if cap is not None:
        worst = int(np.argmax(powers))
        if powers[worst] > cap * (1 + 1e-12):
            raise InfeasibleProblemError(
                f"gateway {worst} needs {powers[worst]:.6g} W, above the "
                f"per-gateway cap {cap:.6g} W"
            )
    return PowerAllocation(powers), order


def _subset_constraint_rows(gateways, members):
    """LP rows: for each nonempty subset of members, sum of P_i g_i^2 over
    the subset must reach N0 (2^(sum Q) - 1).  Returned in <= form
    (negated) over variables indexed by position in `members`."""
    q = gateways.queue_rates
    g2 = gateways.gains ** 2
    n0 = gateways.noise_power
    nm = len(members)
    rows, rhs = [], []
    for mask in range(1, 1 << nm):
        sel = [(mask >> t) & 1 for t in range(nm)]
        row = np.array([-g2[members[t]] if sel[t] else 0.0 for t in range(nm)])
        q_sum = sum(q[members[t]] for t in range(nm) if sel[t])
        rows.append(row)
        rhs.append(-n0 * _required_rate_power(q_sum))
    return np.array(rows), np.array(rhs)


def min_total_power_convex(gateways):
    """Numerical solve of the min-total problem over all subset constraints."""
    q = gateways.queue_rates
    members = [i for i in range(gateways.num_gws) if q[i] > 0]
    powers = np.zeros(gateways.num_gws)
    if not members:
        return PowerAllocation(powers)
    for i in members:
        if gateways.gains[i] == 0:
            raise InfeasibleProblemError(
                f"gateway {i} has queued data but zero channel gain"
            )
    a, b = _subset_constraint_rows(gateways, members)
    cap = gateways.per_gw_power_cap
    if cap is not None:
        a = np.vstack([a, np.eye(len(members))])
        b = np.concatenate([b, np.full(len(members), cap)])
    try:
        x, _ = solve_lp(np.ones(len(members)), a, b)
    except LpInfeasible:
        raise InfeasibleProblemError(
            "queue rates are not deliverable under the per-gateway power cap"
        )
    powers[members] = np.maximum(x, 0.0)
    return PowerAllocation(powers)


def min_max_power(gateways):
    """(PowerAllocation, max power) minimizing the largest per-gateway power.

    In received-power coordinates x_i = P_i g_i^2 the deliverable region is
    the contra-polymatroid x(S) >= N0 (2^Q(S) - 1) over subsets S of the
    gateways with queued data.  Sorted by q_i / g_i^2 descending, the
    smallest common power meeting every constraint is
    t* = max over prefixes S of N0 (2^Q(S) - 1) / g^2(S).  The powers are
    the lexicographically optimal base (Fujishige): every gateway of the
    longest maximizing prefix gets t*, and the rest of the order is solved
    again with N0 replaced by N0 2^Q(prefix).  The result is unique, the
    sum-rate constraint binds, and the returned peak is t*.
    """
    q = gateways.queue_rates
    g2 = gateways.gains ** 2
    members = [i for i in range(gateways.num_gws) if q[i] > 0]
    powers = np.zeros(gateways.num_gws)
    if not members:
        return PowerAllocation(powers), 0.0
    for i in members:
        if g2[i] == 0:
            raise InfeasibleProblemError(
                f"gateway {i} has queued data but zero channel gain"
            )
    order = np.array(sorted(members, key=lambda i: (-q[i] / g2[i], i)))
    noise = gateways.noise_power
    while order.size:
        q_prefix = np.cumsum(q[order])
        ratios = noise * np.expm1(LN2 * q_prefix) / np.cumsum(g2[order])
        k = order.size - 1 - int(np.argmax(ratios[::-1]))  # longest maximizer
        powers[order[:k + 1]] = ratios[k]
        noise *= math.pow(2.0, q_prefix[k])
        order = order[k + 1:]
    peak = float(powers.max())  # the first block's level
    cap = gateways.per_gw_power_cap
    if cap is not None and peak > cap * (1 + 1e-9):
        raise InfeasibleProblemError(
            f"minimal peak power {peak:.6g} W exceeds the cap {cap:.6g} W"
        )
    return PowerAllocation(powers), peak


def corner_rates(gateways, powers, order):
    """SIC rate vector for one decoding order at the given powers; the
    first-decoded gateway sees interference from everyone after it."""
    p = np.asarray(powers, dtype=float)
    g2 = gateways.gains ** 2
    n0 = gateways.noise_power
    rates = np.zeros(gateways.num_gws)
    suffix = float(sum(p[i] * g2[i] for i in order))
    for i in order:
        own = p[i] * g2[i]
        rates[i] = math.log2(1.0 + own / (n0 + suffix - own))
        suffix -= own
    return rates


def cyclic_orders(n):
    """Cyclic shifts of (0..n-1) starting at 0 then n-1 down to 1."""
    starts = [0] + list(range(n - 1, 0, -1))
    return [tuple((s + t) % n for t in range(n)) for s in starts]


def time_share_decompose(gateways, powers, orders=None, max_flips=None):
    """Mix decoding orders so the time-averaged corner rates equal Q.

    Solves corner_matrix @ fractions = Q; a negative fraction means the
    target lies outside the spanned cone, in which case the offending
    order is reversed and the system re-solved (up to N retries).
    """
    n = gateways.num_gws
    if orders is None:
        orders = cyclic_orders(n)
    orders = [tuple(o) for o in orders]
    if len(orders) != n:
        raise ValueError(f"expected {n} decoding orders, got {len(orders)}")
    for o in orders:
        if sorted(o) != list(range(n)):
            raise ValueError(f"order {o} is not a permutation of 0..{n - 1}")
    p = np.asarray(powers.powers if isinstance(powers, PowerAllocation) else powers,
                   dtype=float)
    q = gateways.queue_rates
    if max_flips is None:
        max_flips = n
    orders = list(orders)
    for _ in range(max_flips + 1):
        corner_matrix = np.column_stack([corner_rates(gateways, p, o) for o in orders])
        try:
            lam = np.linalg.solve(corner_matrix, q)
        except np.linalg.LinAlgError:
            raise DecompositionError("corner rate vectors are linearly dependent")
        neg = np.nonzero(lam < -1e-9)[0]
        if neg.size == 0:
            lam = np.maximum(lam, 0.0)
            if abs(lam.sum() - 1.0) > 1e-6:
                raise DecompositionError(
                    f"fractions sum to {lam.sum():.6g}; the sum-rate "
                    "constraint does not bind at these powers"
                )
            lam = lam / lam.sum()
            return TimeShareSchedule(tuple(zip(orders, lam)))
        worst = int(neg[np.argmin(lam[neg])])
        orders[worst] = tuple(reversed(orders[worst]))
    raise DecompositionError(
        f"negative fraction persists for order {orders[worst]} after "
        f"{max_flips} flips; the target rates are outside the face spanned "
        "by these decoding orders"
    )


def weights_from_queues(queue_rates):
    """Normalized weights proportional to the stored data rates."""
    q = np.asarray(queue_rates, dtype=float)
    total = q.sum()
    if total <= 0:
        raise ValueError("queue rates must have a positive sum")
    return q / total


def max_weighted_sum(gateways, weights=None, total_cap=None):
    """Maximize the weighted sum of gateway rates under a total power cap.

    For fixed powers the best SIC corner decodes the lightest weight first.
    In the prefix received powers Y_k of the k heaviest gateways (zero
    weights and zero gains left out) the objective becomes
    sum_k c_k log2(1 + Y_k/N0) with c_k = w_k - w_{k+1}, subject to the
    chain 0 <= Y_1 <= ... <= Y_n and the budget sum_k d_k Y_k <= cap, where
    d_k = 1/g_k^2 - 1/g_{k+1}^2.  A block of pooled positions with equal Y
    is optimal at Y = C/(D ln2 mu) - N0, so pool-adjacent-violators merges
    neighbours while the left C/D is not below the right one (Best,
    Chakravarti & Ubhaya, 2000); merging never depends on the multiplier
    mu of the binding budget, which then has a closed form over the
    suffix of blocks with Y > 0.
    """
    if weights is None:
        weights = weights_from_queues(gateways.queue_rates)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (gateways.num_gws,):
        raise ValueError("weights length must equal the gateway count")
    if abs(weights.sum() - 1.0) > 1e-6:
        raise ValueError("weights must sum to 1")
    if total_cap is None:
        total_cap = gateways.total_power_cap
    if total_cap is None or total_cap <= 0:
        raise ValueError("a positive total power cap is required")

    n = gateways.num_gws
    g2 = gateways.gains ** 2
    n0 = gateways.noise_power
    by_weight_desc = sorted(range(n), key=lambda i: (-weights[i], i))
    active = [i for i in by_weight_desc if weights[i] > 0 and g2[i] > 0]
    p = np.zeros(n)
    if active:
        w = np.append(weights[active], 0.0)
        inv_g2 = np.append(1.0 / g2[active], 0.0)
        # block t spans positions starts[t] .. starts[t + 1] - 1, so its
        # C and D telescope to differences of w and 1/g^2 at its ends
        starts = []
        for k in range(len(active)):
            starts.append(k)
            while len(starts) > 1:
                left, right, end = starts[-2], starts[-1], k + 1
                c_left, d_left = w[left] - w[right], inv_g2[left] - inv_g2[right]
                c_right, d_right = w[right] - w[end], inv_g2[right] - inv_g2[end]
                if d_left > 0 and (d_right <= 0 or c_left * d_right < c_right * d_left):
                    break
                starts.pop()
        # every block now has D > 0, and a = C/(D ln2) increases along them
        ends = starts[1:] + [len(active)]
        d_blk = inv_g2[starts] - inv_g2[ends]
        a = (w[starts] - w[ends]) / (d_blk * LN2)
        # the budget binds over the suffix of blocks with Y = a/mu - N0 > 0:
        # the first suffix whose leading block stays positive is that suffix
        d_suffix = np.cumsum(d_blk[::-1])[::-1]
        da_suffix = np.cumsum((d_blk * a)[::-1])[::-1]
        inv_mu = (total_cap + n0 * d_suffix) / da_suffix
        j = int(np.argmax(a * inv_mu > n0))
        y = np.maximum(a * inv_mu[j] - n0, 0.0)
        # within a block only the first gateway adds received power
        first = [active[k] for k in starts]
        p[first] = np.diff(y, prepend=0.0) / g2[first]
    p = np.where(p < 1e-9 * total_cap, 0.0, p)
    off = frozenset(int(i) for i in range(n) if p[i] == 0.0)
    # lightest weight decoded first, so heavier gateways see less interference
    order = tuple(i for i in reversed(by_weight_desc) if i not in off)
    rates = corner_rates(gateways, p, order)
    return WeightedRateSolution(
        powers=PowerAllocation(p),
        rates=rates,
        weights=weights,
        decoding_order=order,
        off_set=off,
    )
