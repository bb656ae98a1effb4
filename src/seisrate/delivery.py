"""Gateway-to-data-center power and rate allocation.

Three problems over one multiple access channel at the data center:

* min_total_power: deliver the queue rates Q with minimal total power.
  Solved in closed form by decoding in descending channel gain order and
  binding the suffix sum-rate constraints.
* min_max_power: minimize the largest per-gateway power.  Solved in
  closed form by sorting the gateways by q_i/g_i^2 and pooling prefixes
  into the lexicographically optimal base of the power region.  At those
  powers Q lies on the base of the rate polymatroid, and
  time_share_decompose mixes at most N decoding orders that meet it
  exactly.
* max_weighted_sum: allocate a total power budget to maximize a weighted
  sum of gateway rates; concave in the powers once the rate polytope is
  collapsed to its weight-sorted corner, solved exactly by
  pool-adjacent-violators over the prefix received powers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, InfeasibleProblemError

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
    first-decoded gateway sees interference from everyone after it.

    Each rate is log2((N0 + w_incl) / (N0 + w_excl)), where w_incl and
    w_excl are the received powers decoded from this gateway on and after
    it, both summed from the end of the order so no term is subtracted.
    """
    order = np.asarray(order, dtype=int)
    received = np.asarray(powers, dtype=float)[order] * gateways.gains[order] ** 2
    incl = np.cumsum(received[::-1])[::-1]
    excl = np.append(incl[1:], 0.0)
    n0 = gateways.noise_power
    rates = np.zeros(gateways.num_gws)
    rates[order] = np.log2((n0 + incl) / (n0 + excl))
    return rates


def _capacity(received, noise):
    """log2(1 + received / noise), the rate of a set with that received power."""
    return math.log1p(received / noise) / LN2


def _tightest_prefix(items, rates, received, noise):
    """(order, k, slack): the proper prefix order[:k] of the items sorted
    by rates_i / w_i descending with the least slack f(S) - rates(S).

    f(S) = log2(1 + w(S)/noise) is a strictly concave function of the
    modular w(S), so over all subsets f(S) - rates(S) is least at such a
    prefix.  For rates on the base, where the empty and the full set have
    slack 0, order[:k] is thus a most violated set if any is violated and
    a tight set if any is tight.
    """
    order = sorted(items, key=lambda i: -rates[i] / received[i])
    best_k, best = 0, math.inf
    w = r = 0.0
    for k, i in enumerate(order[:-1], 1):
        w += received[i]
        r += rates[i]
        slack = _capacity(w, noise) - r
        if slack < best:
            best_k, best = k, slack
    return order, best_k, best


def _interleave(first, last):
    """Pair two schedules on [0, 1] by their cumulative fractions: each
    piece decodes an order of `first` and then an order of `last`."""
    ends_first = list(itertools.accumulate(lam for _, lam in first))
    ends_last = list(itertools.accumulate(lam for _, lam in last))
    ends_first[-1] = ends_last[-1] = 1.0
    pieces, start, i, j = [], 0.0, 0, 0
    while i < len(first) and j < len(last):
        end = min(ends_first[i], ends_last[j])
        if end > start:
            pieces.append((first[i][0] + last[j][0], end - start))
            start = end
        i += ends_first[i] == end
        j += ends_last[j] == end
    return pieces


def _line_search(items, order, rates, received, noise):
    """Move from the vertex v of the greedy order through `rates` as far as
    the region allows: z = rates + alpha (rates - v) for the largest alpha,
    found by Newton (Dinkelbach) steps on the prefix separator from the
    best singleton bound.  Returns (alpha, z, z's order, k) with z's
    prefix of length k tight, so rates = (z + alpha v) / (1 + alpha), or
    None when no step leaves v: rates <= v with equal sums up to rounding,
    so v alone is the mix."""
    vertex, w = {}, 0.0
    for i in order:  # the first gateway of the greedy order is decoded last
        vertex[i] = _capacity(received[i], noise + w)
        w += received[i]
    step = {i: rates[i] - vertex[i] for i in items}
    alpha = min(((_capacity(received[i], noise) - rates[i]) / step[i]
                 for i in items if step[i] > 0), default=None)
    while alpha is not None:
        z = {i: rates[i] + alpha * step[i] for i in items}
        z_order, k, slack = _tightest_prefix(items, z, received, noise)
        if slack >= 0:
            return alpha, z, z_order, k
        tight = z_order[:k]
        shorter = ((_capacity(sum(received[i] for i in tight), noise)
                    - sum(rates[i] for i in tight))
                   / sum(step[i] for i in tight))
        if not shorter < alpha:  # no progress left but rounding
            return alpha, z, z_order, k
        alpha = shorter
    return None


def _decompose(items, rates, received, noise, tol):
    """(decoding order, fraction) pairs whose corner rates at `noise` mix
    into `rates`, a base of f(S) = log2(1 + w(S)/noise) over `items`.

    A problem with a prefix T tight to within tol splits in two: T decoded
    last at the plain noise (the restriction of f), the rest decoded first
    with T as extra noise (the contraction).  Otherwise _line_search moves
    onto a tight set first and keeps its vertex aside.  Sub-problems are
    queued instead of recursed into, and their schedules are combined
    from the last one back, children before parents.
    """
    problems = [(items, rates, noise)]
    schedules = []   # leaves now, splits on the way back
    plans = []       # (index of the tight child, alpha, vertex order)
    for items, rates, noise in problems:  # grows while it is walked
        plan = schedule = None
        if len(items) == 1:
            schedule = [((items[0],), 1.0)]
        else:
            order, k, slack = _tightest_prefix(items, rates, received, noise)
            alpha, vertex_order = 0.0, None
            if slack > tol:
                vertex_order = tuple(reversed(order))
                moved = _line_search(items, order, rates, received, noise)
                if moved is None:
                    schedule = [(vertex_order, 1.0)]
                else:
                    alpha, rates, order, k = moved
            if schedule is None:
                plan = (len(problems), alpha, vertex_order)
                tight = order[:k]
                problems.append((tight, rates, noise))
                problems.append((order[k:], rates,
                                 noise + sum(received[i] for i in tight)))
        schedules.append(schedule)
        plans.append(plan)
    for index in reversed(range(len(problems))):
        if plans[index] is None:
            continue
        child, alpha, vertex_order = plans[index]
        mixed = _interleave(schedules[child + 1], schedules[child])
        if alpha:
            share = 1.0 / (1.0 + alpha)
            mixed = ([(o, lam * share) for o, lam in mixed]
                     + [(vertex_order, alpha * share)])
        schedules[index] = mixed
    return schedules[0]


def time_share_decompose(gateways, powers):
    """Mix decoding orders so the time-averaged corner rates equal Q.

    At fixed powers the achievable rates form the polymatroid
    f(S) = log2(1 + sum_S P_i g_i^2 / N0), whose vertices are the SIC
    corners, and Q must lie on its base (Tse & Hanly, 1998).  The
    decomposition splits on tight prefixes and otherwise line-searches
    away from one vertex onto a tight set, so it finds a schedule whenever
    Q is on the base, with at most as many orders as gateways with
    positive received power (Caratheodory).  Gateways with no received
    power need Q_i = 0 and are decoded first in every order.  Raises
    DecompositionError when Q is off the base or the rebuilt mix misses Q
    by more than 1e-9 (1 + sum Q).
    """
    p = np.asarray(powers.powers if isinstance(powers, PowerAllocation) else powers,
                   dtype=float)
    q = gateways.queue_rates
    received = p * gateways.gains ** 2
    idle = tuple(i for i in range(gateways.num_gws) if received[i] <= 0)
    live = [i for i in range(gateways.num_gws) if received[i] > 0]
    for i in idle:
        if q[i] > 0:
            raise DecompositionError(
                f"gateway {i} has queued data but no received power")
    scale = 1.0 + float(q.sum())
    tol = 1e-9 * scale
    pieces = [((), 1.0)]
    if live:
        rates = {i: float(q[i]) for i in live}
        power = {i: float(received[i]) for i in live}
        noise = gateways.noise_power
        full = _capacity(sum(power.values()), noise)
        if abs(full - sum(rates.values())) > tol:
            raise DecompositionError(
                f"queue rates sum to {sum(rates.values()):.6g} but the sum "
                f"capacity is {full:.6g}; the sum-rate constraint does not "
                "bind at these powers")
        order, k, slack = _tightest_prefix(live, rates, power, noise)
        if slack < -tol:
            raise DecompositionError(
                f"gateways {sorted(order[:k])} need {-slack:.3g} bps/Hz more "
                "than their capacity at these powers")
        # a split on a prefix short of tight by s moves the mix by at most
        # s, and there are fewer splits than gateways
        pieces = _decompose(live, rates, power, noise, 1e-12 * scale)
    entries = [(idle + order, lam) for order, lam in pieces]
    mixed = sum(lam * corner_rates(gateways, p, order) for order, lam in entries)
    miss = float(np.abs(mixed - q).max())
    if miss > tol:
        raise DecompositionError(
            f"the schedule misses the queue rates by {miss:.3g} bps/Hz")
    return TimeShareSchedule(tuple(entries))


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
    if not (np.isfinite(weights) & (weights >= 0)).all():
        raise ValueError("weights must be finite and nonnegative")
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
