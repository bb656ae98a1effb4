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
  exactly, found in one loop over a chain of tight sets.
* max_weighted_sum: allocate a total power budget to maximize a weighted
  sum of gateway rates; concave in the powers once the rate polytope is
  collapsed to its weight-sorted corner, solved exactly by
  pool-adjacent-violators over the prefix received powers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CapacityLimitError, DecompositionError, InfeasibleProblemError

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


def _queued(gateways):
    """(the gateways with queued data, squared gains); raises when one of
    them has no channel."""
    q = gateways.queue_rates
    g2 = gateways.gains ** 2
    queued = [i for i in range(gateways.num_gws) if q[i] > 0]
    for i in queued:
        if g2[i] == 0:
            raise InfeasibleProblemError(
                f"gateway {i} has queued data but zero channel gain")
    return queued, g2


def _stacked_noise_powers(gateways, blocks):
    """Powers for SIC blocks (gateways, Q(B), g^2(B)), listed from the one
    decoded last.  With the blocks before it as noise, each gateway of B
    gets N0 2^Q(before) (2^Q(B) - 1) / g^2(B): N0 / g^2(B) times the SNR,
    inf only when the power does not fit in a float.  Where 2^Q of the
    blocks walked would not fit, one of their gateways needs at least
    N0 (2^Q - 1) / g^2 of them: infeasible under a smaller per-gateway
    cap, else out of range."""
    powers = np.zeros(gateways.num_gws)
    n0 = gateways.noise_power
    level, q_walked, g2_walked = 1.0, 0.0, 0.0  # level = 2^Q(before)
    for members, q_block, g2_block in blocks:
        q_walked += q_block
        g2_walked += g2_block
        if q_walked >= sys.float_info.max_exp:
            log2_need = math.log2(n0) + q_walked - math.log2(g2_walked)
            cap = gateways.per_gw_power_cap
            if cap is not None and log2_need > math.log2(cap):
                raise InfeasibleProblemError(
                    f"the queues need a gateway power of at least "
                    f"2^{log2_need:.6g} W, above the per-gateway cap {cap:.6g} W")
            raise CapacityLimitError(
                f"a sum rate of {q_walked:.6g} bps/Hz needs the SNR "
                f"2^{q_walked:.6g}, which does not fit in a float")
        powers[members] = n0 / g2_block * (level * math.expm1(LN2 * q_block))
        level *= 2.0 ** q_block
    return powers


def _watts(power):
    """A power for a message: in W, or that it does not fit in a float."""
    if math.isfinite(power):
        return f"{power:.6g} W"
    return "a power that does not fit in a float"


def _finite(powers):
    """The powers, checked to fit in a float; a per-gateway cap they exceed
    has already been reported as infeasible."""
    if not np.isfinite(powers).all():
        raise CapacityLimitError("a gateway power does not fit in a float")
    return powers


def descending_gain_order(gateways, active=None):
    """Gateway indices sorted by descending gain, ties to the lower index."""
    idx = range(gateways.num_gws) if active is None else active
    return tuple(sorted(idx, key=lambda i: (-gateways.gains[i], i)))


def min_total_power_closed_form(gateways):
    """(PowerAllocation, decoding order) minimizing total power.

    Decoding follows descending channel gains; each suffix sum-rate
    constraint binds, so each gateway is one block of the stacked-noise walk.
    Gateways with zero queues transmit nothing and are left out of the order.
    """
    queued, g2 = _queued(gateways)
    order = descending_gain_order(gateways, queued)
    q, g2 = gateways.queue_rates.tolist(), g2.tolist()
    powers = _stacked_noise_powers(
        gateways, ((i, q[i], g2[i]) for i in reversed(order)))
    cap = gateways.per_gw_power_cap
    if cap is not None:
        worst = int(np.argmax(powers))
        if powers[worst] > cap * (1 + 1e-12):
            raise InfeasibleProblemError(
                f"gateway {worst} needs {_watts(powers[worst])}, above the "
                f"per-gateway cap {cap:.6g} W")
    return PowerAllocation(_finite(powers)), order


def _longest_maximizing_prefixes(q, g2, order):
    """Blocks (gateways, Q(B), g^2(B)) of the lexicographically optimal
    base: each is the longest prefix S of what is left of the order that
    maximizes (2^Q(S) - 1) / g^2(S)."""
    while order.size:
        q_prefix = np.cumsum(q[order])
        g2_prefix = np.cumsum(g2[order])
        ratios = np.expm1(LN2 * q_prefix) / g2_prefix
        k = order.size - 1 - int(np.argmax(ratios[::-1]))
        yield order[:k + 1], float(q_prefix[k]), float(g2_prefix[k])
        order = order[k + 1:]


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
    queued, g2 = _queued(gateways)
    q = gateways.queue_rates
    # a ratio past the float range is inf, and so is its power, reported below
    with np.errstate(over="ignore"):
        order = np.array(sorted(queued, key=lambda i: (-q[i] / g2[i], i)), dtype=int)
        powers = _stacked_noise_powers(
            gateways, _longest_maximizing_prefixes(q, g2, order))
    peak = float(powers.max())  # the first block's level
    cap = gateways.per_gw_power_cap
    if cap is not None and peak > cap * (1 + 1e-9):
        raise InfeasibleProblemError(
            f"the minimal peak power is {_watts(peak)}, above the cap {cap:.6g} W")
    return PowerAllocation(_finite(powers)), peak


def corner_rates(gateways, powers, order):
    """SIC rate vector for one decoding order at the given powers; the
    first-decoded gateway sees interference from everyone after it.

    Each rate is log2((N0 + w_incl) / (N0 + w_excl)), where w_incl and
    w_excl are the received powers decoded from this gateway on and after
    it, both summed from the end of the order so no term is subtracted.
    CapacityLimitError when a received power or such an SNR does not fit
    in a float.
    """
    order = np.asarray(order, dtype=int)
    n0 = gateways.noise_power
    with np.errstate(over="ignore", invalid="ignore"):
        received = np.asarray(powers, dtype=float)[order] * gateways.gains[order] ** 2
        incl = np.cumsum(received[::-1])[::-1]
        snr = (n0 + incl) / (n0 + np.append(incl[1:], 0.0))
    if not np.isfinite(snr).all():
        raise CapacityLimitError("a received power or SNR does not fit in a float")
    rates = np.zeros(gateways.num_gws)
    rates[order] = np.log2(snr)
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


def _line_search(items, vertex, rates, received, noise):
    """Move from the vertex v, a dict of corner rates, through `rates` as
    far as the region allows: z = rates + alpha (rates - v) for the
    largest alpha, found by Newton (Dinkelbach) steps on the prefix
    separator from the best singleton bound.  Returns (alpha, z's order, k)
    with z's prefix of length k tight, so rates = (z + alpha v) / (1 + alpha),
    or None when no step leaves v: rates <= v with equal sums up to
    rounding, so v alone is the mix."""
    step = {i: rates[i] - vertex[i] for i in items}
    alpha = min(((_capacity(received[i], noise) - rates[i]) / step[i]
                 for i in items if step[i] > 0), default=None)
    while alpha is not None:
        z = {i: rates[i] + alpha * step[i] for i in items}
        z_order, k, slack = _tightest_prefix(items, z, received, noise)
        if slack >= 0:
            return alpha, z_order, k
        tight = z_order[:k]
        shorter = ((_capacity(sum(received[i] for i in tight), noise)
                    - sum(rates[i] for i in tight))
                   / sum(step[i] for i in tight))
        if not shorter < alpha:  # no progress left but rounding
            return alpha, z_order, k
        alpha = shorter
    return None


def _split(order, k, received, noise):
    """[(order[:k], noise), (order[k:], noise + w(order[:k]))]: the prefix
    is decoded after the rest, which sees it as noise.  Pushed on a stack,
    the rest comes off first."""
    tight = order[:k]
    return [(tight, noise), (order[k:], noise + sum(received[i] for i in tight))]


def _decompose(items, rates, received, noise, tol):
    """(decoding order, fraction) pairs whose corner rates at `noise` mix
    into `rates`, a base of f(S) = log2(1 + w(S)/noise) over `items`.

    The chain holds blocks in decoding order, each with its step alpha,
    its greedy order and its noise: `noise` plus the received power of the
    blocks decoded after it.  A new block with a prefix tight to within
    tol splits there at once; any other steps from its vertex v onto a
    tight set of z, so its rates are (z + alpha v) / (1 + alpha).  The
    smallest alpha gives the joint vertex alpha / (1 + alpha) of the time
    left, from the end of the schedule back.  Its block splits at its
    tight set, and every other block keeps its vertex for the rest of its
    step, (alpha_b - alpha) / (1 + alpha).
    """
    rates = dict(rates)  # each block's rates move to its z
    chain, at, todo = [], 0, [(items, noise)]
    pieces, share = [], 1.0
    while True:
        blocks = []
        while todo:  # new blocks, in decoding order
            items, noise = todo.pop()
            order, alpha, cut = tuple(items), math.inf, None
            if len(items) > 1:
                order, k, slack = _tightest_prefix(items, rates, received, noise)
                if slack <= tol:
                    todo += _split(order, k, received, noise)
                    continue
                vertex, w = {}, 0.0
                for i in order:  # the first of the greedy order is decoded last
                    vertex[i] = _capacity(received[i], noise + w)
                    w += received[i]
                moved = _line_search(items, vertex, rates, received, noise)
                if moved is not None:
                    alpha, *cut = moved
                    for i in items:
                        rates[i] += alpha * (rates[i] - vertex[i])
                order = tuple(reversed(order))
            blocks.append([alpha, order, noise, cut])
        chain[at:at + 1] = blocks
        at = min(range(len(chain)), key=lambda b: chain[b][0])
        alpha, _, noise, cut = chain[at]
        if alpha == math.inf:
            break
        if alpha > 0:
            pieces.append((tuple(i for b in chain for i in b[1]),
                           share * alpha / (1.0 + alpha)))
            share /= 1.0 + alpha
            for b in chain:
                b[0] = (b[0] - alpha) / (1.0 + alpha)
        todo = _split(*cut, received, noise)
    pieces.append((tuple(i for b in chain for i in b[1]), share))
    return pieces[::-1]


def time_share_decompose(gateways, powers):
    """Mix decoding orders so the time-averaged corner rates equal Q.

    At fixed powers the achievable rates form the polymatroid
    f(S) = log2(1 + sum_S P_i g_i^2 / N0), whose vertices are the SIC
    corners, and Q must lie on its base (Tse & Hanly, 1998).  One loop
    refines a chain of tight sets (Fujishige, 2005), each decoded with the
    sets decoded after it as noise, and emits each joint vertex of the
    chain once, so it finds a schedule whenever Q is on the base, with at
    most as many orders as gateways with positive received power.
    Gateways with no received power need Q_i = 0 and are decoded first in
    every order.  Raises DecompositionError when Q is off the base or the
    mix misses Q by more than 1e-9 (1 + sum Q), and CapacityLimitError
    when N0 plus the received power does not fit in a float.
    """
    p = np.asarray(powers.powers if isinstance(powers, PowerAllocation) else powers,
                   dtype=float)
    q = gateways.queue_rates
    with np.errstate(over="ignore"):
        received = p * gateways.gains ** 2
        if not math.isfinite(gateways.noise_power + received.sum()):
            raise CapacityLimitError("the received power does not fit in a float")
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
    if total_cap is None or not (math.isfinite(total_cap) and total_cap > 0):
        raise ValueError("a finite positive total power cap is required")

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
