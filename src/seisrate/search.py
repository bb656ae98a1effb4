"""Search over decoding assignments: exhaustive oracle, two binary PSO
variants, two ant-colony variants and simulated annealing.

All searches are seeded and deterministic.  The objective is the sum-rate
of an assignment under the evaluator selected by the EvaluationMode
(descending-gain corners by default, exact LP on request).  Population
algorithms spend exactly M objective evaluations per iteration, I
iterations total; SA spends the same M*I budget in single evaluations
plus one evaluation per restart.

Exhaustive search under the fixed-order evaluator does not evaluate
assignments one by one: a gateway's bounds depend only on which geophones
it decodes and which of the others transmit, so it computes them once per
distinct column pattern and builds every assignment's sum-rate from table
rows, with the same bits as evaluate_fixed_order_batch.  Those bits do
not depend on the batch, so up to ES_VALUES_CAP assignments it keeps
every value, and a search given them (es_values) reads its values there
instead of evaluating, with the same trace.  Above that cap it keeps
only the best; it then bounds every block of 2^14 assignments first
(_block_bounds), visits the blocks best bound first and stops once no
block left can reach the best value.  The winner is the same
lexicographically smallest maximizer as a full enumeration's, with the
same bits.  Without es_values, SA uses the same fact one move at a time:
a move recomputes only the bounds it changes (_Objective).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityLimitError
from .rates import (
    ORDER_LP,
    UNDECODED_SILENT,
    DecodingAssignment,
    EvaluationMode,
    _active_mask,
    _lp_sum_rate,
    combine_bounds,
    evaluate_fixed_order_batch,
    evaluate_lp,  # noqa: F401  (perfbench/tracer.py wraps it here)
    gateway_bounds,
    search_space_size,
)

# At 2^24 assignments, with one BLAS thread on a 2-vCPU machine,
# exhaustive_search takes 0.01-0.63 s at 12 x 2, 8 x 3, 6 x 4, 4 x 6,
# 3 x 8, 2 x 12 and 24 x 1 in either scenario (seeds 1-3): the block bound
# stops it after 1-443 of the 1024 blocks, and after one at 24 x 1.  Peak
# RSS is 38-39 MB, 58 MB at 24 x 1, as memory follows the 2^14-assignment
# block, not the space.  The cap bounds the case where the bound prunes
# nothing: visiting every block takes 0.9-2.8 s at 12 x 2 and 28 s at
# 24 x 1 in scenario 2.
# lp-exact ES evaluates one LP per assignment: 1.6-2.6 s for the 2^16 of
# 8 x 2 (seeds 1-3, either scenario), each value in closed form.
# Campaigns run ES whenever the space fits,
# so the caps also decide which campaigns report mse_vs_es.
EXHAUSTIVE_CAP = 2 ** 24
LP_EXHAUSTIVE_CAP = 2 ** 16

# exhaustive_search keeps every assignment's sum-rate when the space has
# at most this many: 512 KB at 2^16, the paper's 8 x 2.  A campaign passes
# them to the metaheuristics on that channel, which then look their
# values up instead of evaluating; larger spaces keep only the best.
ES_VALUES_CAP = 2 ** 16

# exhaustive_search's inner block: the low 14 bits of the flat index
BLOCK_BITS = 14

# _block_bounds works through its blocks in chunks of at most this many
# rows of K rates: the chunk stays in cache and below the pattern tables'
# memory, so the bound adds nothing to a search's peak
_BOUND_ROWS = 1 << 12

HEURISTIC_NONE = "none"
HEURISTIC_GW_AVERAGE = "gw-average"
HEURISTIC_GW_AVERAGE_DEACTIVATION = "gw-average+gp-deactivation"
HEURISTICS = (HEURISTIC_NONE, HEURISTIC_GW_AVERAGE, HEURISTIC_GW_AVERAGE_DEACTIVATION)

# pheromone shift for turning clamped values into valid probabilities
_TAU_SHIFT_EPS = 1e-6

# ACO: the pheromone bounds (MMAS's start and clamp; TAU_MIN also shifts
# the pheromones), the deactivation prior's gain percentile and eta_0 boost
TAU_MIN, TAU_MAX = -7.0, 7.0
DEACTIVATION_PERCENTILE = 25.0
DEACTIVATION_BOOST = 4.0

# PSO: cognitive and social acceleration, ampso's inertia, and the
# velocity clamp of each variant
PSO_C1 = 1.496
PSO_C2 = 1.496
PSO_INERTIA = 0.729
V_MAX_AMPSO = 4.0
V_MAX_DPSO = 6.0


def scenario_heuristic(scenario):
    """Default ACO prior for a scenario: gain-based when undecoded geophones
    interfere (1), plus weak-geophone deactivation when they fall silent (2)."""
    return (HEURISTIC_GW_AVERAGE if scenario == 1
            else HEURISTIC_GW_AVERAGE_DEACTIVATION)


@dataclass(frozen=True)
class SearchBudget:
    """Computational budget: M population members, I iterations.

    sa_max_temperature defaults to M*I, the paper-style budget coupling;
    SA consumes M*I single-state evaluations so the comparison is fair.
    """

    population: int
    iterations: int
    sa_max_temperature: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.population < 1 or self.iterations < 1:
            raise ValueError("population and iterations must be >= 1")
        if self.sa_max_temperature is not None and self.sa_max_temperature < 1:
            raise ValueError("sa_max_temperature must be >= 1")

    @property
    def evaluation_budget(self):
        return self.population * self.iterations

    @property
    def max_temperature(self):
        if self.sa_max_temperature is not None:
            return float(self.sa_max_temperature)
        return float(self.evaluation_budget)

    def rng(self):
        return np.random.default_rng(self.seed)


@dataclass(frozen=True)
class AcoParams:
    evaporation: float = 0.1
    heuristic_mode: str = HEURISTIC_NONE

    def __post_init__(self):
        if not 0.0 <= self.evaporation <= 1.0:
            raise ValueError("evaporation must be in [0, 1]")
        if self.heuristic_mode not in HEURISTICS:
            raise ValueError(f"unknown heuristic_mode {self.heuristic_mode!r}")


@dataclass
class SearchTrace:
    """Best-so-far sum-rate per iteration plus the winning assignment."""

    best_per_iteration: np.ndarray
    best_assignment: DecodingAssignment
    best_sum_rate: float
    evaluations: int
    wall_time: float
    algorithm: str = ""


class _State(NamedTuple):
    """An SA state: flat boolean flags, their sum-rate and what
    _Objective.flip needs to evaluate a neighbour, the flat index with
    es_values, or the (N, K) bounds of every gateway and the transmitting
    mask under the fixed-order evaluator."""

    flags: np.ndarray
    value: float
    index: int | None = None
    bounds: np.ndarray | None = None
    transmitting: np.ndarray | None = None


class _Objective:
    """Counts evaluations, dispatches to the configured evaluator and keeps
    the best assignment seen.

    A batch replaces the best only with a strictly larger value, and the
    first maximizer of the batch wins a tie.  record() appends the best so
    far to the per-iteration history that trace() returns.

    es_values, exhaustive search's sum-rates of every assignment on this
    channel and mode (ExhaustiveResult.values), replace the evaluator:
    batch() reads each assignment's value at its flat index.  Both
    evaluators give an assignment's value the same bits in any batch, so
    the searches see exactly the values they would compute.

    SA walks by one-bit moves through start() and flip(), one evaluation
    each.  With es_values a state keeps its flat index, and a move reads
    the value at the index with the bit flipped.  Under lp a move is
    batch() on one row.  Under the fixed-order evaluator a state keeps
    every gateway's bounds as one (N, K) array, filled by one
    every-gateway gateway_bounds pass.  A move recomputes only the flipped
    bit's gateway row, or, when in scenario 2 it switches its geophone on
    or off, every row in one pass; the sum-rate is combine_bounds' of the
    minimum over gateways.  gateway_bounds gives a row the bits it has in
    any batch, so the values are batch()'s.

    Under lp, the value is _lp_sum_rate's, and lp_values maps each
    assignment already solved in this search (the bytes of its boolean
    flags) to it, so no assignment is solved twice; every evaluation still
    counts.
    """

    def __init__(self, channel, mode, es_values=None):
        self.channel = channel
        self.mode = mode
        self.shape = (channel.num_gps, channel.num_gws)
        self.count = 0
        self.best_sum = -np.inf
        self.best_flags = None
        self.history = []
        d = channel.num_gps * channel.num_gws
        if es_values is not None and len(es_values) != 1 << d:
            raise ValueError(f"es_values must hold all 2^{d} assignments")
        self.es_values = es_values
        self.lp_values = {}
        self.place = 1 << np.arange(d - 1, -1, -1, dtype=np.int64)
        self.t0 = time.perf_counter()

    def _tally(self, flags_batch, sums):
        self.count += flags_batch.shape[0]
        t = int(np.argmax(sums))
        if sums[t] > self.best_sum:
            self.best_sum = float(sums[t])
            self.best_flags = np.array(flags_batch[t], dtype=np.int8)

    def batch(self, flags_batch):
        """Sum-rates of (B, K, N) or flat (B, K*N) flags."""
        flags_batch = np.asarray(flags_batch).reshape(-1, *self.shape)
        if self.es_values is not None:
            sums = self.es_values[
                flags_batch.reshape(len(flags_batch), -1) @ self.place]
        elif self.mode.order_policy == ORDER_LP:
            sums = np.array([self._lp_value(flags)
                             for flags in flags_batch.astype(bool)])
        else:
            _, sums = evaluate_fixed_order_batch(self.channel, flags_batch, self.mode)
        self._tally(flags_batch, sums)
        return sums

    def _lp_value(self, flags):
        key = flags.tobytes()
        value = self.lp_values.get(key)
        if value is None:
            value = self.lp_values[key] = _lp_sum_rate(self.channel, flags, self.mode)
        return value

    def _kept(self, state):
        self.count += 1
        if state.value > self.best_sum:
            self.best_sum = state.value
            self.best_flags = state.flags.reshape(self.shape).astype(np.int8)
        return state

    def _with_bounds(self, flags, bounds, transmitting):
        # one row, the minimum over gateways: combine_bounds only sums it
        _, total = combine_bounds([np.minimum.reduce(bounds)])
        return self._kept(_State(flags, float(total), None, bounds, transmitting))

    def start(self, flags):
        """The _State at flat (K*N,) boolean flags."""
        if self.es_values is not None:
            index = int(flags @ self.place)
            return self._kept(_State(flags, float(self.es_values[index]), index))
        if self.mode.order_policy == ORDER_LP:
            return _State(flags, float(self.batch(flags[None])[0]))
        f = flags.reshape(self.shape)
        transmitting = _active_mask(f, self.mode.undecoded_gp_policy)
        return self._with_bounds(
            flags, gateway_bounds(self.channel, None, f.T, transmitting), transmitting)

    def flip(self, state, bit):
        """The _State with flat bit flipped."""
        flags = state.flags.copy()
        flags[bit] = not flags[bit]
        if state.index is not None:
            index = state.index ^ int(self.place[bit])
            return self._kept(_State(flags, float(self.es_values[index]), index))
        if state.bounds is None:            # lp: batch() on one row
            return self.start(flags)
        j, i = divmod(bit, self.shape[1])
        f = flags.reshape(self.shape)
        transmitting = state.transmitting
        if (self.mode.undecoded_gp_policy == UNDECODED_SILENT
                and (np.count_nonzero(f[j]) > 0) != transmitting[j]):
            transmitting = transmitting.copy()
            transmitting[j] = not transmitting[j]
            bounds = gateway_bounds(self.channel, None, f.T, transmitting)
        else:
            bounds = state.bounds.copy()
            bounds[i] = gateway_bounds(self.channel, i, f[:, i], transmitting)
        return self._with_bounds(flags, bounds, transmitting)

    def record(self):
        self.history.append(self.best_sum)

    def trace(self, algorithm):
        return SearchTrace(
            best_per_iteration=np.array(self.history),
            best_assignment=DecodingAssignment(self.best_flags),
            best_sum_rate=self.best_sum,
            evaluations=self.count,
            wall_time=time.perf_counter() - self.t0,
            algorithm=algorithm,
        )


def _flag_matrices(indices, k, n):
    """(len, K, N) boolean flags of flat assignment indices, most
    significant bit first: lexicographic order of the flattened matrix."""
    indices = np.asarray(indices, dtype=np.int64)
    bits = np.empty((indices.size, k * n), dtype=bool)
    for c in range(k * n):
        bits[:, c] = (indices >> (k * n - 1 - c)) & 1
    return bits.reshape(-1, k, n)


def _pattern_table(channel, inner, policy):
    """Per gateway, the distinct column patterns of the inner block.

    A geophone's digit at gateway i is 0 (silent), 1 (decoded there) or
    2 (undecoded there but transmitting), read from the inner bits only.
    Returns one (decoded, transmitting, rows) triple per gateway: the
    (P, K) flags of each pattern and the pattern row of every inner
    assignment.
    """
    transmitting = _active_mask(inner, policy)
    table = []
    for i in range(channel.num_gws):
        decoded = inner[:, :, i]
        codes = np.zeros(len(inner), dtype=np.int64)
        for j in range(channel.num_gps):
            codes *= 3
            codes += np.where(decoded[:, j], 1, 2 * transmitting[:, j])
        _, first, rows = np.unique(codes, return_index=True, return_inverse=True)
        table.append((decoded[first], transmitting[first], rows))
    return table


def _table_sums(channel, table, outer, policy):
    """For each outer assignment, the sum-rates of it joined with every
    inner one, as one array that the next block overwrites.

    The rates are combine_bounds' and so are the bits of each row's total,
    added left to right from 0: one geophone at a time, its bounds
    gathered from every gateway's pattern rows, reduced to their minimum
    and added where finite (an inf minimum is a rate of 0, and adding 0
    leaves a sum as it is).  The work arrays hold one geophone's column and
    are allocated once per search: block-sized arrays allocated per block
    made 10 x 2 searches up to twice as slow, most likely by page-faulting
    fresh memory every block.
    """
    size = len(table[0][2])
    rate, gathered, sums = np.empty(size), np.empty(size), np.empty(size)
    finite = np.empty(size, dtype=bool)
    for outer_flags, transmitting in zip(outer, _active_mask(outer, policy)):
        bounds = [gateway_bounds(channel, i, decoded | outer_flags[:, i],
                                 pattern_tx | transmitting)
                  for i, (decoded, pattern_tx, _) in enumerate(table)]
        sums.fill(0.0)
        for j in range(channel.num_gps):
            for i, (_, _, rows) in enumerate(table):
                # mode "clip" writes straight into out; "raise" would buffer
                np.take(bounds[i][:, j], rows, out=gathered if i else rate, mode="clip")
                if i:
                    np.minimum(rate, gathered, out=rate)
            np.add(sums, rate, out=sums, where=np.isfinite(rate, out=finite))
        del bounds      # up to (2^14, K) per gateway: gone before the next
        yield sums


def _block_bounds(channel, outer, fixed, silent):
    """(B,) upper bounds on the sum-rate of every assignment in each outer
    block, from its (B, K, N) outer flags; fixed (K, N) marks the outer
    bits, silent is scenario 2.

    Let T be the geophones that transmit.  In every assignment of a block
    with transmitting set T, geophone j decoded at gateway i hears at
    least the geophones of T that cannot be decoded before j there: they
    follow j in i's decoding order, or their bit at i is fixed to 0.  Less
    interference only raises the SIC bound, so u_ij(T), the bound under
    that interference, bounds j's rate at i.  j's rate is then at most the
    least u_ij(T) over the gateways fixed to decode it, else the largest
    over its free gateways, and the block's sum-rate at most the largest
    over T of the sum over j in T.

    In scenario 1, T is every geophone.  In scenario 2 a geophone with an
    outer bit set is on, one whose bits are all outer and 0 is off, and T
    ranges over the subsets of the others, the free ones: at N >= 2 the
    2^14-assignment blocks of exhaustive_search leave at most ceil(14 / N)
    <= 7 of them, so at most 2^7 sets.  At N = 1 no off geophone
    interferes, so the bounds of T telescope to the sum capacity
    log2(1 + P h^2(T) / N0), which grows with T: T is every geophone not
    off, and the bound is the block's maximum, reached by decoding every
    free geophone.
    """
    if not silent:
        on, free = np.ones(outer.shape[:2], bool), np.empty(0, int)
    elif channel.num_gws == 1:
        on, free = outer.any(axis=2) | ~fixed.all(axis=1), np.empty(0, int)
    else:
        on, free = outer.any(axis=2), np.flatnonzero(~fixed.all(axis=1))
    subsets = np.zeros((1 << len(free), channel.num_gps), bool)
    subsets[:, free] = (np.arange(len(subsets))[:, None] >> np.arange(len(free))) & 1
    # T's interference is the sure transmitters' (per block) plus the
    # subset's (per subset: a free geophone's outer bits are all 0); a
    # subset that holds a sure transmitter counts it twice, which only
    # lowers that subset's sum.  Gateways lead every axis, so the min and
    # max over them run elementwise; cap is inf where the gateway is not
    # fixed to decode the geophone.
    p = channel.gp_power
    noise = channel.noise_power + p * _interference(channel, on, fixed & ~outer)
    extra = p * _interference(channel, subsets, fixed)
    ph2 = (p * channel.squared_gains)[:, None, None]
    cap = np.where(outer, 0.0, np.inf).transpose(2, 0, 1)[:, :, None]
    unfixed = ~fixed.T[:, None, None]
    step = max(1, _BOUND_ROWS // (len(subsets) * channel.num_gws))
    bounds = np.empty(len(outer))
    for start in range(0, len(outer), step):
        block = slice(start, start + step)
        u = noise[:, block, None] + extra[:, None]          # (N, b, S, K)
        np.divide(ph2, u, out=u)
        np.log2(np.add(u, 1.0, out=u), out=u)
        best_free = np.maximum.reduce(u * unfixed)
        capped = np.minimum.reduce(np.add(u, cap[:, block], out=u))
        rates = np.where(np.isinf(capped), best_free, capped)
        transmitting = on[block, None] | subsets
        bounds[block] = (rates * transmitting).sum(axis=2).max(axis=1)
    return bounds


def _interference(channel, transmitting, zero):
    """(N, ..., K): at each gateway i, the summed squared gains of the
    transmitting (..., K) geophones that cannot be decoded before geophone
    j there, as they follow j in i's decoding order or zero (..., K, N)
    marks their bit at i as fixed to 0."""
    out = np.empty((channel.num_gws, *transmitting.shape))
    for i, (order, _, h2, _) in enumerate(channel.decode_table):
        w = transmitting[..., order] * h2
        blocked = w * zero[..., order, i]
        out[i][..., order] = (np.cumsum(w[..., ::-1], axis=-1)[..., ::-1] - w
                              + np.cumsum(blocked, axis=-1) - blocked)
    return out


def exhaustive_refusal(channel, mode):
    """Why exhaustive_search refuses this channel under this mode, or None:
    2^(K*N) assignments over EXHAUSTIVE_CAP, or LP_EXHAUSTIVE_CAP for lp-exact."""
    total = search_space_size(channel.num_gps, channel.num_gws)
    cap = LP_EXHAUSTIVE_CAP if mode.order_policy == ORDER_LP else EXHAUSTIVE_CAP
    if total > cap:
        return (f"search space {total} exceeds the {mode.order_policy} "
                f"enumeration cap {cap}; use a metaheuristic")


class ExhaustiveResult(tuple):
    """exhaustive_search's answer, the pair (assignment, sum_rate).

    values holds the sum-rate of every assignment at its flat index (its
    flags, row-major, most significant bit first) when the space has at
    most ES_VALUES_CAP assignments, and is None otherwise.
    """

    def __new__(cls, assignment, sum_rate, values):
        result = super().__new__(cls, (assignment, sum_rate))
        result.values = values
        return result


def exhaustive_search(channel, mode=EvaluationMode()):
    """Global maximizer over all 2^(K*N) assignments, as an ExhaustiveResult.

    Ties resolve to the lexicographically smallest flag matrix.  Refuses,
    with CapacityLimitError, the search spaces exhaustive_refusal names.

    The flat index of an assignment (its flags, row-major, most
    significant bit first) splits into an outer block, the high bits, and
    an inner block, the low min(K*N, 14) bits.  Under the fixed-order
    evaluator, gateway i's bounds depend only on which geophones it
    decodes and which of the others transmit, so the inner assignments
    fall into few column patterns per gateway: at most 2^L in scenario 1
    and 3^L in scenario 2, for the L geophones with inner bits.  For each
    outer assignment, one gateway_bounds call per gateway gives the bounds
    of every pattern; the inner assignments gather their rows, take the
    minimum across gateways and sum.  No log, sort or cumulative sum runs
    per assignment, and the sums equal evaluate_fixed_order_batch's bit
    for bit.  The lp-exact evaluator takes one LP value per assignment, in
    the same order, from _lp_sum_rate, as batch() does.

    When the values are not kept (more than ES_VALUES_CAP assignments),
    the fixed-order search is a branch and bound one level deep (Land and
    Doig, 1960): _block_bounds gives each outer block an upper bound, the
    blocks are visited in descending bound order (ties by block index),
    and the search stops at the first block whose bound * (1 + 1e-9) is
    below the best value, before computing its sums, as no value in it or
    in a later block can reach the best; the slack covers a bound and a
    rate that add the same powers in another order.  A block's maximizer
    replaces the best when it is larger, or equal with a smaller flat
    index, so the winner is still the lexicographically smallest
    maximizer, with the same value bits.
    """
    refusal = exhaustive_refusal(channel, mode)
    if refusal:
        raise CapacityLimitError(refusal)
    k, n = channel.num_gps, channel.num_gws
    total = search_space_size(k, n)
    inner_bits = min(k * n, BLOCK_BITS)
    inner = _flag_matrices(np.arange(1 << inner_bits), k, n)
    outer = _flag_matrices(np.arange(total >> inner_bits) << inner_bits, k, n)
    values = np.empty(total) if total <= ES_VALUES_CAP else None
    bounds, order = np.full(len(outer), np.inf), np.arange(len(outer))
    if mode.order_policy == ORDER_LP:
        # each assignment once, so no _Objective: its memo would keep them all
        block_sums = (np.array([_lp_sum_rate(channel, flags, mode)
                                for flags in block | inner]) for block in outer)
    else:
        policy = mode.undecoded_gp_policy
        table = _pattern_table(channel, inner, policy)
        if values is None:
            fixed = (np.arange(k * n) < k * n - inner_bits).reshape(k, n)
            bounds = _block_bounds(channel, outer, fixed, policy == UNDECODED_SILENT)
            order = np.argsort(-bounds, kind="stable")
        block_sums = _table_sums(channel, table, outer[order], policy)
    best_sum, best_block, best_flags = -np.inf, None, None
    for block in order:
        if bounds[block] * (1 + 1e-9) < best_sum:
            break
        sums = next(block_sums)
        if values is not None:
            values[block << inner_bits:(block + 1) << inner_bits] = sums
        t = int(np.argmax(sums))
        if sums[t] > best_sum or (sums[t] == best_sum and block < best_block):
            best_sum, best_block = float(sums[t]), block
            best_flags = outer[block] | inner[t]
    return ExhaustiveResult(DecodingAssignment(best_flags), best_sum, values)


def no_optimization_baseline(channel, mode=EvaluationMode()):
    """Decode-all: every gateway decodes every geophone, fixed-order rates."""
    assignment = DecodingAssignment.all_ones(channel.num_gps, channel.num_gws)
    _, sums = evaluate_fixed_order_batch(channel, assignment.flags[None], mode)
    return assignment, float(sums[0])


def sigmoid(v):
    """Logistic transform of a velocity into a bit probability."""
    return 1.0 / (1.0 + np.exp(-np.asarray(v, dtype=float)))


def dpso(channel, budget, mode=EvaluationMode(), es_values=None):
    """Discrete binary PSO: velocity is the log-odds that a bit is one.

    es_values, if given, are exhaustive search's values on this channel
    and mode (ExhaustiveResult.values), read in place of evaluating; the
    same holds for every search below.
    """
    rng = budget.rng()
    objective = _Objective(channel, mode, es_values)
    m, d = budget.population, channel.num_gps * channel.num_gws

    x = (rng.random((m, d)) < 0.5).astype(np.int8)
    v = rng.uniform(-V_MAX_DPSO, V_MAX_DPSO, (m, d))
    pbest = x.copy()
    pbest_val = objective.batch(x)
    objective.record()

    for _ in range(budget.iterations - 1):
        g = int(np.argmax(pbest_val))
        phi1 = PSO_C1 * rng.random((m, d))
        phi2 = PSO_C2 * rng.random((m, d))
        v = v + phi1 * (pbest - x) + phi2 * (pbest[g] - x)
        np.clip(v, -V_MAX_DPSO, V_MAX_DPSO, out=v)
        rho = rng.random((m, d))
        x = (rho < sigmoid(v)).astype(np.int8)
        vals = objective.batch(x)
        improved = vals > pbest_val
        pbest[improved] = x[improved]
        pbest_val[improved] = vals[improved]
        objective.record()
    return objective.trace("dpso")


def angle_modulation_bits(params, num_bits):
    """Bits from the angle-modulation generator sampled at x = t/D.

    params: (..., 4) array of (a, b, c, d); bit = 1 iff the generator is
    nonnegative at the sample point.
    """
    params = np.asarray(params, dtype=float)
    a, b, c, d = (params[..., i:i + 1] for i in range(4))
    x = np.arange(num_bits) / num_bits
    h = np.sin(2.0 * np.pi * (x - a) * b * np.cos(2.0 * np.pi * c * (x - a))) + d
    return (h >= 0.0).astype(np.int8)


def ampso(channel, budget, mode=EvaluationMode(), es_values=None):
    """Angle-modulated PSO: continuous search over 4-parameter generators."""
    rng = budget.rng()
    objective = _Objective(channel, mode, es_values)
    m, d = budget.population, channel.num_gps * channel.num_gws

    s = rng.uniform(-1.0, 1.0, size=(m, 4))
    # random initial velocities keep even a lone particle moving
    v = rng.uniform(-V_MAX_AMPSO, V_MAX_AMPSO, (m, 4))
    bits = angle_modulation_bits(s, d)
    pbest = s.copy()
    pbest_val = objective.batch(bits)
    objective.record()

    for _ in range(budget.iterations - 1):
        g = int(np.argmax(pbest_val))
        r1 = rng.random((m, 4))
        r2 = rng.random((m, 4))
        v = (PSO_INERTIA * v
             + PSO_C1 * r1 * (pbest - s)
             + PSO_C2 * r2 * (pbest[g] - s))
        np.clip(v, -V_MAX_AMPSO, V_MAX_AMPSO, out=v)
        s = s + v
        bits = angle_modulation_bits(s, d)
        vals = objective.batch(bits)
        improved = vals > pbest_val
        pbest[improved] = s[improved]
        pbest_val[improved] = vals[improved]
        objective.record()
    return objective.trace("ampso")


def build_heuristic(channel, heuristic_mode):
    """Per-bit prior table eta with shape (2, K*N); row c is the preference
    for choosing bit value c on link d = j*N + i.

    gw-average: eta_1 is the link gain, eta_0 the average of the other
    gains at the same gateway, both scaled by the gateway's normalized
    average gain.  The deactivation variant additionally boosts eta_0 on
    every link of geophones whose gains are all below the
    DEACTIVATION_PERCENTILE percentile of the gain pool, by
    DEACTIVATION_BOOST, steering the search towards switching them off.
    """
    k, n = channel.num_gps, channel.num_gws
    if heuristic_mode not in HEURISTICS:
        raise ValueError(f"unknown heuristic_mode {heuristic_mode!r}")
    if heuristic_mode == HEURISTIC_NONE:
        return np.ones((2, k * n))
    h = channel.gains
    eta1 = h.copy()
    if k > 1:
        eta0 = (h.sum(axis=0, keepdims=True) - h) / (k - 1)
    else:
        eta0 = np.ones_like(h)
    gw_avg = h.mean(axis=0)
    gw_weight = gw_avg / gw_avg.max() if gw_avg.max() > 0 else np.ones(n)
    eta1 = eta1 * gw_weight
    eta0 = eta0 * gw_weight
    if heuristic_mode == HEURISTIC_GW_AVERAGE_DEACTIVATION:
        threshold = np.percentile(h, DEACTIVATION_PERCENTILE)
        weak = (h < threshold).all(axis=1)
        eta0[weak] *= DEACTIVATION_BOOST
    eta = np.stack([eta0.reshape(-1), eta1.reshape(-1)])
    # zero preferences would make Eq.-style probabilities ill-defined
    return np.maximum(eta, _TAU_SHIFT_EPS)


def _aco_probabilities(tau, eta):
    """Probability of bit value 1 per link, from shifted pheromones and the
    prior, weighted alike (alpha = beta = 1)."""
    weight = (tau - TAU_MIN + _TAU_SHIFT_EPS) * eta
    return weight[1] / weight.sum(axis=0)


def _aco_run(channel, budget, params, mode, max_min, observer=None,
             es_values=None):
    """AS, or MMAS when max_min: best-ant deposit, TAU_MAX start, clamp."""
    rng = budget.rng()
    objective = _Objective(channel, mode, es_values)
    m, d = budget.population, channel.num_gps * channel.num_gws
    eta = build_heuristic(channel, params.heuristic_mode)
    tau = np.full((2, d), TAU_MAX if max_min else 1.0)

    for _ in range(budget.iterations):
        p1 = _aco_probabilities(tau, eta)
        bits = (rng.random((m, d)) < p1).astype(np.int8)
        vals = objective.batch(bits)
        objective.record()
        tau *= 1.0 - params.evaporation
        denom = objective.best_sum if objective.best_sum > 0 else 1.0
        if max_min:
            r = int(np.argmax(vals))
            deposit = max(float(vals[r]), 0.0) / denom
            tau[1] += deposit * bits[r]
            tau[0] += deposit * (1 - bits[r])
            np.clip(tau, TAU_MIN, TAU_MAX, out=tau)
        else:
            deposits = np.maximum(vals, 0.0) / denom
            tau[1] += deposits @ bits
            tau[0] += deposits @ (1 - bits)
        if observer is not None:
            observer(tau.copy())
    return objective.trace("mmas" if max_min else "as")


def ant_system(channel, budget, aco_params=AcoParams(), mode=EvaluationMode(),
               observer=None, es_values=None):
    """Ant system: every ant deposits pheromone each iteration.

    observer, if given, receives a copy of the pheromone table after each
    iteration (instrumentation only; does not affect the search).
    """
    return _aco_run(channel, budget, aco_params, mode, max_min=False,
                    observer=observer, es_values=es_values)


def max_min_ant_system(channel, budget, aco_params=AcoParams(),
                       mode=EvaluationMode(), observer=None, es_values=None):
    """Max-min ant system: only the iteration-best ant deposits, and the
    pheromones stay clamped inside [TAU_MIN, TAU_MAX].

    observer, if given, receives a copy of the pheromone table after each
    iteration (instrumentation only; does not affect the search).
    """
    return _aco_run(channel, budget, aco_params, mode, max_min=True,
                    observer=observer, es_values=es_values)


def sa_acceptance_probability(delta, temperature):
    """Metropolis rule: improving moves always accepted."""
    if delta >= 0:
        return 1.0
    return math.exp(delta / temperature)


SA_FLOOR_RATIO = 1e-3
SA_RESTART_CYCLES = 2


def simulated_annealing(channel, budget, mode=EvaluationMode(), es_values=None):
    """Single-state bit-flip annealer with geometric cooling and restarts.

    The temperature starts at the budget's maximum and cools geometrically
    so the floor (max/1000) is crossed SA_RESTART_CYCLES times within the
    move budget; hitting the floor triggers a restart from a fresh random
    state.  A worsening candidate is accepted with probability
    exp(dE/T) where dE compares the candidate with the best value found so
    far.  The total budget is M*I candidate evaluations plus one
    evaluation per (re)start.
    """
    rng = budget.rng()
    objective = _Objective(channel, mode, es_values)
    d = channel.num_gps * channel.num_gws
    t_max = budget.max_temperature
    t_floor = t_max * SA_FLOOR_RATIO
    total_moves = budget.evaluation_budget
    cooling = SA_FLOOR_RATIO ** (SA_RESTART_CYCLES / total_moves)

    def fresh_state():
        return objective.start(rng.random(d) < 0.5)

    state = fresh_state()
    temperature = t_max
    record_every = budget.population
    for move in range(total_moves):
        cand = objective.flip(state, int(rng.integers(d)))
        delta = cand.value - objective.best_sum
        if cand.value >= state.value or \
                rng.random() < sa_acceptance_probability(delta, temperature):
            state = cand
        temperature *= cooling
        if temperature < t_floor and move != total_moves - 1:
            temperature = t_max
            state = fresh_state()
        if (move + 1) % record_every == 0:
            objective.record()
    return objective.trace("sa")


def _constant_trace(name, assignment, best, budget, evaluations):
    """Trace of a deterministic method: its value at every iteration."""
    hist = np.full(budget.iterations if budget else 1, best)
    return SearchTrace(hist, assignment, best, evaluations, 0.0, name)


def _es(channel, budget, mode, aco_params, es_values):
    assignment, best = exhaustive_search(channel, mode)
    return _constant_trace("es", assignment, best, budget,
                           search_space_size(channel.num_gps, channel.num_gws))


def _baseline(channel, budget, mode, aco_params, es_values):
    assignment, best = no_optimization_baseline(channel, mode)
    return _constant_trace("baseline", assignment, best, budget, 1)


# every stage-1 method, as runner(channel, budget, mode, aco_params, es_values)
ALGORITHMS = {
    "es": _es,
    "baseline": _baseline,
    "dpso": lambda ch, budget, mode, aco, es: dpso(ch, budget, mode, es),
    "ampso": lambda ch, budget, mode, aco, es: ampso(ch, budget, mode, es),
    "as": lambda ch, budget, mode, aco, es: ant_system(
        ch, budget, aco, mode, es_values=es),
    "mmas": lambda ch, budget, mode, aco, es: max_min_ant_system(
        ch, budget, aco, mode, es_values=es),
    "sa": lambda ch, budget, mode, aco, es: simulated_annealing(ch, budget, mode, es),
}


def run_algorithm(name, channel, budget, mode=EvaluationMode(),
                  aco_params=AcoParams(), es_values=None):
    """Uniform front end used by the CLI and the experiment harness.

    es_values, exhaustive search's values on this channel and mode
    (ExhaustiveResult.values), let the metaheuristics look their values
    up; the traces are the same bits with or without them.
    """
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}")
    return ALGORITHMS[name](channel, budget, mode, aco_params, es_values)
