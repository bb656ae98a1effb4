"""Search over decoding assignments: exhaustive oracle, two binary PSO
variants, two ant-colony variants and simulated annealing.

All searches are seeded and deterministic.  The objective is the sum-rate
of an assignment under the evaluator selected by the EvaluationMode
(descending-gain corners by default, exact LP on request).  Population
algorithms spend exactly M objective evaluations per iteration, I
iterations total; SA spends the same M*I budget in single evaluations
plus one evaluation per restart.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityLimitError
from .model import RngSeed
from .rates import (
    ORDER_LP,
    DecodingAssignment,
    EvaluationMode,
    evaluate_fixed_order_batch,
    evaluate_lp,
    search_space_size,
)

EXHAUSTIVE_CAP = 2 ** 24

HEURISTIC_NONE = "none"
HEURISTIC_GW_AVERAGE = "gw-average"
HEURISTIC_GW_AVERAGE_DEACTIVATION = "gw-average+gp-deactivation"

# pheromone shift for turning clamped values into valid probabilities
_TAU_SHIFT_EPS = 1e-6


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
        seed = self.seed.seed if isinstance(self.seed, RngSeed) else self.seed
        return np.random.default_rng(seed)


@dataclass(frozen=True)
class PsoParams:
    c1: float = 1.496
    c2: float = 1.496
    inertia: float = 0.729
    v_max_ampso: float = 4.0
    v_max_dpso: float = 6.0


@dataclass(frozen=True)
class AcoParams:
    alpha: float = 1.0
    beta: float = 1.0
    evaporation: float = 0.1
    tau_max: float = 7.0
    tau_min: float = -7.0
    heuristic_mode: str = HEURISTIC_NONE
    deactivation_percentile: float = 25.0
    deactivation_boost: float = 4.0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if not 0.0 <= self.evaporation <= 1.0:
            raise ValueError("evaporation must be in [0, 1]")
        if self.tau_min >= self.tau_max:
            raise ValueError("tau_min must be below tau_max")
        if self.heuristic_mode not in (
            HEURISTIC_NONE, HEURISTIC_GW_AVERAGE, HEURISTIC_GW_AVERAGE_DEACTIVATION
        ):
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


class _Objective:
    """Counts evaluations, dispatches to the configured evaluator and keeps
    the best assignment seen.

    A batch replaces the best only with a strictly larger value, and the
    first maximizer of the batch wins a tie.  record() appends the best so
    far to the per-iteration history that trace() returns.
    """

    def __init__(self, channel, mode):
        self.channel = channel
        self.mode = mode
        self.shape = (channel.num_gps, channel.num_gws)
        self.count = 0
        self.best_sum = -np.inf
        self.best_flags = None
        self.history = []
        self.t0 = time.perf_counter()

    def batch(self, flags_batch):
        """Sum-rates of (B, K, N) or flat (B, K*N) flags."""
        flags_batch = np.asarray(flags_batch).reshape(-1, *self.shape)
        self.count += flags_batch.shape[0]
        if self.mode.order_policy == ORDER_LP:
            sums = np.empty(flags_batch.shape[0])
            for t in range(flags_batch.shape[0]):
                _, sums[t] = evaluate_lp(
                    self.channel, DecodingAssignment(flags_batch[t]), self.mode
                )
        else:
            _, sums = evaluate_fixed_order_batch(self.channel, flags_batch, self.mode)
        t = int(np.argmax(sums))
        if sums[t] > self.best_sum:
            self.best_sum = float(sums[t])
            self.best_flags = np.array(flags_batch[t], dtype=np.int8)
        return sums

    def single(self, flags):
        return float(self.batch(flags[None])[0])

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


def _enumerate_flags(d, start, stop):
    """Flat d-bit patterns of the integers [start, stop), most significant
    bit first: lexicographic order of the flattened K x N matrix."""
    idx = np.arange(start, stop, dtype=np.uint64)
    shifts = np.arange(d - 1, -1, -1, dtype=np.uint64)
    return ((idx[:, None] >> shifts[None, :]) & 1).astype(np.int8)


def exhaustive_search(channel, mode=EvaluationMode()):
    """Global maximizer over all 2^(K*N) assignments.

    Ties resolve to the lexicographically smallest flag matrix.  Refuses
    search spaces above EXHAUSTIVE_CAP.
    """
    total = search_space_size(channel.num_gps, channel.num_gws)
    if total > EXHAUSTIVE_CAP:
        raise CapacityLimitError(
            f"search space {total} exceeds the enumeration cap {EXHAUSTIVE_CAP}; "
            "use a metaheuristic"
        )
    objective = _Objective(channel, mode)
    chunk = 1 << 14
    for start in range(0, total, chunk):
        objective.batch(_enumerate_flags(channel.num_gps * channel.num_gws,
                                         start, min(start + chunk, total)))
    return DecodingAssignment(objective.best_flags), objective.best_sum


def no_optimization_baseline(channel, mode=EvaluationMode()):
    """Decode-all: every gateway decodes every geophone, fixed-order rates."""
    assignment = DecodingAssignment.all_ones(channel.num_gps, channel.num_gws)
    _, sums = evaluate_fixed_order_batch(channel, assignment.flags[None], mode)
    return assignment, float(sums[0])


def sigmoid(v):
    """Logistic transform of a velocity into a bit probability."""
    return 1.0 / (1.0 + np.exp(-np.asarray(v, dtype=float)))


def dpso(channel, budget, pso_params=PsoParams(), mode=EvaluationMode()):
    """Discrete binary PSO: velocity is the log-odds that a bit is one."""
    rng = budget.rng()
    objective = _Objective(channel, mode)
    m, d = budget.population, channel.num_gps * channel.num_gws

    x = (rng.random((m, d)) < 0.5).astype(np.int8)
    v = rng.uniform(-pso_params.v_max_dpso, pso_params.v_max_dpso, (m, d))
    pbest = x.copy()
    pbest_val = objective.batch(x)
    objective.record()

    for _ in range(budget.iterations - 1):
        g = int(np.argmax(pbest_val))
        phi1 = pso_params.c1 * rng.random((m, d))
        phi2 = pso_params.c2 * rng.random((m, d))
        v = v + phi1 * (pbest - x) + phi2 * (pbest[g] - x)
        np.clip(v, -pso_params.v_max_dpso, pso_params.v_max_dpso, out=v)
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
    a = params[..., 0:1]
    b = params[..., 1:2]
    c = params[..., 2:3]
    d = params[..., 3:4]
    x = np.arange(num_bits) / num_bits
    h = np.sin(2.0 * np.pi * (x - a) * b * np.cos(2.0 * np.pi * c * (x - a))) + d
    return (h >= 0.0).astype(np.int8)


def ampso(channel, budget, pso_params=PsoParams(), mode=EvaluationMode()):
    """Angle-modulated PSO: continuous search over 4-parameter generators."""
    rng = budget.rng()
    objective = _Objective(channel, mode)
    m, d = budget.population, channel.num_gps * channel.num_gws

    s = rng.uniform(-1.0, 1.0, size=(m, 4))
    # random initial velocities keep even a lone particle moving
    v = rng.uniform(-pso_params.v_max_ampso, pso_params.v_max_ampso, (m, 4))
    bits = angle_modulation_bits(s, d)
    pbest = s.copy()
    pbest_val = objective.batch(bits)
    objective.record()

    for _ in range(budget.iterations - 1):
        g = int(np.argmax(pbest_val))
        r1 = rng.random((m, 4))
        r2 = rng.random((m, 4))
        v = (pso_params.inertia * v
             + pso_params.c1 * r1 * (pbest - s)
             + pso_params.c2 * r2 * (pbest[g] - s))
        np.clip(v, -pso_params.v_max_ampso, pso_params.v_max_ampso, out=v)
        s = s + v
        bits = angle_modulation_bits(s, d)
        vals = objective.batch(bits)
        improved = vals > pbest_val
        pbest[improved] = s[improved]
        pbest_val[improved] = vals[improved]
        objective.record()
    return objective.trace("ampso")


def build_heuristic(channel, heuristic_mode,
                    deactivation_percentile=25.0, deactivation_boost=4.0):
    """Per-bit prior table eta with shape (2, K*N); row c is the preference
    for choosing bit value c on link d = j*N + i.

    gw-average: eta_1 is the link gain, eta_0 the average of the other
    gains at the same gateway, both scaled by the gateway's normalized
    average gain.  The deactivation variant additionally boosts eta_0 on
    every link of geophones whose gains are all below the given percentile
    of the gain pool, steering the search towards switching them off.
    """
    k, n = channel.num_gps, channel.num_gws
    if heuristic_mode == HEURISTIC_NONE:
        return np.ones((2, k * n))
    if heuristic_mode not in (HEURISTIC_GW_AVERAGE, HEURISTIC_GW_AVERAGE_DEACTIVATION):
        raise ValueError(f"unknown heuristic_mode {heuristic_mode!r}")
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
        threshold = np.percentile(h, deactivation_percentile)
        weak = (h < threshold).all(axis=1)
        eta0[weak] *= deactivation_boost
    eta = np.stack([eta0.reshape(-1), eta1.reshape(-1)])
    # zero preferences would make Eq.-style probabilities ill-defined
    return np.maximum(eta, _TAU_SHIFT_EPS)


def _aco_probabilities(tau, eta, params):
    """Probability of bit value 1 per link, from shifted pheromones."""
    shifted = tau - params.tau_min + _TAU_SHIFT_EPS
    weight = shifted ** params.alpha * eta ** params.beta
    return weight[1] / weight.sum(axis=0)


def _aco_run(channel, budget, params, mode, best_ant_only, clamp, name,
             observer=None):
    rng = budget.rng()
    objective = _Objective(channel, mode)
    m, d = budget.population, channel.num_gps * channel.num_gws
    eta = build_heuristic(channel, params.heuristic_mode,
                          params.deactivation_percentile,
                          params.deactivation_boost)
    tau = np.full((2, d), params.tau_max if clamp else 1.0)

    for _ in range(budget.iterations):
        p1 = _aco_probabilities(tau, eta, params)
        bits = (rng.random((m, d)) < p1).astype(np.int8)
        vals = objective.batch(bits)
        objective.record()
        tau *= 1.0 - params.evaporation
        denom = objective.best_sum if objective.best_sum > 0 else 1.0
        if best_ant_only:
            r = int(np.argmax(vals))
            deposit = max(float(vals[r]), 0.0) / denom
            tau[1] += deposit * bits[r]
            tau[0] += deposit * (1 - bits[r])
        else:
            deposits = np.maximum(vals, 0.0) / denom
            tau[1] += deposits @ bits
            tau[0] += deposits @ (1 - bits)
        if clamp:
            np.clip(tau, params.tau_min, params.tau_max, out=tau)
        if observer is not None:
            observer(tau.copy())
    return objective.trace(name)


def ant_system(channel, budget, aco_params=AcoParams(), mode=EvaluationMode(),
               observer=None):
    """Ant system: every ant deposits pheromone each iteration.

    observer, if given, receives a copy of the pheromone table after each
    iteration (instrumentation only; does not affect the search).
    """
    return _aco_run(channel, budget, aco_params, mode,
                    best_ant_only=False, clamp=False, name="as",
                    observer=observer)


def max_min_ant_system(channel, budget, aco_params=AcoParams(),
                       mode=EvaluationMode(), observer=None):
    """Max-min ant system: only the iteration-best ant deposits, and the
    pheromones stay clamped inside [tau_min, tau_max].

    observer, if given, receives a copy of the pheromone table after each
    iteration (instrumentation only; does not affect the search).
    """
    return _aco_run(channel, budget, aco_params, mode,
                    best_ant_only=True, clamp=True, name="mmas",
                    observer=observer)


def sa_acceptance_probability(delta, temperature):
    """Metropolis rule: improving moves always accepted."""
    if delta >= 0:
        return 1.0
    return math.exp(delta / temperature)


SA_FLOOR_RATIO = 1e-3
SA_RESTART_CYCLES = 2


def simulated_annealing(channel, budget, mode=EvaluationMode()):
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
    objective = _Objective(channel, mode)
    d = channel.num_gps * channel.num_gws
    t_max = budget.max_temperature
    t_floor = t_max * SA_FLOOR_RATIO
    total_moves = budget.evaluation_budget
    cooling = SA_FLOOR_RATIO ** (SA_RESTART_CYCLES / total_moves)

    def fresh_state():
        flags = (rng.random(d) < 0.5).astype(np.int8)
        return flags, objective.single(flags)

    state, state_val = fresh_state()
    temperature = t_max
    record_every = budget.population
    for move in range(total_moves):
        flip = rng.integers(d)
        cand = state.copy()
        cand[flip] ^= 1
        cand_val = objective.single(cand)
        delta = cand_val - objective.best_sum
        if cand_val >= state_val or \
                rng.random() < sa_acceptance_probability(delta, temperature):
            state, state_val = cand, cand_val
        temperature *= cooling
        if temperature < t_floor and move != total_moves - 1:
            temperature = t_max
            state, state_val = fresh_state()
        if (move + 1) % record_every == 0:
            objective.record()
    if len(objective.history) < budget.iterations:
        objective.record()
    return objective.trace("sa")


def _constant_trace(name, assignment, best, budget, evaluations):
    """Trace of a deterministic method: its value at every iteration."""
    hist = np.full(budget.iterations if budget else 1, best)
    return SearchTrace(hist, assignment, best, evaluations, 0.0, name)


def _es(channel, budget, mode, pso_params, aco_params):
    assignment, best = exhaustive_search(channel, mode)
    return _constant_trace("es", assignment, best, budget,
                           search_space_size(channel.num_gps, channel.num_gws))


def _baseline(channel, budget, mode, pso_params, aco_params):
    assignment, best = no_optimization_baseline(channel, mode)
    return _constant_trace("baseline", assignment, best, budget, 1)


# every stage-1 method, as runner(channel, budget, mode, pso_params, aco_params)
ALGORITHMS = {
    "es": _es,
    "baseline": _baseline,
    "dpso": lambda ch, budget, mode, pso, aco: dpso(ch, budget, pso, mode),
    "ampso": lambda ch, budget, mode, pso, aco: ampso(ch, budget, pso, mode),
    "as": lambda ch, budget, mode, pso, aco: ant_system(ch, budget, aco, mode),
    "mmas": lambda ch, budget, mode, pso, aco: max_min_ant_system(ch, budget, aco, mode),
    "sa": lambda ch, budget, mode, pso, aco: simulated_annealing(ch, budget, mode),
}


def run_algorithm(name, channel, budget, mode=EvaluationMode(),
                  pso_params=PsoParams(), aco_params=AcoParams()):
    """Uniform front end used by the CLI and the experiment harness."""
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}")
    return ALGORITHMS[name](channel, budget, mode, pso_params, aco_params)
