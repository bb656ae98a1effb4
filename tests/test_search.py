import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_channel
from oracles import brute_force_exhaustive, reference_aco_run, reference_lp_value
import seisrate.rates
import seisrate.search
from seisrate.cli import main
from seisrate.errors import CapacityLimitError
from seisrate.rates import (
    ORDER_LP,
    DecodingAssignment,
    EvaluationMode,
    _active_mask,
    _lp_sum_rate,
    evaluate_fixed_order,
    evaluate_fixed_order_batch,
    evaluate_lp,
    evaluation_mode,
)
from seisrate.search import (
    ALGORITHMS,
    ES_VALUES_CAP,
    LP_EXHAUSTIVE_CAP,
    AcoParams,
    SearchBudget,
    _aco_probabilities,
    _block_bounds,
    _flag_matrices,
    _Objective,
    _State,
    angle_modulation_bits,
    ant_system,
    build_heuristic,
    dpso,
    exhaustive_refusal,
    exhaustive_search,
    max_min_ant_system,
    no_optimization_baseline,
    run_algorithm,
    sa_acceptance_probability,
    sigmoid,
    simulated_annealing,
)
from seisrate.model import ChannelMatrix, save_instance

STOCHASTIC = ["dpso", "ampso", "as", "mmas", "sa"]


class TestExhaustiveSearch:
    def test_lp_optimum_on_worked_example(self, paper_channel):
        assignment, best = exhaustive_search(
            paper_channel, EvaluationMode(order_policy="lp-exact")
        )
        assert best == pytest.approx(3.813, abs=1e-3)
        assert assignment.flags.tolist() == [[1, 0], [1, 1], [0, 1]]

    def test_fixed_order_optimum_on_worked_example(self, paper_channel):
        # derived by an independent enumeration of all 64 assignments
        _, best = exhaustive_search(paper_channel, EvaluationMode())
        assert best == pytest.approx(3.7498, abs=1e-3)

    def test_refuses_oversized_space(self):
        channel = random_channel(30, 5, 0)
        with pytest.raises(CapacityLimitError):
            exhaustive_search(channel)

    def test_cap_case_beats_random_samples(self):
        # 12 x 2 is exactly EXHAUSTIVE_CAP assignments
        channel = random_channel(12, 2, 3)
        mode = EvaluationMode.scenario(2)
        assignment, best = exhaustive_search(channel, mode)
        rng = np.random.default_rng(4)
        sample = (rng.random((4096, 12, 2)) < 0.5).astype(np.int8)
        _, sums = evaluate_fixed_order_batch(channel, sample, mode)
        assert assignment.flags.shape == (12, 2)
        assert best >= sums.max()

    def test_lp_space_cap_fails_before_any_lp(self, monkeypatch):
        # 9 x 2 has 2^18 assignments, one LP each; 8 x 2 fits the cap
        def no_lp(*args):
            raise AssertionError("an LP was solved")

        monkeypatch.setattr(seisrate.search, "_lp_sum_rate", no_lp)
        mode = EvaluationMode(order_policy=ORDER_LP)
        with pytest.raises(CapacityLimitError,
                           match=f"search space {2 ** 18} exceeds the lp-exact "
                                 f"enumeration cap {LP_EXHAUSTIVE_CAP}"):
            exhaustive_search(random_channel(9, 2, 0), mode)
        assert exhaustive_refusal(random_channel(8, 2, 0), mode) is None
        assert exhaustive_refusal(random_channel(9, 2, 0), EvaluationMode()) is None

    def test_values_are_kept_up_to_their_cap(self):
        # 2^16 assignments keep their values, 2^18 only the best
        assert ES_VALUES_CAP == 2 ** 16
        kept = exhaustive_search(random_channel(8, 2, 0)).values
        assert kept.shape == (ES_VALUES_CAP,)
        assert exhaustive_search(random_channel(9, 2, 0)).values is None

    def test_tie_break_is_lexicographic(self):
        # zero gains: every assignment scores 0; the all-zeros matrix is
        # lexicographically smallest
        channel = ChannelMatrix(2, 2, np.full((2, 2), 1e-12), 1e-3, 1e-3)
        assignment, best = exhaustive_search(channel)
        assert best == pytest.approx(0.0, abs=1e-12)
        assert assignment.flags.sum() == 0


def test_baseline_is_decode_all(paper_channel):
    assignment, total = no_optimization_baseline(paper_channel)
    assert assignment.flags.all()
    assert total == pytest.approx(2.483, abs=1e-3)


class TestSigmoid:
    def test_midpoint_and_clamp_edge(self):
        assert sigmoid(0.0) == pytest.approx(0.5)
        assert sigmoid(6.0) == pytest.approx(0.99753, abs=1e-5)

    def test_symmetry(self):
        v = np.linspace(-6, 6, 13)
        assert sigmoid(v) + sigmoid(-v) == pytest.approx(np.ones(13))


class TestAngleModulation:
    def test_zero_crossing_counts_as_one(self):
        # (a,b,c,d) = (0,1,1,0): the generator is exactly 0 at x = 0
        bits = angle_modulation_bits([0.0, 1.0, 1.0, 0.0], 4)
        assert bits[0] == 1

    def test_large_offset_gives_all_ones(self):
        assert angle_modulation_bits([0.0, 0.0, 0.0, 1.0], 8).tolist() == [1] * 8

    def test_large_negative_offset_gives_all_zeros(self):
        assert angle_modulation_bits([0.0, 0.0, 0.0, -2.0], 8).sum() == 0

    def test_batched_shape(self):
        params = np.zeros((5, 4))
        assert angle_modulation_bits(params, 6).shape == (5, 6)


class TestHeuristic:
    def test_none_mode_is_uniform(self):
        channel = random_channel(3, 2, 0)
        assert np.all(build_heuristic(channel, "none") == 1.0)

    def test_gw_average_worked_example(self):
        channel = ChannelMatrix(2, 1, [[2.0], [1.0]], 1e-3, 1e-3)
        eta = build_heuristic(channel, "gw-average")
        # decode preference equals the link gain; skip preference is the
        # mean of the other gains at the gateway
        assert eta[1].tolist() == pytest.approx([2.0, 1.0])
        assert eta[0].tolist() == pytest.approx([1.0, 2.0])

    def test_gw_weighting_scales_columns(self):
        channel = ChannelMatrix(2, 2, [[2.0, 1.0], [2.0, 1.0]], 1e-3, 1e-3)
        eta = build_heuristic(channel, "gw-average")
        table = eta.reshape(2, 2, 2)
        # the second gateway's links have half the gain and half the
        # gateway-average weight, so its entries are a quarter
        assert table[1, :, 1] == pytest.approx(table[1, :, 0] / 4)

    def test_deactivation_boosts_weak_geophone(self):
        gains = np.array([[2.0, 2.0], [2.5, 2.2], [0.1, 0.05], [1.8, 2.4]])
        channel = ChannelMatrix(4, 2, gains, 1e-3, 1e-3)
        plain = build_heuristic(channel, "gw-average")
        boosted = build_heuristic(channel, "gw-average+gp-deactivation")
        p0 = plain.reshape(2, 4, 2)
        b0 = boosted.reshape(2, 4, 2)
        assert b0[0, 2] == pytest.approx(p0[0, 2] * 4.0)
        assert b0[0, 0] == pytest.approx(p0[0, 0])
        assert np.array_equal(b0[1], p0[1])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            build_heuristic(random_channel(2, 1, 0), "mystery")


class TestAcoProbabilities:
    def test_symmetric_state_is_half(self):
        tau = np.full((2, 6), 3.0)
        eta = np.ones((2, 6))
        assert _aco_probabilities(tau, eta) == pytest.approx([0.5] * 6)

    def test_clamped_extremes_saturate(self):
        tau = np.stack([np.full(4, seisrate.search.TAU_MIN),
                        np.full(4, seisrate.search.TAU_MAX)])
        p1 = _aco_probabilities(tau, np.ones((2, 4)))
        assert np.all(p1 > 1.0 - 1e-6)


@pytest.mark.parametrize("evaluator, shape", [("fixed-order", (8, 3)), ("lp", (5, 2))])
@pytest.mark.parametrize("scenario", [1, 2])
@pytest.mark.parametrize("heuristic", ["none", "gw-average", "gw-average+gp-deactivation"])
def test_colonies_match_the_reference_aco(evaluator, shape, scenario, heuristic):
    """AS and MMAS with alpha = beta = 1 and the module's pheromone and
    deactivation constants are the parametrized reference loop at its
    defaults, bit for bit."""
    channel = random_channel(*shape, 2)  # both with a weak geophone
    mode = evaluation_mode(evaluator, scenario)
    budget = SearchBudget(population=6, iterations=12, seed=3)
    for evaporation in (0.0, 0.1, 1.0):
        params = AcoParams(evaporation=evaporation, heuristic_mode=heuristic)
        for search, max_min in ((ant_system, False), (max_min_ant_system, True)):
            trace = search(channel, budget, params, mode)
            expected = reference_aco_run(
                channel, budget, mode, best_ant_only=max_min, clamp=max_min,
                name="mmas" if max_min else "as", heuristic_mode=heuristic,
                evaporation=evaporation)
            assert trace.algorithm == expected.algorithm
            assert trace.best_per_iteration.tobytes() == \
                expected.best_per_iteration.tobytes()
            assert np.array_equal(trace.best_assignment.flags,
                                  expected.best_assignment.flags)
            assert trace.best_sum_rate == expected.best_sum_rate
            assert trace.evaluations == expected.evaluations


def test_sa_acceptance_probability():
    assert sa_acceptance_probability(0.3, 5.0) == 1.0
    assert sa_acceptance_probability(0.0, 5.0) == 1.0
    assert sa_acceptance_probability(-1.0, 1.0) == pytest.approx(math.exp(-1))
    assert sa_acceptance_probability(-2.0, 4.0) == pytest.approx(math.exp(-0.5))


class TestAlgorithmContracts:
    @pytest.mark.parametrize("name", STOCHASTIC)
    def test_deterministic_for_fixed_seed(self, name, paper_channel):
        budget = SearchBudget(population=6, iterations=10, seed=42)
        a = run_algorithm(name, paper_channel, budget)
        b = run_algorithm(name, paper_channel, budget)
        assert a.best_sum_rate == b.best_sum_rate
        assert np.array_equal(a.best_per_iteration, b.best_per_iteration)
        assert np.array_equal(a.best_assignment.flags, b.best_assignment.flags)

    @pytest.mark.parametrize("name", STOCHASTIC)
    def test_trace_invariants(self, name, paper_channel):
        budget = SearchBudget(population=5, iterations=12, seed=7)
        trace = run_algorithm(name, paper_channel, budget)
        hist = trace.best_per_iteration
        assert hist.size == budget.iterations
        assert np.all(np.diff(hist) >= 0)
        assert hist[-1] == pytest.approx(trace.best_sum_rate)
        # the reported winner re-evaluates to the reported value
        _, total = evaluate_fixed_order(paper_channel, trace.best_assignment)
        assert total == pytest.approx(trace.best_sum_rate)

    @pytest.mark.parametrize("name", ["dpso", "ampso", "as", "mmas"])
    def test_population_budget_is_exact(self, name, paper_channel):
        budget = SearchBudget(population=4, iterations=9, seed=3)
        trace = run_algorithm(name, paper_channel, budget)
        assert trace.evaluations == budget.evaluation_budget

    def test_sa_budget_includes_restart_evaluations(self, paper_channel):
        budget = SearchBudget(population=10, iterations=60, seed=3)
        trace = simulated_annealing(paper_channel, budget)
        moves = budget.evaluation_budget
        # the schedule crosses the temperature floor SA_RESTART_CYCLES
        # times; the final crossing ends the run instead of restarting
        from seisrate.search import SA_RESTART_CYCLES

        assert moves + 1 <= trace.evaluations <= moves + SA_RESTART_CYCLES

    @pytest.mark.parametrize("name", STOCHASTIC)
    def test_never_beats_exhaustive(self, name):
        channel = random_channel(4, 2, 17)
        _, optimum = exhaustive_search(channel)
        budget = SearchBudget(population=8, iterations=20, seed=1)
        trace = run_algorithm(name, channel, budget)
        assert trace.best_sum_rate <= optimum

    def test_seeds_vary_outcome(self, paper_channel):
        budget_a = SearchBudget(population=5, iterations=5, seed=0)
        budget_b = SearchBudget(population=5, iterations=5, seed=1)
        a = dpso(paper_channel, budget_a)
        b = dpso(paper_channel, budget_b)
        assert not np.array_equal(a.best_per_iteration, b.best_per_iteration) or \
            not np.array_equal(a.best_assignment.flags, b.best_assignment.flags)

    def test_unknown_algorithm(self, paper_channel):
        with pytest.raises(ValueError):
            run_algorithm("genetic", paper_channel,
                          SearchBudget(population=2, iterations=2))

    def test_registry_covers_cli_names(self):
        assert set(ALGORITHMS) == {"es", "baseline", "dpso", "ampso",
                                   "as", "mmas", "sa"}

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(population=0, iterations=5)
        with pytest.raises(ValueError):
            SearchBudget(population=5, iterations=5, sa_max_temperature=0.5)

    def test_zero_evaporation_keeps_running(self, paper_channel):
        budget = SearchBudget(population=4, iterations=8, seed=5)
        trace = ant_system(paper_channel, budget, AcoParams(evaporation=0.0))
        assert trace.best_sum_rate > 0

    def test_mmas_pheromones_stay_clamped(self, paper_channel):
        tables = []
        budget = SearchBudget(population=6, iterations=30, seed=2)
        max_min_ant_system(paper_channel, budget, AcoParams(),
                           observer=tables.append)
        assert len(tables) == 30
        for tau in tables:
            assert tau.min() >= seisrate.search.TAU_MIN - 1e-12
            assert tau.max() <= seisrate.search.TAU_MAX + 1e-12

    def test_observer_does_not_change_result(self, paper_channel):
        budget = SearchBudget(population=5, iterations=10, seed=4)
        plain = max_min_ant_system(paper_channel, budget)
        observed = max_min_ant_system(paper_channel, budget,
                                      observer=lambda tau: None)
        assert plain.best_sum_rate == observed.best_sum_rate

    def test_heuristic_modes_run(self, paper_channel):
        budget = SearchBudget(population=4, iterations=8, seed=5)
        for mode in ("gw-average", "gw-average+gp-deactivation"):
            trace = max_min_ant_system(
                paper_channel, budget, AcoParams(heuristic_mode=mode)
            )
            assert trace.best_sum_rate > 0


class TestObjectiveUnderLp:
    """Searches under lp take every value from rates._lp_sum_rate: its
    closed form up to two gateways, with evaluate_lp's bits, and the
    simplex's own bits beyond."""

    @staticmethod
    def mixed_batch(k, n, seed):
        # all zeros, all ones, one geophone, and random rows
        rng = np.random.default_rng(seed)
        return np.concatenate([
            np.zeros((1, k, n)), np.ones((1, k, n)),
            np.eye(k, n)[None], rng.random((12, k, n)) < 0.5,
        ]).astype(np.int8)

    @pytest.mark.parametrize("scenario", [1, 2])
    def test_batch_is_evaluate_lp_row_by_row(self, scenario):
        k, n = 6, 2
        channel = random_channel(k, n, 21 + scenario)
        mode = EvaluationMode.scenario(scenario, ORDER_LP)
        batch = self.mixed_batch(k, n, scenario)
        objective = _Objective(channel, mode)
        sums = objective.batch(batch.reshape(len(batch), -1))
        assert objective.count == len(batch)
        assert sums[0] == 0.0
        for flags, value in zip(batch, sums):
            assert _same_bits(value, _lp_sum_rate(channel, flags, mode))
            want = evaluate_lp(channel, DecodingAssignment(flags), mode)[1]
            assert _same_bits(value, want)
        t = int(np.argmax(sums))
        assert objective.best_sum == sums[t]
        assert np.array_equal(objective.best_flags, batch[t])
        objective.batch(batch[0].ravel()[None])
        assert objective.count == len(batch) + 1

    @pytest.mark.parametrize("scenario", [1, 2])
    def test_three_gateways_keep_the_simplex_bits(self, scenario):
        # past two gateways the values are the simplex's, in a batch and
        # in exhaustive search's values
        k, n = 5, 3
        channel = random_channel(k, n, 31 + scenario)
        mode = EvaluationMode.scenario(scenario, ORDER_LP)
        batch = self.mixed_batch(k, n, scenario)
        sums = _Objective(channel, mode).batch(batch)
        for flags, value in zip(batch, sums):
            want = evaluate_lp(channel, DecodingAssignment(flags), mode)[1]
            assert _same_bits(value, want)
        small = random_channel(2, n, 33 + scenario)
        values = exhaustive_search(small, mode).values
        want = [evaluate_lp(small, DecodingAssignment(flags), mode)[1]
                for flags in _flag_matrices(np.arange(1 << 2 * n), 2, n)]
        assert values.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("scenario", [1, 2])
    @pytest.mark.parametrize("name", STOCHASTIC)
    def test_each_assignment_is_solved_once(self, name, scenario, monkeypatch):
        # 600 evaluations in a space of 2^8: many repeat an assignment
        channel = random_channel(4, 2, 40 + scenario)
        mode = EvaluationMode.scenario(scenario, ORDER_LP)
        budget = SearchBudget(population=10, iterations=60, seed=scenario)
        solved = []

        def lp_sum_rate(channel, flags, mode):
            solved.append(flags.tobytes())
            return _lp_sum_rate(channel, flags, mode)

        monkeypatch.setattr(seisrate.search, "_lp_sum_rate", lp_sum_rate)
        trace = run_algorithm(name, channel, budget, mode)
        assert len(solved) == len(set(solved)) > 0
        assert trace.evaluations >= budget.evaluation_budget > len(solved)

    def test_batch_counts_repeats_and_solves_them_once(self, monkeypatch):
        channel = random_channel(4, 2, 9)
        mode = EvaluationMode.scenario(2, ORDER_LP)
        rows = (np.random.default_rng(9).random((5, 8)) < 0.5).astype(np.int8)
        batch = rows[[0, 1, 0, 2, 3, 1, 4, 0]]
        calls = []
        monkeypatch.setattr(seisrate.search, "_lp_sum_rate",
                            lambda *args: calls.append(1) or _lp_sum_rate(*args))
        objective = _Objective(channel, mode)
        sums = objective.batch(batch)
        again = objective.batch(batch[::-1])
        assert objective.count == 16 and len(calls) == 5
        assert sums.tobytes() == again[::-1].tobytes()
        for flags, value in zip(batch.reshape(-1, 4, 2), sums):
            assert _same_bits(value, _lp_sum_rate(channel, flags, mode))
            want = evaluate_lp(channel, DecodingAssignment(flags), mode)[1]
            assert _same_bits(value, want)

    @pytest.mark.parametrize("scenario", [1, 2])
    @pytest.mark.parametrize("k", [4, 5])
    def test_exhaustive_values_match_the_reference_loop(self, k, scenario, monkeypatch):
        # exhaustive search solves each assignment once, outside any memo,
        # with the searches' function, which agrees with the simplex
        channel = random_channel(k, 2, 50 + k + scenario)
        mode = EvaluationMode.scenario(scenario, ORDER_LP)
        monkeypatch.setattr(_Objective, "batch", None)
        values = exhaustive_search(channel, mode).values
        flags = _flag_matrices(np.arange(1 << 2 * k), k, 2)
        want = [_lp_sum_rate(channel, f, mode) for f in flags]
        assert values.tobytes() == np.array(want).tobytes()
        simplex = [reference_lp_value(channel, f, mode) for f in flags]
        assert values == pytest.approx(simplex, rel=1e-12)


class _SimplexReached(Exception):
    pass


class TestNoSimplexUpToTwoGateways:
    """Up to two gateways no exact-LP path reaches the simplex: with
    rates.solve_lp patched to raise, evaluate_lp, _lp_sum_rate, an lp
    search through the CLI and lp-exact ES still run.  At three gateways
    the patched call raises."""

    @pytest.fixture(autouse=True)
    def no_simplex(self, monkeypatch):
        def solve_lp(groups):
            raise _SimplexReached
        monkeypatch.setattr(seisrate.rates, "solve_lp", solve_lp)

    @pytest.mark.parametrize("scenario", [1, 2])
    @pytest.mark.parametrize("n", [1, 2])
    def test_every_lp_path_runs(self, n, scenario, tmp_path, capsys):
        channel = random_channel(5, n, 60 + n)
        mode = EvaluationMode.scenario(scenario, ORDER_LP)
        flags = np.random.default_rng(n).random((5, n)) < 0.6
        _, total = evaluate_lp(channel, DecodingAssignment(flags), mode)
        assert _same_bits(total, _lp_sum_rate(channel, flags, mode))
        assignment, best = exhaustive_search(channel, mode)
        assert _same_bits(best, evaluate_lp(channel, assignment, mode)[1])
        path = tmp_path / "channel.json"
        save_instance(channel, path)
        assert main(["stage1", "optimize", "--instance", str(path), "--algo", "sa",
                     "--evaluator", "lp", "--scenario", str(scenario),
                     "-M", "3", "-I", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["best_sum_rate"] > 0

    def test_three_gateways_reach_it(self):
        channel = random_channel(5, 3, 63)
        mode = EvaluationMode.scenario(1, ORDER_LP)
        with pytest.raises(_SimplexReached):
            evaluate_lp(channel, DecodingAssignment.all_ones(5, 3), mode)
        with pytest.raises(_SimplexReached):
            _lp_sum_rate(channel, np.ones((5, 3), bool), mode)


@pytest.mark.parametrize("scenario", [1, 2])
def test_evaluate_lp_is_the_exhaustive_optimum(scenario):
    # one exact-LP value up to two gateways: evaluate_lp of lp-exact ES's
    # assignment is its optimum, bit for bit
    mode = EvaluationMode.scenario(scenario, ORDER_LP)
    for seed in range(1, 13):
        channel = random_channel(6, 2, seed)
        assignment, best = exhaustive_search(channel, mode)
        assert _same_bits(evaluate_lp(channel, assignment, mode)[1], best)


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestMovePath:
    """SA's one-bit moves through _Objective.start and flip: each value
    must be the bits of evaluate_fixed_order_batch on that one row, and
    the count and best must follow batch() on the same rows."""

    @staticmethod
    def check(objective, states):
        channel, mode = objective.channel, objective.mode
        reference = _Objective(channel, mode)   # evaluate_fixed_order_batch
        for state in states:
            flags = state.flags.reshape(1, channel.num_gps, channel.num_gws)
            assert _same_bits(state.value, reference.batch(flags)[0])
            if state.transmitting is not None:
                assert np.array_equal(state.transmitting,
                                      _active_mask(flags[0], mode.undecoded_gp_policy))
        assert objective.count == reference.count == len(states)
        assert objective.best_sum == reference.best_sum
        assert np.array_equal(objective.best_flags, reference.best_flags)

    @staticmethod
    def walk(objective, moves, seed, restart_every=100):
        """SA's pattern of calls: a candidate one flip from the current
        state, accepted half the time, and a restart now and then."""
        rng = np.random.default_rng(seed)
        d = objective.shape[0] * objective.shape[1]
        states = []
        for move in range(moves):
            if move % restart_every == 0:
                state = objective.start(rng.random(d) < 0.5)
                states.append(state)
            cand = objective.flip(state, int(rng.integers(d)))
            states.append(cand)
            if rng.random() < 0.5:
                state = cand
        return states

    def check_walk(self, channel, scenario, moves=300):
        objective = _Objective(channel, EvaluationMode.scenario(scenario))
        self.check(objective, self.walk(objective, moves, scenario))

    @pytest.mark.parametrize("scenario", [1, 2])
    @pytest.mark.parametrize("k,n", [(3, 2), (8, 2), (5, 4), (12, 3), (100, 8)])
    def test_random_walks(self, k, n, scenario):
        self.check_walk(random_channel(k, n, 40 + k + n + scenario), scenario)

    def test_switching_geophones_on_and_off(self):
        # scenario 2 from all-zero: each first bit of a geophone switches
        # it on, each last bit off, and every gateway's row changes
        channel = random_channel(4, 3, 5)
        objective = _Objective(channel, EvaluationMode.scenario(2))
        states = [objective.start(np.zeros(12, bool))]
        for bit in (0, 4, 1, 11, 0, 10, 1, 4, 11, 10):
            states.append(objective.flip(states[-1], bit))
        assert [int(s.transmitting.sum()) for s in states] == [
            0, 1, 2, 2, 3, 3, 3, 2, 1, 1, 0]
        assert states[0].value == states[-1].value == 0.0
        self.check(objective, states)

    def test_sparse_walk_switches_often(self):
        # scenario 2 with at most K/2 bits set: at least half the geophones
        # are off, so most moves switch one on or off
        k, n = 30, 3
        objective = _Objective(random_channel(k, n, 12), EvaluationMode.scenario(2))
        rng = np.random.default_rng(12)
        states = [objective.start(np.zeros(k * n, bool))]
        state, switches = states[0], 0
        for _ in range(300):
            cand = objective.flip(state, int(rng.integers(k * n)))
            states.append(cand)
            switches += not np.array_equal(cand.transmitting, state.transmitting)
            if cand.flags.sum() <= k // 2:
                state = cand
        assert switches >= 150
        self.check(objective, states)

    @pytest.mark.parametrize("scenario", [1, 2])
    def test_all_zero_gains(self, scenario):
        self.check_walk(ChannelMatrix(5, 3, np.zeros((5, 3)), 1e-3, 1e-3), scenario)

    @pytest.mark.parametrize("scenario", [1, 2])
    def test_duplicated_gains(self, scenario):
        gains = random_channel(8, 2, 7).gains.copy()
        gains[1::2] = gains[0::2]
        gains[:, 1] = gains[:, 0]
        self.check_walk(ChannelMatrix(8, 2, gains, 1e-3, 1e-3), scenario)

    @pytest.mark.parametrize("scenario", [1, 2])
    @pytest.mark.parametrize("k,n", [(1, 1), (1, 4), (9, 1)])
    def test_one_geophone_or_gateway(self, k, n, scenario):
        self.check_walk(random_channel(k, n, 3 * k + n), scenario, moves=120)

    @pytest.mark.parametrize("scenario", [1, 2])
    def test_es_values_moves_read_the_flipped_index(self, scenario):
        channel = random_channel(5, 3, 8)
        mode = EvaluationMode.scenario(scenario)
        objective = _Objective(channel, mode, exhaustive_search(channel, mode).values)
        states = self.walk(objective, 300, scenario)
        for state in states:
            assert state.index == int(state.flags @ objective.place)
        self.check(objective, states)

    @pytest.mark.parametrize("scenario", [1, 2])
    def test_lp_moves_go_through_batch(self, scenario):
        mode = EvaluationMode.scenario(scenario, ORDER_LP)
        channel = random_channel(4, 2, 3)
        objective = _Objective(channel, mode)
        states = self.walk(objective, 20, scenario, restart_every=8)
        reference = _Objective(channel, mode)
        for state in states:
            assert state.bounds is None and state.index is None
            assert _same_bits(state.value, reference.batch(state.flags[None])[0])
        assert objective.count == reference.count == len(states)
        assert np.array_equal(objective.best_flags, reference.best_flags)


@pytest.mark.parametrize("scenario", [1, 2])
@pytest.mark.parametrize("k,n", [(8, 2), (4, 3)])
def test_sa_trace_with_es_values_across_restarts(k, n, scenario):
    channel = random_channel(k, n, 80 + scenario)
    mode = EvaluationMode.scenario(scenario)
    budget = SearchBudget(population=20, iterations=50, seed=scenario)
    es_values = exhaustive_search(channel, mode).values
    looked_up = simulated_annealing(channel, budget, mode, es_values)
    evaluated = simulated_annealing(channel, budget, mode)
    # one evaluation per (re)start beyond the M*I moves
    assert looked_up.evaluations > budget.evaluation_budget + 1
    assert looked_up.best_per_iteration.tobytes() == evaluated.best_per_iteration.tobytes()
    assert _same_bits(looked_up.best_sum_rate, evaluated.best_sum_rate)
    assert looked_up.best_assignment == evaluated.best_assignment
    assert looked_up.evaluations == evaluated.evaluations


@pytest.mark.parametrize("scenario", [1, 2])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_traces_match_unmemoized_single(name, scenario, monkeypatch):
    """Every algorithm gives the same trace with SA's moves routed through
    batch() on one row, which keeps nothing between calls.  The reference
    is run here, not stored, since BLAS bits differ between CPUs."""
    channel = random_channel(8, 2, 60 + scenario)
    mode = EvaluationMode.scenario(scenario)
    budget = SearchBudget(population=10, iterations=60, seed=scenario)
    moved = run_algorithm(name, channel, budget, mode)

    def start(self, flags):
        return _State(flags, float(self.batch(flags[None])[0]))

    def flip(self, state, bit):
        flags = state.flags.copy()
        flags[bit] = not flags[bit]
        return start(self, flags)

    monkeypatch.setattr(_Objective, "start", start)
    monkeypatch.setattr(_Objective, "flip", flip)
    plain = run_algorithm(name, channel, budget, mode)
    assert moved.algorithm == plain.algorithm == name
    assert moved.best_per_iteration.tobytes() == plain.best_per_iteration.tobytes()
    assert _same_bits(moved.best_sum_rate, plain.best_sum_rate)
    assert moved.best_assignment == plain.best_assignment
    assert moved.evaluations == plain.evaluations


@pytest.mark.parametrize("evaluator,scenario,k", [
    ("fixed-order", 1, 8), ("fixed-order", 2, 8), ("lp", 1, 4), ("lp", 2, 4)])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_traces_match_with_es_values(name, evaluator, scenario, k):
    """Every algorithm gives the same trace when it reads exhaustive
    search's values instead of evaluating."""
    channel = random_channel(k, 2, 70 + scenario)
    mode = evaluation_mode(evaluator, scenario)
    budget = SearchBudget(population=10, iterations=60, seed=scenario)
    es_values = exhaustive_search(channel, mode).values
    looked_up = run_algorithm(name, channel, budget, mode, es_values=es_values)
    evaluated = run_algorithm(name, channel, budget, mode)
    assert looked_up.best_per_iteration.tobytes() == evaluated.best_per_iteration.tobytes()
    assert _same_bits(looked_up.best_sum_rate, evaluated.best_sum_rate)
    assert looked_up.best_assignment == evaluated.best_assignment
    assert looked_up.evaluations == evaluated.evaluations


def test_es_values_must_cover_the_space():
    channel = random_channel(3, 2, 1)
    with pytest.raises(ValueError, match="2\\^6 assignments"):
        _Objective(channel, EvaluationMode(), np.zeros(32))


class TestConvergenceSmoke:
    def test_small_instance_algorithms_find_optimum(self):
        # generous budget on a tiny space: every method should land on the
        # global best
        channel = random_channel(3, 2, 5)
        _, optimum = exhaustive_search(channel)
        budget = SearchBudget(population=20, iterations=40, seed=9)
        for name in STOCHASTIC:
            trace = run_algorithm(name, channel, budget)
            assert trace.best_sum_rate == pytest.approx(optimum, rel=1e-6), name


# every (K, N) with N <= 5, K <= 10 and at most 2^16 assignments.  Above
# 2^14 the search splits the flat index into outer and inner bits: 8 x 2
# splits between geophones, while 5 x 3, 4 x 4 and 3 x 5 split one
# geophone's flags between the two blocks.
ORACLE_SHAPES = [(k, n) for n in range(1, 6) for k in range(1, 11) if k * n <= 16]

# above ES_VALUES_CAP the search visits its outer blocks best bound first
# and stops at the first that cannot win, in both scenarios; 6 x 3 and
# 3 x 6 split a geophone's flags between outer and inner bits, and 17 x 1
# keeps 3 outer bits and puts all 14 of its free geophones in the
# scenario-2 bound's transmitting set
PRUNED_SHAPES = [(9, 2), (6, 3), (17, 1), (3, 6)]


class TestExhaustiveAgainstBruteForce:
    """The pattern-table search against every assignment through the batch
    evaluator: the same value (==) and the same flags, ties included."""

    @staticmethod
    def check(channel, scenario):
        mode = EvaluationMode.scenario(scenario)
        result = exhaustive_search(channel, mode)
        assignment, best = result
        flags, value = brute_force_exhaustive(channel, mode)
        assert best == value
        assert np.array_equal(assignment.flags, flags)
        assert _same_bits(best, evaluate_fixed_order(channel, assignment, mode)[1])
        k, n = channel.num_gps, channel.num_gws
        if 1 << (k * n) > ES_VALUES_CAP:
            assert result.values is None
            return flags
        # every assignment's value, in flat-index order
        index = np.arange(1 << (k * n))
        every = (index[:, None] >> np.arange(k * n - 1, -1, -1)) & 1
        _, sums = evaluate_fixed_order_batch(channel, every.reshape(-1, k, n), mode)
        assert result.values.tobytes() == sums.tobytes()
        return flags

    @pytest.mark.parametrize("scenario", [1, 2])
    @pytest.mark.parametrize("k,n", ORACLE_SHAPES)
    def test_random_channels(self, k, n, scenario):
        self.check(random_channel(k, n, 100 * k + 10 * n + scenario), scenario)

    @pytest.mark.parametrize("scenario", [1, 2])
    @pytest.mark.parametrize("k,n", [(3, 2), (5, 3), (8, 2)])
    def test_duplicated_geophones_tie(self, k, n, scenario):
        gains = random_channel(k, n, 7).gains.copy()
        gains[1::2] = gains[0::2][: k // 2]
        self.check(ChannelMatrix(k, n, gains, 1e-3, 1e-3), scenario)

    @pytest.mark.parametrize("scenario", [1, 2])
    def test_all_zero_gains_tie_on_the_zero_matrix(self, scenario):
        channel = ChannelMatrix(5, 3, np.zeros((5, 3)), 1e-3, 1e-3)
        assert not self.check(channel, scenario).any()

    @pytest.mark.parametrize("scenario", [1, 2])
    @pytest.mark.parametrize("k,n", PRUNED_SHAPES)
    def test_pruned_random_channels(self, k, n, scenario):
        self.check(random_channel(k, n, 100 * k + 10 * n + scenario), scenario)

    @pytest.mark.parametrize("scenario", [1, 2])
    @pytest.mark.parametrize("k,n", PRUNED_SHAPES)
    def test_pruned_duplicated_geophones_tie(self, k, n, scenario):
        # duplicated outer geophones put equal maxima in blocks that the
        # bound order may visit larger flat index first
        gains = random_channel(k, n, 7).gains.copy()
        gains[1::2] = gains[0::2][: k // 2]
        self.check(ChannelMatrix(k, n, gains, 1e-3, 1e-3), scenario)

    @pytest.mark.parametrize("scenario", [1, 2])
    @pytest.mark.parametrize("k,n", PRUNED_SHAPES)
    def test_pruned_all_zero_gains_tie_on_the_zero_matrix(self, k, n, scenario):
        # every assignment scores 0, so every block's bound ties the best
        channel = ChannelMatrix(k, n, np.zeros((k, n)), 1e-3, 1e-3)
        assignment, best = exhaustive_search(channel, EvaluationMode.scenario(scenario))
        assert best == 0.0
        assert not assignment.flags.any()

    def test_ties_go_to_the_smaller_index_in_any_block_order(self, monkeypatch):
        # bounds rising with the block index: every block is visited, the
        # last first, and equal maxima lie in several blocks
        monkeypatch.setattr(seisrate.search, "_block_bounds",
                            lambda channel, outer, fixed, silent:
                            1e3 + np.arange(len(outer)))
        gains = random_channel(9, 2, 7).gains.copy()
        gains[1::2] = gains[0::2][:4]
        for scenario in (1, 2):
            self.check(ChannelMatrix(9, 2, gains, 1e-3, 1e-3), scenario)
            channel = ChannelMatrix(9, 2, np.zeros((9, 2)), 1e-3, 1e-3)
            assert not self.check(channel, scenario).any()


@st.composite
def tied_channels(draw):
    """A channel of at most 2^15 assignments whose gains repeat a few
    values, zero among them, and a split of its flat index into outer and
    inner bits.  One gateway takes up to 10 geophones, so that more than 7
    can be free in a block."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 10 if n == 1 else 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = np.append(rng.rayleigh(1.0, draw(st.integers(1, 3))), 0.0)
    gains = rng.choice(pool, size=(k, n))
    return ChannelMatrix(k, n, gains, 1e-3, 1e-3), draw(st.integers(0, k * n))


class TestBlockBounds:
    @given(tied_channels())
    @settings(max_examples=150, deadline=None)
    # one gateway and 9-10 free geophones, every bit inner: the scenario-2
    # bound puts them all in the transmitting set and is exact
    @example((random_channel(10, 1, 5), 10))
    @example((random_channel(9, 1, 6), 9))
    def test_no_block_beats_its_bound(self, case):
        # within the slack that exhaustive_search prunes with: a bound and
        # the rate it caps may sum the same powers in another order
        channel, inner_bits = case
        k, n = channel.num_gps, channel.num_gws
        every = _flag_matrices(np.arange(1 << (k * n)), k, n)
        fixed = (np.arange(k * n) < k * n - inner_bits).reshape(k, n)
        for scenario in (1, 2):
            _, sums = evaluate_fixed_order_batch(
                channel, every, EvaluationMode.scenario(scenario))
            tops = sums.reshape(-1, 1 << inner_bits).max(axis=1)
            bounds = _block_bounds(channel, every[::1 << inner_bits], fixed,
                                   scenario == 2)
            assert np.all(bounds * (1 + 1e-9) >= tops), scenario
            if scenario == 2 and n == 1:
                # one gateway: the bound is each block's best value
                np.testing.assert_allclose(bounds, tops, rtol=1e-12, atol=0)


def _count_gateway_bounds(monkeypatch):
    calls = []
    real = seisrate.search.gateway_bounds

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(seisrate.search, "gateway_bounds", counted)
    return calls


@pytest.mark.parametrize("scenario", [1, 2])
def test_a_move_makes_one_gateway_bounds_call(scenario, monkeypatch):
    # one every-gateway call to start; a move that switches no geophone
    # calls for the flipped bit's gateway, one that does (scenario 2) for
    # every gateway at once
    calls = _count_gateway_bounds(monkeypatch)
    k, n = 6, 3
    objective = _Objective(random_channel(k, n, 4), EvaluationMode.scenario(scenario))
    rng = np.random.default_rng(scenario)
    state = objective.start(rng.random(k * n) < 0.3)
    assert calls == [None]
    switches = 0
    for _ in range(300):
        calls.clear()
        bit = int(rng.integers(k * n))
        j, i = divmod(bit, n)
        cand = objective.flip(state, bit)
        switched = scenario == 2 and (cand.flags.reshape(k, n)[j].any()
                                      != state.flags.reshape(k, n)[j].any())
        assert calls == ([None] if switched else [i])
        switches += switched
        if rng.random() < 0.5:
            state = cand
    assert (switches > 30) == (scenario == 2)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pruning_visits_few_blocks_at_24_by_1(seed, monkeypatch):
    # 2^24 assignments in 1024 blocks of 2^14, one gateway_bounds call per
    # block and gateway: scenario 1 stops after a few blocks
    calls = _count_gateway_bounds(monkeypatch)
    channel = random_channel(24, 1, seed)
    mode = EvaluationMode.scenario(1)
    assignment, best = exhaustive_search(channel, mode)
    assert len(calls) <= 64
    assert _same_bits(best, evaluate_fixed_order(channel, assignment, mode)[1])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scenario_2_prunes_blocks_at_9_by_2(seed, monkeypatch):
    # 2^18 assignments in 16 blocks of 2^14, 2 gateways: the best of each
    # block's transmitting sets leaves blocks unvisited
    calls = _count_gateway_bounds(monkeypatch)
    exhaustive_search(random_channel(9, 2, seed), EvaluationMode.scenario(2))
    assert len(calls) < 16 * 2


def test_scenario_2_visits_few_blocks_at_12_by_2(monkeypatch):
    # 2^24 assignments in 1024 blocks, the channel of `seisrate gen --gps 12
    # --gws 2 --seed 1`
    calls = _count_gateway_bounds(monkeypatch)
    channel = random_channel(12, 2, 1)
    mode = EvaluationMode.scenario(2)
    assignment, best = exhaustive_search(channel, mode)
    assert len(calls) <= 64 * 2
    assert _same_bits(best, evaluate_fixed_order(channel, assignment, mode)[1])


@pytest.mark.parametrize("k", [17, 18, 24])
@pytest.mark.parametrize("scenario", [1, 2])
def test_one_gateway_decodes_all(k, scenario, monkeypatch):
    # with one gateway the SIC bounds of decode-all telescope to the sum
    # capacity log2(1 + P sum(h^2) / N0), which no other assignment reaches;
    # the block holding decode-all has the top bound and is the only one
    # computed, in 2^24 assignments too
    calls = _count_gateway_bounds(monkeypatch)
    channel = random_channel(k, 1, k)
    mode = EvaluationMode.scenario(scenario)
    assignment, best = exhaustive_search(channel, mode)
    assert len(calls) == 1
    assert assignment == DecodingAssignment.all_ones(k, 1)
    assert _same_bits(best, evaluate_fixed_order(channel, assignment, mode)[1])
    capacity = math.log2(1 + channel.gp_power * float(np.sum(channel.gains ** 2))
                         / channel.noise_power)
    assert abs(best - capacity) <= 1e-12
