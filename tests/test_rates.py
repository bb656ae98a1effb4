import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import random_channel
from oracles import (
    best_corner_sum,
    link_capacity,
    lp_constraint_slacks,
    reference_lp_value,
    sic_corner_rates,
    two_gateway_lp,
)
from seisrate import simplex
from seisrate.errors import CapacityLimitError
from seisrate.model import ChannelMatrix
from seisrate.rates import (
    ORDER_LP,
    UNDECODED_SILENT,
    DecodingAssignment,
    EvaluationMode,
    _active_mask,
    _gateway_weights,
    _lp_sum_rate,
    combine_bounds,
    evaluate_fixed_order,
    evaluate_fixed_order_batch,
    evaluate_lp,
    gateway_bounds,
    search_space_size,
)

MODE = EvaluationMode()
MW = 1e-3


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def least_prefix_slack(channel, flags, mode, rates):
    """The least slack log2(1 + w(S)) - x(S) over every gateway's decoded
    sets S, the empty set (slack 0) included: the concave capacity puts
    it on a prefix sorted by x_j / w_j, descending, as in the simplex's
    separation."""
    least = 0.0
    for column, w in zip(flags.T, _gateway_weights(channel, flags, mode)):
        order = sorted(column.nonzero()[0], key=lambda j: -rates[j] / w[j] if w[j]
                       else -math.copysign(math.inf, rates[j]))
        w_sum = x_sum = 0.0
        for j in order:
            w_sum += w[j]
            x_sum += rates[j]
            least = min(least, math.log2(1.0 + w_sum) - x_sum)
    return least


def reference_lp_sum(channel, flags, mode=MODE):
    """Independent LP evaluation: constraints built by direct subset
    enumeration, solved with scipy."""
    k, n = flags.shape
    h2 = channel.gains ** 2
    p, n0 = channel.gp_power, channel.noise_power
    decoded_any = flags.any(axis=1)
    rows, rhs = [], []
    for i in range(n):
        decoded = [j for j in range(k) if flags[j, i]]
        interferers = [m for m in range(k) if not flags[m, i]]
        if mode.undecoded_gp_policy == UNDECODED_SILENT:
            interferers = [m for m in interferers if decoded_any[m]]
        noise = n0 + p * sum(h2[m, i] for m in interferers)
        for r in range(1, len(decoded) + 1):
            for subset in itertools.combinations(decoded, r):
                row = np.zeros(k)
                row[list(subset)] = 1.0
                rows.append(row)
                rhs.append(math.log2(1 + p * sum(h2[j, i] for j in subset) / noise))
    if not rows:
        return 0.0
    bounds = [(0, None) if decoded_any[j] else (0, 0) for j in range(k)]
    res = linprog(-np.ones(k), A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=bounds, method="highs")
    assert res.success
    return -res.fun


class TestLinkCapacity:
    def test_zero_gain(self):
        assert link_capacity(MW, 0.0, MW) == 0.0

    def test_worked_example_values(self):
        assert link_capacity(MW, 0.896, MW) == pytest.approx(0.850, abs=1e-3)
        # hand evaluation of the capacity formula
        assert link_capacity(MW, 3.023, MW) == pytest.approx(
            math.log2(1 + 3.023 ** 2), abs=1e-12
        )

    def test_rejects_nonpositive_denominator(self):
        with pytest.raises(ValueError):
            link_capacity(MW, 1.0, 0.0)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            link_capacity(-MW, 1.0, MW)


class TestSicCornerRates:
    def test_decode_all_permutation(self, paper_channel):
        all_ones = DecodingAssignment.all_ones(3, 2)
        rates = sic_corner_rates(paper_channel, all_ones, 0, (0, 1, 2))
        assert rates == pytest.approx([1.640, 1.738, 0.372], abs=1e-3)

    def test_empty_decoded_set(self, paper_channel):
        empty = DecodingAssignment.all_zeros(3, 2)
        assert sic_corner_rates(paper_channel, empty, 0, ()).size == 0

    def test_partial_set_with_interference(self, paper_channel):
        f = DecodingAssignment(np.array([[1, 0], [1, 1], [0, 1]]))
        rates = sic_corner_rates(paper_channel, f, 0, (1, 0))
        assert rates[1] == pytest.approx(3.010, abs=2e-3)

    def test_rejects_non_bijection(self, paper_channel):
        all_ones = DecodingAssignment.all_ones(3, 2)
        with pytest.raises(ValueError):
            sic_corner_rates(paper_channel, all_ones, 0, (0, 1, 1))
        with pytest.raises(ValueError):
            sic_corner_rates(paper_channel, all_ones, 0, (0, 1))

    @pytest.mark.parametrize("seed", range(20))
    def test_removing_interferer_never_hurts(self, seed):
        # dropping an undecoded geophone from the channel can only raise
        # every SIC bound at that gateway
        channel = random_channel(5, 1, seed)
        flags = np.zeros((5, 1), dtype=np.int8)
        flags[:3, 0] = 1
        full = sic_corner_rates(channel, DecodingAssignment(flags), 0, (0, 1, 2))
        reduced_channel = ChannelMatrix(
            4, 1, channel.gains[:4], channel.gp_power, channel.noise_power
        )
        reduced = sic_corner_rates(
            reduced_channel, DecodingAssignment(flags[:4]), 0, (0, 1, 2)
        )
        assert np.all(reduced >= full - 1e-12)


class TestEvaluateFixedOrder:
    def test_decode_all_worked_example(self, paper_channel):
        rv, total = evaluate_fixed_order(
            paper_channel, DecodingAssignment.all_ones(3, 2), MODE
        )
        assert rv.rates == pytest.approx([0.776, 1.335, 0.372], abs=1e-3)
        assert total == pytest.approx(2.483, abs=1e-3)

    def test_all_zeros(self, paper_channel):
        rv, total = evaluate_fixed_order(
            paper_channel, DecodingAssignment.all_zeros(3, 2), MODE
        )
        assert total == 0.0
        assert np.all(rv.rates == 0.0)

    def test_single_user(self):
        channel = ChannelMatrix(1, 1, [[1.7]], 2e-3, 1e-3)
        _, total = evaluate_fixed_order(
            channel, DecodingAssignment.all_ones(1, 1), MODE
        )
        assert total == pytest.approx(link_capacity(2e-3, 1.7, 1e-3))

    def test_gain_ties_break_by_lower_index(self):
        channel = ChannelMatrix(2, 1, [[1.0], [1.0]], MW, MW)
        rv, _ = evaluate_fixed_order(
            channel, DecodingAssignment.all_ones(2, 1), MODE
        )
        # geophone 0 is decoded first, so it sees geophone 1 as interference
        assert rv.rates[0] < rv.rates[1]

    def test_batch_agrees_with_single(self, paper_channel):
        rng = np.random.default_rng(3)
        batch = (rng.random((32, 3, 2)) < 0.5).astype(np.int8)
        rates, sums = evaluate_fixed_order_batch(paper_channel, batch, MODE)
        for t in range(32):
            rv, total = evaluate_fixed_order(
                paper_channel, DecodingAssignment(batch[t]), MODE
            )
            assert rates[t] == pytest.approx(rv.rates.tolist())
            assert sums[t] == pytest.approx(total)

    @pytest.mark.parametrize("scenario", [1, 2])
    @pytest.mark.parametrize("k,n", [(8, 2), (12, 3), (40, 4)])
    @pytest.mark.parametrize("size", [1, 3, 64, 2 ** 14])
    def test_rows_do_not_depend_on_the_batch(self, size, k, n, scenario):
        # densities vary from row to row; a batch of at most 64 rows is
        # checked row by row, one of 2^14 against every row in batches of
        # random sizes from 1 to 4096 and against 64 of its rows alone
        mode = EvaluationMode.scenario(scenario)
        channel = random_channel(k, n, 7 * k + n + scenario)
        rng = np.random.default_rng(size + k + scenario)
        batch = rng.random((size, k, n)) < rng.random((size, 1, 1))
        rates, sums = evaluate_fixed_order_batch(channel, batch, mode)
        alone = range(size) if size <= 64 else rng.choice(size, 64, replace=False)
        for t in alone:
            one_rates, one_sum = evaluate_fixed_order_batch(channel, batch[t:t + 1], mode)
            assert one_rates.tobytes() == rates[t:t + 1].tobytes()
            assert one_sum.tobytes() == sums[t:t + 1].tobytes()
        if size > 64:
            start = 0
            while start < size:
                stop = start + int(rng.integers(1, 4097))
                part_rates, part_sums = evaluate_fixed_order_batch(
                    channel, batch[start:stop], mode)
                assert part_rates.tobytes() == rates[start:stop].tobytes()
                assert part_sums.tobytes() == sums[start:stop].tobytes()
                start = stop

    @pytest.mark.parametrize("scenario", [1, 2])
    @pytest.mark.parametrize("k,n", [(1, 1), (8, 2), (12, 3), (40, 4)])
    def test_one_row_has_the_bits_of_a_batch_row(self, k, n, scenario):
        # gateway_bounds and combine_bounds on a (K,) row, the matching
        # (1, K) row and that row inside a (B, K) batch
        policy = EvaluationMode.scenario(scenario).undecoded_gp_policy
        channel = random_channel(k, n, 5 * k + n + scenario)
        rng = np.random.default_rng(k + scenario)
        batch = rng.random((50, k, n)) < rng.random((50, 1, 1))
        active = _active_mask(batch, policy)
        rows = [gateway_bounds(channel, i, batch[:, :, i], active) for i in range(n)]
        rates, sums = combine_bounds([r.copy() for r in rows])
        for t in range(len(batch)):
            alone = [gateway_bounds(channel, i, batch[t, :, i], active[t])
                     for i in range(n)]
            one = [gateway_bounds(channel, i, batch[t:t + 1, :, i], active[t:t + 1])
                   for i in range(n)]
            for i in range(n):
                assert alone[i].shape == (k,) and one[i].shape == (1, k)
                assert alone[i].tobytes() == one[i].tobytes() == rows[i][t].tobytes()
            alone_rates, alone_sum = combine_bounds(alone)
            one_rates, one_sum = combine_bounds(one)
            assert alone_rates.tobytes() == one_rates.tobytes() == rates[t].tobytes()
            assert alone_sum.tobytes() == one_sum.tobytes() == sums[t:t + 1].tobytes()

    @pytest.mark.parametrize("gains", ["random", "duplicated", "zero"])
    @pytest.mark.parametrize("k,n", [(1, 1), (1, 4), (9, 1), (8, 2), (12, 3),
                                     (40, 4), (100, 8)])
    def test_every_gateway_pass_has_the_bits_of_each_gateway(self, k, n, gains):
        # gateway_bounds(channel, None, ...) on (N, K) and (B, N, K) decoded
        # flags against one call per gateway on (K,) and (B, K) rows
        g = random_channel(k, n, 3 * k + n).gains.copy()
        if gains == "duplicated":
            g[1::2] = g[0:k - 1:2]          # pairs of equal geophones
            g[:, 1::2] = g[:, 0:n - 1:2]    # and of equal gateways
        elif gains == "zero":
            g[:] = 0.0
        channel = ChannelMatrix(k, n, g, 1e-3, 1e-3)
        rng = np.random.default_rng(k + n)
        batch = rng.random((20, k, n)) < rng.random((20, 1, 1))
        for scenario in (1, 2):
            active = _active_mask(batch, EvaluationMode.scenario(scenario).undecoded_gp_policy)
            every = gateway_bounds(channel, None, batch.transpose(0, 2, 1), active)
            assert every.shape == (20, n, k)
            for i in range(n):
                each = gateway_bounds(channel, i, batch[:, :, i], active)
                assert every[:, i].tobytes() == each.tobytes()
            for t in range(len(batch)):
                row = gateway_bounds(channel, None, batch[t].T, active[t])
                assert row.shape == (n, k)
                assert row.tobytes() == every[t].tobytes()

    def test_undecoded_gp_has_zero_rate(self):
        channel = random_channel(4, 2, 11)
        flags = np.ones((4, 2), dtype=np.int8)
        flags[2, :] = 0
        rv, _ = evaluate_fixed_order(channel, DecodingAssignment(flags), MODE)
        assert rv.rates[2] == 0.0

    def test_scenarios_agree_on_full_decoding(self):
        for seed in range(10):
            channel = random_channel(5, 3, seed)
            full = DecodingAssignment.all_ones(5, 3)
            _, s1 = evaluate_fixed_order(channel, full, EvaluationMode.scenario(1))
            _, s2 = evaluate_fixed_order(channel, full, EvaluationMode.scenario(2))
            assert s1 == s2

    def test_silent_mode_removes_deactivated_interference(self):
        channel = random_channel(3, 1, 2)
        flags = np.array([[1], [1], [0]], dtype=np.int8)
        _, noisy = evaluate_fixed_order(
            channel, DecodingAssignment(flags), EvaluationMode.scenario(1)
        )
        _, quiet = evaluate_fixed_order(
            channel, DecodingAssignment(flags), EvaluationMode.scenario(2)
        )
        assert quiet > noisy


class TestEvaluateLp:
    def test_worked_example_optimum(self, paper_channel):
        f = DecodingAssignment(np.array([[1, 0], [1, 1], [0, 1]]))
        rv, total = evaluate_lp(paper_channel, f)
        assert total == pytest.approx(3.813, abs=1e-3)
        assert rv.sum_rate == pytest.approx(total, abs=1e-9)

    def test_all_zeros(self, paper_channel):
        _, total = evaluate_lp(paper_channel, DecodingAssignment.all_zeros(3, 2))
        assert total == 0.0

    def test_all_ones_against_independent_bounds(self, paper_channel):
        f = DecodingAssignment.all_ones(3, 2)
        _, total = evaluate_lp(paper_channel, f)
        # sandwiched between the best corner point and each gateway's
        # full-set sum capacity
        assert total >= best_corner_sum(paper_channel, f, MODE) - 1e-9
        h2 = paper_channel.gains ** 2
        for i in range(2):
            assert total <= math.log2(1 + h2[:, i].sum()) + 1e-9
        assert total == pytest.approx(
            reference_lp_sum(paper_channel, f.flags.astype(bool)), abs=1e-8
        )

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_reference_solver(self, seed):
        rng = np.random.default_rng(seed)
        channel = random_channel(4, 2, seed + 100)
        flags = (rng.random((4, 2)) < 0.6)
        _, total = evaluate_lp(channel, DecodingAssignment(flags.astype(np.int8)))
        assert total == pytest.approx(reference_lp_sum(channel, flags), abs=1e-8)

    def test_dominates_fixed_order(self):
        rng = np.random.default_rng(1)
        for seed in range(25):
            channel = random_channel(5, 2, seed + 500)
            flags = (rng.random((5, 2)) < 0.5).astype(np.int8)
            f = DecodingAssignment(flags)
            _, fixed = evaluate_fixed_order(channel, f, MODE)
            _, lp = evaluate_lp(channel, f)
            assert lp >= fixed - 1e-9

    def test_fixed_order_point_is_feasible(self):
        for seed in range(15):
            channel = random_channel(6, 2, seed + 900)
            rng = np.random.default_rng(seed)
            flags = (rng.random((6, 2)) < 0.5).astype(np.int8)
            f = DecodingAssignment(flags)
            rv, _ = evaluate_fixed_order(channel, f, MODE)
            slacks = lp_constraint_slacks(channel, f, rv, MODE)
            if slacks.size:
                assert slacks.min() >= -1e-9

    def test_downward_closure(self):
        rng = np.random.default_rng(7)
        for seed in range(10):
            channel = random_channel(4, 2, seed + 40)
            flags = (rng.random((4, 2)) < 0.7).astype(np.int8)
            f = DecodingAssignment(flags)
            rv, _ = evaluate_lp(channel, f)
            shrink = rv.rates * rng.random(4)
            from seisrate.rates import RateVector

            slacks = lp_constraint_slacks(channel, f, RateVector(shrink), MODE)
            if slacks.size:
                assert slacks.min() >= -1e-9

    def test_decoded_set_guard(self, monkeypatch):
        # 22 geophones decoded at the first of three gateways, 4194303
        # subset rows if written out: the cuts reach that gateway's
        # optimum f(V), and a pivot cap below what they need raises
        # CapacityLimitError
        channel = random_channel(22, 3, 0)
        flags = np.zeros((22, 3), dtype=np.int8)
        flags[:, 0] = 1
        f = DecodingAssignment(flags)
        _, total = evaluate_lp(channel, f, EvaluationMode(ORDER_LP))
        h2 = channel.gains[:, 0] ** 2
        assert total == pytest.approx(math.log2(1 + h2.sum()), rel=1e-12)
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 2)
        with pytest.raises(CapacityLimitError, match="more than 2 simplex pivots"):
            evaluate_lp(channel, f, EvaluationMode(ORDER_LP))

    @pytest.mark.parametrize("scenario", [1, 2])
    def test_random_300_by_2_assignment(self, scenario):
        # once past the simplex's pivot cap; now two corners, a feasible
        # rate vector at the oracle's value
        channel = random_channel(300, 2, 1)
        mode = EvaluationMode.scenario(scenario, ORDER_LP)
        flags = np.random.default_rng(1).random((300, 2)) < 0.5
        rv, total = evaluate_lp(channel, DecodingAssignment(flags), mode)
        assert total == pytest.approx(two_gateway_lp(channel, flags, mode),
                                      rel=1e-12)
        assert rv.sum_rate == pytest.approx(total, rel=1e-12)
        assert least_prefix_slack(channel, flags, mode, rv.rates) >= -1e-12

    @pytest.mark.parametrize("scenario", [1, 2])
    def test_matches_two_gateway_oracle_at_the_cap(self, scenario):
        # 11 x 2 decode-all: 2 x 2047 subset rows
        channel = random_channel(11, 2, 21)
        mode = EvaluationMode.scenario(scenario, ORDER_LP)
        f = DecodingAssignment.all_ones(11, 2)
        _, total = evaluate_lp(channel, f, mode)
        assert total == pytest.approx(two_gateway_lp(channel, f.flags, mode),
                                      rel=1e-12)

    @pytest.mark.parametrize("scenario", [1, 2])
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_two_gateway_oracle(self, seed, scenario):
        # random decoded sets of at most 11 geophones on each gateway
        rng = np.random.default_rng(seed + 2100)
        k = int(rng.integers(2, 16))
        channel = random_channel(k, 2, seed + 2200)
        mode = EvaluationMode.scenario(scenario, ORDER_LP)
        for _ in range(10):
            flags = rng.random((k, 2)) < rng.uniform(0.2, 0.9)
            for i in range(2):
                flags[rng.permutation(np.flatnonzero(flags[:, i]))[11:], i] = False
            _, total = evaluate_lp(channel, DecodingAssignment(flags), mode)
            assert total == pytest.approx(two_gateway_lp(channel, flags, mode),
                                          rel=1e-12)

    @pytest.mark.parametrize("scenario", [1, 2])
    @pytest.mark.parametrize("k", [16, 20, 28, 40])
    def test_matches_two_gateway_oracle_past_the_old_cap(self, k, scenario):
        # decoded sets that 2^d subset rows could not hold: decode-all and
        # five random assignments
        rng = np.random.default_rng(k + 2500)
        channel = random_channel(k, 2, k + 2600)
        mode = EvaluationMode.scenario(scenario, ORDER_LP)
        for flags in [np.ones((k, 2), bool)] + [
                rng.random((k, 2)) < rng.uniform(0.3, 0.9) for _ in range(5)]:
            _, total = evaluate_lp(channel, DecodingAssignment(flags), mode)
            assert total == pytest.approx(two_gateway_lp(channel, flags, mode),
                                          rel=1e-12)

    @pytest.mark.parametrize("scenario", [1, 2])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_solver_on_three_gateways(self, seed, scenario):
        rng = np.random.default_rng(seed + 2300)
        channel = random_channel(6, 3, seed + 2400)
        mode = EvaluationMode.scenario(scenario, ORDER_LP)
        for flags in (rng.random((6, 3)) < 0.6, np.ones((6, 3), bool)):
            _, total = evaluate_lp(channel, DecodingAssignment(flags), mode)
            assert total == pytest.approx(reference_lp_sum(channel, flags, mode),
                                          abs=1e-8)

    @pytest.mark.parametrize("scenario", [1, 2])
    def test_matches_reference_solver_at_the_cap(self, scenario):
        # 12 x 1 decode-all: 4095 subset rows
        channel = random_channel(12, 1, 22)
        mode = EvaluationMode.scenario(scenario, ORDER_LP)
        f = DecodingAssignment.all_ones(12, 1)
        _, total = evaluate_lp(channel, f, mode)
        assert total == pytest.approx(
            reference_lp_sum(channel, f.flags.astype(bool), mode), abs=1e-8)


def assert_optimal_over_every_row(channel, flags, mode):
    """The LP's rates meet every subset row of every decoded set, rows the
    solver never writes out, and their sum is scipy's optimum over them."""
    assignment = DecodingAssignment(flags)
    rv, total = evaluate_lp(channel, assignment, mode)
    slacks = lp_constraint_slacks(channel, assignment, rv, mode)
    assert slacks.size == 0 or slacks.min() >= -1e-9
    assert rv.rates[~assignment.flags.any(axis=1)].sum() == 0.0
    assert total == pytest.approx(
        reference_lp_sum(channel, assignment.flags.astype(bool), mode), abs=1e-8)


class TestLpSubsetRows:
    """The cut-generated LP against every subset row, written out."""

    @pytest.mark.parametrize("scenario", [1, 2])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_channels(self, seed, scenario):
        rng = np.random.default_rng(seed)
        k, n = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        channel = random_channel(k, n, seed + 300)
        mode = EvaluationMode.scenario(scenario, ORDER_LP)
        for density in (0.3, 0.6, 0.9):
            flags = (rng.random((k, n)) < density).astype(np.int8)
            assert_optimal_over_every_row(channel, flags, mode)

    @pytest.mark.parametrize("scenario", [1, 2])
    def test_gateways_that_decode_nothing(self, scenario):
        mode = EvaluationMode.scenario(scenario, ORDER_LP)
        channel = random_channel(6, 3, 11)
        flags = np.zeros((6, 3), dtype=np.int8)
        rv, total = evaluate_lp(channel, DecodingAssignment(flags), mode)
        assert total == 0.0 and not rv.rates.any()
        flags[[0, 2, 3], 1] = 1                  # gateways 0 and 2 idle
        assert_optimal_over_every_row(channel, flags, mode)
        flags[4, 2] = 1
        assert_optimal_over_every_row(channel, flags, mode)

    @pytest.mark.parametrize("scenario", [1, 2])
    @pytest.mark.parametrize("k, n, sets", [
        (12, 1, [range(12)]),                   # 4095 rows
        (11, 2, [range(11), range(11)]),        # 2 x 2047
        # overlapping sets, and geophone 12 decoded nowhere
        (13, 2, [range(11), range(1, 12)]),
    ])
    def test_decoded_sets_up_to_the_cap(self, k, n, sets, scenario):
        # the largest sets the former 4095-row cap let through
        channel = random_channel(k, n, 5)
        mode = EvaluationMode.scenario(scenario, ORDER_LP)
        flags = np.zeros((k, n), dtype=np.int8)
        for i, decoded in enumerate(sets):
            flags[list(decoded), i] = 1
        assert_optimal_over_every_row(channel, flags, mode)


class TestLpSumRate:
    """_lp_sum_rate, closed form up to two gateways, against the reference
    simplex, the two-gateway oracle and, up to 10 geophones, scipy over
    every subset row: all to 1e-12 relative.  evaluate_lp's value has the
    same bits, and its two-corner rates attain it: they are 0 where
    nothing is decoded, sum to the value to 1e-12 relative and meet every
    subset row to 1e-12, by the ratio-prefix separation and, up to 10
    geophones, by writing every row out."""

    @staticmethod
    def check(channel, flags, mode):
        value = _lp_sum_rate(channel, flags, mode)
        assert value == pytest.approx(reference_lp_value(channel, flags, mode),
                                      rel=1e-12)
        # the oracle divides by the gains at gateway 1
        if channel.num_gws == 2 and channel.gains[:, 0].all():
            assert value == pytest.approx(two_gateway_lp(channel, flags, mode),
                                          rel=1e-12)
        assignment = DecodingAssignment(flags)
        rv, total = evaluate_lp(channel, assignment, mode)
        assert _same_bits(total, value)
        assert not rv.rates[~flags.any(axis=1)].any()
        assert rv.sum_rate == pytest.approx(value, rel=1e-12)
        assert least_prefix_slack(channel, flags, mode, rv.rates) >= -1e-12
        if channel.num_gps <= 10:
            assert value == pytest.approx(reference_lp_sum(channel, flags, mode),
                                          rel=1e-12)
            slacks = lp_constraint_slacks(channel, assignment, rv, mode)
            assert slacks.size == 0 or slacks.min() >= -1e-12
        return value

    @given(k=st.integers(1, 40), n=st.integers(1, 2), scenario=st.sampled_from([1, 2]),
           density=st.floats(0.1, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_random_assignments(self, k, n, scenario, density, seed):
        rng = np.random.default_rng(seed)
        flags = rng.random((k, n)) < density
        self.check(random_channel(k, n, seed), flags,
                   EvaluationMode.scenario(scenario, ORDER_LP))

    @given(k=st.integers(1, 16), n=st.integers(1, 2), scenario=st.sampled_from([1, 2]),
           density=st.floats(0.1, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_zero_and_tied_gains(self, k, n, scenario, density, seed):
        # four gain levels: zero gains at either gateway, tied gains, and
        # tied ratios between the gateways, 0 / 0 included
        rng = np.random.default_rng(seed)
        gains = rng.choice([0.0, 0.5, 1.0, 2.0], size=(k, n))
        channel = ChannelMatrix(k, n, gains, MW, MW)
        flags = rng.random((k, n)) < density
        self.check(channel, flags, EvaluationMode.scenario(scenario, ORDER_LP))

    @pytest.mark.parametrize("scenario", [1, 2])
    @pytest.mark.parametrize("n", [1, 2])
    def test_nothing_decoded(self, n, scenario):
        mode = EvaluationMode.scenario(scenario, ORDER_LP)
        flags = np.zeros((5, n), dtype=bool)
        assert _lp_sum_rate(random_channel(5, n, 3), flags, mode) == 0.0

    @pytest.mark.parametrize("scenario", [1, 2])
    @pytest.mark.parametrize("idle", [0, 1])
    def test_one_gateway_decodes_nothing(self, idle, scenario):
        # the other gateway alone: log2(1 + w(D)), D its decoded set
        channel = random_channel(8, 2, 4)
        mode = EvaluationMode.scenario(scenario, ORDER_LP)
        flags = np.zeros((8, 2), dtype=bool)
        decoded = np.isin(np.arange(8), [0, 3, 4, 6])
        flags[:, 1 - idle] = decoded
        h2 = channel.gains[:, 1 - idle] ** 2
        interferers = ~decoded if scenario == 1 else np.zeros(8, bool)
        noise = channel.noise_power + channel.gp_power * h2[interferers].sum()
        want = math.log2(1 + channel.gp_power * h2[decoded].sum() / noise)
        assert self.check(channel, flags, mode) == pytest.approx(want, rel=1e-12)


class TestSearchSpaceSize:
    def test_worked_values(self):
        assert search_space_size(3, 2) == 64
        assert search_space_size(30, 5) == 2 ** 150
        assert f"{float(search_space_size(30, 5)):.3e}" == "1.427e+45"
        assert search_space_size(1, 1) == 2

    @given(st.integers(0, 64), st.integers(0, 64))
    @settings(max_examples=200)
    def test_binomial_identity(self, k, n):
        assert search_space_size(k, n) == 2 ** (k * n)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            search_space_size(-1, 2)
