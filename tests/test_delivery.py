import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import LARGE_BUFFER_Q, SMALL_BUFFER_Q, random_gateways
from oracles import (
    min_max_lp,
    min_total_lp,
    subset_gaps,
    tree_time_share,
    weighted_objective,
    weighted_slsqp,
    weighted_support_enumeration,
)
from seisrate.errors import (
    CapacityLimitError,
    DecompositionError,
    InfeasibleProblemError,
)
from seisrate.model import GatewayState
from seisrate.delivery import (
    PowerAllocation,
    corner_rates,
    descending_gain_order,
    max_weighted_sum,
    min_max_power,
    min_total_power_closed_form,
    time_share_decompose,
    weights_from_queues,
)

MW = 1e-3

# published small-network solution of the min-total problem, in mW
SMALL_BUFFER_MIN_TOTAL_MW = [13.61, 5.893, 94.85, 10.02, 26.11, 18.88, 29.85, 12.20]


def permutation_oracle_total(gateways):
    """Brute-force minimum total power over every decoding order, with each
    suffix sum-rate constraint set to equality."""
    q = gateways.queue_rates
    g2 = gateways.gains ** 2
    n0 = gateways.noise_power
    best = math.inf
    for order in itertools.permutations(range(gateways.num_gws)):
        total = 0.0
        suffix = 0.0
        for i in reversed(order):
            new_suffix = suffix + q[i]
            total += n0 * (2.0 ** new_suffix - 2.0 ** suffix) / g2[i]
            suffix = new_suffix
        best = min(best, total)
    return best


def forty_digit_min_total(gateways, order):
    """Each power N0 (2^(s + q_i) - 2^s) / g_i^2, with s the queues decoded
    after gateway i, in 40-digit decimal arithmetic."""
    powers = np.zeros(gateways.num_gws)
    with localcontext() as ctx:
        ctx.prec = 40
        n0, suffix = Decimal(gateways.noise_power), Decimal(0)
        for i in reversed(order):
            q, g = Decimal(gateways.queue_rates[i]), Decimal(gateways.gains[i])
            powers[i] = n0 * (2 ** (suffix + q) - 2 ** suffix) / (g * g)
            suffix += q
    return powers


def sic_corner(gateways, powers, order):
    """Rates of one SIC decoding order from the capacity formula: the
    gateway decoded k-th treats every gateway decoded after it as noise."""
    received = np.asarray(powers, dtype=float) * gateways.gains ** 2
    rates = np.zeros(gateways.num_gws)
    for k, i in enumerate(order):
        interference = received[list(order[k + 1:])].sum()
        rates[i] = math.log2(
            1 + received[i] / (gateways.noise_power + interference))
    return rates


def assert_exact_schedule(gateways, powers, schedule):
    """At most one order per gateway with received power, each a full
    permutation, and a mix of corners equal to Q to 1e-9 (1 + sum Q)."""
    n = gateways.num_gws
    live = int(np.count_nonzero(powers * gateways.gains ** 2 > 0))
    assert 1 <= len(schedule.entries) <= max(live, 1)
    for order in schedule.orders:
        assert sorted(order) == list(range(n))
    fractions = schedule.fractions
    assert fractions.min() >= 0.0
    assert fractions.sum() == pytest.approx(1.0, abs=1e-9)
    mixed = sum(lam * sic_corner(gateways, powers, order)
                for order, lam in schedule.entries)
    q = gateways.queue_rates
    assert np.abs(mixed - q).max() <= 1e-9 * (1.0 + q.sum())


MIN_MAX_SIZES = list(range(1, 17)) + [32, 64, 128, 256]
MIX_SIZES = range(2, 9)


def min_max_cases(n):
    """(gateways, min-max powers): 30 instances per size up to 64 and one
    above, 542 in all; every third has an empty queue."""
    rng = np.random.default_rng(2600 + n)
    for case in range(30 if n <= 64 else 1):
        q = rng.uniform(0.2, 1.5, n)
        if n > 1 and case % 3 == 0:
            q[rng.integers(n)] = 0.0
        gw = GatewayState(n, q, rng.rayleigh(1.0, n), 1e-3)
        yield gw, min_max_power(gw)[0].powers


def random_mix_cases(n):
    """(gateways, powers): 150 targets per size, 1050 in all, each a random
    mix of 1 to n + 2 random decoding orders' corners at random powers."""
    rng = np.random.default_rng(2700 + n)
    for case in range(150):
        gains = rng.rayleigh(1.0, n)
        powers = rng.uniform(0.01, 0.2, n)
        probe = GatewayState(n, np.ones(n), gains, 1e-3)
        orders = [tuple(int(i) for i in rng.permutation(n))
                  for _ in range(int(rng.integers(1, n + 3)))]
        shares = rng.dirichlet(np.ones(len(orders)))
        q = sum(lam * sic_corner(probe, powers, order)
                for order, lam in zip(orders, shares))
        yield GatewayState(n, q, gains, 1e-3), powers


def assert_matches_tree(gateways, powers):
    """The same orders in the same sequence as the sub-problem tree, with
    fractions within 1e-12."""
    entries = time_share_decompose(gateways, powers).entries
    tree = tree_time_share(gateways, powers)
    assert [order for order, _ in entries] == [order for order, _ in tree]
    assert np.allclose([lam for _, lam in entries], [lam for _, lam in tree],
                       rtol=0.0, atol=1e-12)


class TestMinTotalPower:
    def test_small_network_case_study(self, small_buffer_gateways):
        alloc, order = min_total_power_closed_form(small_buffer_gateways)
        mw = alloc.powers / MW
        assert mw == pytest.approx(SMALL_BUFFER_MIN_TOTAL_MW, rel=5e-3)
        assert mw.sum() == pytest.approx(211.405, rel=1e-3)
        assert order == (2, 6, 5, 4, 0, 3, 7, 1)

    def test_order_is_descending_gain(self, small_buffer_gateways):
        _, order = min_total_power_closed_form(small_buffer_gateways)
        assert order == descending_gain_order(small_buffer_gateways)

    def test_single_gateway_closed_form(self):
        gw = GatewayState(1, [2.0], [1.5], 1e-3)
        alloc, order = min_total_power_closed_form(gw)
        assert order == (0,)
        assert alloc.powers[0] == pytest.approx(1e-3 * (2 ** 2.0 - 1) / 1.5 ** 2)

    def test_zero_queue_gateway_is_off(self):
        gw = GatewayState(3, [1.0, 0.0, 0.5], [1.0, 2.0, 1.5], 1e-3)
        alloc, order = min_total_power_closed_form(gw)
        assert alloc.powers[1] == 0.0
        assert 1 not in order

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_permutation_oracle(self, n):
        for seed in range(8):
            gw = random_gateways(n, seed * 10 + n)
            alloc, _ = min_total_power_closed_form(gw)
            assert alloc.powers.sum() == pytest.approx(
                permutation_oracle_total(gw), rel=1e-12
            )

    def test_matches_a_forty_digit_reference(self):
        # queues near 1e-4 bps/Hz decoded before others: 2^(s + q) - 2^s
        # in floats would cancel most of its digits
        rng = np.random.default_rng(3100)
        for case in range(60):
            n = int(rng.integers(1, 33))
            q = rng.uniform(0.0, 1.5, n) * rng.choice([1.0, 1e-4], n)
            gw = GatewayState(n, q, rng.rayleigh(1.0, n), 1e-3)
            alloc, order = min_total_power_closed_form(gw)
            ref = forty_digit_min_total(gw, order)
            assert np.all(np.abs(alloc.powers - ref) <= 1e-12 * ref)

    def test_convex_solver_agrees(self, small_buffer_gateways):
        closed, _ = min_total_power_closed_form(small_buffer_gateways)
        convex = min_total_lp(small_buffer_gateways)
        assert convex == pytest.approx(closed.powers, rel=1e-6)

    def test_convex_solver_agrees_on_random_instances(self):
        for seed in range(10):
            gw = random_gateways(4, seed + 300)
            closed, _ = min_total_power_closed_form(gw)
            convex = min_total_lp(gw)
            assert convex.sum() == pytest.approx(
                closed.powers.sum(), rel=1e-7
            )

    def test_all_subset_constraints_hold(self, small_buffer_gateways):
        alloc, _ = min_total_power_closed_form(small_buffer_gateways)
        gaps, _ = subset_gaps(small_buffer_gateways, alloc.powers)
        assert gaps.min() >= -1e-9

    def test_infeasible_under_tight_cap(self):
        gw = GatewayState(2, [3.0, 3.0], [1.0, 1.0], 1e-3, per_gw_power_cap=1e-3)
        with pytest.raises(InfeasibleProblemError):
            min_total_power_closed_form(gw)
        assert min_total_lp(gw) is None


class TestMinMaxPower:
    def test_small_network_case_study(self, small_buffer_gateways):
        alloc, peak = min_max_power(small_buffer_gateways)
        assert peak / MW == pytest.approx(46.06, rel=1e-2)
        assert alloc.powers / MW == pytest.approx([46.06] * 8, rel=1e-2)
        assert alloc.powers.sum() / MW == pytest.approx(368.5, rel=1e-2)

    def test_sum_rate_constraint_binds(self, small_buffer_gateways):
        alloc, _ = min_max_power(small_buffer_gateways)
        g2 = small_buffer_gateways.gains ** 2
        capacity = math.log2(1 + (alloc.powers * g2).sum() / 1e-3)
        assert capacity == pytest.approx(SMALL_BUFFER_Q.sum(), abs=1e-3)

    def test_peak_never_below_average_of_min_total(self, small_buffer_gateways):
        total_alloc, _ = min_total_power_closed_form(small_buffer_gateways)
        _, peak = min_max_power(small_buffer_gateways)
        n = small_buffer_gateways.num_gws
        assert peak >= total_alloc.powers.sum() / n - 1e-12
        assert peak <= total_alloc.powers.max() + 1e-12

    def test_symmetric_instance(self):
        gw = GatewayState(3, [1.0] * 3, [2.0] * 3, 1e-3)
        alloc, peak = min_max_power(gw)
        expected = 1e-3 * (2 ** 3.0 - 1) / (3 * 4.0)
        assert alloc.powers == pytest.approx([expected] * 3, rel=1e-9)
        assert peak == pytest.approx(expected, rel=1e-9)

    def test_subset_constraints_hold_on_random_instances(self):
        for seed in range(10):
            gw = random_gateways(4, seed + 700)
            alloc, peak = min_max_power(gw)
            gaps, _ = subset_gaps(gw, alloc.powers)
            assert gaps.min() >= -1e-8
            assert alloc.powers.max() == pytest.approx(peak, abs=1e-10)

    def test_infeasible_under_tight_cap(self):
        gw = GatewayState(2, [3.0, 3.0], [1.0, 1.0], 1e-3, per_gw_power_cap=1e-3)
        with pytest.raises(InfeasibleProblemError):
            min_max_power(gw)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_epigraph_lp_oracle(self, n):
        # 22 instances per size, 220 in all; every third has an empty queue
        rng = np.random.default_rng(900 + n)
        for case in range(22):
            q = rng.uniform(0.2, 1.5, n)
            if n > 1 and case % 3 == 0:
                q[rng.integers(n)] = 0.0
            gw = GatewayState(n, q, rng.rayleigh(1.0, n), 1e-3)
            alloc, peak = min_max_power(gw)
            ref_peak = min_max_lp(gw)
            assert peak == pytest.approx(ref_peak, rel=1e-9)
            assert alloc.powers.max() == peak
            assert np.all(alloc.powers[q == 0] == 0.0)
            gaps, rhs = subset_gaps(gw, alloc.powers)
            assert np.all(gaps >= -1e-9 * rhs)
            # the last row is the full set: the point lies on the base, so
            # the sum-rate constraint binds
            assert abs(gaps[-1]) <= 1e-9 * rhs[-1]

    def test_cap_at_the_oracle_peak(self):
        ref_peak = min_max_lp(random_gateways(6, 77))
        tight = random_gateways(6, 77, cap=ref_peak * (1 - 1e-6))
        assert min_max_lp(tight) is None
        with pytest.raises(InfeasibleProblemError):
            min_max_power(tight)
        _, peak = min_max_power(random_gateways(6, 77, cap=ref_peak * (1 + 1e-6)))
        assert peak == pytest.approx(ref_peak, rel=1e-9)

    def test_all_queues_empty(self):
        gw = GatewayState(3, [0.0] * 3, [1.0, 2.0, 0.0], 1e-3)
        alloc, peak = min_max_power(gw)
        assert peak == 0.0
        assert np.all(alloc.powers == 0.0)


def _sum_rate_instance(q_sum, cap=None):
    # four equal gateways at unit gain whose queues add up to q_sum
    return GatewayState(4, [q_sum / 4] * 4, [1.0] * 4, 1e-3, per_gw_power_cap=cap)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("solve", [min_total_power_closed_form, min_max_power])
class TestSnrOutOfFloatRange:
    # 2^1024 is the first power of two that a float cannot hold; at
    # N0 = 1 mW the powers there are near 2^1012 W, so a 1e308 W cap
    # would allow them and a 1 W cap would not
    def test_just_below_the_float_range_solves(self, solve):
        for cap in (None, 1e308):
            gw = _sum_rate_instance(1023.5, cap)
            powers = solve(gw)[0].powers
            assert np.isfinite(powers).all() and powers.max() > 1e300
            gaps, rhs = subset_gaps(gw, powers)
            assert np.all(gaps >= -1e-9 * rhs)

    def test_just_above_without_a_cap_is_out_of_range(self, solve):
        with pytest.raises(CapacityLimitError, match="does not fit in a float"):
            solve(_sum_rate_instance(1024.5))

    def test_just_above_under_a_smaller_cap_is_infeasible(self, solve):
        with pytest.raises(InfeasibleProblemError, match="per-gateway cap"):
            solve(_sum_rate_instance(1024.5, cap=1.0))

    def test_just_above_under_a_larger_cap_is_out_of_range(self, solve):
        # feasible in exact arithmetic, but not in the solver's SNRs
        with pytest.raises(CapacityLimitError):
            solve(_sum_rate_instance(1024.5, cap=1e308))

    def test_just_below_under_a_smaller_cap_is_infeasible(self, solve):
        with pytest.raises(InfeasibleProblemError):
            solve(_sum_rate_instance(1023.5, cap=1.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("solve", [min_total_power_closed_form, min_max_power])
def test_zero_gain_with_queue_is_infeasible(solve):
    # a gain of 1e-200 squares to zero in a float as well
    for gain in (0.0, 1e-200):
        gw = GatewayState(2, [1.0, 1.0], [1.0, gain], 1e-3)
        with pytest.raises(InfeasibleProblemError, match="zero channel gain"):
            solve(gw)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("solve", [min_total_power_closed_form, min_max_power])
def test_power_that_fits_past_an_overflowing_product(solve):
    # N0 (2^8 - 1) = 2.55e308 W does not fit in a float, but the power
    # N0 (2^8 - 1) / g^2 does
    powers = solve(GatewayState(1, [8.0], [100.0], 1e306))[0].powers
    assert powers[0] == pytest.approx(2.55e304, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cap, error", [
    (None, CapacityLimitError), (1.0, InfeasibleProblemError), (1e308, CapacityLimitError)])
def test_min_max_sum_rate_rounded_up_to_the_float_range(cap, error):
    # the queues sum to 1024 - 2^-43 in index order but to 1024 in the
    # min-max order, so 2^Q(B) of the one block does not fit in a float
    q = [150.11206487640774, 297.43501110652534, 227.77188609037023, 348.6810379266966]
    g = [1.3289172657819308, 1.3908863024197524, 1.77243681241259, 0.7182103072797976]
    with pytest.raises(error):
        min_max_power(GatewayState(4, q, g, 1e-3, per_gw_power_cap=cap))


@pytest.mark.parametrize("solve", [min_total_power_closed_form, min_max_power])
def test_powers_past_the_float_range(solve):
    # 2^sum(Q) fits, but N0 (2^sum(Q) - 1) / g^2 overflows to inf: out of
    # range, unless a per-gateway cap already rules the powers out
    with np.errstate(over="ignore"):
        with pytest.raises(CapacityLimitError, match="does not fit in a float"):
            solve(GatewayState(4, [1.0] * 4, [1e-3] * 4, 1e305))
        with pytest.raises(InfeasibleProblemError):
            solve(GatewayState(4, [1.0] * 4, [1e-3] * 4, 1e305, per_gw_power_cap=1.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cap, error", [
    (None, CapacityLimitError), (1e-3, InfeasibleProblemError)])
@pytest.mark.parametrize("solve", [min_total_power_closed_form, min_max_power])
def test_overflowing_powers_are_reported_without_a_warning(solve, cap, error):
    # N0 = 1e305 W over g^2 = 1e-6, or 1 mW over g^2 = 1e-320: every
    # power overflows to inf, which is an error with its own exit code,
    # and no RuntimeWarning on the way
    for n0, gain in ((1e305, 1e-3), (1e-3, 1e-160)):
        gw = GatewayState(4, [1.0, 1.5, 0.6, 1.4], [gain] * 4, n0, per_gw_power_cap=cap)
        with pytest.raises(error, match="does not fit in a float") as info:
            solve(gw)
        assert "inf W" not in str(info.value)


class TestCornerRatesAndOrders:
    def test_last_decoded_is_interference_free(self):
        gw = random_gateways(3, 1)
        p = np.array([0.01, 0.02, 0.03])
        rates = corner_rates(gw, p, (0, 1, 2))
        g2 = gw.gains ** 2
        assert rates[2] == pytest.approx(math.log2(1 + p[2] * g2[2] / 1e-3))

    def test_corner_sum_is_total_capacity(self):
        gw = random_gateways(4, 2)
        p = np.full(4, 0.05)
        total = math.log2(1 + (p * gw.gains ** 2).sum() / 1e-3)
        for order in [(0, 1, 2, 3), (3, 1, 0, 2)]:
            assert corner_rates(gw, p, order).sum() == pytest.approx(total)

    def test_matches_direct_sums_on_random_instances(self):
        rng = np.random.default_rng(31)
        for case in range(200):
            n = int(rng.integers(1, 17))
            gw = GatewayState(n, np.ones(n), rng.rayleigh(1.0, n), 1e-3)
            powers = rng.uniform(0.0, 0.2, n) * rng.choice([1.0, 1e6], n)
            order = tuple(int(i) for i in rng.permutation(n))
            assert np.abs(corner_rates(gw, powers, order)
                          - sic_corner(gw, powers, order)).max() <= 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("powers, gains, order", [
        # 4e307 W received over 1 mW of noise, an SNR of 4e310, when
        # decoded last; decoded first, over 1 W more, it fits
        ([1e307, 1.0], [2.0, 1.0], (1, 0)),
        ([1e308, 1.0], [2.0, 1.0], (0, 1)),     # a received power of 4e308
        ([1e308, 1e308], [1.0, 1.0], (0, 1)),   # their sum
    ])
    def test_out_of_float_range_raises(self, powers, gains, order):
        gw = GatewayState(2, np.ones(2), gains, 1e-3)
        with pytest.raises(CapacityLimitError, match="does not fit"):
            corner_rates(gw, powers, order)
        if order == (1, 0):
            assert np.isfinite(corner_rates(gw, powers, (0, 1))).all()

    def test_large_received_powers_stay_finite(self):
        # a running suffix sum with each power subtracted once went below
        # zero here and made the interference term negative
        gw = GatewayState(3, np.ones(3), [1.0, 1.0, 1.0], 1e-3)
        powers = np.array([1e18, 1.0, 3e-3])
        for order in itertools.permutations(range(3)):
            rates = corner_rates(gw, powers, order)
            assert np.all(rates >= 0.0)
            assert np.abs(rates - sic_corner(gw, powers, order)).max() <= 1e-12


class TestTimeShareDecompose:
    def test_small_network_schedule_reconstructs_queues(
        self, small_buffer_gateways
    ):
        alloc, _ = min_max_power(small_buffer_gateways)
        schedule = time_share_decompose(small_buffer_gateways, alloc)
        fractions = np.array([lam for _, lam in schedule.entries])
        assert fractions.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(fractions >= 0.0)
        mixed = sum(
            lam * corner_rates(small_buffer_gateways, alloc.powers, order)
            for order, lam in schedule.entries
        )
        assert mixed == pytest.approx(SMALL_BUFFER_Q, abs=1e-9)

    def test_schedule_orders_are_permutations(self, small_buffer_gateways):
        alloc, _ = min_max_power(small_buffer_gateways)
        schedule = time_share_decompose(small_buffer_gateways, alloc)
        for order, _ in schedule.entries:
            assert sorted(order) == list(range(8))

    def test_single_gateway_schedule(self):
        gw = GatewayState(1, [2.0], [1.5], 1e-3)
        alloc, _ = min_max_power(gw)
        schedule = time_share_decompose(gw, alloc)
        (order, lam), = schedule.entries
        assert order == (0,)
        assert lam == pytest.approx(1.0)

    def test_symmetric_pair_splits_evenly(self):
        gw = GatewayState(2, [1.0, 1.0], [2.0, 2.0], 1e-3)
        alloc, _ = min_max_power(gw)
        schedule = time_share_decompose(gw, alloc)
        fractions = [lam for _, lam in schedule.entries]
        assert fractions == pytest.approx([0.5, 0.5])

    def test_random_instances_decompose(self):
        for seed in range(8):
            gw = random_gateways(4, seed + 50)
            alloc, _ = min_max_power(gw)
            schedule = time_share_decompose(gw, alloc)
            mixed = sum(
                lam * corner_rates(gw, alloc.powers, order)
                for order, lam in schedule.entries
            )
            assert mixed == pytest.approx(gw.queue_rates, abs=1e-8)

    @pytest.mark.parametrize("n", MIN_MAX_SIZES)
    def test_min_max_outputs_decompose(self, n):
        for gw, powers in min_max_cases(n):
            assert_exact_schedule(gw, powers, time_share_decompose(gw, powers))

    @pytest.mark.parametrize("n", MIX_SIZES)
    def test_mixes_of_random_orders_decompose(self, n):
        for gw, powers in random_mix_cases(n):
            assert_exact_schedule(gw, powers, time_share_decompose(gw, powers))

    @pytest.mark.parametrize("n", MIN_MAX_SIZES)
    def test_min_max_outputs_match_the_tree(self, n):
        for gw, powers in min_max_cases(n):
            assert_matches_tree(gw, powers)

    @pytest.mark.parametrize("n", MIX_SIZES)
    def test_mixes_of_random_orders_match_the_tree(self, n):
        for gw, powers in random_mix_cases(n):
            assert_matches_tree(gw, powers)

    def test_rates_just_below_a_vertex(self):
        # equal received powers sort a vertex's rates into its own greedy
        # order, so the line search finds no direction to move in; within
        # the tolerance, the vertex alone is the schedule
        gw = GatewayState(3, np.ones(3), np.ones(3), 1e-3)
        powers = np.full(3, 0.05)
        vertex = sic_corner(gw, powers, (2, 1, 0))
        below = GatewayState(3, vertex - 1e-10, np.ones(3), 1e-3)
        schedule = time_share_decompose(below, powers)
        assert schedule.orders == [(2, 1, 0)]
        assert_exact_schedule(below, powers, schedule)

    def test_rates_off_the_base_are_rejected(self):
        for seed in range(20):
            gw = random_gateways(5, seed + 2800)
            alloc, _ = min_max_power(gw)
            with pytest.raises(DecompositionError):
                time_share_decompose(gw, alloc.powers * 2.0)
            # one gateway above its interference-free capacity, sum unchanged
            q = gw.queue_rates
            received = alloc.powers * gw.gains ** 2
            alone = math.log2(1 + received[0] / 1e-3)
            raised = alone + 0.5 * (q.sum() - alone)
            others = q[1:] * (q.sum() - raised) / q[1:].sum()
            over = GatewayState(5, np.append(raised, others), gw.gains, 1e-3)
            with pytest.raises(DecompositionError):
                time_share_decompose(over, alloc)
            # queued data at zero power
            silent = alloc.powers.copy()
            silent[seed % 5] = 0.0
            with pytest.raises(DecompositionError):
                time_share_decompose(gw, silent)

    def test_oversized_powers_are_rejected(self, small_buffer_gateways):
        # doubling the powers leaves slack in the sum-rate constraint, so no
        # convex combination of corners can hit the queue vector exactly
        alloc, _ = min_max_power(small_buffer_gateways)
        with pytest.raises(DecompositionError):
            time_share_decompose(
                small_buffer_gateways, PowerAllocation(alloc.powers * 2.0)
            )

    @pytest.mark.filterwarnings("error")
    def test_received_power_past_the_float_range(self):
        # the power N0 (2^12 - 1) / g^2 = 4.095e304 W fits in a float, but
        # the received power 4.095e308 W does not
        gw = GatewayState(1, [12.0], [100.0], 1e305)
        alloc, _ = min_max_power(gw)
        with pytest.raises(CapacityLimitError, match="does not fit in a float"):
            time_share_decompose(gw, alloc)


class TestWeightedSum:
    def test_weights_from_queues(self):
        w = weights_from_queues([2.0, 1.0, 1.0])
        assert w == pytest.approx([0.5, 0.25, 0.25])
        with pytest.raises(ValueError):
            weights_from_queues([0.0, 0.0])

    def test_large_network_beats_published_objective(
        self, large_buffer_gateways
    ):
        sol = max_weighted_sum(large_buffer_gateways)
        assert sol.objective >= 2.6363 * (1 - 1e-6)
        assert sol.powers.powers.sum() <= 5.0 * (1 + 1e-9)
        assert np.all(sol.powers.powers >= 0.0)
        assert sol.weights == pytest.approx(LARGE_BUFFER_Q / LARGE_BUFFER_Q.sum())

    def test_objective_consistency(self, large_buffer_gateways):
        sol = max_weighted_sum(large_buffer_gateways)
        assert sol.objective == pytest.approx(
            float(sol.weights @ sol.rates), abs=1e-9
        )
        for i in sol.off_set:
            assert sol.powers.powers[i] == 0.0
            assert i not in sol.decoding_order

    def test_order_decodes_lighter_weights_first(self, large_buffer_gateways):
        sol = max_weighted_sum(large_buffer_gateways)
        w = [sol.weights[i] for i in sol.decoding_order]
        assert w == sorted(w)

    def test_equal_weights_collapse_to_best_single_link(self):
        gw = GatewayState(4, [1.0] * 4, [0.5, 2.0, 1.0, 1.5], 1e-3,
                          total_power_cap=0.1)
        sol = max_weighted_sum(gw, weights=np.full(4, 0.25))
        # with uniform weights the objective only sees the total received
        # power, so everything goes to the strongest channel
        expected = 0.25 * math.log2(1 + 0.1 * 4.0 / 1e-3)
        assert sol.objective == pytest.approx(expected, rel=1e-6)
        assert sol.powers.powers[1] == pytest.approx(0.1, rel=1e-6)

    def test_objective_nondecreasing_in_cap(self, large_buffer_gateways):
        values = [
            max_weighted_sum(large_buffer_gateways, total_cap=cap).objective
            for cap in (1.0, 2.0, 5.0, 10.0)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_nonlinear_solver(self, seed):
        gw = random_gateways(3, seed + 1000)
        weights = weights_from_queues(gw.queue_rates)
        cap = 0.5
        sol = max_weighted_sum(gw, weights=weights, total_cap=cap)

        g2 = gw.gains ** 2
        by_weight_desc = sorted(range(3), key=lambda i: -weights[i])

        def neg_objective(p):
            value = 0.0
            prefix = 0.0
            for k, i in enumerate(by_weight_desc):
                w_next = weights[by_weight_desc[k + 1]] if k < 2 else 0.0
                prefix += p[i] * g2[i]
                value += (weights[i] - w_next) * math.log2(1 + prefix / 1e-3)
            return -value

        ref = minimize(
            neg_objective, np.full(3, cap / 3), method="SLSQP",
            bounds=[(0, cap)] * 3,
            constraints=[{"type": "ineq", "fun": lambda p: cap - p.sum()}],
        )
        assert ref.success
        assert sol.objective == pytest.approx(-ref.fun, rel=1e-5, abs=1e-7)

    def test_requires_positive_cap(self, small_buffer_gateways):
        with pytest.raises(ValueError):
            max_weighted_sum(small_buffer_gateways)

    @pytest.mark.parametrize("cap", [np.nan, np.inf])
    def test_rejects_non_finite_cap(self, small_buffer_gateways, cap):
        with pytest.raises(ValueError, match="finite positive"):
            max_weighted_sum(small_buffer_gateways, total_cap=cap)

    def test_rejects_bad_weights(self, large_buffer_gateways):
        with pytest.raises(ValueError):
            max_weighted_sum(large_buffer_gateways, weights=np.full(8, 0.2))

    @pytest.mark.parametrize("weights", [[0.5, np.nan, 0.5], [np.nan, 0.5, 0.5],
                                         [1.5, -0.5, 0.0], [np.inf, 0.5, 0.5]])
    def test_rejects_weights_not_finite_and_nonnegative(self, weights):
        # NaN fails every comparison and [1.5, -0.5, 0] sums to 1, so the
        # sum-to-1 check alone lets them through
        gw = GatewayState(3, [1.0, 1.0, 1.0], [1.0, 1.2, 0.8], 1e-3)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            max_weighted_sum(gw, weights=weights, total_cap=1.0)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_support_enumeration_oracle(self, n):
        rng = np.random.default_rng(1200 + n)
        for case in range(24):
            q = rng.uniform(0.2, 1.5, n)
            g = rng.rayleigh(1.0, n)
            weights = q / q.sum()
            kind = case % 4
            if kind == 1:
                weights = np.round(weights * 3 * n) + 1.0   # tied weights
            elif kind == 2:
                weights[rng.integers(n)] = 0.0
            elif kind == 3:
                g[rng.integers(n)] = 0.0
            weights /= weights.sum()
            cap = float(rng.uniform(0.01, 5.0))
            gw = GatewayState(n, q, g, 1e-3, total_power_cap=cap)
            sol = max_weighted_sum(gw, weights)
            ref = weighted_support_enumeration(gw, weights, cap)
            ref_value = weighted_objective(gw, weights, ref)
            assert sol.objective == pytest.approx(ref_value, rel=1e-9)
            assert weighted_objective(gw, weights, sol.powers.powers) == \
                pytest.approx(ref_value, rel=1e-9)
            assert sol.powers.total == pytest.approx(cap, rel=1e-9)
            if kind != 1:
                # distinct positive weights make the maximizer unique
                assert sol.powers.powers == pytest.approx(ref, rel=0, abs=1e-9 * cap)

    @pytest.mark.parametrize("n", range(17, 41))
    def test_matches_slsqp_on_large_networks(self, n):
        gw = random_gateways(n, 4000 + n)
        weights = weights_from_queues(gw.queue_rates)
        sol = max_weighted_sum(gw, weights, total_cap=1.0)
        assert np.all(sol.powers.powers >= 0.0)
        assert sol.powers.total <= 1.0 + 1e-9
        value = weighted_objective(gw, weights, sol.powers.powers)
        assert sol.objective == pytest.approx(value, rel=1e-12)
        ref_value = weighted_slsqp(gw, weights, 1.0)
        assert value >= ref_value * (1 - 1e-9)
