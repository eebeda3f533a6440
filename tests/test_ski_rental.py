"""Unit tests for the rent-or-buy rules, with independent cost oracles."""

import math
import pickle
import re
import warnings
from typing import Optional

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from onlinepred.ski_rental import (
    B_MAX,
    X_MAX,
    PolicyKind,
    SkiInstance,
    SkiPolicy,
    _support_size,
    buy_day,
    policy_cost,
    randomized_buy_day,
    ski_cost,
    ski_opt,
)

NAIVE = SkiPolicy(PolicyKind.NAIVE)
BREAK_EVEN = SkiPolicy(PolicyKind.DETERMINISTIC, 1.0)
KARLIN = SkiPolicy(PolicyKind.RANDOMIZED, 1.0)


def simulate_buy_day(instance: SkiInstance, day: Optional[int]) -> int:
    """Oracle: cost of renting until ``day`` then buying; ``None`` means never buy.

    If the skier leaves before the buy day the purchase never happens and
    every skiing day was rented.
    """
    if day is None:
        return instance.x
    if not isinstance(day, (int, np.integer)) or day < 1:
        raise ValueError(f"buy day must be a positive integer or None, got {day!r}")
    if instance.x >= day:
        return instance.b + int(day) - 1
    return instance.x


def day_of(policy: SkiPolicy, inst: SkiInstance) -> Optional[int]:
    """The buy day a day rule picks on the instance's prediction branch."""
    return buy_day(policy, inst.b, inst.y >= inst.b)


def _threshold_day(b: int, lam: float, big: bool) -> int:
    """The deterministic rule's buy day on one branch, shaped like `_support_size`."""
    return buy_day(SkiPolicy(PolicyKind.DETERMINISTIC, lam), b, big)


class TableOracle:
    """Oracle: the randomized rule's buy days on one branch as an explicit table.

    Day i of the support 1..m gets weight r^(m-i), r = (b-1)/b, normalised
    by the weights' own sum; a uniform u picks the first day whose
    cumulative mass exceeds u.  O(m) memory, so only for small supports.
    """

    def __init__(self, b: int, lam: float, big: bool):
        m = _support_size(b, lam, big)
        weights = ((b - 1) / b) ** np.arange(m - 1, -1, -1)
        self.mass = weights / weights.sum()
        self.cdf = np.cumsum(self.mass)

    @classmethod
    def of(cls, inst: SkiInstance, lam: float) -> "TableOracle":
        return cls(inst.b, lam, inst.y >= inst.b)

    @property
    def support_size(self) -> int:
        return int(self.mass.size)

    def day_probability(self, day: int) -> float:
        return float(self.mass[day - 1]) if 1 <= day <= self.support_size else 0.0

    def buy_day(self, u):
        idx = np.searchsorted(self.cdf, u, side="right")
        return np.minimum(idx, self.support_size - 1) + 1  # cdf[-1] may round below 1


def day_by_day_cost(b: int, x: int, buy_day) -> int:
    """Oracle: accumulate the cost one skiing day at a time."""
    cost = 0
    for day in range(1, x + 1):
        if buy_day is not None and day == buy_day:
            cost += b
            return cost
        cost += 1
    return cost


def geometric_cost_oracle(b: int, x: int, size: int) -> float:
    """Oracle: closed forms for the randomized rule's expected cost.

    Over the first `size` days the expectation telescopes to
    size / (1 - (1-1/b)^size) when x >= size and to
    x / (1 - (1-1/b)^size) when x < size.
    """
    denom = 1.0 - (1.0 - 1.0 / b) ** size
    return (size if x >= size else x) / denom


def summed_expected_cost(inst: SkiInstance, lam: float) -> float:
    """Oracle: sum day_probability(d) * simulate_buy_day(d) over the support.

    The per-day products are formed with numpy (the support can reach b^2
    days) and added exactly with math.fsum.
    """
    dist = TableOracle.of(inst, lam)
    days = np.arange(1, dist.support_size + 1)
    return math.fsum(dist.mass * np.where(inst.x >= days, inst.b + days - 1, inst.x))


@st.composite
def branch_cases(draw):
    """b, a lambda (1.0 included), x, and a prediction y on either side of b, or at it."""
    b = draw(st.integers(2, 2000))
    lam = draw(
        st.one_of(st.just(1.0), st.floats(min_value=1.0 / b, max_value=1.0, exclude_min=True))
    )
    x = draw(st.integers(1, 4 * b))
    y = draw(st.one_of(st.just(float(b)), st.floats(0.0, 4.0 * b)))
    return b, lam, x, y


class TestInstanceValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            SkiInstance(1, 5, 5.0)
        with pytest.raises(ValueError):
            SkiInstance(10, 0, 5.0)
        with pytest.raises(ValueError):
            SkiInstance(10, 5, -1.0)
        with pytest.raises(ValueError):
            SkiInstance(10, 5, math.inf)
        for y, shown in ((True, "True"), (np.True_, "True"), ("5", "'5'")):
            with pytest.raises(ValueError, match=f"finite real >= 0, got {shown}$"):
                SkiInstance(10, 5, y)

    @pytest.mark.parametrize("b, x", [(B_MAX + 1, 1), (10, X_MAX + 1), (10, 2**64)])
    def test_rejects_counts_above_limits(self, b, x):
        with pytest.raises(ValueError, match="limit of"):
            SkiInstance(b, x, 0.0)
        assert SkiInstance(B_MAX, X_MAX, 0.0).x == X_MAX

    @pytest.mark.parametrize("b, x", [(True, 5), (10, True), (10, False), (10, 5.0), (10.0, 5)])
    def test_rejects_bools_and_floats_as_counts(self, b, x):
        with pytest.raises(ValueError, match="must be an integer"):
            SkiInstance(b, x, 5.0)

    def test_int_prediction_past_float64_rejected(self):
        # 10**400 was accepted and scored; 2**64 is a float64
        assert policy_cost(SkiInstance(10, 5, 2**64), BREAK_EVEN) == 5.0
        with pytest.raises(ValueError, match=f"finite real >= 0, got {10**400}$"):
            SkiInstance(10, 5, 10**400)

    def test_error_is_absolute(self):
        assert SkiInstance(10, 5, 8.0).error == 3.0
        assert SkiInstance(10, 5, 2.0).error == 3.0


class TestOpt:
    @pytest.mark.parametrize("b,x,expected", [(100, 40, 40), (100, 250, 100), (2, 2, 2)])
    def test_examples(self, b, x, expected):
        assert ski_opt(SkiInstance(b, x, 0.0)) == expected


class TestSimulateBuyDay:
    def test_matches_day_by_day_oracle(self):
        for b in (2, 3, 10, 100):
            for x in (1, 2, b - 1, b, 2 * b, 4 * b):
                for day in (None, 1, 2, x, x + 1, 3 * b):
                    inst = SkiInstance(b, x, 0.0)
                    assert simulate_buy_day(inst, day) == day_by_day_cost(b, x, day)

    def test_examples(self):
        assert simulate_buy_day(SkiInstance(100, 200, 0.0), 50) == 149
        assert simulate_buy_day(SkiInstance(100, 30, 0.0), 50) == 30
        assert simulate_buy_day(SkiInstance(100, 1, 0.0), 1) == 100

    def test_rejects_nonpositive_day(self):
        with pytest.raises(ValueError):
            simulate_buy_day(SkiInstance(100, 5, 0.0), 0)


class TestNaive:
    def test_branches(self):
        assert day_of(NAIVE, SkiInstance(100, 1, 150.0)) == 1
        assert day_of(NAIVE, SkiInstance(100, 1, 20.0)) is None
        assert day_of(NAIVE, SkiInstance(100, 1, 100.0)) == 1  # ties take the buy branch

    def test_additive_guarantee_example(self):
        inst = SkiInstance(100, 300, 20.0)
        cost = simulate_buy_day(inst, day_of(NAIVE, inst))
        assert cost == 300
        assert cost <= ski_opt(inst) + inst.error  # 300 <= 100 + 280

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_never_buying_rents_every_day(self, dtype):
        # never buying prices as the capped day X_MAX + 1, which no x reaches
        for b in (2, 100, B_MAX):
            assert buy_day(NAIVE, b, False) is None
            xs = np.array([1, 4 * b, X_MAX], dtype)
            for y in (0.0, b - 1):
                costs = ski_cost(NAIVE, b, xs, y)
                assert costs.dtype == np.float64 and costs.tolist() == [1, 4 * b, X_MAX]

    def test_additive_guarantee_small_grid(self):
        for b in range(2, 12):
            for x in range(1, 4 * b + 1):
                for y in range(0, 4 * b + 1):
                    inst = SkiInstance(b, x, float(y))
                    cost = simulate_buy_day(inst, day_of(NAIVE, inst))
                    assert cost <= ski_opt(inst) + inst.error + 1e-12


class TestDeterministic:
    def test_branch_examples(self):
        det = SkiPolicy(PolicyKind.DETERMINISTIC, 0.5)
        assert day_of(det, SkiInstance(100, 1, 120.0)) == 50
        assert day_of(det, SkiInstance(100, 1, 80.0)) == 200

    def test_lambda_one_recovers_break_even(self):
        for b in (2, 7, 100):
            for y in (0.0, float(b), float(10 * b)):
                assert day_of(BREAK_EVEN, SkiInstance(b, 1, y)) == b

    @pytest.mark.parametrize("lam", [1e-19, 1e-300, 5e-324])
    def test_tiny_lambda_rents_every_day(self, lam):
        # ceil(b / lambda) is beyond int64 (and at 5e-324 beyond float64)
        policy = SkiPolicy(PolicyKind.DETERMINISTIC, lam)
        assert buy_day(policy, 10, False) > X_MAX
        for dtype in (np.int64, np.float64):  # day X_MAX + 1 rounds to X_MAX in float64
            xs = np.array([1, 3, X_MAX], dtype)
            assert ski_cost(policy, 10, xs, 1.0).tolist() == [1.0, 3.0, X_MAX]
        assert policy_cost(SkiInstance(10, 3, 1.0), policy) == 3.0

    def test_randomized_rule_has_no_fixed_day(self):
        with pytest.raises(ValueError):
            buy_day(KARLIN, 100, True)

    def test_rejects_bad_lambda(self):
        inst = SkiInstance(100, 1, 0.0)
        for lam in (0.0, -0.5, 1.5, True):  # True is an int equal to 1, yet no lambda
            with pytest.raises(ValueError):
                day_of(SkiPolicy(PolicyKind.DETERMINISTIC, lam), inst)
        with pytest.raises(ValueError, match="got True"):
            ski_cost(SkiPolicy(PolicyKind.DETERMINISTIC, True), 10, 20, 5.0)

    def test_numpy_lambda_is_warning_free(self):
        # numpy warns where b / lambda overflows; the rule divides in Python floats
        numpy_lam = SkiPolicy(PolicyKind.DETERMINISTIC, np.float64(1e-320))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            day = buy_day(numpy_lam, 10, False)
        assert day == buy_day(SkiPolicy(PolicyKind.DETERMINISTIC, 1e-320), 10, False) > X_MAX


class TestRandomizedDistribution:
    def test_hand_computed_b2(self):
        # masses 1/3 and 2/3: the closed form switches days at u = 1/3
        dist = TableOracle(2, 1.0, True)
        assert dist.support_size == _support_size(2, 1.0, True) == 2
        np.testing.assert_allclose(dist.mass, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-14)
        us = np.array([0.0, 0.333, 0.3334, 1.0 - 2.0**-53])
        assert randomized_buy_day(2, 1.0, True, us).tolist() == [1, 1, 2, 2]

    def test_masses_sum_to_one(self):
        for b in (2, 3, 10, 50, 100):
            for lam in (2.0 / b, 0.5, 0.9, 1.0):
                if lam <= 1.0 / b or lam > 1.0:
                    continue
                for big in (False, True):
                    dist = TableOracle(b, lam, big)
                    assert abs(dist.mass.sum() - 1.0) <= 1e-12
                    assert np.all(dist.mass >= 0)

    def test_support_sizes(self):
        assert _support_size(100, 0.5, True) == 50  # floor(lambda * b)
        assert _support_size(100, 0.5, False) == 200  # ceil(b / lambda)

    def test_rejects_lambda_at_or_below_1_over_b(self):
        for lam in (0.01, 0.005, 0.0, 1.0001, True):
            policy = SkiPolicy(PolicyKind.RANDOMIZED, lam)
            for u in (None, 0.5):
                with pytest.raises(ValueError):
                    ski_cost(policy, 100, 1, 0.0, u)
            with pytest.raises(ValueError):
                randomized_buy_day(100, lam, True, 0.5)

    def test_classical_expected_cost_anchor(self):
        # lambda = 1, b = 100: flat expected cost over x >= b, near (e/(e-1)) * b
        cost = policy_cost(SkiInstance(100, 150, 150.0), KARLIN)
        assert abs(cost - 157.73675300856044) < 1e-9
        assert abs(cost - 100.0 * math.e / (math.e - 1.0)) < 0.5


class TestRandomizedExpectedCost:
    def test_hand_sums(self):
        # E = (1/3) * 2 + (2/3) * 3 = 8/3
        assert abs(policy_cost(SkiInstance(2, 5, 5.0), KARLIN) - 8.0 / 3.0) < 1e-12
        # buy day 2 is never reached when x = 1: E = (1/3) * 2 + (2/3) * 1 = 4/3
        assert abs(policy_cost(SkiInstance(2, 1, 2.0), KARLIN) - 4.0 / 3.0) < 1e-12

    def test_literal_summation_agreement(self):
        # the vectorized expectation equals the literal per-day summation
        for b, lam, x, y in [(7, 0.6, 11, 7.0), (10, 0.35, 3, 0.0), (25, 1.0, 60, 30.0)]:
            inst = SkiInstance(b, x, y)
            dist = TableOracle.of(inst, lam)
            literal = sum(
                dist.day_probability(day) * simulate_buy_day(inst, day)
                for day in range(1, dist.support_size + 1)
            )
            assert abs(policy_cost(inst, SkiPolicy(PolicyKind.RANDOMIZED, lam)) - literal) < 1e-12

    def test_closed_form_oracle(self):
        for b in (2, 5, 20, 100):
            for lam in (0.3, 0.7, 1.0):
                if lam <= 1.0 / b:
                    continue
                for y in (0.0, float(b)):
                    size = (
                        math.floor(lam * b) if y >= b else math.ceil(b / lam)
                    )
                    for x in (1, size - 1, size, size + 3, 4 * b):
                        if x < 1:
                            continue
                        inst = SkiInstance(b, x, y)
                        expected = geometric_cost_oracle(b, x, size)
                        got = policy_cost(inst, SkiPolicy(PolicyKind.RANDOMIZED, lam))
                        assert got == pytest.approx(expected, rel=1e-12)

    def test_degenerate_small_x(self):
        got = policy_cost(SkiInstance(100, 1, 200.0), KARLIN)
        assert got == pytest.approx(geometric_cost_oracle(100, 1, 100), rel=1e-12)
        assert got == pytest.approx(1.5773675300856044, abs=1e-9)


class TestBranchCost:
    @settings(max_examples=200, deadline=None)
    @given(branch_cases())
    def test_matches_summation_and_buy_days(self, case):
        b, lam, x, y = case
        event("y >= b" if y >= b else "y < b")
        inst = SkiInstance(b, x, y)
        # Karlin's rule is the randomized rule at lambda = 1
        for policy in (SkiPolicy(PolicyKind.RANDOMIZED, lam), KARLIN):
            expected = summed_expected_cost(inst, policy.lam)
            assert ski_cost(policy, b, x, y) == pytest.approx(expected, rel=1e-12)
        # break-even is the deterministic rule at lambda = 1: it buys on day b
        assert day_of(BREAK_EVEN, inst) == b
        for policy in (SkiPolicy(PolicyKind.DETERMINISTIC, lam), BREAK_EVEN, NAIVE):
            assert ski_cost(policy, b, x, y) == simulate_buy_day(inst, day_of(policy, inst))

    def test_array_matches_scalar_calls(self):
        xs = np.arange(1, 41)
        for policy in (
            NAIVE,
            BREAK_EVEN,
            KARLIN,
            SkiPolicy(PolicyKind.DETERMINISTIC, 0.3),
            SkiPolicy(PolicyKind.RANDOMIZED, 0.3),
        ):
            for y in (0.0, 10.0):
                costs = ski_cost(policy, 10, xs, y)
                assert costs.shape == xs.shape and costs.dtype == float
                assert costs.tolist() == [ski_cost(policy, 10, int(x), y) for x in xs]

    def test_each_prediction_picks_its_branch(self):
        xs, ys = np.arange(1, 41), np.array([0.0, 9.5, 10.0, 30.0])
        us = np.random.default_rng(5).random(xs.size)
        for policy in (NAIVE, BREAK_EVEN, SkiPolicy(PolicyKind.DETERMINISTIC, 0.3), KARLIN,
                       SkiPolicy(PolicyKind.RANDOMIZED, 0.3)):
            for u in (None, us[:, None]):
                grid = ski_cost(policy, 10, xs[:, None], ys[None, :], u)
                assert grid.shape == (xs.size, ys.size)
                for j, y in enumerate(ys):
                    column = ski_cost(policy, 10, xs, y, None if u is None else us)
                    assert grid[:, j].tolist() == column.tolist()

    def test_sampled_matches_buy_day_simulation(self):
        # with uniforms a randomized rule costs like the buy day its branch's
        # inverse CDF picks; day rules ignore the uniforms
        xs = np.arange(1, 41)
        us = np.random.default_rng(4).random(xs.size)
        for y in (0.0, 10.0):
            for policy in (KARLIN, SkiPolicy(PolicyKind.RANDOMIZED, 0.3)):
                dist = TableOracle(10, policy.lam, y >= 10)
                expected = [
                    simulate_buy_day(SkiInstance(10, int(x), y), int(dist.buy_day(u)))
                    for x, u in zip(xs, us)
                ]
                assert ski_cost(policy, 10, xs, y, us).tolist() == expected
                scalar = [ski_cost(policy, 10, int(x), y, u) for x, u in zip(xs, us)]
                assert scalar == expected
            det = SkiPolicy(PolicyKind.DETERMINISTIC, 0.3)
            assert ski_cost(det, 10, xs, y, us).tolist() == ski_cost(det, 10, xs, y).tolist()


class TestSampling:
    def test_point_mass(self):
        # floor(0.15 * 10) = 1: a one-day support buys on day 1 for every draw
        us = np.concatenate([[0.0, 1.0 - 2.0**-53], np.random.default_rng(0).random(20)])
        assert randomized_buy_day(10, 0.15, True, us).tolist() == [1] * us.size
        policy = SkiPolicy(PolicyKind.RANDOMIZED, 0.15)
        assert ski_cost(policy, 10, np.full(us.size, 4), 10.0, us).tolist() == [10.0] * us.size

    def test_frequencies_converge(self):
        # b = 2, lambda = 1: day 1 (cost b = 2 at x = 5) has mass 1/3
        us = np.random.default_rng(12345).random(1_000_000)
        costs = ski_cost(KARLIN, 2, np.full(us.size, 5), 2.0, us)
        assert set(np.unique(costs).tolist()) == {2.0, 3.0}
        assert abs(np.mean(costs == 2.0) - 1.0 / 3.0) < 0.002

    def test_same_seed_same_stream(self):
        policy = SkiPolicy(PolicyKind.RANDOMIZED, 0.8)
        xs = np.full(1000, 10)
        a = ski_cost(policy, 50, xs, 50.0, np.random.default_rng(7).random(1000))
        b = ski_cost(policy, 50, xs, 50.0, np.random.default_rng(7).random(1000))
        assert np.array_equal(a, b)
        inst = SkiInstance(50, 10, 60.0)
        a = [policy_cost(inst, policy, u) for u in np.random.default_rng(7).random(50)]
        b = [policy_cost(inst, policy, u) for u in np.random.default_rng(7).random(50)]
        assert a == b


@st.composite
def sampler_cases(draw):
    """A branch, plus draws at 0, at and next to one CDF step, and one free draw."""
    b = draw(st.integers(2, 2000))
    lam = draw(st.floats(min_value=1.0 / b, max_value=1.0, exclude_min=True))
    big = draw(st.booleans())
    oracle = TableOracle(b, lam, big)
    step = oracle.cdf[draw(st.integers(0, oracle.support_size - 1))]
    ulps = draw(st.lists(st.integers(-64, 64), min_size=1, max_size=8))
    us = [0.0, draw(st.integers(0, 2**53 - 1)) * 2.0**-53]
    us += [step + k * np.spacing(step) for k in ulps]
    # Generator.random draws 0 or a multiple of 2^-53 below 1
    us = np.array([u for u in us if u == 0.0 or 2.0**-53 <= u < 1.0])
    return b, lam, big, oracle, us


class TestClosedFormSampler:
    @settings(max_examples=200, deadline=None)
    @given(sampler_cases())
    def test_matches_table_oracle(self, case):
        b, lam, big, oracle, us = case
        days = randomized_buy_day(b, lam, big, us)
        assert days.tolist() == [randomized_buy_day(b, lam, big, float(u)) for u in us]
        m = oracle.support_size
        assert np.all((days >= 1) & (days <= m))
        for u, got, want in zip(us.tolist(), days.tolist(), oracle.buy_day(us).tolist()):
            if got == want:
                continue
            if u == 0.0:
                # r^m is subnormal or 0, so both days carry no mass a positive
                # draw could reach: the cumulative mass up to either is below 2^-53
                event("mismatch at u = 0")
                assert oracle.cdf[max(got, want) - 1] < 2.0**-53
            else:
                # the two round the CDF step between adjacent days differently:
                # the table's cumsum of m masses drifts up to ~m ulps, and the
                # closed form's 1 - r^m and log of a value near 1 cancel ~b ulps
                event("mismatch next to a CDF step")
                assert abs(got - want) == 1
                assert abs(u - oracle.cdf[min(got, want) - 1]) <= (m + b) * 2.0**-52

    def test_zero_draw_with_underflowed_tail(self):
        # r^m = 0.999^909091 underflows to 0; u = 0 takes log(0) = -inf
        assert _support_size(1000, 0.0011, False) == 909_091
        assert (999 / 1000) ** 909_091 == 0.0
        assert randomized_buy_day(1000, 0.0011, False, 0.0) == 1
        assert randomized_buy_day(1000, 0.0011, False, np.zeros(3)).tolist() == [1] * 3

    def test_huge_support_builds_nothing(self):
        # b / lambda = 5 * 10^9 days; a mass table would need 40 GB
        policy = SkiPolicy(PolicyKind.RANDOMIZED, 0.00002)
        assert _support_size(100_000, 0.00002, False) == 5_000_000_000
        days = randomized_buy_day(100_000, 0.00002, False, np.array([0.0, 0.5, 1.0 - 2.0**-53]))
        assert days[0] == 1 and days[-1] == 5_000_000_000 and 1 < days[1] < days[-1]
        assert ski_cost(policy, 100_000, 5, 0.0, 0.5) == 5.0


class TestDecimalLambda:
    @pytest.mark.parametrize(
        "rule, b, lam, big, expected",
        [
            (_threshold_day, 21, 0.7, False, 30),  # 21 / 0.7 = 30.000000000000004
            (_threshold_day, 25, 0.28, True, 7),  # 0.28 * 25 = 7.000000000000001
            (_support_size, 21, 0.7, False, 30),
            (_threshold_day, 21, 0.35, False, 60),  # 60.00000000000001
            (_support_size, 21, 0.35, False, 60),
            (_threshold_day, 42, 0.7, False, 60),  # 60.00000000000001
            (_support_size, 42, 0.7, False, 60),
            (_support_size, 100, 0.29, True, 29),  # 0.29 * 100 = 28.999999999999996
            (_threshold_day, 10, 0.300000001, True, 4),  # 3.00000001 is not snapped
            (_support_size, 100, 0.5, False, 200),
        ],
    )
    def test_snaps_within_relative_1e_12(self, rule, b, lam, big, expected):
        assert rule(b, lam, big) == expected


class TestPolicyCost:
    def test_exact_expectation_vs_monte_carlo(self):
        # exact expectation within 3 standard errors of 1e5 sampled costs
        inst = SkiInstance(20, 30, 25.0)
        policy = SkiPolicy(PolicyKind.RANDOMIZED, 0.7)
        exact = policy_cost(inst, policy)
        us = np.random.default_rng(3).random(100_000)
        days = randomized_buy_day(inst.b, 0.7, inst.y >= inst.b, us)
        costs = np.array([simulate_buy_day(inst, int(d)) for d in np.unique(days)])
        counts = np.bincount(days)[np.unique(days)]
        samples = np.repeat(costs, counts).astype(float)
        se = samples.std() / math.sqrt(samples.size)
        assert abs(samples.mean() - exact) < 3 * se

    def test_break_even_is_deterministic_lambda_one(self):
        inst = SkiInstance(30, 45, 2.0)
        assert policy_cost(inst, BREAK_EVEN) == float(
            simulate_buy_day(inst, 30)
        )

    def test_naive_policy(self):
        inst = SkiInstance(30, 45, 2.0)
        assert policy_cost(inst, NAIVE) == 45.0

    def test_large_b(self):
        # at b = 10^5 the geometric masses no longer sum to 1 within 1e-12
        # under the closed-form normalizer; both scoring modes must still work
        b, lam = 100_000, 0.5
        inst = SkiInstance(b, 5, 0.0)
        policy = SkiPolicy(PolicyKind.RANDOMIZED, lam)
        exact = policy_cost(inst, policy)
        assert exact == pytest.approx(geometric_cost_oracle(b, 5, 200_000), rel=1e-12)
        assert exact == pytest.approx(summed_expected_cost(inst, lam), rel=1e-12)
        sampled = {policy_cost(inst, policy, np.random.default_rng(s).random()) for s in range(20)}
        assert sampled <= {5.0} | {float(b + d - 1) for d in range(1, 6)}

    def test_lambda_required(self):
        with pytest.raises(ValueError):
            policy_cost(SkiInstance(10, 5, 5.0), SkiPolicy(PolicyKind.DETERMINISTIC))


class TestKernelInputs:
    RANDOMIZED = SkiPolicy(PolicyKind.RANDOMIZED, 0.5)

    @pytest.mark.parametrize(
        "policy", [NAIVE, SkiPolicy(PolicyKind.DETERMINISTIC, 0.5), RANDOMIZED],
        ids=["naive", "deterministic", "randomized"],
    )
    @pytest.mark.parametrize(
        "b, message",
        [
            (0, "b must be >= 2, got 0"),
            (1, "b must be >= 2, got 1"),
            (2.5, "b must be an integer, got 2.5"),
            (True, "b must be an integer, got True"),
            (B_MAX + 1, f"b = {B_MAX + 1} exceeds the limit of {B_MAX}"),
        ],
    )
    def test_rejects_bad_b(self, policy, b, message):
        with pytest.raises(ValueError, match=message):
            ski_cost(policy, b, 5, 1.0)

    # buy_day returned day 0 at b = 0, day -8 at b = -4 and day 1 at b = 2.5,
    # and took True and 10**7; randomized_buy_day divided by zero at b = 0
    @pytest.mark.parametrize(
        "b, message",
        [
            (0, "b must be >= 2, got 0"),
            (-4, "b must be >= 2, got -4"),
            (-3, "b must be >= 2, got -3"),
            (2.5, "b must be an integer, got 2.5"),
            (True, "b must be an integer, got True"),
            (10**7, f"b = {10**7} exceeds the limit of {B_MAX}"),
        ],
    )
    def test_buy_days_reject_bad_b(self, b, message):
        for big in (True, False):
            for policy in (NAIVE, SkiPolicy(PolicyKind.DETERMINISTIC, 0.5)):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    buy_day(policy, b, big)
            with pytest.raises(ValueError, match=f"^{message}$"):
                randomized_buy_day(b, 0.9, big, 0.5)

    @pytest.mark.parametrize("u", [math.nan, -0.5, 1.0, 1.5])
    def test_rejects_draw_outside_unit_interval(self, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raised before any cast or log warns
            for call in (
                lambda: ski_cost(self.RANDOMIZED, 10, 5, 20.0, u),
                lambda: ski_cost(self.RANDOMIZED, 10, np.full(2, 5), 20.0, np.array([0.5, u])),
                lambda: policy_cost(SkiInstance(10, 5, 20.0), self.RANDOMIZED, u),
            ):
                with pytest.raises(ValueError, match=r"u must lie in \[0, 1\)"):
                    call()

    @pytest.mark.parametrize(
        "u", [np.array([0.5]), np.array([0.5, 0.25]), [0.5], np.array(0.5), True, "0.5"],
        ids=["one-entry", "two-entries", "list", "zero-d", "bool", "str"],
    )
    def test_policy_cost_takes_one_real_draw(self, u):
        for policy in (self.RANDOMIZED, NAIVE):
            with pytest.raises(ValueError, match="policy_cost takes one uniform draw u"):
                policy_cost(SkiInstance(10, 5, 20.0), policy, u)

    @pytest.mark.parametrize("u", [0.0, np.nextafter(1, 0)])
    def test_accepts_draw_in_unit_interval(self, u):
        # support 5 on the y >= b branch: day 1 at u = 0, day 5 just below 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ski_cost(self.RANDOMIZED, 10, 5, 20.0, u) == (10.0 if u == 0.0 else 14.0)


class TestPolicyTermCache:
    """`ski_cost` keeps each policy object's checked terms per b, and still checks every object."""

    # SkiPolicy(RANDOMIZED, 0.5) pickled at protocol 4 before the kernel kept any terms
    PICKLED = (
        b"\x80\x04\x95g\x00\x00\x00\x00\x00\x00\x00\x8c\x15onlinepred.ski_rental\x94"
        b"\x8c\tSkiPolicy\x94\x93\x94)\x81\x94}\x94(\x8c\x04kind\x94h\x00\x8c\nPolicyKind"
        b"\x94\x93\x94\x8c\nrandomized\x94\x85\x94R\x94\x8c\x03lam\x94G?\xe0\x00\x00\x00"
        b"\x00\x00\x00ub."
    )

    @pytest.mark.parametrize(
        "kind, message",
        [(PolicyKind.RANDOMIZED, "(1/10, 1] for b=10"), (PolicyKind.DETERMINISTIC, "(0, 1]")],
    )
    @pytest.mark.parametrize("lam", [True, np.array([0.5])], ids=["bool", "array"])
    def test_rejects_lambda_after_an_equal_policy_ran(self, kind, message, lam):
        # SkiPolicy(kind, True) == SkiPolicy(kind, 1.0): a cache keyed on equal
        # policies would accept the bool, and an array lambda cannot be hashed
        ski_cost(SkiPolicy(kind, 1.0), 10, 5, 1.0)
        policy = SkiPolicy(kind, lam)
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape(f"{message}, got {lam!r}")):
                ski_cost(policy, 10, 5, 1.0)

    def test_lambda_checked_at_each_b(self):
        policy = SkiPolicy(PolicyKind.RANDOMIZED, 0.4)
        assert ski_cost(policy, 100, 5, 1.0) == ski_cost(policy, 100, 5, 1.0)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"\(1/2, 1\] for b=2, got 0\.4"):
                ski_cost(policy, 2, 5, 1.0)

    @pytest.mark.parametrize(
        "kind, lam",
        [(PolicyKind.NAIVE, None), (PolicyKind.DETERMINISTIC, 0.7), (PolicyKind.DETERMINISTIC, 1.0),
         (PolicyKind.DETERMINISTIC, 1e-320), (PolicyKind.RANDOMIZED, 0.7),
         (PolicyKind.RANDOMIZED, 1.0)],
    )
    def test_used_policy_costs_like_a_fresh_one(self, kind, lam):
        used = SkiPolicy(kind, lam)
        xs, ys = np.arange(1, 70)[:, None], np.arange(0, 71, dtype=float)
        us = np.random.default_rng(5).random(ys.size)
        for b in (2, 21, 30, 2, 21, np.int64(30)):
            for u in (None, us, 0.25):
                cost = ski_cost(used, b, xs, ys, u)
                fresh = ski_cost(SkiPolicy(kind, lam), b, xs, ys, u)
                assert cost.dtype == fresh.dtype and cost.tobytes() == fresh.tobytes()
                scalar = ski_cost(used, b, 5, 40.0, u)
                assert scalar.tobytes() == ski_cost(SkiPolicy(kind, lam), b, 5, 40.0, u).tobytes()

    def test_equality_hash_repr_and_pickling_unchanged(self):
        used, fresh = SkiPolicy(PolicyKind.RANDOMIZED, 0.5), SkiPolicy(PolicyKind.RANDOMIZED, 0.5)
        ski_cost(used, 10, 5, 1.0)
        ski_cost(used, 20, np.arange(1, 5), 30.0, 0.5)
        assert used == fresh and hash(used) == hash(fresh) == hash((PolicyKind.RANDOMIZED, 0.5))
        assert repr(used) == repr(fresh) == (
            "SkiPolicy(kind=<PolicyKind.RANDOMIZED: 'randomized'>, lam=0.5)"
        )
        assert pickle.dumps(used, protocol=4) == pickle.dumps(fresh, protocol=4) == self.PICKLED
        assert pickle.loads(pickle.dumps(used)) == used
