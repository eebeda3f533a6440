"""Demand-decomposition tests with brute-force optimum and per-level scan oracles."""

import gc
import hashlib
import itertools
import math
import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from onlinepred.bounds import rand_consistency, ski_guarantee
from onlinepred.ski_demand import (
    DEMAND_MAX,
    DemandInstance,
    decompose,
    demand_algorithm_cost,
    demand_level_error,
    demand_opt,
    demand_opt_levels,
)
from onlinepred.ski_rental import B_MAX, PolicyKind, SkiInstance, SkiPolicy, policy_cost
from test_workloads import numpy_rngs
from ski_oracles import sorted_level_counts


def brute_force_opt(b, demand):
    """Oracle: cheapest cost over all machine-purchase schedules.

    m[i] machines are bought at day i+1; each day the uncovered demand rents.
    """
    T = len(demand)
    k = max(demand)
    best = None
    for m in itertools.product(range(k + 1), repeat=T):
        if sum(m) > k:
            continue
        owned = 0
        cost = 0
        for i in range(T):
            owned += m[i]
            cost += b * m[i] + max(0, demand[i] - owned)
        if best is None or cost < best:
            best = cost
    return best


def scan_levels(instance):
    """Oracle: per-level counts from a scan of the horizon for each level.

    Level j is active on the days with demand >= j and predicts the count of
    days with predicted demand >= j.
    """
    xs, ys = [], []
    for level in range(1, instance.max_demand + 1):
        active_days = tuple(i + 1 for i, d in enumerate(instance.demand) if d >= level)
        xs.append(len(active_days))
        ys.append(sum(1 for y in instance.predicted if y >= level))
    return xs, ys


def level_cost_loop(instance, policy, u=None):
    """Oracle: `policy_cost` run level by level on the scanned counts, level j on draw u[j-1]."""
    xs, ys = scan_levels(instance)
    total = 0.0
    for x, y, draw in zip(xs, ys, [None] * len(xs) if u is None else u):
        total += policy_cost(SkiInstance(instance.b, x, float(y)), policy, draw)
    return total


@st.composite
def demand_days(draw):
    """``(b, demand, predicted)``: the days of a valid instance as lists."""
    horizon = draw(st.integers(1, 30))
    demand = draw(st.lists(st.integers(0, 6), min_size=horizon, max_size=horizon))
    assume(max(demand) > 0)
    # predictions at a level, a ulp below one, signed zero, far above every
    # level and numpy scalars: the edges of the floor(y) >= j count
    level = st.integers(0, 7)
    value = st.one_of(
        level.map(float),
        level.map(lambda j: np.nextafter(float(j), 0.0)),
        st.sampled_from([-0.0, 1e300]),
        level.map(np.int64),
        st.floats(0.0, 7.0, width=32).map(np.float32),
        st.floats(0.0, 7.0),
    )
    predicted = draw(st.lists(value, min_size=horizon, max_size=horizon))
    return draw(st.sampled_from([2, 3, 5, 9, 40])), demand, predicted


def demand_cases():
    return demand_days().map(lambda days: DemandInstance(days[0], *map(tuple, days[1:])))


def day_forms(demand, predicted):
    """The same days as tuples, lists, and writable and read-only int64/float64 vectors."""
    frozen = np.array(demand, np.int64), np.array(predicted, np.float64)
    for array in frozen:
        array.flags.writeable = False
    return {
        "tuple": (tuple(demand), tuple(predicted)),
        "list": (list(demand), list(predicted)),
        "writable": (np.array(demand, np.int64), np.array(predicted, np.float64)),
        "read-only": frozen,
    }


def scores(inst, policies, u):
    """Every demand result of ``inst``, with and without the draws ``u``."""
    xs, ys = decompose(inst)
    costs = [demand_algorithm_cost(inst, p, draws) for p in policies for draws in (None, u)]
    return xs.tolist(), ys.tolist(), demand_opt(inst), demand_level_error(inst), inst.error, costs


# Each case names the first bad entry; demands are checked before predictions
BAD_VECTORS = {
    "unequal-lengths": ((1, 2), (1.0,), "non-empty vectors of equal length"),
    "nan-prediction": ((1, 2), (1.0, float("nan")), "finite real >= 0, got nan"),
    "negative-prediction": ((1, 2), (1.0, -1.0), "finite real >= 0, got -1.0"),
    "bool-predictions": ((1, 2), (True, False), "finite real >= 0, got True"),
    "numpy-bool-prediction": ((1, 2), (1.0, np.True_), "finite real >= 0, got True"),
    "mixed-bool-prediction": ((1, 2), (2.5, True), "finite real >= 0, got True"),
    "demand-above-limit": (
        (1, DEMAND_MAX + 1), (1.0, 1.0), f"= {DEMAND_MAX + 1} exceeds the limit of {DEMAND_MAX}"
    ),
    "demand-2-to-70": ((2**70, 1), (1.0, 1.0), f"= {2**70} exceeds the limit of {DEMAND_MAX}"),
    "negative-before-2-to-70": ((-1, 2**70), (1.0, 1.0), "daily demand must be >= 0, got -1$"),
    "demand-2-to-63": ((1, 2**63), (1.0, 1.0), f"= {2**63} exceeds the limit of {DEMAND_MAX}"),
    "demand-before-prediction": ((1, -1), (1.0, -1.0), "daily demand must be >= 0, got"),
    "prediction-10-to-400": ((1, 1), (1.0, 10**400), f"must fit in a float64, got {10**400}$"),
}
# np.array does not keep these entries: it reads the bools among floats as
# numbers, (1, 2**63) as floats, and makes 10**400 an object array, which
# the real-array rule refuses at its first entry
NO_ARRAY_FORM = {
    "numpy-bool-prediction", "mixed-bool-prediction", "demand-2-to-63", "prediction-10-to-400"
}


class TestStorage:
    """An instance keeps its days as two read-only vectors of its own."""

    @settings(max_examples=200, deadline=None)
    @given(demand_days(), st.floats(0.05, 1.0), st.integers(0, 2**32 - 1))
    def test_every_form_of_the_days_scores_alike(self, days, lam, seed):
        b, demand, predicted = days
        assume(lam > 1.0 / b)
        policies = SkiPolicy(PolicyKind.DETERMINISTIC, lam), SkiPolicy(PolicyKind.RANDOMIZED, lam)
        u = np.random.default_rng(seed).random(max(demand))
        results = {
            form: scores(DemandInstance(b, *pair), policies, u)
            for form, pair in day_forms(demand, predicted).items()
        }
        assert len({repr(result) for result in results.values()}) == 1, results

    def test_fields_are_read_only_vectors(self):
        inst = DemandInstance(3, [2, 0, 1], [1.5, 0.0, 2])
        assert inst.demand.dtype == np.int64 and inst.predicted.dtype == np.float64
        assert inst.demand.tolist() == [2, 0, 1] and inst.predicted.tolist() == [1.5, 0.0, 2.0]
        for field in (inst.demand, inst.predicted):
            assert field.ndim == 1 and not field.flags.writeable
        assert (inst.horizon, inst.max_demand) == (3, 2) and type(inst.max_demand) is int

    def test_writable_array_is_copied_not_frozen(self):
        demand, predicted = np.array([1, 2]), np.array([1.0, 2.0])
        inst = DemandInstance(3, demand, predicted)
        for given, kept in ((demand, inst.demand), (predicted, inst.predicted)):
            assert given.flags.writeable and not np.shares_memory(given, kept)
        demand[0] = predicted[0] = 5
        assert inst.demand.tolist() == [1, 2] and inst.predicted.tolist() == [1.0, 2.0]

    def test_read_only_array_of_the_dtype_is_kept(self):
        demand, predicted = day_forms([1, 2], [1.0, 2.0])["read-only"]
        inst = DemandInstance(3, demand, predicted)
        for given, kept in ((demand, inst.demand), (predicted, inst.predicted)):
            assert not np.shares_memory(given, kept)  # holds its own copy

    @pytest.mark.parametrize("form", ["tuple", "list", "writable"])
    def test_holds_no_caller_sequence(self, form):
        demand, predicted = day_forms([1, 2, 0], [1.0, 2.0, 0.5])[form]
        inst = DemandInstance(3, demand, predicted)
        decompose(inst)
        held = gc.get_referents(inst) + [inst.demand.base, inst.predicted.base]
        assert not any(obj is demand or obj is predicted for obj in held)

    def test_equality_is_identity(self):
        inst, same_days = (DemandInstance(3, (1, 2), (1.0, 2.0)) for _ in range(2))
        assert inst == inst and inst != same_days and len({inst, same_days}) == 2


class TestDecompose:
    def test_classical_reduction(self):
        inst = DemandInstance(5, (1, 1, 1, 0), (1.0, 1.0, 1.0, 0.0))
        xs, ys = decompose(inst)
        assert xs.tolist() == [3]
        assert ys.tolist() == [3]

    def test_threshold_decomposition(self):
        inst = DemandInstance(5, (2, 1), (2.0, 1.0))
        xs, ys = decompose(inst)
        assert xs.tolist() == [2, 1]
        assert ys.tolist() == [2, 1]

    def test_zero_demand_rejected(self):
        with pytest.raises(ValueError):
            DemandInstance(5, (0, 0), (0.0, 0.0))

    def test_non_integer_buy_cost_rejected(self):
        # int(2.5) would truncate: demand_opt 2 against level optima summing to 2.5
        for b in (2.5, 3.0, True, "3"):
            with pytest.raises(ValueError):
                DemandInstance(b, (1,) * 5, (1.0,) * 5)

    def test_buy_cost_above_limit_rejected(self):
        with pytest.raises(ValueError, match=f"limit of {B_MAX}"):
            DemandInstance(B_MAX + 1, (1,), (1.0,))
        assert DemandInstance(B_MAX, (1,), (1.0,)).b == B_MAX

    @pytest.mark.parametrize(
        "case, form",
        [(case, form) for case in BAD_VECTORS for form in ("tuple", "list", "ndarray")
         if form != "ndarray" or case not in NO_ARRAY_FORM],
    )
    def test_rejects_bad_vectors(self, case, form):
        demand, predicted, message = BAD_VECTORS[case]
        convert = {"tuple": tuple, "list": list, "ndarray": np.array}[form]
        with pytest.raises(ValueError, match=message):
            DemandInstance(10, convert(demand), convert(predicted))

    def test_int_prediction_past_int64_accepted(self):
        inst = DemandInstance(10, (1, 1), (1.0, 2**64))
        assert decompose(inst)[1].tolist() == [2]

    @pytest.mark.parametrize("predicted", [float(DEMAND_MAX), DEMAND_MAX - 0.5, 1e300, 0.0])
    def test_top_demand_on_one_day(self, predicted):
        inst = DemandInstance(2, (DEMAND_MAX,), (predicted,))
        for counts, oracle in zip(decompose(inst), sorted_level_counts(inst)):
            assert counts.shape == (DEMAND_MAX,) and np.array_equal(counts, oracle)
        assert demand_opt(inst) == DEMAND_MAX  # one rental day per level

    @pytest.mark.parametrize(
        "prediction",
        [3.0, np.nextafter(3.0, 0), 0.0, -0.0, 1e300, 2**63 + 2**11],
        ids=["integer", "ulp-below-integer", "zero", "negative-zero", "1e300", "int-past-2**63"],
    )
    def test_counts_pinned_to_sorted_oracle(self, prediction):
        # the truncating cast must count each y as floor(y) would, to the byte
        for inst in (
            DemandInstance(7, (4, 0, 3, 3, 1, 5), (prediction, 2.0, prediction, 5.5, 0.0, 3.0)),
            DemandInstance(2, (0, DEMAND_MAX, 1), (prediction, DEMAND_MAX - 0.5, prediction)),
        ):
            counts = decompose(inst)
            copy = pickle.loads(pickle.dumps(inst))
            for got, again, want in zip(counts, decompose(copy), sorted_level_counts(inst)):
                for array in (got, again):
                    assert array.dtype == np.int64 and not array.flags.writeable
                    assert array.shape == want.shape and array.tobytes() == want.tobytes()

    # an object array keeps each entry's type, where np.array would read them as numbers
    @pytest.mark.parametrize(
        "form", [tuple, list, partial(np.array, dtype=object)], ids=["tuple", "list", "ndarray"]
    )
    @pytest.mark.parametrize(
        "demand, bad", [((True, 2), "True"), ((1, False), "False"), ((1, 2.0), "2.0")]
    )
    def test_non_integer_daily_demand_rejected(self, demand, bad, form):
        with pytest.raises(ValueError, match=f"daily demand must be an integer, got {bad}$"):
            DemandInstance(10, form(demand), (1.0, 1.0))

    def test_active_day_conservation(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            T = int(rng.integers(1, 7))
            demand = tuple(int(d) for d in rng.integers(0, 4, T))
            if max(demand) == 0:
                continue
            inst = DemandInstance(3, demand, tuple(float(d) for d in demand))
            xs, _ = decompose(inst)
            assert xs.sum() == sum(demand)

    def test_level_error_bounded_by_total_error_integral(self):
        # with integral predictions the per-level errors sum to at most eta
        rng = np.random.default_rng(9)
        for _ in range(200):
            T = int(rng.integers(1, 7))
            demand = tuple(int(d) for d in rng.integers(0, 4, T))
            if max(demand) == 0:
                continue
            predicted = tuple(float(p) for p in rng.integers(0, 4, T))
            inst = DemandInstance(3, demand, predicted)
            assert demand_level_error(inst) <= inst.error + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 30))
    def test_level_error_bounded_by_total_error_property(self, data, horizon):
        # integral predictions: each day's |x - y| covers its per-level misses
        days = st.lists(st.integers(0, 6), min_size=horizon, max_size=horizon)
        demand, predicted = data.draw(days), data.draw(days)
        assume(max(demand) > 0)
        inst = DemandInstance(3, tuple(demand), tuple(map(float, predicted)))
        assert demand_level_error(inst) <= inst.error

    def test_fractional_prediction_breaks_level_error_bound(self):
        # demand 3 predicted 2.5: level 3 predicts 0 days, so the level error
        # is 1 against a total error of 0.5
        inst = DemandInstance(5, (3,), (2.5,))
        assert decompose(inst)[1].tolist() == [1, 1, 0]
        assert demand_level_error(inst) == 1.0
        assert inst.error == 0.5

    @settings(max_examples=300, deadline=None)
    @given(
        demand_cases(),
        st.sampled_from(["det", "rand", "karlin", "break-even"]),
        st.floats(0.05, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_counts_and_costs_match_level_scan(self, inst, rule, lam, seed):
        xs, ys = decompose(inst)
        assert (xs.tolist(), ys.tolist()) == scan_levels(inst)
        for first, again, sorted_count in zip((xs, ys), decompose(inst), sorted_level_counts(inst)):
            assert np.array_equal(first, sorted_count) and first.dtype == np.int64
            assert first is again and not first.flags.writeable
        if rule == "rand":
            assume(lam > 1.0 / inst.b)
        policy = {
            "det": SkiPolicy(PolicyKind.DETERMINISTIC, lam),
            "rand": SkiPolicy(PolicyKind.RANDOMIZED, lam),
            "karlin": SkiPolicy(PolicyKind.RANDOMIZED, 1.0),
            "break-even": SkiPolicy(PolicyKind.DETERMINISTIC, 1.0),
        }[rule]
        assert demand_algorithm_cost(inst, policy) == level_cost_loop(inst, policy)
        u = np.random.default_rng(seed).random(inst.max_demand)
        assert demand_algorithm_cost(inst, policy, u) == level_cost_loop(inst, policy, u)


def pinned_instances():
    """Instances shaped like the demand bench's (400 days, demand 0..8, its noise cycle).

    Every other instance also sets about a tenth of its days each to an
    integer prediction, one a ulp below an integer, and 1e300; b cycles
    over 100, 3, 40 and 1000.
    """
    rng = np.random.default_rng(20240)
    instances = []
    for i in range(40):
        demand = rng.integers(0, 9, 400)
        demand[i] = max(demand[i], 1)
        noise = (0.0, 0.5, 1.0, 2.0, 4.0)[i % 5] * rng.standard_normal(400)
        predicted = np.maximum(demand + noise, 0.0)
        if i % 2:
            pick, level = rng.integers(0, 10, 400), rng.integers(0, 10, 400).astype(float)
            predicted = np.select(
                [pick == 0, pick == 1, pick == 2],
                [level, np.nextafter(level, 0), 1e300],
                predicted,
            )
        instances.append(DemandInstance(
            (100, 3, 40, 1000)[i % 4], tuple(demand.tolist()), tuple(predicted.tolist())
        ))
    return instances


# sha256 of the results below, recorded before the level counts became
# histograms and the kernel cached each policy's checked terms
PINNED_DEMAND = "813d243e0ccb33f89bd05e681230285e0af2caae3b3408ccf440d00bcdbb5ac5"


def test_demand_outputs_are_pinned():
    det = SkiPolicy(PolicyKind.DETERMINISTIC, 0.5)
    rand = SkiPolicy(PolicyKind.RANDOMIZED, math.log(1.5))
    rng = np.random.default_rng(31415)
    rows = [
        (
            demand_opt(inst),
            demand_algorithm_cost(inst, det),
            demand_algorithm_cost(inst, rand),
            demand_algorithm_cost(inst, rand, rng.random(inst.max_demand)),
            demand_level_error(inst),
        )
        for inst in pinned_instances()
    ]
    assert hashlib.sha256(np.array(rows).tobytes()).hexdigest() == PINNED_DEMAND


class TestDemandOpt:
    def test_examples(self):
        assert demand_opt(DemandInstance(3, (1, 1, 1, 1), (0.0,) * 4)) == 3
        assert demand_opt(DemandInstance(3, (2, 2), (0.0, 0.0))) == 4
        assert demand_opt(DemandInstance(100, (1,), (0.0,))) == 1

    def test_levels_sum_to_total(self):
        inst = DemandInstance(3, (3, 1, 2), (3.0, 1.0, 2.0))
        assert sum(demand_opt_levels(inst)) == demand_opt(inst)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=5), st.integers(2, 7))
    def test_decomposition_preserves_opt_property(self, demand, b):
        assume(max(demand) > 0)
        inst = DemandInstance(b, tuple(demand), (0.0,) * len(demand))
        assert demand_opt(inst) == brute_force_opt(b, demand)
        assert sum(demand_opt_levels(inst)) == demand_opt(inst)

    def test_against_brute_force(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            T = int(rng.integers(1, 5))
            demand = tuple(int(d) for d in rng.integers(0, 4, T))
            if max(demand) == 0:
                continue
            for b in (2, 3, 5):
                inst = DemandInstance(b, demand, tuple(float(d) for d in demand))
                assert demand_opt(inst) == brute_force_opt(b, demand)


class TestAlgorithmCost:
    def test_single_level_matches_classical(self):
        # unit demand for 7 days is exactly a classical instance with x = 7
        inst = DemandInstance(4, (1,) * 7, (1.0,) * 7)
        policy = SkiPolicy(PolicyKind.DETERMINISTIC, 0.5)
        classical = policy_cost(SkiInstance(4, 7, 7.0), policy)
        assert demand_algorithm_cost(inst, policy) == classical

    def test_deterministic_lambda_one_example(self):
        # two levels, each active 4 days: both buy at their day 3, cost 2*(3+3-1)
        inst = DemandInstance(3, (2, 2, 2, 2), (2.0,) * 4)
        policy = SkiPolicy(PolicyKind.DETERMINISTIC, 1.0)
        assert demand_algorithm_cost(inst, policy) == 10.0

    def test_naive_rejected(self):
        inst = DemandInstance(3, (1,), (1.0,))
        with pytest.raises(ValueError):
            demand_algorithm_cost(inst, SkiPolicy(PolicyKind.NAIVE))

    @pytest.mark.parametrize("rule", [PolicyKind.DETERMINISTIC, PolicyKind.RANDOMIZED])
    @pytest.mark.parametrize(
        "u", [0.5, [0.5], np.full(3, 0.5), np.full((2, 1), 0.5)],
        ids=["scalar", "one", "three", "column"],
    )
    def test_draws_must_be_one_per_level(self, rule, u):
        # two levels take two draws: a scalar or a column would broadcast
        inst = DemandInstance(3, (2, 1, 2), (2.0, 1.0, 2.0))
        with pytest.raises(ValueError, match=r"one draw per demand level, shape \(2,\), got"):
            demand_algorithm_cost(inst, SkiPolicy(rule, 0.8), u)

    def test_randomized_exact_is_sampled_mean(self):
        inst = DemandInstance(3, (2, 1, 2), (2.0, 1.0, 2.0))
        policy = SkiPolicy(PolicyKind.RANDOMIZED, 0.8)
        exact = demand_algorithm_cost(inst, policy)
        samples = [
            demand_algorithm_cost(inst, policy, rng.random(inst.max_demand))
            for rng in numpy_rngs(17, range(20000))
        ]
        se = np.std(samples) / np.sqrt(len(samples))
        assert abs(np.mean(samples) - exact) < 3 * se

    def test_perfect_prediction_consistency_monte_carlo(self):
        # sampled randomized cost stays near the zero-error guarantee
        lam = 0.7
        inst = DemandInstance(3, (2, 2, 1, 1), (2.0, 2.0, 1.0, 1.0))
        policy = SkiPolicy(PolicyKind.RANDOMIZED, lam)
        opt = demand_opt(inst)
        ratios = [
            demand_algorithm_cost(inst, policy, rng.random(inst.max_demand)) / opt
            for rng in numpy_rngs(23, range(10000))
        ]
        assert np.mean(ratios) <= rand_consistency(lam) + 0.01


class TestGuaranteesCarryOver:
    """The classical per-instance guarantees hold for the demand variant.

    Exhaustive over short horizons, seeded samples for longer ones; integral
    predictions keep the per-level error accounting within the total error.
    """

    def _y_variants(self, demand, k):
        base = list(demand)
        up = [min(k, d + 1) for d in base]
        down = [max(0, d - 1) for d in base]
        return {
            tuple(float(v) for v in ys)
            for ys in (
                base,
                up,
                down,
                [0] * len(base),
                [k] * len(base),
                list(reversed(base)),
            )
        }

    def _check_instance(self, b, demand, lambdas=(0.4, 0.8)):
        k = max(demand)
        for predicted in self._y_variants(demand, k):
            inst = DemandInstance(b, demand, predicted)
            opt = demand_opt(inst)
            eta = inst.error
            for lam in lambdas:
                for kind in (PolicyKind.DETERMINISTIC, PolicyKind.RANDOMIZED):
                    if kind is PolicyKind.RANDOMIZED and lam <= 1.0 / b:
                        continue
                    policy = SkiPolicy(kind, lam)
                    ratio = demand_algorithm_cost(inst, policy) / opt
                    allowed = ski_guarantee(policy, b, eta, opt)
                    assert ratio <= allowed + 1e-9, (b, demand, predicted, policy)

    def test_exhaustive_short_horizons(self):
        for T in (1, 2, 3):
            for demand in itertools.product(range(4), repeat=T):
                if max(demand) == 0:
                    continue
                for b in (2, 3, 5):
                    self._check_instance(b, demand)

    def test_sampled_longer_horizons(self):
        rng = np.random.default_rng(31)
        for T in (4, 5, 6):
            for _ in range(120):
                demand = tuple(int(d) for d in rng.integers(0, 4, T))
                if max(demand) == 0:
                    continue
                b = int(rng.choice([2, 3, 5]))
                self._check_instance(b, demand)
