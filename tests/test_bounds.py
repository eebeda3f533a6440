"""Closed-form guarantee evaluators and the helper-inequality grid checks."""

import math
from fractions import Fraction
from functools import partial

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinepred import bounds
from onlinepred.scheduling import JobSet, prr
from onlinepred.ski_rental import B_MAX, PolicyKind, SkiPolicy, ski_cost
from onlinepred.verification import LEMMA_SLACK, _fold, check_appendix_families


class TestDeterministicBound:
    def test_consistency_side(self):
        assert bounds.det_ski_bound(0.5, 0.0, 100.0) == pytest.approx(1.5)

    def test_robustness_side(self):
        assert bounds.det_ski_bound(0.5, 1e12, 100.0) == pytest.approx(3.0)

    def test_substitution(self):
        assert bounds.det_ski_bound(0.9, 0.0, 50.0) == pytest.approx(1.9)

    def test_rejects_lambda_one(self):
        with pytest.raises(ValueError):
            bounds.det_ski_bound(1.0, 5.0, 10.0)


class TestRandomizedBound:
    def test_consistency_at_ln_three_halves(self):
        lam = math.log(1.5)
        # 1 - e^{-lam} = 1/3 exactly, so consistency is 3*lam
        assert bounds.rand_consistency(lam) == pytest.approx(3.0 * lam, rel=1e-12)
        assert bounds.rand_ski_bound(100, lam, 0.0, 100.0) == pytest.approx(
            1.216395324324493, abs=1e-12
        )

    def test_robustness_at_ln_three_halves(self):
        # corrected robustness at b=100 evaluates near 3.09 (not exactly 3)
        lam = math.log(1.5)
        assert bounds.rand_ski_bound(100, lam, 1e15, 100.0) == pytest.approx(
            3.0921533149298175, abs=1e-12
        )

    def test_limit_recovers_classical_ratio(self):
        assert bounds.rand_robustness(10**9, 1.0) == pytest.approx(
            bounds.E_OVER_E_MINUS_1, abs=1e-6
        )

    def test_rejects_lambda_at_or_below_1_over_b(self):
        with pytest.raises(ValueError):
            bounds.rand_ski_bound(100, 0.01, 0.0, 1.0)
        with pytest.raises(ValueError):
            bounds.rand_ski_bound(100, 0.005, 0.0, 1.0)


class TestNaiveBound:
    def test_cost_at_most_opt_plus_eta(self):
        assert bounds.naive_ski_bound(0.0, 7.0) == 1.0
        assert bounds.naive_ski_bound(5.0, 10.0) == 1.5
        eta, opt = np.array([0.0, 3.0, 40.0]), np.array([1.0, 4.0, 10.0])
        assert bounds.naive_ski_bound(eta, opt).tolist() == [1.0, 1.75, 5.0]


DET, RAND, NAIVE = PolicyKind.DETERMINISTIC, PolicyKind.RANDOMIZED, PolicyKind.NAIVE


class TestSkiGuarantee:
    # an (eta, opt) grid whose shapes broadcast to (3, 4), zero error included
    ETA = np.array([[0.0], [2.5], [1e12]])
    OPT = np.array([1.0, 3.0, 7.0, 20.0])

    @pytest.mark.parametrize("lam", [0.1, 0.3, 0.5, 0.999])
    def test_equals_each_rule_bound_bit_for_bit(self, lam):
        b, eta, opt = 20, self.ETA, self.OPT
        for policy, expected in [
            (SkiPolicy(DET, lam), bounds.det_ski_bound(lam, eta, opt)),
            (SkiPolicy(RAND, lam), bounds.rand_ski_bound(b, lam, eta, opt)),
            (SkiPolicy(RAND, 1.0), bounds.rand_ski_bound(b, 1.0, eta, opt)),
            (SkiPolicy(NAIVE), bounds.naive_ski_bound(eta, opt)),
        ]:
            got = bounds.ski_guarantee(policy, b, eta, opt)
            assert got.shape == (3, 4)
            assert got.tobytes() == expected.tobytes(), policy

    def test_scalar_instance_gives_the_rule_bound(self):
        assert bounds.ski_guarantee(SkiPolicy(DET, 0.5), 100, 50.0, 100) == 2.5
        assert bounds.ski_guarantee(SkiPolicy(NAIVE), 100, 5.0, 10) == 1.5

    def test_break_even_is_two_at_every_error(self):
        got = bounds.ski_guarantee(SkiPolicy(DET, 1.0), 20, self.ETA, self.OPT)
        assert got.shape == (3, 4)
        assert np.all(got == 2.0)  # eta = 0 in the first row: 2, not NaN
        assert bounds.ski_guarantee(SkiPolicy(DET, 1), 2, 0.0, 1.0) == 2.0
        assert bounds.ski_guarantee(SkiPolicy(DET, 1.0), 2, np.zeros(5), 1.0).tolist() == [2.0] * 5

    @pytest.mark.parametrize("lam", [0.5, 1.0], ids=["lambda-rule", "break-even"])
    @pytest.mark.parametrize(
        "eta, opt, message",
        [
            (math.nan, 2.0, "eta must be >= 0, got nan"),
            (-1.0, 2.0, "eta must be >= 0, got -1.0"),
            (np.array([0.0, -0.5]), 2.0, "eta must be >= 0, got -0.5"),
            (1.0, 0.5, "opt must be >= 1, got 0.5"),
            (1.0, np.array([1.0, math.nan]), "opt must be >= 1, got nan"),
        ],
    )
    def test_rejects_bad_instance(self, lam, eta, opt, message):
        with pytest.raises(ValueError, match=message):
            bounds.ski_guarantee(SkiPolicy(DET, lam), 10, eta, opt)

    @pytest.mark.parametrize("lam", [True, Fraction(1), "1", None, 0.0, 1.5])
    def test_rejects_lambda_of_the_day_rule(self, lam):
        with pytest.raises(ValueError, match="lambda must lie in"):
            bounds.ski_guarantee(SkiPolicy(DET, lam), 10, 1.0, 2.0)

    def test_rejects_randomized_lambda_at_one_over_b(self):
        with pytest.raises(ValueError, match=r"lambda must lie in \(1/10, 1\]"):
            bounds.ski_guarantee(SkiPolicy(RAND, 0.1), 10, 1.0, 2.0)


class TestSchedulingBounds:
    @pytest.mark.parametrize(
        "n,eta,expected", [(50, 0.0, 1.0), (2, 2.0, 3.0), (50, 25.0, 2.0)]
    )
    def test_spjf(self, n, eta, expected):
        assert bounds.spjf_bound(n, eta) == pytest.approx(expected)

    def test_prr(self):
        assert bounds.prr_bound(10, 0.0, 0.5) == pytest.approx(2.0)
        assert bounds.prr_bound(10, 1e12, 0.5) == pytest.approx(4.0)
        assert bounds.prr_bound(7, 0.0, 2.0 / 3.0) == pytest.approx(1.5)

    def test_sched_guarantee_is_each_entrants_bound(self):
        n = np.array([1, 2, 7, 50])[:, None, None]
        eta = np.array([0.0, 0.5, 3.0, 1e6])[:, None]
        lam = np.array([0.1, 0.5, 0.9])
        spjf = bounds.sched_guarantee("spjf", n, eta)
        assert _bits(spjf) == _bits(bounds.spjf_bound(n, eta)) and spjf.shape == (4, 4, 1)
        prr = bounds.sched_guarantee("prr", n, eta, lam)
        assert _bits(prr) == _bits(bounds.prr_bound(n, eta, lam)) and prr.shape == (4, 4, 3)
        rr = bounds.sched_guarantee("round-robin", n, eta)
        assert rr.shape == (4, 4, 1)
        assert rr[:, :, 0].tolist() == [[v] * 4 for v in (1.0, 4 / 3, 1.75, 100 / 51)]
        assert bounds.sched_guarantee("round-robin", 3, 0.0) == 1.5

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: bounds.sched_guarantee("round-robin", 0, 1.0), "n must be >= 1, got 0$"),
            (
                lambda: bounds.sched_guarantee("round-robin", np.array([2.0, NAN]), 0.0),
                "n must be >= 1, got nan$",
            ),
            (lambda: bounds.sched_guarantee("spjf", NAN, 1.0), "n must be >= 1, got nan$"),
            (lambda: bounds.sched_guarantee("prr", 0.5, 1.0, 0.5), "n must be >= 1, got 0.5$"),
            (lambda: bounds.sched_guarantee("sjf", 5, 1.0), "unknown scheduling entrant 'sjf'$"),
            (lambda: bounds.sched_guarantee("round-robin", 5, 1.0, 0.5), "for 'round-robin'$"),
            (lambda: bounds.sched_guarantee("spjf", 5, 1.0, 0.5), "got 0.5 for 'spjf'$"),
            (lambda: bounds.sched_guarantee("prr", 5, 1.0), "got None for 'prr'$"),
        ],
        ids=["rr-n-zero", "rr-nan-n", "spjf-nan-n", "prr-n-half", "unknown-label",
             "rr-with-lambda", "spjf-with-lambda", "prr-without-lambda"],
    )
    def test_sched_guarantee_rejects(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_prr_perfect(self):
        assert bounds.prr_perfect_bound(0.5) == pytest.approx(1.5)
        assert bounds.prr_perfect_bound(0.25) == pytest.approx(2.5)
        assert bounds.prr_perfect_bound(1.0 - 1e-12) == pytest.approx(1.0, abs=1e-9)


NAN = math.nan


class TestRejectsNan:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: bounds.det_ski_bound(0.5, NAN, 10.0),
            lambda: bounds.det_ski_bound(0.5, 1.0, NAN),
            lambda: bounds.rand_ski_bound(100, 0.5, NAN, 10.0),
            lambda: bounds.rand_ski_bound(100, 0.5, 1.0, NAN),
            lambda: bounds.spjf_bound(NAN, 1.0),
            lambda: bounds.prr_bound(NAN, 1.0, 0.5),
            lambda: bounds.det_ski_bound(0.5, np.array([0.0, NAN]), np.array([1.0, 2.0])),
            lambda: bounds.det_ski_bound(0.5, np.zeros(2), np.array([NAN, 2.0])),
            lambda: bounds.rand_ski_bound(100, 0.5, np.array([NAN, 1.0]), 10.0),
            lambda: bounds.rand_ski_bound(100, 0.5, 1.0, np.array([10.0, NAN])),
            lambda: bounds.spjf_bound(np.array([1.0, NAN]), np.zeros(2)),
            lambda: bounds.prr_bound(np.array([NAN, 3.0]), np.zeros(2), 0.5),
            lambda: bounds.naive_ski_bound(NAN, 10.0),
            lambda: bounds.naive_ski_bound(np.array([0.0, 1.0]), np.array([NAN, 2.0])),
        ],
    )
    def test_nan_input_raises(self, call):
        with pytest.raises(ValueError, match=r"must be >= (0|1), got"):
            call()

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: bounds.det_robustness(0), r"lambda must lie in \(0, 1\], got 0"),
            (lambda: bounds.det_consistency(0), r"lambda must lie in \(0, 1\], got 0"),
            (lambda: bounds.rand_robustness(1, 0.5), "b must be >= 2, got 1"),
            (lambda: bounds.rand_consistency(1.5), r"lambda must lie in \(0, 1\], got 1.5"),
            (lambda: bounds.prr_bound(5, 1.0, 1.0), r"lambda must lie in \(0, 1\), got 1.0"),
            (lambda: bounds.prr_perfect_bound(0), r"lambda must lie in \(0, 1\), got 0"),
            # True is an int equal to 1, yet no lambda, as the rules hold
            (lambda: bounds.det_robustness(True), r"lambda must lie in \(0, 1\], got True"),
            (lambda: bounds.rand_consistency(True), r"lambda must lie in \(0, 1\], got True"),
            (lambda: bounds.det_ski_bound(np.array([True]), 0.0, 1.0), "got True"),
            (lambda: bounds.rand_robustness(2.5, 0.6), "b must be an integer, got 2.5"),
            (lambda: bounds.rand_robustness(True, 0.6), "b must be an integer, got True"),
            # an array names its first bad entry, not the whole array
            (
                lambda: bounds.naive_ski_bound(np.zeros(3), np.array([1.0, 0.5, 2.0])),
                "opt must be >= 1, got 0.5$",
            ),
            (lambda: bounds.spjf_bound(np.arange(2000), 1.0), "n must be >= 1, got 0$"),
            (
                lambda: bounds.det_ski_bound(0.5, np.array([0.0, 2.0, -3.0, -1.0]), 10.0),
                "eta must be >= 0, got -3.0$",
            ),
        ],
        ids=[
            "det-robustness", "det-consistency", "rand-robustness-b", "rand-consistency",
            "prr", "prr-perfect", "det-robustness-bool", "rand-consistency-bool",
            "bool-array", "rand-robustness-fractional-b", "rand-robustness-bool-b",
            "opt-array", "n-array", "eta-array",
        ],
    )
    def test_out_of_range_raises(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_array_below_domain_raises(self):
        with pytest.raises(ValueError, match="opt must be >= 1"):
            bounds.det_ski_bound(0.5, np.zeros(2), np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="eta must be >= 0"):
            bounds.rand_ski_bound(100, 0.5, np.array([0.0, -1.0]), 10.0)
        with pytest.raises(ValueError, match="n must be >= 1"):
            bounds.spjf_bound(np.array([2, 0]), np.zeros(2))
        with pytest.raises(ValueError, match="opt must be >= 1"):
            bounds.naive_ski_bound(0.0, np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="eta must be >= 0"):
            bounds.naive_ski_bound(np.array([1.0, -1.0]), 2.0)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


# every lambda-taking bound as a function of lambda alone: b = 100, eta = 1, opt = 2, n = 3
LAMBDA_BOUNDS = {
    "det-robustness": bounds.det_robustness,
    "det-consistency": bounds.det_consistency,
    "rand-robustness": partial(bounds.rand_robustness, 100),
    "rand-consistency": bounds.rand_consistency,
    "prr-perfect": bounds.prr_perfect_bound,
    "det-ski": lambda l: bounds.det_ski_bound(l, 1.0, 2.0),
    "rand-ski": lambda l: bounds.rand_ski_bound(100, l, 1.0, 2.0),
    "prr": lambda l: bounds.prr_bound(3, 1.0, l),
}


class TestArrayForms:
    """Each bound on arrays equals its scalar calls bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(
        lam=st.floats(0.01, 0.99),
        lams=st.lists(st.floats(0.02, 0.99), min_size=1, max_size=10),  # above 1/100
        b=st.integers(101, 10**6),
        instances=st.lists(
            st.tuples(
                st.floats(0.0, 1e6), st.floats(1.0, 1e6), st.integers(1, 10**4)
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_array_equals_scalar(self, lam, lams, b, instances):
        eta, opt, n = (np.array(column) for column in zip(*instances))
        cases = [
            (bounds.det_ski_bound, (lam,), (eta, opt)),
            (bounds.rand_ski_bound, (b, lam), (eta, opt)),
            (bounds.naive_ski_bound, (), (eta, opt)),
            (bounds.spjf_bound, (), (n, eta)),
        ]
        for fn, head, arrays in cases:
            scalars = [fn(*head, *(a[i].item() for a in arrays)) for i in range(len(eta))]
            assert _bits(fn(*head, *arrays)) == _bits(scalars)
        scalars = [bounds.prr_bound(int(n[i]), float(eta[i]), lam) for i in range(len(eta))]
        assert _bits(bounds.prr_bound(n, eta, lam)) == _bits(scalars)

        # a lambda array alone, then a (lambda, instance) grid
        lam_array = np.array(lams)
        for fn in LAMBDA_BOUNDS.values():
            assert _bits(fn(lam_array)) == _bits([fn(l) for l in lams])
        grid_cases = [
            (bounds.det_ski_bound, (eta, opt)),
            (partial(bounds.rand_ski_bound, b), (eta, opt)),
            (lambda l, n, eta: bounds.prr_bound(n, eta, l), (n, eta)),
        ]
        for fn, arrays in grid_cases:
            scalars = [
                [fn(l, *(a[i].item() for a in arrays)) for i in range(len(eta))] for l in lams
            ]
            assert _bits(fn(lam_array[:, None], *arrays)) == _bits(scalars)

    @pytest.mark.parametrize("fn", LAMBDA_BOUNDS.values(), ids=list(LAMBDA_BOUNDS))
    def test_empty_lambda_array(self, fn):
        assert fn(np.array([])).shape == (0,)

    @pytest.mark.parametrize("fn", LAMBDA_BOUNDS.values(), ids=list(LAMBDA_BOUNDS))
    def test_one_lambda_out_of_domain_raises(self, fn):
        with pytest.raises(ValueError, match=r"lambda must lie in .*, got 1\.5$"):
            fn(np.array([0.3, 0.5, 1.5, 0.7]))


def _raises(call) -> bool:
    """Whether ``call()`` raises ValueError; any other exception fails the test."""
    try:
        call()
    except ValueError:
        return True
    return False


# each lambda rule beside the bound of its guarantee, both functions of lambda alone
RULE_AND_BOUND = {
    "deterministic": (
        lambda l: ski_cost(SkiPolicy(PolicyKind.DETERMINISTIC, l), 10, 1, 0),
        bounds.det_robustness,
    ),
    "randomized": (
        lambda l: ski_cost(SkiPolicy(PolicyKind.RANDOMIZED, l), 10, 1, 0),
        partial(bounds.rand_robustness, 10),
    ),
    "prr": (
        lambda l: prr(JobSet.from_lengths([1.0, 2.0]), l),
        partial(bounds.sched_guarantee, "prr", 2, 1.0),
    ),
}


class TestOneLambdaRule:
    """A rule and the bound of its guarantee accept the same lambdas."""

    @pytest.mark.parametrize("pair", RULE_AND_BOUND.values(), ids=list(RULE_AND_BOUND))
    @pytest.mark.parametrize(
        "lam",
        [True, np.True_, np.int64(1), np.float32(0.5), Fraction(1, 2), "0.5", math.nan, 0, 1.5,
         np.array([0.5, 0.7])],
        ids=["bool", "numpy-bool", "int64", "float32", "fraction", "str", "nan", "zero",
             "above-one", "array"],
    )
    def test_rule_and_bound_agree(self, pair, lam):
        rule, bound = pair
        if isinstance(lam, np.ndarray):  # only the bounds broadcast a lambda array
            assert not _raises(lambda: bound(lam)) and _raises(lambda: rule(lam))
        else:
            assert _raises(lambda: rule(lam)) == _raises(lambda: bound(lam))

    # a float32 lambda is accepted exactly when its float64 value lies above 1/b
    @settings(max_examples=100, deadline=None)
    @given(
        b=st.integers(2, B_MAX),
        side=st.sampled_from([-math.inf, 0.0, math.inf]),
        dtype=st.sampled_from([float, np.float32]),
    )
    def test_randomized_edge_at_one_over_b(self, b, side, dtype):
        lam = dtype(1.0 / b if side == 0 else np.nextafter(1.0 / b, side))
        rule = _raises(lambda: ski_cost(SkiPolicy(PolicyKind.RANDOMIZED, lam), b, 1, 0))
        assert rule == _raises(lambda: bounds.rand_robustness(b, lam)) == (float(lam) <= 1.0 / b)

    def test_float32_array_compared_in_float64(self):
        lams = np.array([1 / 3, 0.5, 1.0], dtype=np.float32)  # float32(1/3) lies above 1/3
        assert _bits(bounds.rand_robustness(3, lams)) == _bits(
            [bounds.rand_robustness(3, float(l)) for l in lams]
        )
        below = np.array([0.5, np.nextafter(np.float32(1 / 3), np.float32(0))], dtype=np.float32)
        with pytest.raises(ValueError, match=r"\(1/3, 1\], got 0\.33333331"):
            bounds.rand_robustness(3, below)

    # Python floats: numpy warns where (1 + lambda) / lambda overflows at the least lambda
    @pytest.mark.parametrize("pair", RULE_AND_BOUND.values(), ids=list(RULE_AND_BOUND))
    @pytest.mark.parametrize(
        "lam",
        [0.0, math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0)],
        ids=["zero", "above-zero", "below-one", "one", "above-one"],
    )
    def test_edges_near_zero_and_one(self, pair, lam):
        rule, bound = pair
        assert _raises(lambda: rule(lam)) == _raises(lambda: bound(lam))


class TestMonotoneInError:
    def test_all_bounds_nondecreasing_in_eta(self):
        etas = [0.0, 0.5, 1.0, 5.0, 100.0, 1e6]
        for lam in (0.1, 0.5, 0.9):
            for lo, hi in zip(etas, etas[1:]):
                assert bounds.det_ski_bound(lam, lo, 10.0) <= bounds.det_ski_bound(lam, hi, 10.0)
                assert bounds.rand_ski_bound(50, lam, lo, 10.0) <= bounds.rand_ski_bound(
                    50, lam, hi, 10.0
                )
                assert bounds.spjf_bound(5, lo) <= bounds.spjf_bound(5, hi)
                assert bounds.prr_bound(5, lo, lam) <= bounds.prr_bound(5, hi, lam)
                for label, rule_lam in (("round-robin", None), ("spjf", None), ("prr", lam)):
                    low = bounds.sched_guarantee(label, 5, lo, rule_lam)
                    assert low <= bounds.sched_guarantee(label, 5, hi, rule_lam)


class TestAppendixLemmas:
    def test_families_pass_on_contract_grid(self):
        results = check_appendix_families()
        assert len(results) == 4
        for result in results:
            assert result.passed, result
            assert result.violations == 0
            assert result.tolerance == LEMMA_SLACK

    def test_helper_equality_at_x_one(self):
        results = {r.family: r for r in check_appendix_families(a1_step=1e-2)}
        # parts (i) and (iii) are tight exactly at x = 1, the worst grid point
        for family in ("lemma-helper-i", "lemma-helper-iii"):
            assert results[family].worst_case == "x=1"
            assert results[family].worst_excess == pytest.approx(0.0, abs=1e-15)

    def test_transfer_inequality_spot_value(self):
        b, lam = 2, 0.9
        lhs = (1 / lam + 1 / b) / (1 - math.exp(-1 / lam))
        rhs = (1 + 1 / b) / (1 - math.exp(-(lam - 1 / b)))
        assert lhs == pytest.approx(2.40176, abs=1e-4)
        assert rhs == pytest.approx(4.54994, abs=1e-4)
        assert lhs <= rhs

    def test_rejects_non_positive_step(self):
        with pytest.raises(ValueError, match="a1_step must be positive, got 0"):
            check_appendix_families(a1_step=0)

    def test_grid_sizes(self):
        results = {r.family: r for r in check_appendix_families()}
        assert results["lemma-helper-i"].points == 1000
        assert results["lemma-robustness-transfer"].points == 999 * 100


class TestFamilyResult:
    def test_violation_uses_tolerance(self):
        r = _fold("x", 1e-9, [(np.array([5e-10]), str)])
        assert r.passed and r.violations == 0
        r = _fold("x", 1e-9, [(np.array([5e-9]), str)])
        assert not r.passed and r.violations == 1
