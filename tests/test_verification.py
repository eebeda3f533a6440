"""The shared excess fold, its fail-closed handling of NaN, and the job-set draws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinepred import bounds, cli, verification, workloads
from onlinepred.scheduling import JobSet
from onlinepred.ski_rental import PolicyKind, ski_cost
from onlinepred.verification import (
    TOLERANCE,
    _fold,
    check_det_ski_guarantee,
    check_jobset_families,
    check_naive_lemma,
    check_rand_ski_guarantee,
    random_jobsets,
)
from test_workloads import numpy_rngs

# ties, values on either side of the tolerance, infinities and NaN
VALUES = [-1.0, -math.inf, 0.0, 5e-10, 1e-9, 2e-9, 1.0, math.inf, math.nan]


def reference_fold(grids, tolerance):
    """Plain-Python fold: strict > in global order, the first NaN wins."""
    points = violations = 0
    worst, label = -math.inf, ""
    for g, values in enumerate(grids):
        for i, value in enumerate(values):
            points += 1
            violations += not value <= tolerance
            if not math.isnan(worst) and (math.isnan(value) or value > worst):
                worst, label = value, f"grid{g}[{i}]"
    return points, violations, repr(worst), label


class TestFold:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(VALUES), max_size=6), max_size=5))
    def test_matches_plain_loop(self, grids):
        labelled = [
            (np.array(values), lambda i, g=g: f"grid{g}[{i}]") for g, values in enumerate(grids)
        ]
        got = _fold("family", TOLERANCE, labelled)
        assert (got.points, got.violations, repr(got.worst_excess), got.worst_case) == (
            reference_fold(grids, TOLERANCE)
        )
        assert got.family == "family" and got.tolerance == TOLERANCE

    def test_only_worst_label_is_formatted(self):
        formatted = []

        def label(i):
            formatted.append(i)
            return str(i)

        grid = np.array([[0.0, 3.0], [3.0, 1.0]])
        result = _fold("family", TOLERANCE, [(grid, label), (np.array([3.0]), label)])
        assert formatted == [1]
        assert (result.points, result.violations, result.worst_case) == (5, 4, "1")

    def test_all_empty_family(self):
        result = _fold("family", TOLERANCE, [(np.empty((10, 0)), str), ([], str)])
        assert (result.points, result.violations, result.worst_case) == (0, 0, "")
        assert result.worst_excess == -math.inf and result.passed


def _nan_deterministic(policy, b, xs, ys, u=None):
    cost = ski_cost(policy, b, xs, ys, u)
    if policy.kind is PolicyKind.DETERMINISTIC:
        return np.full_like(cost, math.nan)
    return cost


class TestFailsClosed:
    def test_nan_cost_fails_ski_family(self, monkeypatch):
        monkeypatch.setattr(verification, "ski_cost", _nan_deterministic)
        result = check_det_ski_guarantee(b_max=4, lambdas=(0.5,))
        assert not result.passed
        assert result.violations == result.points > 0
        assert math.isnan(result.worst_excess)

    def test_nan_objective_fails_prr_families(self, monkeypatch):
        def nan_kernel(lengths, predicted, lam):
            leading = np.shape(lengths)[:-1], np.shape(predicted)[:-1], np.shape(lam)
            return np.full(np.broadcast_shapes(*leading) + np.shape(lengths)[-1:], math.nan)

        monkeypatch.setattr(verification, "prr_batch", nan_kernel)
        spjf_family, *prr_families = check_jobset_families(count=20, lambdas=(0.5,))
        assert spjf_family.passed
        for result in prr_families:
            assert result.violations == result.points == 20
            assert math.isnan(result.worst_excess)
            assert result.worst_case == "jobset#0 lambda=0.5"

    def test_nan_cost_fails_verify_bounds(self, monkeypatch, capsys):
        monkeypatch.setattr(verification, "ski_cost", _nan_deterministic)
        code = cli.main(["verify-bounds", "--grid-density", "tiny"])
        assert code == cli.EXIT_VIOLATION == 3
        captured = capsys.readouterr()
        assert "OVERALL: FAIL" in captured.out
        # the first NaN of the first grid: b = 2, x = 1, y = 0 at the first tiny lambda
        assert captured.err == (
            "deterministic-rule-guarantee: worst point b=2 x=1 y=0 lambda=0.3\n"
        )

    def test_nan_guarantee_fails_every_ski_family(self, monkeypatch):
        def nan_guarantee(policy, b, eta, opt):
            return np.full(np.broadcast_shapes(np.shape(eta), np.shape(opt)), math.nan)

        monkeypatch.setattr(verification.bounds, "ski_guarantee", nan_guarantee)
        for result in (
            check_det_ski_guarantee(b_max=4, lambdas=(0.5,)),
            check_rand_ski_guarantee(b_max=4, lambdas=(0.5,)),
            check_naive_lemma(b_max=4),
        ):
            assert result.violations == result.points > 0, result.family
            assert math.isnan(result.worst_excess)

    def test_lowered_guarantee_fails_deterministic_family(self, monkeypatch):
        guarantee = bounds.ski_guarantee
        monkeypatch.setattr(
            verification.bounds, "ski_guarantee", lambda *args: guarantee(*args) - 0.1
        )
        # the rule first comes within 0.1 of its bound at b = 7 (x = y = 7, ratio 10/7)
        assert check_det_ski_guarantee(b_max=6, lambdas=(0.5,)).passed
        result = check_det_ski_guarantee(b_max=12, lambdas=(0.5,))
        assert result.violations > 0 and result.worst_excess > TOLERANCE

    def test_nan_guarantee_fails_both_jobset_guarantees(self, monkeypatch):
        guarantee = bounds.sched_guarantee
        monkeypatch.setattr(
            verification.bounds, "sched_guarantee", lambda *args: guarantee(*args) * math.nan
        )
        spjf_family, prr_family, _ = check_jobset_families(count=20, lambdas=(0.3, 0.7))
        for result in (spjf_family, prr_family):
            assert result.violations == result.points > 0, result.family
            assert math.isnan(result.worst_excess)

    def test_lowered_guarantee_fails_spjf_family(self, monkeypatch):
        guarantee = bounds.sched_guarantee
        monkeypatch.setattr(
            verification.bounds, "sched_guarantee", lambda *args: guarantee(*args) - 1e-6
        )
        tiny = verification.DENSITIES["tiny"]
        spjf_family, _, _ = check_jobset_families(tiny["jobsets"], tiny["lambdas"])
        # the 40 perfect-prediction sets (every fifth) give an SPJF ratio of
        # exactly 1, the guarantee at eta = 0
        assert not spjf_family.passed
        assert spjf_family.violations == 40 and spjf_family.worst_excess > TOLERANCE


def one_jobset(seed, s):
    """Job set s drawn on its own from numpy's generator of key s, in the stacks' draw order."""
    return one_jobset_from(next(numpy_rngs(seed, [s])), s)


def one_jobset_from(rng, s):
    """Job set s drawn from the generator ``rng``, in the stacks' draw order."""
    n = int(rng.integers(1, 9))
    lengths = rng.uniform(1.0, 10.0, n)
    preds = [
        lambda: lengths,
        lambda: lengths + rng.normal(0.0, 0.5, n),
        lambda: lengths + rng.normal(0.0, 5.0, n),
        lambda: rng.uniform(-5.0, 15.0, n),
        lambda: -lengths,
    ][s % 5]()
    return JobSet.from_lengths(lengths, preds)


def jobsets_oracle(count, seed):
    """`random_jobsets`'s stacks, set s drawn from generator s of
    ``numpy_rngs(seed, range(count))`` in turn."""
    by_size = {}
    for s, rng in enumerate(numpy_rngs(seed, range(count))):
        jobs = one_jobset_from(rng, s)
        by_size.setdefault(len(jobs.lengths), []).append((s, jobs.lengths, jobs.predicted))
    return [
        tuple(np.array(column) for column in zip(*by_size[size])) for size in sorted(by_size)
    ]


class TestRandomJobsets:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 80), st.one_of(st.sampled_from((0, 3, 2**128 + 1)), st.integers(0, 2**160))
    )
    def test_stacks_match_generators_drawn_in_turn(self, count, seed):
        got, expected = random_jobsets(count, seed), jobsets_oracle(count, seed)
        assert len(got) == len(expected)
        for stack, reference in zip(got, expected):
            for a, b in zip(stack, reference):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_stacks_hold_every_set_once_by_ascending_size(self):
        stacks = random_jobsets(300, 11)
        sizes = [lengths.shape[1] for _, lengths, _ in stacks]
        assert sizes == sorted(set(sizes))
        assert sorted(np.concatenate([ids for ids, _, _ in stacks]).tolist()) == list(range(300))
        for ids, lengths, preds in stacks:
            assert np.all(np.diff(ids) > 0)
            for row, s in enumerate(ids.tolist()):
                jobs = one_jobset(11, s)
                assert np.array_equal(lengths[row], jobs.lengths)
                assert np.array_equal(preds[row], jobs.predicted)

    @pytest.mark.parametrize(
        "draw, value, message",
        [("random", -1 / 18, "job length"), ("standard_normal", math.nan, "predicted length")],
        ids=["length-below-one", "nan-prediction"],
    )
    def test_stacks_are_checked_like_jobsets(self, monkeypatch, draw, value, message):
        # the draw engine hands out the bad values: uniform -1/18 makes a
        # length of 1 + 9 * (-1/18) = 0.5, and NaN normals make NaN noise
        original = getattr(workloads._Draws, draw)
        monkeypatch.setattr(
            workloads._Draws, draw, lambda self, count: np.full_like(original(self, count), value)
        )
        with pytest.raises(ValueError, match=message):
            random_jobsets(10, 3)


def test_unknown_density_rejected():
    with pytest.raises(ValueError, match="unknown grid density 'bogus'"):
        verification.run_all_checks("bogus")
