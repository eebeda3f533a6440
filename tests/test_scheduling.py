"""Scheduler tests: hand traces, closed-form oracles, and structural properties.

The rational oracles re-run the phase structure in exact arithmetic
(fractions.Fraction), so any float drift in the event sweep shows up as a
mismatch.  The generic float rate executor (``run_rate_schedule``) re-queries
the stated rates after every completion; property tests check the sweep
against it on random job sets, and the sequential rules against a plain
``sorted`` replay (``run_sorted``) bit for bit.
"""

import math
import tracemalloc

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinepred import experiments, scheduling
from onlinepred.bounds import prr_perfect_bound, sched_guarantee
from onlinepred.scheduling import (
    JobSet,
    _result,
    objectives,
    prediction_error,
    prr,
    prr_batch,
    round_robin,
    sequential_batch,
    sjf_opt,
    spjf,
)
from scheduling_oracles import (
    prr_exact_rational,
    prr_rates,
    prr_sweep,
    prr_two_job_formula,
    records,
    rr_closed_form,
    rr_rates,
    run_rate_schedule,
    run_sorted,
)


def assert_never_idles(result, jobs):
    """The last completion equals the total work within 1e-9 relative."""
    total = sum(jobs.lengths.tolist(), 0.0)
    assert abs(result.completions.max() - total) <= 1e-9 * total


def assert_matches_oracle(got, want, jobs):
    """Same event grouping, completions within 1e-12 relative, machine never idle."""
    assert [ids for _, ids in got.events] == [ids for _, ids in want.events]
    assert np.all(np.abs(got.completions - want.completions) <= 1e-12 * want.completions)
    assert_never_idles(got, jobs)


class TestSequential:
    def test_sjf_examples(self):
        r = sjf_opt(JobSet.from_lengths([1, 2]))
        assert r.completions.tolist() == [1.0, 3.0]
        assert r.objective == 4.0

        r = sjf_opt(JobSet.from_lengths([1.0] * 50))
        assert r.objective == 1275.0  # n(n+1)/2 exactly

        r = sjf_opt(JobSet.from_lengths([3, 1, 2]))
        assert r.objective == 10.0  # 1 + 3 + 6

    def test_prefix_sum_formula_exact_in_rationals(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            lengths = [Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 7))) + 1 for _ in range(n)]
            s = sorted(lengths)
            formula = sum((n - j) * s[j] for j in range(n))
            running = Fraction(0)
            total = Fraction(0)
            for xj in s:
                running += xj
                total += running
            assert total == formula

    def test_spjf_hand_trace(self):
        jobs = JobSet.from_lengths([1, 2], [2, 1])
        r = spjf(jobs)
        assert r.completions.tolist() == [3.0, 2.0]
        assert r.objective == 5.0
        eta = prediction_error(jobs)
        assert eta == 2.0
        assert r.objective / sjf_opt(jobs).objective <= sched_guarantee("spjf", 2, eta)

    def test_spjf_perfect_predictions_optimal(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            lengths = rng.uniform(1, 20, int(rng.integers(1, 10))).tolist()
            jobs = JobSet.from_lengths(lengths)
            assert spjf(jobs).objective == sjf_opt(jobs).objective

    def test_spjf_ties_run_in_id_order(self):
        # a long job and three unit jobs, all predicted equal
        short_first = spjf(JobSet.from_lengths([1, 1, 1, 1.5], [1, 1, 1, 1]))
        long_first = spjf(JobSet.from_lengths([1.5, 1, 1, 1], [1, 1, 1, 1]))
        assert short_first.completions.tolist() == [1.0, 2.0, 3.0, 4.5]
        assert long_first.completions.tolist() == [1.5, 2.5, 3.5, 4.5]
        assert long_first.objective > short_first.objective


class TestExecutor:
    def test_single_job(self):
        jobs = JobSet.from_lengths([5])
        assert round_robin(jobs).completions.tolist() == [5.0]
        assert run_rate_schedule(jobs, rr_rates).completions.tolist() == [5.0]

    def test_rr_hand_trace(self):
        r = round_robin(JobSet.from_lengths([1, 2]))
        assert r.completions.tolist() == [2.0, 3.0]
        assert r.objective == 5.0
        assert r.objective / sjf_opt(JobSet.from_lengths([1, 2])).objective == 1.25

    def test_simultaneous_completions(self):
        r = round_robin(JobSet.from_lengths([1, 1]))
        assert r.completions.tolist() == [2.0, 2.0]
        assert len(r.events) == 1

    def test_equal_jobs_ratio_family(self):
        # n equal jobs: everything completes at n*c, so round-robin attains its guarantee
        for n in (1, 2, 5, 17):
            jobs = JobSet.from_lengths([3.0] * n)
            r = round_robin(jobs)
            assert r.objective == pytest.approx(n * n * 3.0, rel=1e-12)
            ratio = r.objective / sjf_opt(jobs).objective
            assert ratio == pytest.approx(sched_guarantee("round-robin", n, 0.0), rel=1e-12)

    def test_livelock_rejected(self):
        def zero_rates(active):
            return {j.id: 0.0 for j in active}

        with pytest.raises(ValueError, match="livelock"):
            run_rate_schedule(JobSet.from_lengths([1, 2]), zero_rates)

    def test_oversubscribed_rates_rejected(self):
        def too_much(active):
            return {j.id: 1.0 for j in active}

        with pytest.raises(ValueError, match="sum"):
            run_rate_schedule(JobSet.from_lengths([1, 2]), too_much)

    def test_work_conservation_random_policies(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            jobs = JobSet.from_lengths(
                rng.uniform(1, 10, n).tolist(), rng.uniform(-5, 15, n).tolist()
            )
            opt = sjf_opt(jobs).objective
            for result in (round_robin(jobs), prr(jobs, float(rng.uniform(0.05, 0.95)))):
                assert_never_idles(result, jobs)
                assert result.objective >= sum(jobs.lengths.tolist(), 0.0) - 1e-9
                assert result.objective >= opt - 1e-9
                assert np.all(result.completions >= jobs.lengths - 1e-9)


class TestPrr:
    def test_hand_trace(self):
        jobs = JobSet.from_lengths([1, 2], [1, 2])
        r = prr(jobs, 0.5)
        assert r.completions[0] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert r.completions[1] == pytest.approx(3.0, abs=1e-12)
        assert r.objective == pytest.approx(13.0 / 3.0, abs=1e-12)
        ratio = r.objective / sjf_opt(jobs).objective
        assert ratio <= prr_perfect_bound(0.5)
        assert ratio == pytest.approx(13.0 / 12.0, abs=1e-12)

    def test_single_job_any_lambda(self):
        for lam in (0.1, 0.5, 0.9):
            r = prr(JobSet.from_lengths([7]), lam)
            assert r.completions[0] == pytest.approx(7.0, abs=1e-12)

    def test_rejects_bad_lambda(self):
        jobs = JobSet.from_lengths([1, 2])
        for lam in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                prr(jobs, lam)

    def test_rate_structure_matches_stated_policy(self):
        # lam + (1-lam)/k for the predicted-shortest active job, (1-lam)/k others
        jobs = JobSet.from_lengths([4, 2, 3], [2, 3, 1])
        lam = 0.3
        k = jobs.n
        rates = prr_rates(lam)(records(jobs))
        assert rates[2] == pytest.approx(lam + (1 - lam) / k, abs=1e-15)
        assert rates[0] == pytest.approx((1 - lam) / k, abs=1e-15)
        assert rates[1] == pytest.approx((1 - lam) / k, abs=1e-15)
        # the sweep's first phase runs at those rates: job 2 finishes first
        t, done = prr(jobs, lam).events[0]
        assert done == (2,)
        assert t == pytest.approx(3 / (lam + (1 - lam) / k), rel=1e-15)

    def test_matches_rate_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            jobs = JobSet.from_lengths(
                rng.uniform(1, 10, n).tolist(), rng.uniform(-3, 13, n).tolist()
            )
            lam = float(rng.uniform(0.1, 0.9))
            assert_matches_oracle(prr(jobs, lam), run_rate_schedule(jobs, prr_rates(lam)), jobs)


@st.composite
def job_sets(draw):
    """Up to 40 jobs; lengths drawn from a pool of at most ceil(n/2) values,
    so every set of two or more jobs has tied lengths."""
    n = draw(st.integers(1, 40))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    length_pool = draw(st.lists(st.floats(1.0, 1e6), min_size=1, max_size=(n + 1) // 2))
    pred_pool = draw(st.lists(finite, min_size=1, max_size=n))
    lengths = draw(st.lists(st.sampled_from(length_pool), min_size=n, max_size=n))
    preds = draw(st.lists(st.sampled_from(pred_pool), min_size=n, max_size=n))
    return JobSet.from_lengths(lengths, preds)


class TestRateOracle:
    def test_rr_matches_oracle(self):
        jobs = JobSet.from_lengths([2, 5, 3.5])
        assert_matches_oracle(round_robin(jobs), run_rate_schedule(jobs, rr_rates), jobs)

    @settings(max_examples=200, deadline=None)
    @given(jobs=job_sets(), lam=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_sweep_matches_oracle_property(self, jobs, lam):
        assert_matches_oracle(round_robin(jobs), run_rate_schedule(jobs, rr_rates), jobs)
        assert_matches_oracle(prr(jobs, lam), run_rate_schedule(jobs, prr_rates(lam)), jobs)


@st.composite
def tied_job_sets(draw):
    """Up to 30 jobs drawn from small pools of lengths and predictions, so
    ties are common; predictions include +0.0, -0.0 and negative values."""
    n = draw(st.integers(1, 30))
    length_pool = draw(st.lists(st.floats(1.0, 1e6), min_size=1, max_size=4))
    pred_pool = draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, -1.0]), st.floats(-1e6, 1e6)),
        min_size=1, max_size=4,
    ))
    lengths = draw(st.lists(st.sampled_from(length_pool), min_size=n, max_size=n))
    preds = draw(st.lists(st.sampled_from(pred_pool), min_size=n, max_size=n))
    return JobSet.from_lengths(lengths, preds)


def assert_identical(got, want):
    assert got.completions.tobytes() == want.completions.tobytes()
    assert got.objective == want.objective
    assert got.events == want.events


class TestSequentialReference:
    @settings(max_examples=300, deadline=None)
    @given(jobs=tied_job_sets())
    def test_rules_match_sorted_replay_bit_for_bit(self, jobs):
        assert_identical(sjf_opt(jobs), run_sorted(jobs, key=lambda j: (j.length, j.id)))
        assert_identical(spjf(jobs), run_sorted(jobs, key=lambda j: (j.predicted, j.id)))

    def test_signed_zero_predictions_tie(self):
        jobs = JobSet.from_lengths([3, 2, 1], [0.0, -0.0, 0.0])
        assert [ids for _, ids in spjf(jobs).events] == [(0,), (1,), (2,)]

    @settings(max_examples=200, deadline=None)
    @given(jobs=tied_job_sets(), lam=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_one_summation_rule(self, jobs, lam):
        # the sweep and verify-bounds sum errors and objectives with objectives()
        eta = objectives(np.abs(jobs.lengths - jobs.predicted))
        assert prediction_error(jobs).hex() == float(eta).hex()
        for r in (sjf_opt(jobs), spjf(jobs), round_robin(jobs), prr(jobs, lam)):
            assert r.objective.hex() == float(objectives(r.completions)).hex()


@st.composite
def stacked_job_sets(draw):
    """1-6 rows of n <= 25 jobs from small pools, so lengths and predictions
    tie within and across rows; predictions include +0.0, -0.0 and negative
    values, and each row gets lambda = 0 (round-robin) or one in (0, 1)."""
    n, rows = draw(st.integers(1, 25)), draw(st.integers(1, 6))
    length_pool = draw(st.lists(st.floats(1.0, 1e6), min_size=1, max_size=4))
    pred_pool = draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, -1.0]), st.floats(-1e6, 1e6)),
        min_size=1, max_size=4,
    ))

    def table(pool):
        return [draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)) for _ in range(rows)]

    lams = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        min_size=rows, max_size=rows,
    ))
    return np.array(table(length_pool)), np.array(table(pred_pool)), np.array(lams)


def assert_rows_match_reference_sweep(lengths, predicted, lam):
    """Each row of one `prr_batch` call, with ``lam`` a scalar or one value per
    row, equals `prr_sweep`, its own one-row call and its one-set rule, bit for bit."""
    completions = prr_batch(lengths, predicted, lam)
    assert isinstance(completions, np.ndarray) and completions.dtype == np.float64
    assert completions.shape == np.shape(lengths) and completions.flags.c_contiguous
    totals = objectives(completions)
    for r, row_lam in enumerate(np.broadcast_to(lam, len(lengths)).tolist()):
        jobs = JobSet.from_lengths(lengths[r], predicted[r])
        want = prr_sweep(jobs, row_lam)
        assert completions[r].tobytes() == want.completions.tobytes()
        assert totals[r] == want.objective
        assert_identical(prr(jobs, row_lam) if row_lam else round_robin(jobs), want)
        alone = prr_batch(lengths[r:r + 1], predicted[r:r + 1], row_lam)
        assert alone.tobytes() == completions[r:r + 1].tobytes()


class TestBatchedKernel:
    @settings(max_examples=300, deadline=None)
    @given(stacked=stacked_job_sets())
    def test_rows_match_reference_sweep_bit_for_bit(self, stacked):
        assert_rows_match_reference_sweep(*stacked)

    @settings(max_examples=100, deadline=None)
    @given(stacked=stacked_job_sets())
    def test_scalar_lambda_rows_match_reference_sweep(self, stacked):
        lengths, predicted, lams = stacked
        assert_rows_match_reference_sweep(lengths, predicted, lams[0])

    @settings(max_examples=100, deadline=None)
    @given(jobs=tied_job_sets(), lam=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_schedulers_are_one_row_calls(self, jobs, lam):
        assert_identical(prr(jobs, lam), prr_sweep(jobs, lam))
        assert_identical(round_robin(jobs), prr_sweep(jobs, 0.0))

    def test_long_pointer_walks(self):
        # n = 2000 heavy-tailed lengths: one event finishes hundreds of jobs
        # from the head of a row's length list, each unlinked from the middle
        # of its prediction list, and all 2000 in the tied row
        rng = np.random.default_rng(19)
        n = 2000
        lengths = np.round(1 + rng.pareto(1.1, (4, n)))
        lengths[3] = 7.0  # all equal: one event finishes every job
        predicted = lengths + 20 * rng.standard_normal((4, n))
        predicted[2] = -lengths[2]  # the longest job is predicted shortest
        lams = np.array([0.5, 0.0, 0.9, 0.0])
        assert_rows_match_reference_sweep(lengths, predicted, lams)
        events = round_robin(JobSet.from_lengths(lengths[3], predicted[3])).events
        assert events == ((7.0 * n, tuple(range(n))),)

    def test_perfect_predictions_hand_the_favour_to_short(self):
        # the favourite is always the shortest unfinished job, so each handoff
        # unlinks the head of the length list; equal lengths tie in id order
        lengths = np.array([[3.0, 1.0, 2.0, 2.0, 7.0, 1.0], [4.0, 4.0, 4.0, 1.0, 9.0, 2.0]] * 2)
        lams = np.array([0.5, 0.0, 0.9, 1e-3])
        assert_rows_match_reference_sweep(lengths, lengths, lams)
        result = prr(JobSet.from_lengths(lengths[0]), 0.5)
        assert [ids for _, ids in result.events] == [(1,), (5,), (2,), (3,), (0,), (4,)]

    def test_favourite_inside_a_finishing_tied_run(self):
        # job 2, favoured from the start, ties with jobs 0, 1, 3 and 4; at
        # lambda = 0 its favour adds nothing, so the whole run ends in one event
        lengths = np.array([[3.0, 3.0, 3.0, 3.0, 3.0, 8.0, 1.0]] * 2)
        predicted = np.array([[5.0, 4.0, -1.0, 6.0, 7.0, 2.0, 9.0]] * 2)
        lams = np.array([0.0, 1e-300])
        assert_rows_match_reference_sweep(lengths, predicted, lams)
        events = round_robin(JobSet.from_lengths(lengths[0], predicted[0])).events
        assert [ids for _, ids in events] == [(6,), (0, 1, 2, 3, 4), (5,)]

    def test_favourite_finishes_with_its_prediction_successor(self):
        # job 0 is favoured and job 1 follows it in prediction order; both end
        # in the first event (at lambda = 0 by equal lengths, at 0.5 because
        # 5 / (0.5 + 0.5/4) = 1 / (0.5/4) = 8), so the favour skips to job 2
        lengths = np.array([[2.0, 2.0, 5.0, 6.0], [5.0, 1.0, 10.0, 30.0]])
        predicted = np.array([[0.0, 1.0, 2.0, 3.0]] * 2)
        lams = np.array([0.0, 0.5])
        assert_rows_match_reference_sweep(lengths, predicted, lams)
        for row, lam in enumerate(lams.tolist()):
            events = prr_sweep(JobSet.from_lengths(lengths[row], predicted[row]), lam).events
            assert events[0][1] == (0, 1)
            assert prr_batch(lengths[row], predicted[row], lam)[:2].tolist() == [8.0, 8.0]

    def test_rows_finish_at_different_events(self):
        # one row ends in one event, one takes an event per job, and the
        # rest in between; lambda = 0 rows sit among PRR rows
        rng = np.random.default_rng(30)
        lengths = np.round(1 + rng.pareto(1.1, (6, 40)))
        lengths[0] = 5.0
        lengths[1] = np.arange(1.0, 41.0)
        lengths[2, ::2] = 3.0
        predicted = np.round(lengths + rng.normal(0, 6, lengths.shape))
        lams = np.array([0.0, 0.5, 0.0, 0.9, 0.0, 0.25])
        assert_rows_match_reference_sweep(lengths, predicted, lams)
        counts = {np.unique(row).size for row in prr_batch(lengths, predicted, lams)}
        assert {1, 40} <= counts and len(counts) >= 4

    def test_shared_sets_beside_sets_of_their_own(self):
        # (G, T) rows from T sets broadcast over G lambdas, whose links are
        # built once per set and copied per row, give the bits of the tiled
        # stack in which every row is its own set
        rng = np.random.default_rng(31)
        lengths = np.round(1 + rng.pareto(1.1, (4, 30)))
        predicted = np.round(lengths + rng.normal(0, 5, (4, 30)))
        lams = np.array([0.0, 0.2, 0.7])
        shared = prr_batch(lengths, predicted, lams[:, None])
        tiled = (np.tile(lengths, (3, 1)), np.tile(predicted, (3, 1)), np.repeat(lams, 4))
        assert shared.shape == (3, 4, 30)
        assert shared.tobytes() == prr_batch(*tiled).tobytes()
        assert_rows_match_reference_sweep(*tiled)
        # shared lengths against a prediction set per row, as the sweep calls it
        own = np.round(lengths + rng.normal(0, 5, (3, 4, 30)))
        mixed = prr_batch(lengths, own, lams[:, None])
        tiled = (tiled[0], own.reshape(12, 30), tiled[2])
        assert mixed.tobytes() == prr_batch(*tiled).tobytes()
        assert_rows_match_reference_sweep(*tiled)

    def test_no_completion_fails_closed(self, monkeypatch):
        # with a negative threshold no job can finish, so the first event
        # completes nothing and the kernel raises rather than loop or return
        monkeypatch.setattr(scheduling, "COMPLETION_EPS", -1.0)
        for lam in (0.0, 0.5):
            with pytest.raises(RuntimeError, match="advanced time without completing a job"):
                prr_batch([[2.0, 1.0, 3.0], [1.0, 1.0, 1.0]], [[1.0, 2.0, 3.0]] * 2, lam)

    def test_memory_of_a_default_block(self, monkeypatch):
        # one default sched-sweep block, 873 trials x 12 row groups x 50 jobs;
        # the kernel with a pointer and a gone flag per job that this one
        # replaced peaked at 23.0 MiB (numpy 2.4.6)
        config = experiments.SchedSweepConfig()
        trials = experiments.KERNEL_ENTRIES // ((len(config.sigma_grid) + 1) * config.n)
        assert trials == 873
        peaks = []

        def traced(*args):
            tracemalloc.start()
            try:
                return prr_batch(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(experiments, "prr_batch", traced)
        experiments._sched_block(config, 0, trials)
        assert len(peaks) == 1
        assert peaks[0] <= 1.15 * 23.0 * 2**20

    def test_stacks_broadcast_like_their_tiled_rows(self):
        # G = 3 prediction groups of T = 5 job sets, one lambda per group, as
        # the scheduling sweep calls it: the same bits as the tiled (G*T, n) rows
        rng = np.random.default_rng(27)
        lengths = np.round(1 + rng.pareto(1.1, (5, 9)))
        predicted = np.round(lengths + rng.normal(0, 4, (3, 5, 9)))
        lams = np.array([0.0, 0.3, 0.9])
        stacked = prr_batch(lengths, predicted, lams[:, None])
        tiled = prr_batch(np.tile(lengths, (3, 1)), predicted.reshape(15, 9), np.repeat(lams, 5))
        assert stacked.shape == (3, 5, 9)
        assert stacked.tobytes() == tiled.tobytes()
        # [noisy or perfect predictions, lambda, set], as verify-bounds calls it
        both = prr_batch(lengths, np.stack([predicted[0], lengths])[:, None], lams[:, None])
        assert both.shape == (2, 3, 5, 9)
        assert both[0, 1].tobytes() == prr_batch(lengths, predicted[0], 0.3).tobytes()
        assert both[1, 2].tobytes() == prr_batch(lengths, lengths, 0.9).tobytes()

    def test_one_job_set_is_a_one_row_stack(self):
        lengths, predicted = np.array([2.0, 1.0, 3.0, 1.0]), np.array([0.5, 4.0, -1.0, 0.5])
        for lam in (0.0, 0.4):
            alone = prr_batch(lengths, predicted, lam)
            assert alone.shape == (4,)
            assert alone.tobytes() == prr_batch(lengths[None], predicted[None], lam).tobytes()
            assert prr_batch(lengths, predicted, [lam]).shape == (1, 4)
            assert alone.tobytes() == prr_batch(lengths.tolist(), predicted, lam).tobytes()

    def test_empty_stack(self):
        assert prr_batch(np.empty((0, 3)), np.empty((0, 3)), 0.5).shape == (0, 3)
        assert prr_batch(np.ones(3), np.ones(3), np.empty((2, 0))).shape == (2, 0, 3)

    def test_scalar_lambda_broadcasts(self):
        lengths = np.array([[2.0, 1.0, 3.0], [1.0, 1.0, 4.0]])
        predicted = np.array([[3.0, 2.0, 1.0], [0.0, -0.0, 5.0]])
        per_row = prr_batch(lengths, predicted, [0.4, 0.4])
        scalar = prr_batch(lengths, predicted, 0.4)
        assert per_row.tobytes() == scalar.tobytes()

    def test_events_are_distinct_completion_times(self):
        result = _result(np.array([3.0, 1.0, 3.0, 2.0, 1.0]))
        assert result.events == ((1.0, (1, 4)), (2.0, (3,)), (3.0, (0, 2)))
        assert result.objective == 10.0
        # the last job's step, 1.5e-12 of work at rate 1, is below half an ulp
        # of t = 40000, so it ends at the time of the step before: one event
        n = 40_000
        lengths = np.ones(n)
        lengths[-1] += 1.5e-12
        result = round_robin(JobSet.from_lengths(lengths))
        assert result.events == ((40_000.0, tuple(range(n))),)
        assert np.all(result.completions == 40_000.0)

    def test_reference_sweep_merges_steps_that_end_together(self):
        # the case above: the reference sweep's two steps end at t = 40000 too,
        # and it lists them as one event, as the kernel's rules do
        n = 40_000
        lengths = np.ones(n)
        lengths[-1] += 1.5e-12
        jobs = JobSet.from_lengths(lengths)
        want = prr_sweep(jobs, 0.0)
        assert want.events == ((40_000.0, tuple(range(n))),)
        assert_identical(round_robin(jobs), want)

    def test_sequential_batch_matches_rules(self):
        rng = np.random.default_rng(4)
        lengths = np.round(1 + rng.pareto(1.1, (30, 9)))
        predicted = np.round(lengths + rng.normal(0, 3, lengths.shape))
        opt = objectives(sequential_batch(lengths, lengths))
        by_pred = objectives(sequential_batch(lengths, predicted))
        for r in range(30):
            jobs = JobSet.from_lengths(lengths[r], predicted[r])
            assert opt[r] == sjf_opt(jobs).objective
            assert by_pred[r] == spjf(jobs).objective

    @pytest.mark.parametrize(
        "lengths, predicted, lam, message",
        [
            ([[1.0, 2.0]], [[1.0, 2.0]], 1.0, "lambda must lie in"),
            ([[1.0, 2.0]] * 2, [[1.0, 2.0]] * 2, [0.5] * 3, "one value per row"),
            ([[1.0, 2.0]], [[1.0, 2.0]], -0.1, "lambda must lie in"),
            ([[1.0, 2.0]], [[1.0, 2.0]], math.nan, "lambda must lie in"),
            (np.array(1.0), np.array(1.0), 0.5, "arrays with n >= 1"),
            ([[1.0, 2.0]], [[1.0]], 0.5, "arrays with n >= 1"),
            (np.empty((2, 0)), np.empty((2, 0)), 0.5, "arrays with n >= 1"),
            ([[1.0, 0.5]], [[1.0, 2.0]], 0.5, "job length must be finite and >= 1"),
            ([[1.0, math.inf]], [[1.0, 2.0]], 0.5, "job length must be finite and >= 1"),
            ([[1.0, 2.0]], [[1.0, math.nan]], 0.5, "predicted length must be finite"),
            ([[1.0, 2.0], [6e307, 6e307]], [[1.0, 2.0]] * 2, 0.5, "total job length must be"),
            (np.array([["1", "2"]]), [[1.0, 2.0]], 0.5, "real numbers, got '1'"),
            ([[1.0, 2.0]], np.array([[True, False]]), 0.5, "real numbers, got True"),
            (np.array([[Fraction(3, 2), 2]]), [[1.0, 2.0]], 0.5, "real numbers, got Fraction"),
            # nested lists are checked entry by entry before any conversion
            ([[True, 2]], [[1, 2]], 0.5, "real numbers, got True"),
            ([[1.0, 2.0]], [(1, False)], 0.5, "real numbers, got False"),
            ([[10**400, 2]], [[1, 2]], 0.5, "fit in a float64, got 1000"),
            # the first bad lambda is named, and so are the shapes of a job
            # axis that differs or of leading axes that do not broadcast
            ([[1.0, 2.0]], [[1.0, 2.0]], 1.0, r"lambda must lie in \[0, 1\), got 1.0$"),
            ([[1.0, 2.0]] * 2, [1.0, 2.0], [0.5, 1.5], r"lambda must lie in \[0, 1\), got 1.5$"),
            ([[1.0, 2.0]], [[1.0]], 0.5, r"got shapes \(1, 2\), \(1, 1\) and \(\)$"),
            ([1.0, 2.0], [[1.0, 2.0, 3.0]], 0.5, r"got shapes \(2,\), \(1, 3\) and \(\)$"),
            ([[1.0, 2.0]] * 2, [[1.0, 2.0]] * 2, [0.5] * 3, r"\(2, 2\), \(2, 2\) and \(3,\)$"),
            ([[1.0, 2.0]] * 2, [[1.0, 2.0]] * 3, 0.5, r"\(2, 2\), \(3, 2\) and \(\)$"),
            (np.array(1.0), np.array(1.0), 0.5, r"got shapes \(\), \(\) and \(\)$"),
            # a Python scalar is a 0-d job array, as a 0-d numpy array is
            (1.0, 1.0, 0.5, r"got shapes \(\), \(\) and \(\)$"),
            ([1.0, 2.0], 2, 0.5, r"got shapes \(2,\), \(\) and \(\)$"),
            (True, 1.0, 0.5, "real numbers, got True"),
        ],
    )
    def test_rejects_bad_input(self, lengths, predicted, lam, message):
        with pytest.raises(ValueError, match=message):
            prr_batch(lengths, predicted, lam)


class TestMonotonicity:
    """Shrinking any single true length never increases the objective."""

    def _random_jobs(self, rng):
        n = int(rng.integers(2, 8))
        lengths = rng.uniform(1.5, 10, n)
        preds = rng.uniform(-2, 12, n)
        return lengths, preds

    @pytest.mark.parametrize("alg_name", ["rr", "spjf", "prr"])
    def test_monotone(self, alg_name):
        rng = np.random.default_rng(h := abs(hash(alg_name)) % 2**31)
        for _ in range(60):
            lengths, preds = self._random_jobs(rng)
            j = int(rng.integers(0, len(lengths)))
            shrunk = lengths.copy()
            shrunk[j] = max(1.0, shrunk[j] - float(rng.uniform(0.1, shrunk[j])))

            def run(ls):
                jobs = JobSet.from_lengths(ls.tolist(), preds.tolist())
                if alg_name == "rr":
                    return round_robin(jobs).objective
                if alg_name == "spjf":
                    return spjf(jobs).objective
                return prr(jobs, 0.6).objective

            assert run(shrunk) <= run(lengths) + 1e-9


class TestExactRationalOracle:
    def test_rr_against_closed_form(self):
        cases = [
            [1, 2],
            [Fraction(3, 2), Fraction(3, 2)],
            [Fraction(7, 3), Fraction(1, 2) + 1, 4],
            [5, 1, 3],
            [2, 2, 2],
        ]
        for lengths in cases:
            jobs = JobSet.from_lengths([float(v) for v in lengths])
            got = round_robin(jobs)
            want = rr_closed_form(lengths)
            got_sorted = sorted(got.completions.tolist())
            for g, w in zip(got_sorted, want):
                assert g == pytest.approx(float(w), abs=1e-9)

    def test_prr_against_rational_phases(self):
        cases = [
            ([1, 2], [1, 2], Fraction(1, 2)),
            ([1, 2], [2, 1], Fraction(1, 2)),
            ([Fraction(3, 2), Fraction(7, 3), 4], [1, 2, 3], Fraction(1, 4)),
            ([4, Fraction(3, 2), 2], [3, 1, 2], Fraction(3, 5)),
            ([2, 2, 2], [1, 1, 1], Fraction(9, 10)),
        ]
        for lengths, preds, lam in cases:
            jobs = JobSet.from_lengths([float(v) for v in lengths], [float(p) for p in preds])
            got = prr(jobs, float(lam))
            want = prr_exact_rational(lengths, preds, lam)
            for i, w in want.items():
                assert got.completions[i] == pytest.approx(float(w), abs=1e-9)

    def test_prr_two_job_formula(self):
        for x0, x1, y0, y1, lam in [
            (1, 2, 1, 2, Fraction(1, 2)),
            (1, 2, 2, 1, Fraction(1, 2)),
            (Fraction(5, 2), Fraction(3, 2), 0, 1, Fraction(1, 3)),
            (3, 3, 1, 1, Fraction(4, 5)),
        ]:
            jobs = JobSet.from_lengths([float(x0), float(x1)], [float(y0), float(y1)])
            got = prr(jobs, float(lam))
            want = prr_two_job_formula(x0, x1, y0, y1, lam)
            assert got.completions[0] == pytest.approx(float(want[0]), abs=1e-9)
            assert got.completions[1] == pytest.approx(float(want[1]), abs=1e-9)

    def test_phase_length_cap(self):
        # with perfect order, the k-th phase lasts at most x_k / lambda
        lengths = [Fraction(3, 2), Fraction(5, 2), Fraction(9, 2)]
        lam = Fraction(2, 5)
        completions = prr_exact_rational(lengths, [float(v) for v in lengths], lam)
        starts = [Fraction(0)] + sorted(completions.values())[:-1]
        for k, xk in enumerate(sorted(lengths)):
            phase = sorted(completions.values())[k] - starts[k]
            assert phase <= xk / lam


class TestJobSetValidation:
    def test_rejects_short_jobs(self):
        with pytest.raises(ValueError):
            JobSet.from_lengths([0.5, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            JobSet.from_lengths([])

    @pytest.mark.parametrize(
        "lengths, message",
        [
            pytest.param([1.0, math.nan], "job length must be finite and >= 1", id="lengths0"),
            pytest.param([math.inf], "job length must be finite and >= 1", id="lengths1"),
            pytest.param([1.0, -2.0], "job length must be finite and >= 1", id="lengths2"),
            pytest.param([True, 2.0], "job values must be real numbers, got True", id="bool"),
            pytest.param(["1", "2"], "job values must be real numbers, got '1'", id="str"),
            pytest.param([Fraction(3, 2), 2], "real numbers, got Fraction", id="fraction"),
            pytest.param(np.array(["1", "2"]), "real numbers, got '1'", id="str-array"),
            pytest.param(np.array([True, True]), "real numbers, got True", id="bool-array"),
            pytest.param([10**400, 2], "fit in a float64, got 1000", id="int-overflow"),
            pytest.param([-(2**1024 - 2**970), 2], "fit in a float64", id="int-rounds-past-max"),
            # a scalar is a 0-d array, whether a Python, numpy or 0-d array one
            pytest.param(5.0, r"must form a vector, got shape \(\)$", id="float"),
            pytest.param(5, r"must form a vector, got shape \(\)$", id="int"),
            pytest.param(np.float64(5.0), r"must form a vector, got shape \(\)$", id="float64"),
            pytest.param(np.array(5.0), r"must form a vector, got shape \(\)$", id="0-d"),
        ],
    )
    def test_rejects_bad_lengths(self, lengths, message):
        with pytest.raises(ValueError, match=message):
            JobSet.from_lengths(lengths)

    # the last list holds the largest int that converts to a float64 (the largest float64)
    @pytest.mark.parametrize("lengths", [[1e308, 1e308], [6e307, 6e307], [2**1024 - 2**970 - 1] * 2])
    def test_rejects_sets_whose_times_overflow(self, lengths):
        # the last completion is the total length, the objective up to n times it
        with pytest.raises(ValueError, match="n times the total job length must be finite"):
            JobSet.from_lengths(lengths)
        assert JobSet.from_lengths(lengths[:1]).n == 1

    def test_rejects_mismatched_predictions(self):
        with pytest.raises(ValueError, match="equal length"):
            JobSet.from_lengths([1.0, 2.0], [1.0])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match=r"must form a vector, got shape \(2, 2\)"):
            JobSet(np.ones((2, 2)), np.ones((2, 2)))

    def test_arrays_are_read_only(self):
        source = np.array([2.0, 1.0])
        jobs = JobSet.from_lengths(source, [5.0, 6.0])
        for array in (jobs.lengths, jobs.predicted):
            with pytest.raises(ValueError):
                array[0] = 3.0
        source[0] = 9.0  # the set holds its own copy
        assert jobs.lengths.tolist() == [2.0, 1.0]
        assert source.flags.writeable

    # new predictions for the same jobs go through the constructor
    def test_constructor_shares_lengths(self):
        jobs = JobSet.from_lengths([2.0, 1.0])
        noisy = JobSet(jobs.lengths, np.array([0.5, -4.0]))
        assert not np.shares_memory(noisy.lengths, jobs.lengths)  # holds its own copy
        assert noisy.predicted.tolist() == [0.5, -4.0]
        assert not noisy.predicted.flags.writeable
        assert jobs.predicted.tolist() == [2.0, 1.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_constructor_rejects_non_finite_predictions(self, bad):
        jobs = JobSet.from_lengths([2.0, 1.0])
        with pytest.raises(ValueError, match="predicted length must be finite"):
            JobSet(jobs.lengths, [1.0, bad])

    @pytest.mark.parametrize("preds", [[1.0], [1.0, 2.0, 3.0]])
    def test_constructor_rejects_wrong_prediction_count(self, preds):
        jobs = JobSet.from_lengths([2.0, 1.0])
        with pytest.raises(ValueError, match="equal length"):
            JobSet(jobs.lengths, preds)

    def test_negative_predictions_allowed(self):
        jobs = JobSet.from_lengths([1, 2], [-5.0, -7.0])
        r = spjf(jobs)
        assert r.completions[1] == 2.0  # most negative prediction runs first
