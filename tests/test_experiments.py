"""Sweep harness tests: shape, reproducibility, per-trial guarantee compliance."""

import concurrent.futures
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinepred import bounds, cli, experiments
from onlinepred.experiments import (
    DEFAULT_SEED,
    JOBS_MAX,
    LAMBDA_RAND_DEFAULT,
    N_MAX,
    SWEEP_MAX_RATIOS,
    TRIALS_MAX,
    SchedSweepConfig,
    SkiSweepConfig,
    run_scheduling_sweep,
    run_ski_sweep,
    sched_sweep_algorithms,
)
from onlinepred.ski_rental import B_MAX
from ski_oracles import block_stats, ski_trials
from test_workloads import sched_draws_oracle

EPS = np.finfo(float).eps


def small_ski_config(**overrides):
    base = dict(
        b=100,
        trials=400,
        sigma_grid=(0.0, 100.0, 200.0),
        seed=DEFAULT_SEED,
    )
    base.update(overrides)
    return SkiSweepConfig(**base)


def small_sched_config(**overrides):
    base = dict(
        n=12,
        trials=100,
        sigma_grid=(0.0, 10.0),
        seed=DEFAULT_SEED,
    )
    base.update(overrides)
    return SchedSweepConfig(**base)


def assert_same_reports(expected, actual):
    assert len(expected) == len(actual)
    for re, ra in zip(expected, actual):
        assert (re.algorithm, re.lam, re.sigma) == (ra.algorithm, ra.lam, ra.sigma)
        assert (re.count, re.mean_ratio, re.mean_eta, re.max_ratio) == (
            ra.count, ra.mean_ratio, ra.mean_eta, ra.max_ratio
        )


def split_fill(fill, config, lo, per_block):
    """``fill``'s arrays for trials lo.. of ``config``, filled per_block trials at a time."""
    starts = range(lo, config.trials, per_block)
    blocks = [fill(config, start, min(start + per_block, config.trials)) for start in starts]
    return [np.concatenate(parts, axis=-1) for parts in zip(*blocks)]


def three_blocks(monkeypatch, trials, per_trial):
    """Shrink the blocks so that a sweep of ``trials`` spans at least three (or one per trial)."""
    monkeypatch.setattr(experiments, "KERNEL_ENTRIES", max(1, trials // 3) * per_trial)


class TestSkiSweep:
    def test_report_shape(self):
        reports = run_ski_sweep(small_ski_config())
        assert len(reports) == 3 * 4  # sigma points x algorithms
        labels = {r.algorithm for r in reports}
        assert labels == {"break-even", "karlin", "deterministic", "randomized"}
        for r in reports:
            assert r.count == 400
            assert r.mean_ratio >= 1.0 - 1e-9

    def test_reproducible(self):
        assert_same_reports(run_ski_sweep(small_ski_config()), run_ski_sweep(small_ski_config()))

    def test_zero_sigma_consistency(self):
        reports = run_ski_sweep(small_ski_config())
        det0 = next(r for r in reports if r.algorithm == "deterministic" and r.sigma == 0.0)
        assert det0.max_ratio <= bounds.det_consistency(0.5) + 1e-9
        rand0 = next(r for r in reports if r.algorithm == "randomized" and r.sigma == 0.0)
        assert rand0.max_ratio <= bounds.rand_consistency(LAMBDA_RAND_DEFAULT) + 1e-9

    def test_per_trial_guarantees(self):
        cfg = small_ski_config()
        opts, etas, ratios = ski_trials(cfg, 0, cfg.trials)
        entrants = experiments.ski_sweep_algorithms(cfg)
        for (label, policy), entrant_ratios in zip(entrants, ratios.transpose(1, 0, 2)):
            allowed = bounds.ski_guarantee(policy, cfg.b, etas, opts)  # [sigma, trial]
            assert np.all(entrant_ratios <= allowed + 1e-9), label
        # classical randomized, exact expectation
        karlin = ratios[:, 1]
        assert karlin.max() <= bounds.E_OVER_E_MINUS_1 + 1.0 / 100 + 1e-9

    def test_classical_rows_flat_in_sigma(self):
        reports = run_ski_sweep(small_ski_config())
        for label in ("break-even", "karlin"):
            means = [r.mean_ratio for r in reports if r.algorithm == label]
            assert max(means) - min(means) < 1e-12

    def test_sampled_mode_agrees_in_mean(self):
        exact = run_ski_sweep(small_ski_config(trials=4000))
        cfg = small_ski_config(trials=4000, sampled=True)
        sampled = run_ski_sweep(cfg)
        ex = next(r for r in exact if r.algorithm == "randomized" and r.sigma == 0.0)
        sa = next(r for r in sampled if r.algorithm == "randomized-sampled" and r.sigma == 0.0)
        _, _, ratios = ski_trials(cfg, 0, cfg.trials)
        se = ratios[0, 3].std() / math.sqrt(sa.count)  # sigma = 0, the lambda rule
        assert abs(sa.mean_ratio - ex.mean_ratio) < 4 * se

    def test_validation(self):
        with pytest.raises(ValueError):
            SkiSweepConfig(b=1)
        with pytest.raises(ValueError):
            SkiSweepConfig(sigma_grid=(3.0, 1.0))
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SkiSweepConfig(seed=-1)
        for bad in (
            dict(b=100.5), dict(b=True), dict(trials=2.5), dict(jobs=1.5), dict(seed=0.5)
        ):
            with pytest.raises(ValueError, match="must be an integer"):
                SkiSweepConfig(**bad)
        assert SkiSweepConfig(b=np.int64(20), trials=np.int64(3)).sigma_grid[-1] == 80.0

    def test_invalid_lambdas_rejected(self):
        with pytest.raises(ValueError):
            run_ski_sweep(small_ski_config(lambda_rand=0.005))
        with pytest.raises(ValueError):
            run_ski_sweep(small_ski_config(lambda_det=1.5))

    @pytest.mark.parametrize(
        "field, message",
        [("lambda_det", "deterministic rule"), ("lambda_rand", "randomized rule")],
    )
    def test_bool_lambda_rejected(self, field, message):
        # True is an int equal to 1, yet no lambda
        with pytest.raises(ValueError, match=f"{message} requires lambda in .*got True"):
            SkiSweepConfig(b=10, trials=2, **{field: True})

    @pytest.mark.parametrize(
        "sampled, grid",
        [
            (False, (0.0, 100.0, 200.0)),
            (True, (0.0, 100.0, 200.0)),
            (False, (150.0,)),
            (True, (150.0,)),
            (False, tuple(np.linspace(0.0, 400.0, 10_001))),  # the CLI's most points
            (True, tuple(np.linspace(0.0, 400.0, 10_001))),
        ],
        ids=["exact", "sampled", "one-point-exact", "one-point-sampled",
             "widest-exact", "widest-sampled"],
    )
    def test_block_split_changes_no_bit(self, sampled, grid):
        cfg = small_ski_config(trials=23, sampled=sampled, sigma_grid=grid)
        lo = 3
        whole = ski_trials(cfg, lo, cfg.trials)
        for trials_per_block in (1, 7):
            split = split_fill(ski_trials, cfg, lo, trials_per_block)
            for a, b in zip(whole, split):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("sampled", [False, True], ids=["exact", "sampled"])
    def test_one_cost_call_per_rule_per_block(self, monkeypatch, sampled):
        # each call prices both prediction branches of the block's trials,
        # y >= b and y < b, whatever the sigma grid
        cfg = small_ski_config(trials=30, sampled=sampled, sigma_grid=())  # the 41-point default
        points, per_block = len(cfg.sigma_grid), 10
        calls = []

        def recording_cost(policy, b, xs, ys, u=None):
            calls.append(np.shape(ys))
            return cost(policy, b, xs, ys, u)

        cost = experiments.ski_cost
        monkeypatch.setattr(experiments, "ski_cost", recording_cost)
        monkeypatch.setattr(experiments, "KERNEL_ENTRIES", per_block * points)
        run_ski_sweep(cfg)
        blocks = cfg.trials // per_block
        assert calls == [(2, 1)] * (4 * blocks)

    @pytest.mark.parametrize(
        "trials, workers, sampled",
        [(3, 4, False), (401, 3, False), (401, 3, True)],
        ids=["fewer-trials-than-workers", "uneven-split", "sampled"],
    )
    def test_workers_do_not_change_results(self, monkeypatch, trials, workers, sampled):
        cfg = dict(trials=trials, sampled=sampled)
        three_blocks(monkeypatch, trials, len(small_ski_config().sigma_grid))
        serial = run_ski_sweep(small_ski_config(**cfg))
        for jobs in sorted({2, 3, workers}):
            assert_same_reports(serial, run_ski_sweep(small_ski_config(jobs=jobs, **cfg)))

    def test_endpoint_monotonicity_for_prediction_rules(self):
        reports = run_ski_sweep(small_ski_config(trials=2000))
        top = 200.0
        for label in ("deterministic", "randomized"):
            first = next(r for r in reports if r.algorithm == label and r.sigma == 0.0)
            last = next(r for r in reports if r.algorithm == label and r.sigma == top)
            assert first.mean_ratio <= last.mean_ratio


class TestSchedulingSweep:
    def test_report_shape_and_sigma_zero(self):
        reports = run_scheduling_sweep(small_sched_config())
        assert len(reports) == 2 * 3
        spjf0 = next(r for r in reports if r.algorithm == "spjf" and r.sigma == 0.0)
        assert spjf0.mean_ratio == 1.0
        prr0 = next(r for r in reports if r.algorithm == "prr" and r.sigma == 0.0)
        assert prr0.max_ratio <= bounds.prr_perfect_bound(0.5) + 1e-9

    def test_rr_ignores_noise(self):
        cfg = small_sched_config()
        _, _, ratios = experiments._sched_block(cfg, 0, cfg.trials)
        assert np.array_equal(ratios[0, 0], ratios[1, 0])
        rr = [r for r in run_scheduling_sweep(cfg) if r.algorithm == "round-robin"]
        assert (rr[0].mean_ratio, rr[0].max_ratio) == (rr[1].mean_ratio, rr[1].max_ratio)

    def test_per_trial_guarantees(self):
        for overrides in ({}, dict(n=1), dict(n=2, trials=400), dict(fixed_jobs=True)):
            cfg = small_sched_config(**overrides)
            _, etas, ratios = experiments._sched_block(cfg, 0, cfg.trials)
            for k, (label, lam) in enumerate(sched_sweep_algorithms(cfg)):
                allowed = bounds.sched_guarantee(label, cfg.n, etas, lam)  # [sigma, trial]
                assert np.all(ratios[:, k] <= allowed + 1e-9), (overrides, label)

    def test_fixed_jobs_mode(self):
        cfg = small_sched_config(fixed_jobs=True)
        assert_same_reports(run_scheduling_sweep(cfg), run_scheduling_sweep(cfg))
        opts, _, ratios = experiments._sched_block(cfg, 0, cfg.trials)
        # the same true lengths underlie every trial: OPT and the RR ratios are constant
        assert opts.max() == opts.min()
        assert ratios[:, 0].max() - ratios[:, 0].min() == 0.0

    @pytest.mark.parametrize(
        "trials, workers, fixed",
        [(3, 4, False), (100, 3, False), (100, 3, True)],
        ids=["fewer-trials-than-workers", "uneven-split", "fixed-jobs"],
    )
    def test_workers_do_not_change_results(self, monkeypatch, trials, workers, fixed):
        cfg = dict(trials=trials, fixed_jobs=fixed)
        base = small_sched_config()
        three_blocks(monkeypatch, trials, (len(base.sigma_grid) + 1) * base.n)
        serial = run_scheduling_sweep(small_sched_config(**cfg))
        for jobs in sorted({2, 3, workers}):
            assert_same_reports(serial, run_scheduling_sweep(small_sched_config(jobs=jobs, **cfg)))

    @pytest.mark.parametrize("fixed", [False, True], ids=["drawn-jobs", "fixed-jobs"])
    def test_block_split_changes_no_bit(self, monkeypatch, fixed):
        cfg = small_sched_config(trials=23, fixed_jobs=fixed, sigma_grid=(0.0, 5.0, 40.0))
        lo, groups = 3, len(cfg.sigma_grid) + 1  # a round-robin row group, then one per sigma
        trials = cfg.trials - lo
        assert experiments.KERNEL_ENTRIES >= trials * groups * cfg.n
        calls = []  # job sets per prr_batch call

        def recording_kernel(lengths, predicted, lam):
            shapes = np.shape(lengths)[:-1], np.shape(predicted)[:-1], np.shape(lam)
            calls.append(math.prod(np.broadcast_shapes(*shapes)))
            return kernel(lengths, predicted, lam)

        kernel = experiments.prr_batch
        monkeypatch.setattr(experiments, "prr_batch", recording_kernel)
        job_sets = []  # per sequential_batch call; round-robin's group needs none

        def recording_sequential(lengths, keys):
            job_sets.append(math.prod(np.broadcast_shapes(np.shape(lengths), np.shape(keys))[:-1]))
            return sequential(lengths, keys)

        sequential = experiments.sequential_batch
        monkeypatch.setattr(experiments, "sequential_batch", recording_sequential)
        points = len(cfg.sigma_grid)

        whole = experiments._sched_block(cfg, lo, cfg.trials)
        assert calls == [groups * trials]
        assert job_sets == [trials, points * trials]  # the optima, then SPJF per sigma
        # (entries, kernel calls): one trial and one row group per call, two
        # row groups per call, one trial per call, four trials per call
        for entries, count in [
            (1, groups * trials),
            (2 * cfg.n, 2 * trials),
            (groups * cfg.n, trials),
            (4 * groups * cfg.n + 5, math.ceil(trials / 4)),
        ]:
            monkeypatch.setattr(experiments, "KERNEL_ENTRIES", entries)
            calls.clear()
            job_sets.clear()
            per_block = max(1, entries // (groups * cfg.n))  # the sweep's blocks
            split = split_fill(experiments._sched_block, cfg, lo, per_block)
            for a, b in zip(whole, split):
                assert a.tobytes() == b.tobytes()
            assert len(calls) == count
            assert sum(job_sets) == (points + 1) * trials
            assert sum(calls) == groups * trials
            assert all(sets * cfg.n <= max(entries, cfg.n) for sets in calls)

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(st.sampled_from((0, DEFAULT_SEED, 2**128 + 1)), st.integers(0, 2**160)),
        st.integers(1, 60),
        st.one_of(st.sampled_from((1.1, 3.0)), st.floats(1.01, 8.0)),
        st.integers(0, 50),
        st.integers(1, 8),
        st.booleans(),
    )
    def test_block_matches_generators_drawn_in_turn(self, seed, n, alpha, lo, trials, fixed):
        # the block's draws through the engine against today's per-trial loop
        # of one generator per trial, fed to the same kernels
        cfg = SchedSweepConfig(n=n, alpha=alpha, trials=lo + trials, fixed_jobs=fixed,
                               sigma_grid=(0.0, 2.0, 30.0), seed=seed)
        got = experiments._sched_block(cfg, lo, cfg.trials)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "sched_trial_draws", sched_draws_oracle)
            expected = experiments._sched_block(cfg, lo, cfg.trials)
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()

    def test_one_worker_per_trial_at_most(self, monkeypatch):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        run_scheduling_sweep(small_sched_config(trials=5, jobs=8))  # one block: no pool
        assert started == []
        base = small_sched_config()
        per_trial = (len(base.sigma_grid) + 1) * base.n
        monkeypatch.setattr(experiments, "KERNEL_ENTRIES", 2 * per_trial)  # blocks of 2 trials
        pooled = run_scheduling_sweep(small_sched_config(trials=5, jobs=8))
        assert started == [3]  # min(jobs, blocks)
        assert_same_reports(run_scheduling_sweep(small_sched_config(trials=5)), pooled)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_scheduling_sweep(small_sched_config(n=0))
        with pytest.raises(ValueError):
            run_scheduling_sweep(small_sched_config(lambda_sched=1.0))
        with pytest.raises(ValueError):
            SchedSweepConfig(trials=0)
        with pytest.raises(ValueError):
            SchedSweepConfig(sigma_grid=(3.0, 1.0))
        for bad in (dict(n=3.5), dict(n=True), dict(trials=2.5), dict(jobs=1.5)):
            with pytest.raises(ValueError, match="must be an integer"):
                SchedSweepConfig(**bad)
        for alpha in (1.0, 0.5, math.inf, math.nan, "2", Fraction(3, 2), True):
            with pytest.raises(ValueError, match="alpha must be finite and exceed 1"):
                SchedSweepConfig(alpha=alpha)
        with pytest.raises(ValueError, match="n must be >= 1"):  # n is checked before alpha
            SchedSweepConfig(n=0, alpha=1.0)

    def test_float32_alpha_builds_the_float64_grid(self):
        alpha = np.float32(1.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = SchedSweepConfig(alpha=alpha).sigma_grid
        assert grid == SchedSweepConfig(alpha=float(alpha)).sigma_grid
        assert all(type(sigma) is float for sigma in grid)


@pytest.mark.parametrize(
    "make_config", [small_ski_config, small_sched_config], ids=["ski", "sched"]
)
@pytest.mark.parametrize(
    "grid", [(math.nan,), (math.inf,), (0.0, math.nan)], ids=["nan", "inf", "zero-then-nan"]
)
def test_non_finite_sigma_rejected(make_config, grid):
    with pytest.raises(ValueError, match="finite"):
        make_config(sigma_grid=grid)


@pytest.mark.parametrize(
    "make_config", [small_ski_config, small_sched_config], ids=["ski", "sched"]
)
def test_string_sigma_grid_rejected(make_config):
    # read one character at a time, "123" would be the grid (1.0, 2.0, 3.0)
    entries = [("0",), (True,), (np.True_,), (Fraction(1, 2),), (0.0, "1")]
    for grid in ["123", "0:4:1", b"12"] + entries:
        with pytest.raises(ValueError, match="sigma grid must be a sequence of numbers"):
            make_config(sigma_grid=grid)


SWEEPS = pytest.mark.parametrize(
    "make_config, run, fill",
    [
        (small_ski_config, run_ski_sweep, ski_trials),
        (small_sched_config, run_scheduling_sweep, experiments._sched_block),
    ],
    ids=["ski", "sched"],
)


def assert_reports_match_arrays(reports, etas, ratios, rtol, ratio_rtol=None):
    """Reports in (sigma, entrant) order: means within ``rtol`` of numpy's, maxima exact.

    ``ratio_rtol``, if given, replaces ``rtol`` for the mean ratios.
    """
    ratio_rtol = rtol if ratio_rtol is None else ratio_rtol
    reports = iter(reports)
    for s, row in enumerate(ratios):
        for entrant_ratios in row:
            report = next(reports)
            assert report.count == entrant_ratios.size
            for mean, expected, tolerance in [
                (report.mean_ratio, np.mean(entrant_ratios), ratio_rtol),
                (report.mean_eta, np.mean(etas[s]), rtol),
            ]:
                assert abs(mean - expected) <= tolerance * expected
            assert report.max_ratio == entrant_ratios.max()
    assert next(reports, None) is None


@SWEEPS
def test_one_block_means_are_numpy_means(make_config, run, fill):
    cfg = make_config()  # both small configs fit one block
    _, etas, ratios = fill(cfg, 0, cfg.trials)
    # a ski block adds its ratios by switch index, in another order than
    # numpy's sum (see test_ski_block_matches_dense_oracle); every other
    # mean is numpy's bit for bit
    ratio_rtol = 2 * cfg.trials * EPS if run is run_ski_sweep else 0.0
    assert_reports_match_arrays(run(cfg), etas, ratios, rtol=0.0, ratio_rtol=ratio_rtol)


@SWEEPS
@settings(max_examples=30, deadline=None)
@given(trials=st.integers(1, 60), entries=st.integers(1, 1200))
def test_streamed_stats_match_numpy(make_config, run, fill, trials, entries):
    cfg = make_config(trials=trials)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "KERNEL_ENTRIES", entries)  # blocks of 1 to all trials
        _, etas, ratios = fill(cfg, 0, trials)
        # any two orders of summing n non-negative terms agree within about
        # 2n units of roundoff of the sum
        rtol = 2 * trials * EPS
        assert_reports_match_arrays(run(cfg), etas, ratios, rtol)


WIDEST_GRID = tuple(np.linspace(0.0, 400.0, 10_001))  # the CLI's most points


@pytest.mark.parametrize(
    "overrides",
    [
        dict(b=20, trials=300, seed=5),  # the small pinned CLI sweeps
        dict(b=20, trials=300, seed=5, sampled=True),
        dict(b=20, trials=300, seed=5, sampled=True, lambda_rand=1.0),
        dict(b=20, trials=300, seed=2**32),
        dict(b=20, trials=300, seed=2**130, sampled=True),
        dict(trials=10_000),  # the default sweep
        dict(b=2, trials=3000, lambda_rand=1.0),
        dict(b=2, trials=3000, lambda_rand=0.75, sampled=True),
        dict(b=B_MAX, trials=3000),
        dict(b=B_MAX, trials=3000, sampled=True),
        dict(trials=52, sigma_grid=WIDEST_GRID),
        dict(trials=52, sigma_grid=WIDEST_GRID, sampled=True),
        dict(trials=2000, sigma_grid=(0.0, 50.0, 50.0, 100.0, 100.0, 150.0)),
        dict(trials=2000, sigma_grid=(0.0, 1e-300, 1e299, 1e300)),
    ],
    ids=[
        "pinned", "pinned-sampled", "pinned-lambda-1", "seed-2^32", "seed-2^130-sampled",
        "default", "b-2", "b-2-sampled", "b-max", "b-max-sampled", "widest", "widest-sampled",
        "repeated-points", "extreme-sigmas",
    ],
)
def test_ski_block_matches_dense_oracle(overrides):
    cfg = SkiSweepConfig(**overrides)
    lo, trials = 3, cfg.trials - 3
    got, dense = experiments._ski_block(cfg, lo, cfg.trials), block_stats(cfg, lo, cfg.trials)
    assert got.top.tobytes() == dense.top.tobytes()
    assert got.eta_sums.tobytes() == dense.eta_sums.tobytes()
    # the ratios are the oracle's bit for bit, summed in another order
    assert got.ratio_sums.shape == dense.ratio_sums.shape
    bound = 2 * trials * EPS * dense.ratio_sums
    assert np.all(np.abs(got.ratio_sums - dense.ratio_sums) <= bound)


@st.composite
def switch_cases(draw):
    """b, trials (x, z) and an ascending grid that holds the trials' float edges.

    The grid takes each trial's real threshold (b - x) / z and its float
    neighbours, where x + sigma z >= b in float and sigma >= (b - x) / z
    part, besides 0, 1e300, repeated points and x + sigma z = b exactly.
    """
    b = draw(st.integers(2, B_MAX))
    directions = st.one_of(
        st.sampled_from([0.0, -0.0, 0.5, -0.5, 5e-324, -5e-324]), st.floats(-40.0, 40.0)
    )
    days = st.one_of(st.just(b), st.integers(1, 4 * b))
    trials = draw(st.lists(st.tuples(days, directions), min_size=1, max_size=8))
    edges = [0.0, 1e300]
    for x, z in trials:
        if x < b:
            edges.append(2.0 * (b - x))  # z = 0.5 lands on b exactly
        threshold = (b - x) / z if z else -1.0
        if 0 <= threshold <= 1e300:
            for ulps in range(-2, 3):
                edges.append(min(1e300, threshold * (1 + ulps * EPS)))
    grid = draw(st.lists(st.one_of(st.sampled_from(edges), st.floats(0.0, 1e300)), min_size=1))
    xs, zs = map(np.array, zip(*trials))
    return b, xs, zs, np.array(sorted(grid + grid[:draw(st.integers(0, len(grid)))]))


@settings(max_examples=300, deadline=None)
@given(case=switch_cases())
def test_switch_index_is_the_dense_branch_test(case):
    b, xs, zs, grid = case
    _, keys = experiments._error_sums(xs, zs, grid, b)
    big = xs + grid[:, None] * zs >= b  # [sigma, trial], the dense sweep's test
    switched = np.arange(grid.size)[:, None] >= keys
    assert np.array_equal(big, np.where(zs < 0, ~switched, switched))


@pytest.mark.parametrize(
    "make_config", [small_ski_config, small_sched_config], ids=["ski", "sched"]
)
def test_sigma_above_limit_rejected(make_config):
    # truth + sigma * direction must stay finite; at 1e308 a sched sweep's
    # predictions overflowed to inf inside the kernel
    assert make_config(sigma_grid=(0.0, 1e300)).sigma_grid[-1] == 1e300
    for grid in ((0.0, 1e301), (1e308,)):
        with pytest.raises(ValueError, match=r"in \[0, 1e\+300\]"):
            make_config(sigma_grid=grid)
    assert experiments.SIGMA_MAX == 1e300


class TestConfigLimits:
    """Library callers meet the CLI's size limits; these tests only build configs."""

    @pytest.mark.parametrize(
        "cls, field, limit",
        [
            (SkiSweepConfig, "b", B_MAX),
            (SkiSweepConfig, "jobs", JOBS_MAX),
            (SkiSweepConfig, "trials", TRIALS_MAX),
            (SchedSweepConfig, "n", N_MAX),
            (SchedSweepConfig, "jobs", JOBS_MAX),
            (SchedSweepConfig, "trials", TRIALS_MAX),
        ],
    )
    def test_count_above_limit(self, cls, field, limit):
        assert getattr(cls(**{field: limit}), field) == limit
        with pytest.raises(ValueError, match=f"{field} = {limit + 1} exceeds the limit of {limit}"):
            cls(**{field: limit + 1})

    def test_ratio_count_above_limit(self):
        # 42 points x 4 algorithms: 976,190 trials stay within 41 * 4 * 10**6 ratios
        grid = tuple(float(s) for s in range(42))
        assert SkiSweepConfig(trials=976_190, sigma_grid=grid).trials == 976_190
        with pytest.raises(ValueError, match=f"exceeds the limit of {SWEEP_MAX_RATIOS} ratios"):
            SkiSweepConfig(trials=976_191, sigma_grid=grid)

    def test_fixed_jobs_stream_is_above_every_trial_index(self):
        assert experiments._FIXED_JOBS_STREAM > TRIALS_MAX


class TestConfigTypes:
    def test_each_config_rejects_the_other_sweeps_fields(self):
        with pytest.raises(TypeError):
            SchedSweepConfig(b=5)
        with pytest.raises(TypeError):
            SkiSweepConfig(n=5)

    # a truthy string or a 1 would switch the mode on, and the config would
    # compare unequal to the True config whose output it gives
    @pytest.mark.parametrize("value", ["false", "no", 1, None])
    @pytest.mark.parametrize(
        "config, field",
        [(SkiSweepConfig, "sampled"), (SchedSweepConfig, "fixed_jobs")],
        ids=["sampled", "fixed_jobs"],
    )
    def test_flags_must_be_bools(self, config, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a bool, got {value!r}$"):
            config(**{field: value})

    @pytest.mark.parametrize(
        "make_config", [small_ski_config, small_sched_config], ids=["ski", "sched"]
    )
    def test_ints_past_float64_rejected(self, make_config):
        # float() of 10**400 raised OverflowError; 2**64 stays a float64
        assert make_config(sigma_grid=(0, 2**64)).sigma_grid == (0.0, 2.0**64)
        for grid in ((10**400,), (0.0, -(10**400))):
            with pytest.raises(ValueError, match=r"in \[0, 1e\+300\], got -?1000000"):
                make_config(sigma_grid=grid)

    def test_alpha_past_float64_rejected(self):
        assert small_sched_config(alpha=2**64).alpha == 2**64
        with pytest.raises(ValueError, match="^alpha must be finite and exceed 1, got 1000000"):
            small_sched_config(alpha=10**400)

    def test_each_runner_rejects_the_other_sweeps_config(self):
        with pytest.raises(TypeError, match="SchedSweepConfig"):
            run_scheduling_sweep(SkiSweepConfig(trials=2))
        with pytest.raises(TypeError, match="SkiSweepConfig"):
            run_ski_sweep(SchedSweepConfig(trials=2))


@pytest.mark.parametrize(
    "make_config, run",
    [(small_ski_config, run_ski_sweep), (small_sched_config, run_scheduling_sweep)],
    ids=["ski", "sched"],
)
class TestEqualConfigsEqualBytes:
    """Two configs compare (and hash) equal iff their outputs are byte-identical."""

    def test_negative_zero_sigma_is_stored_as_zero(self, make_config, run):
        signed = make_config(sigma_grid=(-0.0, 1.0), trials=20)
        plain = make_config(sigma_grid=(0.0, 1.0), trials=20)
        assert signed == plain and hash(signed) == hash(plain)
        assert math.copysign(1.0, signed.sigma_grid[0]) == 1.0
        for fmt in cli.SWEEP_FORMATS:  # -0.0 printed as -0.0000 in CSV and -0.0 in JSON
            assert cli._render_sweep(run(signed), fmt) == cli._render_sweep(run(plain), fmt)

    def test_worker_count_takes_no_part_in_equality(self, make_config, run):
        one, two = make_config(trials=20), make_config(trials=20, jobs=2)
        assert one == two and hash(one) == hash(two)
        assert two.jobs == 2 and "jobs=2" in repr(two)
        assert cli._render_sweep(run(one), "csv") == cli._render_sweep(run(two), "csv")
        assert cli._field_schema(type(one))["jobs"][1] == 1  # --help still shows the default


class TestTradeoffCurve:
    """The robustness/consistency pairs ``verify-bounds --curve-out`` prints, from ``bounds``."""

    def test_classical_endpoint(self):
        assert bounds.det_robustness(1.0) == pytest.approx(2.0)
        assert bounds.det_consistency(1.0) == pytest.approx(2.0)
        # as b grows both randomized coordinates approach e/(e-1)
        assert bounds.rand_robustness(10**7, 1.0) == pytest.approx(
            bounds.E_OVER_E_MINUS_1, abs=1e-3
        )
        assert bounds.rand_consistency(1.0) == pytest.approx(bounds.E_OVER_E_MINUS_1, abs=1e-12)

    def test_half_lambda_row(self):
        assert bounds.det_robustness(0.5) == pytest.approx(3.0)
        assert bounds.det_consistency(0.5) == pytest.approx(1.5)

    def test_dominance_at_equal_robustness(self):
        # for each deterministic point, some randomized lambda has no worse
        # robustness and strictly better consistency
        b = 100
        fine = np.linspace(1.0 / b + 1e-9, 1.0, 4000)
        rand_points = [(bounds.rand_robustness(b, l), bounds.rand_consistency(l)) for l in fine]
        for lam in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            det = (bounds.det_robustness(lam), bounds.det_consistency(lam))
            ok = any(rob <= det[0] and con < det[1] for rob, con in rand_points)
            assert ok, lam

    def test_out_of_range_lambda_rejected(self):
        with pytest.raises(ValueError):
            bounds.rand_robustness(100, 0.005)
