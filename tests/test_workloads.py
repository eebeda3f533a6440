"""Generator tests: ranges, moments, determinism, seed-stream separation."""

import math

import numpy as np
import pytest

from onlinepred.workloads import (
    ParetoJobModel,
    derived_rng,
    gen_pareto_jobs,
    gen_ski_instance,
)


class TestSkiInstanceGenerator:
    def test_range_and_mean(self):
        rng = np.random.default_rng(0)
        xs = np.array([gen_ski_instance(100, rng).x for _ in range(100_000)])
        assert xs.min() >= 1 and xs.max() <= 400
        assert abs(xs.mean() - 200.5) / 200.5 < 0.01

    def test_small_b_range(self):
        rng = np.random.default_rng(1)
        xs = {gen_ski_instance(2, rng).x for _ in range(2000)}
        assert xs == set(range(1, 9))

    def test_reproducible(self):
        a = [gen_ski_instance(50, np.random.default_rng(42)).x for _ in range(100)]
        b = [gen_ski_instance(50, np.random.default_rng(42)).x for _ in range(100)]
        assert a == b

    def test_rejects_small_b(self):
        with pytest.raises(ValueError):
            gen_ski_instance(1, np.random.default_rng(0))


class TestParetoJobs:
    def test_all_lengths_at_least_one(self):
        model = ParetoJobModel(alpha=1.1, n=200)
        rng = np.random.default_rng(5)
        jobs = gen_pareto_jobs(model, rng)
        assert min(j.length for j in jobs.jobs) >= 1.0

    def test_fixed_seed_identical(self):
        model = ParetoJobModel(alpha=1.1, n=50)
        a = gen_pareto_jobs(model, np.random.default_rng(6))
        b = gen_pareto_jobs(model, np.random.default_rng(6))
        assert [j.length for j in a.jobs] == [j.length for j in b.jobs]

    def test_median_of_per_set_means(self):
        # frozen from the sampling oracle: scale-1 Pareto(1.1), n=50 gives a
        # median per-set mean near 4.5 (heavy right tail, so a wide band)
        model = ParetoJobModel(alpha=1.1, n=50)
        means = []
        for s in range(600):
            jobs = gen_pareto_jobs(model, derived_rng(99, s))
            means.append(np.mean([j.length for j in jobs.jobs]))
        assert 2.0 <= np.median(means) <= 30.0

    def test_heavy_tail_present(self):
        model = ParetoJobModel(alpha=1.1, n=50)
        maxima = [
            max(j.length for j in gen_pareto_jobs(model, derived_rng(98, s)).jobs)
            for s in range(200)
        ]
        assert np.median(maxima) > 5.0  # the tail dominates most sets

    def test_validation(self):
        with pytest.raises(ValueError):
            ParetoJobModel(alpha=1.0)
        with pytest.raises(ValueError):
            ParetoJobModel(alpha=math.inf)
        with pytest.raises(ValueError):
            ParetoJobModel(alpha=1.1, n=0)
        for n in (3.5, True):  # gen_pareto_jobs would fail inside numpy
            with pytest.raises(ValueError):
                ParetoJobModel(alpha=1.1, n=n)


class TestDerivedStreams:
    def test_distinct_trials_distinct_draws(self):
        draws = {derived_rng(7, t).integers(0, 2**62) for t in range(200)}
        assert len(draws) == 200

    def test_same_key_same_stream(self):
        a = derived_rng(7, 3).standard_normal(10)
        b = derived_rng(7, 3).standard_normal(10)
        assert np.array_equal(a, b)

    def test_key_order_matters(self):
        a = derived_rng(7, 1, 2).standard_normal()
        b = derived_rng(7, 2, 1).standard_normal()
        assert a != b
