"""Generator tests: ranges, moments, determinism, seed-stream separation."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinepred.experiments import SchedSweepConfig, SkiSweepConfig
from onlinepred.workloads import derived_rngs, gen_pareto_lengths, gen_ski_days


def derived_rng(master_seed: int, key: int) -> np.random.Generator:
    """The per-trial stream by definition: numpy's own SeedSequence of (master seed, key)."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, key)))


class TestSkiInstanceGenerator:
    def test_range_and_mean(self):
        rng = np.random.default_rng(0)
        xs = np.array([gen_ski_days(100, rng) for _ in range(100_000)])
        assert xs.min() >= 1 and xs.max() <= 400
        assert abs(xs.mean() - 200.5) / 200.5 < 0.01

    def test_small_b_range(self):
        rng = np.random.default_rng(1)
        xs = {gen_ski_days(2, rng) for _ in range(2000)}
        assert xs == set(range(1, 9))

    def test_reproducible(self):
        a = [gen_ski_days(50, np.random.default_rng(42)) for _ in range(100)]
        b = [gen_ski_days(50, np.random.default_rng(42)) for _ in range(100)]
        assert a == b
        assert all(type(x) is int for x in a)

    def test_rejects_small_b(self):
        # gen_ski_days checks nothing; the ski sweep config owns the b >= 2 check
        for b in (1, 0, -3):
            with pytest.raises(ValueError, match="b must be >= 2"):
                SkiSweepConfig(b=b)


class TestParetoJobs:
    def test_all_lengths_at_least_one(self):
        lengths = gen_pareto_lengths(1.1, 200, np.random.default_rng(5))
        assert lengths.shape == (200,) and lengths.dtype == np.float64
        assert lengths.min() >= 1.0

    def test_fixed_seed_identical(self):
        a = gen_pareto_lengths(1.1, 50, np.random.default_rng(6))
        b = gen_pareto_lengths(1.1, 50, np.random.default_rng(6))
        assert np.array_equal(a, b)

    def test_median_of_per_set_means(self):
        # frozen from the sampling oracle: scale-1 Pareto(1.1), n=50 gives a
        # median per-set mean near 4.5 (heavy right tail, so a wide band)
        means = [gen_pareto_lengths(1.1, 50, rng).mean() for rng in derived_rngs(99, range(600))]
        assert 2.0 <= np.median(means) <= 30.0

    def test_heavy_tail_present(self):
        maxima = [gen_pareto_lengths(1.1, 50, rng).max() for rng in derived_rngs(98, range(200))]
        assert np.median(maxima) > 5.0  # the tail dominates most sets

    def test_validation(self):
        # gen_pareto_lengths checks nothing; the scheduling sweep config owns these checks
        for alpha in (1.0, math.inf):
            with pytest.raises(ValueError, match="alpha must be finite and exceed 1"):
                SchedSweepConfig(alpha=alpha)
        with pytest.raises(ValueError, match="n must be >= 1"):
            SchedSweepConfig(n=0)
        for n in (3.5, True):  # gen_pareto_lengths would fail inside numpy
            with pytest.raises(ValueError, match="must be an integer"):
                SchedSweepConfig(n=n)


class TestDerivedStreams:
    def test_distinct_trials_distinct_draws(self):
        draws = {rng.integers(0, 2**62) for rng in derived_rngs(7, range(200))}
        assert len(draws) == 200

    def test_same_key_same_stream(self):
        a = next(derived_rngs(7, [3])).standard_normal(10)
        b = next(derived_rngs(7, [3])).standard_normal(10)
        assert np.array_equal(a, b)


# master seeds at every word-count boundary, up to entropy longer than the pool
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96, 2**128 - 1, 2**128, 2**130,
              2**256 - 1)
KEYS = st.integers(0, 2**32 - 1)


class TestBatchedStreams:
    """derived_rngs against numpy's own SeedSequence, one key at a time."""

    @staticmethod
    def assert_matches_reference(seed, keys):
        got = list(derived_rngs(seed, keys))
        assert len(got) == len(keys)
        for key, rng in zip(keys, got):
            ref = derived_rng(seed, key)
            assert rng.bit_generator.state == ref.bit_generator.state
            assert rng.integers(0, 2**63) == ref.integers(0, 2**63)
            assert rng.standard_normal() == ref.standard_normal()
            assert rng.random() == ref.random()

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**256)),
        st.lists(st.one_of(st.sampled_from((0, 2**32 - 1)), KEYS), max_size=6),
    )
    def test_matches_seed_sequence(self, seed, keys):
        self.assert_matches_reference(seed, keys)

    @pytest.mark.parametrize("seed", EDGE_SEEDS, ids=lambda seed: f"{seed.bit_length()}-bit")
    def test_edge_seeds_and_keys(self, seed):
        self.assert_matches_reference(seed, [0, 1, 2**31, 2**32 - 1])

    def test_chunk_boundaries_keep_key_order(self):
        keys = range(4090, 4100)  # straddles the first chunk of 4096 keys
        got = [rng.random() for rng in derived_rngs(271828, range(4100))][4090:]
        assert got == [derived_rng(271828, k).random() for k in keys]

    def test_empty_keys_yield_nothing(self):
        assert list(derived_rngs(5, [])) == []
        assert list(derived_rngs(5, range(0))) == []
        assert list(derived_rngs(5, np.array([], dtype=np.int64))) == []

    @pytest.mark.parametrize(
        "keys",
        [[-1], [2**32], [0, 2**40], [1.5], np.array([0.0]), [True], [2**70], [[1, 2]]],
    )
    def test_rejects_keys_outside_one_word(self, keys):
        with pytest.raises(ValueError):
            derived_rngs(5, keys)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            derived_rngs(-1, [0])


def test_package_import_leaves_numpy_random_unloaded(package_env):
    # numpy.random loads on first use, not while the package and its CLI
    # parser are set up, so start-up cost excludes it
    code = (
        "import sys, onlinepred, onlinepred.cli; onlinepred.cli.build_parser(); "
        "sys.exit('numpy.random' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=package_env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
