"""Generator tests: ranges, moments, determinism, seed-stream separation."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinepred import workloads
from onlinepred.experiments import SchedSweepConfig, SkiSweepConfig
from onlinepred.ski_rental import B_MAX
from onlinepred.workloads import derived_rngs, gen_pareto_lengths, gen_ski_days, ski_trial_draws

# PCG64's LCG multiplier; its inverse mod 2^128 steps the state back
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def derived_rng(master_seed: int, key: int) -> np.random.Generator:
    """The per-trial stream by definition: numpy's own SeedSequence of (master seed, key)."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, key)))


def emitting(word: int) -> np.random.Generator:
    """A generator whose next 64-bit output is ``word``.

    PCG64 steps its state, then outputs XSL-RR of it: the state's high half
    xor its low half, rotated by the top 6 bits.  A post-step state whose
    high half is zero therefore outputs its low half, ``word``; the state to
    set is the one that steps to it, (word - inc) / multiplier mod 2^128.
    """
    inc = 1
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": (word - inc) * pow(PCG_MULT, -1, 1 << 128) % (1 << 128), "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


class TestZigguratTables:
    """The embedded ziggurat layer widths and fast-path bounds against numpy's sampler.

    ``standard_normal`` reads one word: layer idx is its low byte, then a
    sign bit, then 52 bits rabs.  On the fast path it returns +-rabs * w[idx].
    """

    def test_emitting_outputs_the_word(self):
        for word in (0, 1, 2**63 + 12345, 2**64 - 1):
            assert emitting(word).bit_generator.random_raw() == word

    def test_embedded_widths_are_numpys(self):
        # rabs = 1 returns w[idx] itself; layer 1 always takes the slow path,
        # which still returns x = w[1] here
        for layer in range(256):
            assert emitting(1 << 9 | layer).standard_normal() == workloads._ZIG_W[layer]
        assert workloads._ZIG_W[1] == 4.779330175727737e-17

    def test_bounds_stay_on_numpys_fast_path(self):
        # the largest rabs the bound admits: numpy reads one word and returns
        # fl(rabs * w), so every smaller rabs takes its fast path too
        assert workloads._ZIG_BOUND[1] == 0
        for layer in set(range(256)) - {1}:
            rabs = int(workloads._ZIG_BOUND[layer]) - 1
            word = rabs << 9 | layer
            rng = emitting(word)
            assert rng.standard_normal() == float(rabs) * workloads._ZIG_W[layer]
            assert rng.bit_generator.state["state"]["state"] == word


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
    """derived_rngs against numpy's own SeedSequence, and ski_trial_draws against
    derived_rngs, one key at a time."""

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
        with pytest.raises(ValueError):
            ski_trial_draws(-1, 100, [0], 0)

    @staticmethod
    def assert_ski_draws_match(seed, b, keys, uniforms):
        days, directions, us = ski_trial_draws(seed, b, keys, uniforms)
        ref_days, ref_directions, ref_us = [], [], []
        for rng in derived_rngs(seed, keys):
            ref_days.append(gen_ski_days(b, rng))
            ref_directions.append(rng.standard_normal())
            ref_us.append(rng.random(uniforms))
        assert days.dtype == np.int64 and days.tolist() == ref_days
        # compared as bits, so a sign of zero counts too
        assert directions.view(np.uint64).tolist() == np.array(ref_directions).view(np.uint64).tolist()
        ref_us = np.array(ref_us).reshape(len(ref_days), uniforms)
        assert us.shape == ref_us.shape and us.view(np.uint64).tolist() == ref_us.view(np.uint64).tolist()

    @pytest.mark.parametrize("uniforms", [0, 2])
    @pytest.mark.parametrize("b", [2, 100, B_MAX])
    @pytest.mark.parametrize("seed", EDGE_SEEDS, ids=lambda seed: f"{seed.bit_length()}-bit")
    def test_ski_draws_edge_seeds(self, seed, b, uniforms):
        self.assert_ski_draws_match(seed, b, [0, 1, 2**31, 2**32 - 1], uniforms)

    @pytest.mark.parametrize(
        "keys",
        [[], range(0), np.array([], dtype=np.int64), [2**32 - 1], [9, 3, 3, 2**32 - 1, 0, 70000],
         np.arange(10, 40, 3), range(4100)],  # the last crosses the 4096-key chunk boundary
    )
    def test_ski_draws_key_shapes(self, keys):
        self.assert_ski_draws_match(271828, 100, keys, 2)

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**256)),
        st.one_of(st.sampled_from((2, 100, B_MAX)), st.integers(2, B_MAX)),
        st.lists(st.one_of(st.sampled_from((0, 2**32 - 1)), KEYS), max_size=6),
        st.integers(0, 3),
    )
    def test_ski_draws_match_derived_rngs(self, seed, b, keys, uniforms):
        self.assert_ski_draws_match(seed, b, keys, uniforms)

    def test_ski_draws_fall_back_only_off_the_fast_paths(self, monkeypatch):
        # a key falls back when Lemire's leftover on the low half of word 0 is
        # below 4b, or when word 1's rabs is not below its layer's bound
        seed, b, keys = 271828, B_MAX, np.arange(20_000)
        lemire, ziggurat = set(), set()
        for key, rng in zip(keys.tolist(), derived_rngs(seed, keys)):
            day_word, normal_word = rng.bit_generator.random_raw(2).tolist()
            if (day_word & 0xFFFFFFFF) * 4 * b & 0xFFFFFFFF < 4 * b:
                lemire.add(key)
            if normal_word >> 9 & (1 << 52) - 1 >= workloads._ZIG_BOUND[normal_word & 0xFF]:
                ziggurat.add(key)
        assert len(lemire) > 5 and len(ziggurat) > 100
        redrawn = []

        def recording(master_seed, keys):
            redrawn.extend(keys.tolist())
            return derived_rngs(master_seed, keys)

        monkeypatch.setattr(workloads, "derived_rngs", recording)
        self.assert_ski_draws_match(seed, b, keys, 2)
        assert redrawn == sorted(lemire | ziggurat)


def test_package_import_leaves_numpy_random_unloaded(package_env):
    # numpy.random loads on first use, not while the package and its CLI
    # parser are set up, so start-up cost excludes it
    code = (
        "import sys, onlinepred, onlinepred.cli; onlinepred.cli.build_parser(); "
        "sys.exit('numpy.random' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=package_env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
