"""Generator tests: ranges, moments, determinism, seed-stream separation."""

import functools
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


def emitting(word: int, then: int = None) -> np.random.Generator:
    """A generator whose next 64-bit output is ``word``, and the one after ``then``.

    PCG64 steps its state, then outputs XSL-RR of it: the state's high half
    xor its low half, rotated by the top 6 bits.  A post-step state whose
    high half is zero therefore outputs its low half, ``word``; the state to
    set is the one that steps to it, (word - inc) / multiplier mod 2^128.  The
    increment inc is 1, or the one that steps state ``word`` to state ``then``.
    """
    inc = 1 if then is None else (then - word * PCG_MULT) % (1 << 128)
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": (word - inc) * pow(PCG_MULT, -1, 1 << 128) % (1 << 128), "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def normal_reads(rng, words: int) -> bool:
    """Whether ``rng.standard_normal()`` on an `emitting` generator reads just ``words`` words.

    The state after the last emitted word is that word itself.
    """
    last = rng.bit_generator.state["state"]["state"]
    for _ in range(words):
        last = (last * PCG_MULT + rng.bit_generator.state["state"]["inc"]) % (1 << 128)
    rng.standard_normal()
    return rng.bit_generator.state["state"]["state"] == last


def wedge_accepts(f, layer: int, x: float, m: int) -> bool:
    """numpy's wedge test of layer ``layer`` >= 1 for x, under the fi table ``f``,
    with the uniform m * 2^-53."""
    return (f[layer - 1] - f[layer]) * (m * 2.0**-53) + f[layer] < math.exp(-0.5 * x * x)


@functools.lru_cache(maxsize=None)
def wedge_probes():
    """(layer, rabs, m) per layer >= 1 and wedge height: the wedge test of
    x = rabs * w[layer] accepts the uniform (m - 1) * 2^-53 and rejects m * 2^-53.

    The heights are 1% and 99% of the way from fi[layer] to fi[layer - 1], so
    the probes of every layer sit next to both of its fi entries.
    """
    f, w, k = (table.tolist() for table in (workloads._ZIG_F, workloads._ZIG_W, workloads._ZIG_K))
    probes = []
    for layer in range(1, 256):
        for frac in (0.01, 0.99):
            height = f[layer] + (f[layer - 1] - f[layer]) * frac
            lo, hi = k[layer], 1 << 52  # the largest rabs whose density is >= height
            while hi - lo > 1:
                mid = (lo + hi) // 2
                above = math.exp(-0.5 * (mid * w[layer]) ** 2) >= height
                lo, hi = (mid, hi) if above else (lo, mid)
            x, lo_m, hi_m = lo * w[layer], 0, 1 << 53
            while hi_m - lo_m > 1:
                mid = (lo_m + hi_m) // 2
                lo_m, hi_m = (mid, hi_m) if wedge_accepts(f, layer, x, mid) else (lo_m, mid)
            probes.append((layer, lo, hi_m))
    return probes


class TestZigguratTables:
    """The embedded ziggurat tables against numpy's sampler.

    ``standard_normal`` reads one word: layer idx is its low byte, then a
    sign bit, then 52 bits rabs.  It returns +-rabs * w[idx] at once iff rabs
    < k[idx]; otherwise, for idx >= 1, it reads a uniform U and keeps x iff
    (fi[idx - 1] - fi[idx]) * U + fi[idx] < exp(-x^2 / 2).
    """

    def test_emitting_outputs_the_word(self):
        for word in (0, 1, 2**63 + 12345, 2**64 - 1):
            assert emitting(word).bit_generator.random_raw() == word
            assert emitting(7, word).bit_generator.random_raw(2).tolist() == [7, word]

    def test_embedded_widths_are_numpys(self):
        # rabs = 1 returns w[idx] itself; layer 1 always takes the slow path,
        # which still returns x = w[1] here
        for layer in range(256):
            assert emitting(1 << 9 | layer).standard_normal() == workloads._ZIG_W[layer]
        assert workloads._ZIG_W[1] == 4.779330175727737e-17

    def test_embedded_bounds_are_numpys(self):
        # rabs = k - 1 returns fl(rabs * w) from one word and rabs = k reads
        # more, so k is numpy's exactly; layer 1's k is 0
        assert workloads._ZIG_K[1] == 0
        for layer, k in enumerate(workloads._ZIG_K.tolist()):
            if k:
                word = (k - 1) << 9 | layer
                assert emitting(word).standard_normal() == float(k - 1) * workloads._ZIG_W[layer]
                assert normal_reads(emitting(word), 1)
            assert not normal_reads(emitting(k << 9 | layer), 1)

    def test_embedded_densities_are_numpys(self):
        # numpy takes the wedge of each probe's x with uniform (m - 1) * 2^-53,
        # reading two words, and rejects it with m * 2^-53, reading more
        probes = wedge_probes()
        for layer, rabs, m in probes:
            x, word = float(rabs) * workloads._ZIG_W[layer], rabs << 9 | layer
            assert 0 < m < 1 << 53
            assert emitting(word, (m - 1) << 11).standard_normal() == x
            assert normal_reads(emitting(word, (m - 1) << 11), 2)
            assert not normal_reads(emitting(word, m << 11), 2)
        # and the probes pin every entry: one ulp either way flips a probe.  So
        # the table is numpy's, not recomputed: fi[0] is 1.0, and fi[38] is one
        # ulp off exp(-x^2 / 2) at its layer's edge x = w[38] * 2^52
        f, w = workloads._ZIG_F.tolist(), workloads._ZIG_W.tolist()
        for entry in range(256):
            for toward in (-math.inf, math.inf):
                moved = f[:entry] + [math.nextafter(f[entry], toward)] + f[entry + 1:]
                assert any(
                    not wedge_accepts(moved, layer, rabs * w[layer], m - 1)
                    or wedge_accepts(moved, layer, rabs * w[layer], m)
                    for layer, rabs, m in probes
                    if entry in (layer - 1, layer)
                ), (entry, toward)

    def test_scalar_normal_decides_as_numpy_at_every_boundary(self):
        # the package's scalar ziggurat on the probes' words; a third word on
        # the fast path (layer 2, rabs 0) returns 0.0 after a rejection
        normal = workloads._standard_normal
        for layer, k in enumerate(workloads._ZIG_K.tolist()):
            if k:
                x = float(k - 1) * workloads._ZIG_W[layer]
                assert normal(iter([(k - 1) << 9 | layer])) == x
        for layer, rabs, m in wedge_probes():
            x, word = float(rabs) * workloads._ZIG_W[layer], rabs << 9 | layer
            assert normal(iter([word, (m - 1) << 11, 2])) == x
            assert normal(iter([word, m << 11, 2])) == 0.0


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


SLOW_PATHS = ("lemire retry", "tail", "layer 1", "wedge accept", "wedge reject")


def numpy_slow_paths(seed, b, keys, uniforms):
    """``{key: paths}``: the slow paths, of `SLOW_PATHS`, that numpy's generator
    of each key takes for its ski trial draws, empty if it takes none.

    Read from the generator alone, by stepping a twin of it until the two
    states meet.  ``integers`` leaves the high half of word 0 in the 32-bit
    buffer unless Lemire's draw is retried; ``standard_normal`` reads one word
    on its fast path, then the tail's pairs of uniforms if its layer is 0,
    and otherwise one uniform for the wedge test and, if that rejects, a
    fresh word.
    """

    def read(rng, twin):
        for count in range(64):
            if rng.bit_generator.state["state"] == twin.bit_generator.state["state"]:
                return count
            twin.bit_generator.random_raw()
        raise AssertionError("the twin never met the generator")

    found = {}
    for key, rng, twin in zip(keys, derived_rngs(seed, keys), derived_rngs(seed, keys)):
        taken = set()
        gen_ski_days(b, rng)
        if read(rng, twin) > 1 or not rng.bit_generator.state["has_uint32"]:
            taken.add("lemire retry")
        layer = int(twin.bit_generator.random_raw()) & 0xFF
        rng.standard_normal()
        words = 1 + read(rng, twin)
        if words > 1:
            taken.add("tail" if layer == 0 else "wedge accept" if words == 2 else "wedge reject")
            if layer == 1:
                taken.add("layer 1")
        rng.random(uniforms)
        assert read(rng, twin) == uniforms
        found[key] = taken
    return found


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

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def slow_path_keys(seed):
        """The first key at b = B_MAX to take each slow path, ``{path: key}``."""
        wanted, found = set(SLOW_PATHS), {}
        for lo in range(0, 1 << 20, 4096):
            for key, paths in numpy_slow_paths(seed, B_MAX, range(lo, lo + 4096), 0).items():
                for path in paths & wanted:
                    found[path] = key
                wanted -= paths
            if not wanted:
                return found
        raise AssertionError(f"no key takes {wanted}")

    @pytest.mark.parametrize("uniforms", [0, 3])
    @pytest.mark.parametrize("seed", [271828, 2**128 + 1], ids=["short-seed", "129-bit"])
    def test_ski_draws_slow_paths_bit_for_bit(self, seed, uniforms):
        keys = self.slow_path_keys(seed)
        assert set(keys) == set(SLOW_PATHS)
        self.assert_ski_draws_match(seed, B_MAX, sorted(keys.values()), uniforms)

    def test_ski_draws_fall_back_only_off_the_fast_paths(self, monkeypatch):
        # a key takes the scalar path iff numpy's generator leaves a fast
        # path: it reads more than 2 + uniforms words, or a Lemire retry
        # takes the buffered high half of word 0
        seed, b, keys, uniforms = 271828, B_MAX, np.arange(20_000), 2
        paths = numpy_slow_paths(seed, b, keys.tolist(), uniforms)
        slow = [key for key, taken in paths.items() if taken]
        assert len(slow) > 100 and set().union(*paths.values()) == set(SLOW_PATHS)
        scalar_stream, resumed = workloads._pcg_stream, []

        def recording(state, inc):
            resumed.append(state)
            return scalar_stream(state, inc)

        monkeypatch.setattr(workloads, "_pcg_stream", recording)
        self.assert_ski_draws_match(seed, b, keys, uniforms)
        # each goes on from the state numpy's generator has after the words
        # drawn on arrays
        assert resumed == [
            rng.bit_generator.advance(2 + uniforms).state["state"]["state"]
            for rng in derived_rngs(seed, slow)
        ]


def test_package_import_leaves_numpy_random_unloaded(package_env):
    # numpy.random loads on first use, not while the package and its CLI
    # parser are set up, so start-up cost excludes it
    code = (
        "import sys, onlinepred, onlinepred.cli; onlinepred.cli.build_parser(); "
        "sys.exit('numpy.random' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=package_env, capture_output=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("args", [[], ["--sampled"]], ids=["defaults", "sampled"])
def test_ski_sweep_leaves_numpy_random_unloaded(package_env, args):
    # every ski trial is drawn in package code, so a ski sweep never loads
    # numpy.random and never pays for its import
    code = (
        "import contextlib, io, sys\n"
        "from onlinepred import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['ski-sweep', *{args!r}]) == 0\n"
        "sys.exit('numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=package_env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
