"""Draw engine tests: numpy's own generators as the reference, ranges, moments,
determinism, seed-stream separation and the numpy.random-free package."""

import ast
import functools
import math
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinepred import cli, workloads
from onlinepred.experiments import SchedSweepConfig, SkiSweepConfig
from onlinepred.ski_rental import B_MAX, PolicyKind
from onlinepred.workloads import DEFAULT_SEED, sched_trial_draws, ski_trial_draws

# PCG64's LCG multiplier; its inverse mod 2^128 steps the state back
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def numpy_rngs(master_seed: int, keys):
    """The per-trial streams by definition: numpy's generators of SeedSequence((seed, key))."""
    return (np.random.default_rng(np.random.SeedSequence((master_seed, key))) for key in keys)


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


def draw_reads(rng, words: int, draw: str = "standard_normal") -> bool:
    """Whether ``draw`` on an `emitting` generator reads just ``words`` words.

    The state after the last emitted word is that word itself.
    """
    last = rng.bit_generator.state["state"]["state"]
    for _ in range(words):
        last = (last * PCG_MULT + rng.bit_generator.state["state"]["inc"]) % (1 << 128)
    getattr(rng, draw)()
    return rng.bit_generator.state["state"]["state"] == last


class Ziggurat(NamedTuple):
    """One of numpy's ziggurat samplers: its embedded tables and word layout.

    A word holds layer idx and a magnitude r; numpy returns r * w[idx] (with
    a sign bit for the normal) at once iff r < k[idx].  Otherwise, for idx
    >= 1, it reads a uniform U and keeps x iff (f[idx - 1] - f[idx]) * U +
    f[idx] < density(x).
    """

    f: tuple
    w: tuple
    k: tuple
    word: Callable[[int, int], int]  # (layer, magnitude) -> word
    sign: int  # the word bit that negates x, 0 if none
    magnitude_bits: int
    density: Callable[[float], float]
    draw: str  # the Generator method
    scalar: Callable  # the package's scalar decoder
    fast: Callable  # the package's fast-path decoder on arrays
    slow: Callable  # the package's array step for words off the fast path


NORMAL = Ziggurat(
    *(tuple(table.tolist()) for table in (workloads._ZIG_F, workloads._ZIG_W, workloads._ZIG_K)),
    lambda layer, rabs: rabs << 9 | layer, 0x100, 52, lambda x: math.exp(-0.5 * x * x),
    "standard_normal", workloads._standard_normal, workloads._normal_fast, workloads._normal_slow,
)
EXPONENTIAL = Ziggurat(
    *(tuple(table.tolist()) for table in (workloads._EXP_F, workloads._EXP_W, workloads._EXP_K)),
    lambda layer, ri: ri << 11 | layer << 3, 0, 53, lambda x: math.exp(-x),
    "standard_exponential", workloads._standard_exponential, workloads._exponential_fast,
    workloads._exponential_slow,
)


def wedge_accepts(f, layer: int, x: float, m: int, density=NORMAL.density) -> bool:
    """numpy's wedge test of layer ``layer`` >= 1 for x, under the table ``f``,
    with the uniform m * 2^-53."""
    return (f[layer - 1] - f[layer]) * (m * 2.0**-53) + f[layer] < density(x)


@functools.lru_cache(maxsize=None)
def wedge_probes(zig: Ziggurat = NORMAL):
    """(layer, magnitude, m) per layer >= 1 and wedge height: the wedge test of
    x = magnitude * w[layer] accepts the uniform (m - 1) * 2^-53 and rejects m * 2^-53.

    The heights are 1% and 99% of the way from f[layer] to f[layer - 1], so
    the probes of every layer sit next to both of its f entries.
    """
    f, w, k = zig.f, zig.w, zig.k
    probes = []
    for layer in range(1, 256):
        for frac in (0.01, 0.99):
            height = f[layer] + (f[layer - 1] - f[layer]) * frac
            lo, hi = k[layer], 1 << zig.magnitude_bits  # the largest one whose density is >= height
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if zig.density(mid * w[layer]) >= height else (lo, mid)
            x, lo_m, hi_m = lo * w[layer], 0, 1 << 53
            while hi_m - lo_m > 1:
                mid = (lo_m + hi_m) // 2
                accepted = wedge_accepts(f, layer, x, mid, zig.density)
                lo_m, hi_m = (mid, hi_m) if accepted else (lo_m, mid)
            probes.append((layer, lo, hi_m))
    return probes


class ZigguratChecks:
    """The embedded tables of ``zig`` against numpy's sampler."""

    zig: Ziggurat

    def test_embedded_widths_are_numpys(self):
        # magnitude 1 returns w[idx] itself; layer 1 always takes the slow
        # path, which still returns x = w[1] here
        zig = self.zig
        for layer in range(256):
            assert getattr(emitting(zig.word(layer, 1)), zig.draw)() == zig.w[layer]

    def test_embedded_bounds_are_numpys(self):
        # magnitude k - 1 returns fl(k - 1 * w) from one word and k reads
        # more, so k is numpy's exactly; layer 1's k is 0
        zig = self.zig
        assert zig.k[1] == 0
        for layer, k in enumerate(zig.k):
            if k:
                word = zig.word(layer, k - 1)
                assert getattr(emitting(word), zig.draw)() == float(k - 1) * zig.w[layer]
                assert draw_reads(emitting(word), 1, zig.draw)
            assert not draw_reads(emitting(zig.word(layer, k)), 1, zig.draw)

    def test_embedded_densities_are_numpys(self):
        # numpy takes the wedge of each probe's x with uniform (m - 1) * 2^-53,
        # reading two words, and rejects it with m * 2^-53, reading more
        zig = self.zig
        probes = wedge_probes(zig)
        for layer, magnitude, m in probes:
            x, word = float(magnitude) * zig.w[layer], zig.word(layer, magnitude)
            assert 0 < m < 1 << 53
            assert getattr(emitting(word, (m - 1) << 11), zig.draw)() == x
            assert draw_reads(emitting(word, (m - 1) << 11), 2, zig.draw)
            assert not draw_reads(emitting(word, m << 11), 2, zig.draw)
        # and the probes pin every entry: one ulp either way flips a probe.  So
        # the table is numpy's, not recomputed
        f, w = zig.f, zig.w
        for entry in range(256):
            for toward in (-math.inf, math.inf):
                moved = f[:entry] + (math.nextafter(f[entry], toward),) + f[entry + 1:]
                assert any(
                    not wedge_accepts(moved, layer, r * w[layer], m - 1, zig.density)
                    or wedge_accepts(moved, layer, r * w[layer], m, zig.density)
                    for layer, r, m in probes
                    if entry in (layer - 1, layer)
                ), (entry, toward)

    def check_scalar_decides_as_numpy_at_every_boundary(self, restart: int):
        # the package's scalar sampler on the probes' words; a third word on
        # the fast path, ``restart``, returns 0.0 after a rejection
        zig = self.zig
        for layer, k in enumerate(zig.k):
            if k:
                x = float(k - 1) * zig.w[layer]
                assert zig.scalar(iter([zig.word(layer, k - 1)])) == x
        for layer, magnitude, m in wedge_probes(zig):
            x, word = float(magnitude) * zig.w[layer], zig.word(layer, magnitude)
            assert zig.scalar(iter([word, (m - 1) << 11, restart])) == x
            assert zig.scalar(iter([word, m << 11, restart])) == 0.0
        self.check_array_step_decides_as_numpy_at_every_boundary()

    def check_array_step_decides_as_numpy_at_every_boundary(self):
        # the array step on the probes' words, with each sign: it keeps x after
        # reading two words, and after a rejection redraws from a fast third
        # word (reading three) or leaves the draw to the scalar sampler
        # (reading none) when the third word is off the fast path too
        zig = self.zig
        fast_word = zig.word(2, 12345) | zig.sign
        redrawn = float(12345) * zig.w[2] * (-1.0 if zig.sign else 1.0)
        slow_word = zig.word(1, 0)  # layer 1 never takes the fast path
        columns, expected = [], []
        for layer, magnitude, m in wedge_probes(zig):
            for sign in sorted({0, zig.sign}):
                x = float(magnitude) * zig.w[layer] * (-1.0 if sign else 1.0)
                word = zig.word(layer, magnitude) | sign
                for third, after in ((fast_word, (redrawn, 3)), (slow_word, (None, 0))):
                    columns += [(word, (m - 1) << 11, third), (word, m << 11, third)]
                    expected += [(x, 2), after]
        words = np.array(columns, dtype=np.uint64).T
        first, on_path = zig.fast(words[0])
        assert not on_path.any()
        values, read = zig.slow(words, first)
        assert read.tolist() == [count for _, count in expected]
        kept = [value for value, _ in expected if value is not None]
        assert_same_bits(values[read > 0], kept)


class TestZigguratTables(ZigguratChecks):
    """numpy's ``standard_normal`` tables: the word's low byte is layer idx,
    then a sign bit, then 52 bits rabs."""

    zig = NORMAL

    def test_emitting_outputs_the_word(self):
        for word in (0, 1, 2**63 + 12345, 2**64 - 1):
            assert emitting(word).bit_generator.random_raw() == word
            assert emitting(7, word).bit_generator.random_raw(2).tolist() == [7, word]

    def test_embedded_widths_are_numpys(self):
        super().test_embedded_widths_are_numpys()
        assert workloads._ZIG_W[1] == 4.779330175727737e-17

    def test_embedded_densities_are_numpys(self):
        # fi[0] is 1.0, and fi[38] is one ulp off exp(-x^2 / 2) at its
        # layer's edge x = w[38] * 2^52
        super().test_embedded_densities_are_numpys()

    def test_scalar_normal_decides_as_numpy_at_every_boundary(self):
        self.check_scalar_decides_as_numpy_at_every_boundary(NORMAL.word(2, 0))


class TestExponentialZigguratTables(ZigguratChecks):
    """numpy's ``standard_exponential`` tables: bits 3-10 of the word are
    layer idx and the 53 bits above them ri."""

    zig = EXPONENTIAL

    def test_embedded_widths_are_numpys(self):
        super().test_embedded_widths_are_numpys()
        assert workloads._EXP_W[1] == 7.089014243955414e-18

    def test_scalar_exponential_decides_as_numpy_at_every_boundary(self):
        self.check_scalar_decides_as_numpy_at_every_boundary(EXPONENTIAL.word(2, 0))

    def test_tail_starts_at_numpys_r(self):
        # layer 0 off its fast path returns r - log1p(-U) with U from the next
        # word, so numpy's draws pin `_EXP_R`
        tail = EXPONENTIAL.word(0, EXPONENTIAL.k[0])
        uniforms = (0, 1 << 11, 2**63, 2**64 - 1, 0x123456789ABCDEF0)
        for uniform in uniforms:
            expected = workloads._EXP_R - math.log1p(-workloads._unit(uniform))
            assert emitting(tail, uniform).standard_exponential() == expected
            assert workloads._standard_exponential(iter([tail, uniform])) == expected
        # and the array step reads the same two words to the same values, here
        # for 200 more uniforms too, where numpy's vectorised log1p differs
        # from libm's on some
        uniforms += tuple(i * 0x9E3779B97F4A7C15 % 2**64 for i in range(1, 201))
        words = np.array([[tail, uniform, 0] for uniform in uniforms], dtype=np.uint64).T
        values, read = EXPONENTIAL.slow(words, EXPONENTIAL.fast(words[0])[0])
        assert read.tolist() == [2] * len(uniforms)
        assert_same_bits(values, [
            emitting(tail, uniform).standard_exponential() for uniform in uniforms
        ])


class TestSkiInstanceGenerator:
    """The skiing days the ski sweep draws: uniform on {1..4b}."""

    def test_range_and_mean(self):
        xs, _, _ = ski_trial_draws(0, 100, range(100_000), 0)
        assert xs.min() >= 1 and xs.max() <= 400
        assert abs(xs.mean() - 200.5) / 200.5 < 0.01

    def test_small_b_range(self):
        xs, _, _ = ski_trial_draws(1, 2, range(2000), 0)
        assert set(xs.tolist()) == set(range(1, 9))

    def test_reproducible(self):
        a, b = (ski_trial_draws(42, 50, range(100), 0)[0] for _ in range(2))
        assert a.dtype == np.int64 and np.array_equal(a, b)

    def test_rejects_small_b(self):
        # the draws check no b; the ski sweep config owns the b >= 2 check
        for b in (1, 0, -3):
            with pytest.raises(ValueError, match="b must be >= 2"):
                SkiSweepConfig(b=b)


class TestParetoJobs:
    """The job lengths the scheduling sweep draws: Pareto, survival (1/t)^alpha for t >= 1."""

    def test_all_lengths_at_least_one(self):
        lengths, _ = sched_trial_draws(5, 1.1, 200, range(20))
        assert lengths.shape == (20, 200) and lengths.dtype == np.float64
        assert lengths.min() >= 1.0

    def test_fixed_seed_identical(self):
        a, b = (sched_trial_draws(6, 1.1, 50, range(10))[0] for _ in range(2))
        assert np.array_equal(a, b)

    def test_median_of_per_set_means(self):
        # frozen from the sampling oracle: scale-1 Pareto(1.1), n=50 gives a
        # median per-set mean near 4.5 (heavy right tail, so a wide band)
        lengths, _ = sched_trial_draws(99, 1.1, 50, range(600))
        assert 2.0 <= np.median(lengths.mean(axis=1)) <= 30.0

    def test_heavy_tail_present(self):
        lengths, _ = sched_trial_draws(98, 1.1, 50, range(200))
        assert np.median(lengths.max(axis=1)) > 5.0  # the tail dominates most sets

    def test_validation(self):
        # the draws check no parameter; the scheduling sweep config owns these checks
        for alpha in (1.0, math.inf):
            with pytest.raises(ValueError, match="alpha must be finite and exceed 1"):
                SchedSweepConfig(alpha=alpha)
        with pytest.raises(ValueError, match="n must be >= 1"):
            SchedSweepConfig(n=0)
        for n in (3.5, True):  # the draws would fail inside numpy
            with pytest.raises(ValueError, match="must be an integer"):
                SchedSweepConfig(n=n)


class TestDerivedStreams:
    def test_distinct_trials_distinct_draws(self):
        draws = workloads._Draws(7, range(200), 1).random(1)
        assert len(set(draws[:, 0].tolist())) == 200

    def test_same_key_same_stream(self):
        a = workloads._Draws(7, [3], 10).standard_normal(10)
        b = workloads._Draws(7, [3, 5, 3], 10).standard_normal(10)
        assert np.array_equal(a[0], b[0]) and np.array_equal(b[0], b[2])
        assert not np.array_equal(b[0], b[1])


# master seeds at every word-count boundary, up to entropy longer than the pool
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96, 2**128 - 1, 2**128, 2**130,
              2**256 - 1)
KEYS = st.integers(0, 2**32 - 1)
# seeds of 1 to 5 uint32 words, every word nonzero
WORD_SEEDS = tuple(int("9e3779b9" * words, 16) + words for words in range(1, 6))


def pass_keys(width: int) -> int:
    """Keys in one `_Draws` pass at ``width`` words per key, by the engine's
    original rule: 8192 keys, or fewer so that a pass holds at most 2^16 words."""
    return max(1, min(8192, (1 << 16) // width))


SLOW_PATHS = ("lemire retry", "tail", "layer 1", "wedge accept", "wedge reject", "redraw off path")


def read(rng, twin) -> int:
    """The words ``twin``, a copy of ``rng`` from before its last draws, reads to catch up."""
    for count in range(64):
        if rng.bit_generator.state["state"] == twin.bit_generator.state["state"]:
            return count
        twin.bit_generator.random_raw()
    raise AssertionError("the twin never met the generator")


def numpy_slow_paths(seed, b, keys, uniforms):
    """``{key: paths}``: the slow paths, of `SLOW_PATHS`, that numpy's generator
    of each key takes for its ski trial draws, empty if it takes none.

    Read from the generator alone, by stepping a twin of it until the two
    states meet.  ``integers`` leaves the high half of word 0 in the 32-bit
    buffer unless Lemire's draw is retried; ``standard_normal`` reads one word
    on its fast path, then the tail's pairs of uniforms if its layer is 0,
    and otherwise one uniform for the wedge test and, if that rejects, a
    fresh word, which reads more unless it is on the fast path ("redraw off
    path").
    """

    found = {}
    for key, rng, twin in zip(keys, numpy_rngs(seed, keys), numpy_rngs(seed, keys)):
        taken = set()
        rng.integers(1, 4 * b + 1)
        if read(rng, twin) > 1 or not rng.bit_generator.state["has_uint32"]:
            taken.add("lemire retry")
        layer = int(twin.bit_generator.random_raw()) & 0xFF
        rng.standard_normal()
        words = 1 + read(rng, twin)
        if words > 1:
            taken.add("tail" if layer == 0 else "wedge accept" if words == 2 else "wedge reject")
            if layer == 1:
                taken.add("layer 1")
            if layer != 0 and words > 3:
                taken.add("redraw off path")
        rng.random(uniforms)
        assert read(rng, twin) == uniforms
        found[key] = taken
    return found


class TestBatchedStreams:
    """The engine's seeding and ski_trial_draws against numpy's own generators,
    one key at a time."""

    @staticmethod
    def assert_matches_reference(seed, keys):
        draws = workloads._Draws(seed, keys, 4)
        got = draws.integers(2**32), draws.standard_normal(1)[:, 0], draws.random(2)
        assert all(len(column) == len(keys) for column in got)
        for rng, span, normal, uniforms in zip(numpy_rngs(seed, keys), *got):
            assert span == rng.integers(0, 2**32)
            assert normal == rng.standard_normal()
            assert uniforms.tolist() == rng.random(2).tolist()

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
        for width in (1, 8, 9, 25):
            first = pass_keys(width)
            keys = range(first - 6, first + 4)  # straddles the first pass of keys
            got = workloads._Draws(271828, range(first + 4), width).random(width)[first - 6:]
            assert got.tolist() == [rng.random(width).tolist() for rng in numpy_rngs(271828, keys)]

    @pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 25, 114, 8191, 8192, 65536, 70000])
    def test_passes_hold_the_same_keys(self, monkeypatch, width):
        seed_states, passes = workloads._seed_states, []

        def recording(master, keys):
            passes.append(keys.tolist())
            return seed_states(master, keys)

        monkeypatch.setattr(workloads, "_seed_states", recording)
        size = pass_keys(width)
        keys = list(range(5, 5 + 2 * size + 3))
        workloads._Draws(271828, keys, width)
        assert passes == [keys[lo:lo + size] for lo in range(0, len(keys), size)]

    @pytest.mark.parametrize("seed", EDGE_SEEDS + WORD_SEEDS, ids=lambda seed: f"{seed:#x}")
    def test_a_seeds_words_keyed_by_its_top_word_are_its_seed_sequence(self, seed):
        # SeedSequence(seed) hashes the seed's words, as does the keyed state of
        # its lower words with its top word as the key, which seed_uniform takes
        *lower, top = workloads._words(seed)
        got = workloads._seed_states(lower, np.array([top], np.uint32))
        assert got.tolist() == [np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()]

    def test_integers_after_64_bit_draws(self):
        # 64-bit draws leave numpy's 32-bit buffer empty, so integers reads a fresh word
        keys = range(50)
        draws = workloads._Draws(271828, keys, 8)
        draws.random(1)
        got = draws.integers(8)
        assert got.tolist() == [(rng.random(1), rng.integers(0, 8))[1]
                                for rng in numpy_rngs(271828, keys)]

    def test_second_integers_call_raises(self):
        keys = range(50)
        rngs = list(numpy_rngs(271828, keys))
        for rng in rngs:
            rng.integers(0, 8)
        # numpy keeps the unused upper half for its next 32-bit draw, unless a retry took it
        assert sum(rng.bit_generator.state["has_uint32"] for rng in rngs) == 50
        draws = workloads._Draws(271828, keys, 8)
        draws.integers(8)
        with pytest.raises(RuntimeError, match="misses the halves numpy buffers"):
            draws.integers(8)

    def test_empty_keys_yield_nothing(self):
        for keys in ([], range(0), np.array([], dtype=np.int64)):
            draws = workloads._Draws(5, keys, 2)
            assert draws.integers(10).shape == (0,)
            assert draws.standard_normal(3).shape == draws.random(3).shape == (0, 3)

    @pytest.mark.parametrize(
        "keys",
        [[-1], [2**32], [0, 2**40], [1.5], np.array([0.0]), [True], [2**70], [[1, 2]]],
    )
    def test_rejects_keys_outside_one_word(self, keys):
        with pytest.raises(ValueError):
            workloads._Draws(5, keys, 1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            workloads._Draws(-1, [0], 1)
        with pytest.raises(ValueError):
            ski_trial_draws(-1, 100, [0], 0)

    @staticmethod
    def assert_ski_draws_match(seed, b, keys, uniforms):
        days, directions, us = ski_trial_draws(seed, b, keys, uniforms)
        ref_days, ref_directions, ref_us = [], [], []
        for rng in numpy_rngs(seed, keys):
            ref_days.append(int(rng.integers(1, 4 * b + 1)))
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
        # the last crosses a pass boundary at the ski width, 2 + 2 uniforms
        [[], range(0), np.array([], dtype=np.int64), [2**32 - 1], [9, 3, 3, 2**32 - 1, 0, 70000],
         np.arange(10, 40, 3), range(pass_keys(4) + 4)],
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
    def test_ski_draws_match_numpy_generators(self, seed, b, keys, uniforms):
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
        # a key leaves the array decoding of fast paths iff numpy's generator
        # leaves a fast path: it reads more than 2 + uniforms words, or a
        # Lemire retry takes the buffered high half of word 0.  Its normal
        # then goes to the array step, and only a tail or a rejected wedge
        # redrawn off the fast path goes on to the scalar sampler, as does a
        # Lemire retry
        seed, b, keys, uniforms = 271828, B_MAX, np.arange(20_000), 2
        paths = numpy_slow_paths(seed, b, keys.tolist(), uniforms)
        slow = [key for key, taken in paths.items() if taken]
        assert len(slow) > 100 and set().union(*paths.values()) == set(SLOW_PATHS)
        scalar, drawn = workloads._Draws._scalar, []
        normal_slow, stepped = workloads._normal_slow, []

        def recording(self, key, *args):
            drawn.append(key)
            return scalar(self, key, *args)

        def stepping(words, x):
            stepped.extend(words[0].tolist())
            return normal_slow(words, x)

        monkeypatch.setattr(workloads._Draws, "_scalar", recording)
        monkeypatch.setattr(workloads, "_normal_slow", stepping)
        self.assert_ski_draws_match(seed, b, keys, uniforms)
        # the step sees words; a key's normal starts at its word 1, as no
        # Lemire draw here retries twice
        normals = workloads._Draws(seed, keys, 2).words[1].tolist()
        first = {word: key for key, word in enumerate(normals)}
        stepped = sorted(first[word] for word in stepped)  # engine rows are the keys here
        assert sorted(set(stepped) | set(drawn)) == slow
        normal_paths = set(SLOW_PATHS) - {"lemire retry", "redraw off path"}
        assert stepped == [key for key in slow if paths[key] & normal_paths]
        scalar_paths = {"lemire retry", "tail", "redraw off path"}
        assert sorted(set(drawn)) == [key for key in slow if paths[key] & scalar_paths]


def assert_same_bits(got, expected):
    """Equal float64 arrays, bit for bit, so a sign of zero counts too."""
    expected = np.asarray(expected, dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def sched_draws_oracle(seed, alpha, n, keys, jobs_key=None):
    """Each key's job lengths and noise directions, drawn from its own generator in turn."""
    fixed = None
    if jobs_key is not None:
        fixed = 1.0 + next(numpy_rngs(seed, [jobs_key])).pareto(alpha, n)
    lengths, directions = [], []
    for rng in numpy_rngs(seed, keys):
        lengths.append(1.0 + rng.pareto(alpha, n) if fixed is None else fixed)
        directions.append(rng.standard_normal(n))
    return np.reshape(lengths, (len(keys), n)), np.reshape(directions, (len(keys), n))


SCHED_PATHS = tuple(
    f"{draw} {path}" for draw in ("exponential", "normal")
    for path in ("tail", "wedge accept", "wedge reject")
)


@functools.lru_cache(maxsize=None)
def sched_path_keys(seed):
    """The first key to take each of `SCHED_PATHS` on its first exponential,
    or on the normal after it, ``{path: key}``: a key's draws at n = 1.

    Read from the generator alone: the draw's first word gives its layer,
    and a twin counts the words it reads, one on the fast path, two for a
    wedge it accepts and more for one it rejects; layer 0 is the tail.
    """
    wanted, found = set(SCHED_PATHS), {}
    for lo in range(0, 1 << 20, 2048):
        keys = range(lo, lo + 2048)
        for key, rng, twin in zip(keys, numpy_rngs(seed, keys), numpy_rngs(seed, keys)):
            for draw, zig in (("exponential", EXPONENTIAL), ("normal", NORMAL)):
                word = int(twin.bit_generator.random_raw())
                getattr(rng, zig.draw)()
                words = 1 + read(rng, twin)
                tail = word & zig.word(255, 0) == 0  # layer 0
                if words > 1:
                    path = "tail" if tail else "wedge accept" if words == 2 else "wedge reject"
                    if f"{draw} {path}" in wanted:
                        wanted.discard(f"{draw} {path}")
                        found[f"{draw} {path}"] = key
        if not wanted:
            return found
    raise AssertionError(f"no key takes {wanted}")


class TestSchedDraws:
    """sched_trial_draws and the engine under it against generators drawn one at a time."""

    @pytest.mark.parametrize("jobs_key", [None, 0x4A4F4253], ids=["drawn-jobs", "fixed-jobs"])
    @pytest.mark.parametrize("alpha", [1.1, 3])
    @pytest.mark.parametrize("n", [1, 2, 50, 1000])
    @pytest.mark.parametrize("seed", [271828, 2**128 + 1], ids=["short-seed", "129-bit"])
    def test_slow_paths_bit_for_bit(self, seed, n, alpha, jobs_key):
        paths = sched_path_keys(seed)
        assert set(paths) == set(SCHED_PATHS)
        keys = sorted(set(paths.values())) + [0, 1, 2**32 - 1]
        got = sched_trial_draws(seed, alpha, n, keys, jobs_key)
        for array, expected in zip(got, sched_draws_oracle(seed, alpha, n, keys, jobs_key)):
            assert_same_bits(array, expected)

    def test_a_block_of_keys_bit_for_bit(self):
        # 300 keys of 100 draws each take every path many times over
        keys = np.arange(1000, 1300)
        for got, expected in zip(
            sched_trial_draws(DEFAULT_SEED, 1.1, 50, keys),
            sched_draws_oracle(DEFAULT_SEED, 1.1, 50, keys),
        ):
            assert_same_bits(got, expected)

    def test_empty_keys(self):
        for jobs_key in (None, 7):
            lengths, directions = sched_trial_draws(5, 1.1, 3, [], jobs_key)
            assert lengths.shape == directions.shape == (0, 3)

    def test_rejects_bad_seeds_and_keys(self):
        with pytest.raises(ValueError):
            sched_trial_draws(-1, 1.1, 3, [0])
        with pytest.raises(ValueError):
            sched_trial_draws(5, 1.1, 3, [2**32])

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**256)),
        st.lists(KEYS, max_size=5),
        st.integers(1, 6),
        st.integers(2, 2**32),
        st.lists(
            st.tuples(st.sampled_from(("standard_exponential", "standard_normal", "random")),
                      st.lists(st.integers(0, 5), min_size=5, max_size=5)),
            max_size=4,
        ),
    )
    def test_engine_matches_generators_past_its_matrix(self, seed, keys, width, span, plan):
        # a matrix of 1 to 6 words per key, so draws read past it, in calls
        # after calls, with one count per key
        draws = workloads._Draws(seed, keys, width)
        got = [draws.integers(span)] + [
            getattr(draws, name)(np.array(counts[:len(keys)], dtype=np.intp))
            for name, counts in plan
        ]
        rngs = list(numpy_rngs(seed, keys))
        assert_same_bits(got[0], [rng.integers(0, span) for rng in rngs])
        for (name, counts), values in zip(plan, got[1:]):
            for row, rng, count in zip(values, rngs, counts):
                assert_same_bits(row[:count], getattr(rng, name)(count))
                assert not row[count:].any()

    @pytest.mark.parametrize("zig", [NORMAL, EXPONENTIAL], ids=["normal", "exponential"])
    def test_scalar_draws_read_on_past_their_window(self, zig):
        # an empty window sends every draw to ever longer windows, here past
        # a one-word matrix; keys on every slow path are among them
        keys = sorted(set(sched_path_keys(DEFAULT_SEED).values()) | set(range(50)))
        draws = workloads._Draws(DEFAULT_SEED, keys, 1)
        rngs, twins = numpy_rngs(DEFAULT_SEED, keys), numpy_rngs(DEFAULT_SEED, keys)
        for row, rng, twin in zip(range(len(keys)), rngs, twins):
            value, used = draws._scalar(row, 0, [], zig.scalar)
            assert value == getattr(rng, zig.draw)()
            assert used == read(rng, twin)

    def test_a_long_run_past_a_narrow_matrix_reads_linear_words(self, monkeypatch):
        # one key's 3,000 normals read about 3,040 words, all but 8 past its
        # matrix; they are generated once per draw call, in runs that double,
        # not again from the matrix's end for every draw
        pcg_run, produced = workloads._pcg_run, []

        def counting(*args):
            words, ends = pcg_run(*args)
            produced.append(words.size)
            return words, ends

        draws = workloads._Draws(DEFAULT_SEED, [3], 8)
        monkeypatch.setattr(workloads, "_pcg_run", counting)
        got = draws.standard_normal(3000)
        assert_same_bits(got[0], next(numpy_rngs(DEFAULT_SEED, [3])).standard_normal(3000))
        assert sum(produced) <= 4 * 3000

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**256)))
    def test_seed_uniform_is_the_seeds_first_random(self, seed):
        expected = np.random.default_rng(np.random.SeedSequence(seed)).random()
        assert workloads.seed_uniform(seed) == expected


def test_package_import_leaves_numpy_random_unloaded(package_env):
    # numpy.random loads on first use, not while the package and its CLI
    # parser are set up, so start-up cost excludes it
    code = (
        "import sys, onlinepred, onlinepred.cli; onlinepred.cli.build_parser(); "
        "sys.exit('numpy.random' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=package_env, capture_output=True)
    assert proc.returncode == 0, proc.stderr


# each entry is the commands one subprocess runs; trace takes every --algo
DRAWING_COMMANDS = {
    "ski-sweep": [["ski-sweep"]],
    "ski-sweep-sampled": [["ski-sweep", "--sampled"]],
    "sched-sweep": [["sched-sweep"]],
    "sched-sweep-fixed-jobs": [["sched-sweep", "--fixed-jobs"]],
    "sched-sweep-jobs-2": [["sched-sweep", "--jobs", "2"]],
    "verify-bounds-tiny": [["verify-bounds", "--grid-density", "tiny"]],
    "trace-ski": [
        ["trace", "ski", "--algo", algo, "--b", "100", "--x", "50", "--y", "300"]
        + (["--lambda", "0.5"] if lam is None and kind is not PolicyKind.NAIVE else [])
        for algo, (kind, lam) in cli._TRACE_SKI_ALGOS.items()
    ],
    "trace-sched": [
        ["trace", "sched", "--jobs", "1:1.2,2:1.9,4:3", "--algo", algo]
        + (["--lambda", "0.5"] if algo == "prr" else [])
        for algo in ("rr", "spjf", "prr", "sjf")
    ],
}


@pytest.mark.parametrize("commands", DRAWING_COMMANDS.values(), ids=DRAWING_COMMANDS.keys())
def test_drawing_commands_leave_numpy_random_unloaded(package_env, commands):
    # every draw of every command is made in package code: with numpy.random
    # made unimportable, every module of the package imports and every command
    # runs.  Nor does any load numpy.ma, which np.unique loads on first use
    code = (
        "import contextlib, importlib, io, pkgutil, sys\n"
        "sys.modules['numpy.random'] = None  # importing it now raises ImportError\n"
        "import onlinepred\n"
        "for module in pkgutil.iter_modules(onlinepred.__path__):\n"
        "    importlib.import_module(f'onlinepred.{module.name}')\n"
        "from onlinepred import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for argv in {commands!r}:\n"
        "        assert cli.main(argv) == 0, argv\n"
        "sys.exit('loaded numpy.ma' if 'numpy.ma' in sys.modules else 0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=package_env, capture_output=True)
    assert proc.returncode == 0, proc.stderr


def test_modules_import_only_stdlib_numpy_and_the_package():
    # numpy is the only runtime dependency pyproject declares, and no module
    # refers to numpy.random: not by an import, nor by reading np.random
    found = []
    for path in sorted(Path(workloads.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        numpy_names, names = set(), []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
                numpy_names |= {alias.asname or alias.name for alias in node.names
                                if alias.name == "numpy"}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names += [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        found += [
            f"{path.name}: imports {name}" for name in names
            if name.partition(".")[0] not in sys.stdlib_module_names | {"numpy", "onlinepred"}
            or f"{name}.".startswith("numpy.random.")
        ] + [
            f"{path.name}:{node.lineno}: reads {node.value.id}.random" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "random"
            and isinstance(node.value, ast.Name) and node.value.id in numpy_names
        ]
    assert found == []
