"""Synthetic workload generators: uniform ski demand and heavy-tailed job lengths.

Reproducibility contract: every generator is a deterministic function of its
arguments and the generator passed in, and checks none of them (the sweep
configs do).  `derived_rngs` builds one stream per trial key by hashing
(master seed, key), so trials can run in any order or in parallel without
changing a single draw: it runs numpy's `SeedSequence` hash (O'Neill's
seed_seq mixing) on uint32 arrays over a chunk of keys at once and yields the
generators ``default_rng(SeedSequence((master_seed, key)))`` would, bit for
bit, which the tests check against the installed numpy.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, List

import numpy as np

# Master seed of the sweeps and of the verification grids unless one is given.
DEFAULT_SEED = 271828

# numpy's SeedSequence constants: pool words, the two hash multiplier chains,
# the mixing multipliers and the xorshift; keys are one uint32 word each.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF

# Keys whose seed states `derived_rngs` derives in one pass; bounds its memory.
_RNG_CHUNK = 4096


def _words(value: int) -> List[int]:
    """A non-negative integer as SeedSequence splits it: uint32 words, low first."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"master seed must be non-negative, got {value!r}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hashmix(init: int, mult: int):
    """SeedSequence's hashmix with its running constant, which each call advances."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of a hashed word into a pool word."""
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _XSHIFT)


def _seed_states(master: List[int], keys: np.ndarray) -> np.ndarray:
    """``SeedSequence((master, key)).generate_state(4, np.uint64)`` per key, as rows.

    ``master`` is the seed's words and ``keys`` a uint32 array; the entropy
    is those words then the key.  Words past the 4-word pool (seeds of 2^128
    and up) are mixed into every pool word after the pool is mixed.
    """
    entropy = [np.full(1, word, np.uint32) for word in master] + [keys]
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(1, np.uint32))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hashmix(_INIT_B, _MULT_B)
    out = np.empty((keys.size, 2 * _POOL_SIZE), np.uint64)
    for i in range(2 * _POOL_SIZE):
        out[:, i] = hashmix(pool[i % _POOL_SIZE])
    # uint32 words pair up low word first, whatever the host's byte order
    return out[:, 0::2] | (out[:, 1::2] << np.uint64(32))


class _SeedState:
    """A precomputed SeedSequence state: all PCG64 asks of its seed."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a derived seed state holds exactly 4 uint64 words")
        return self.state


def derived_rngs(master_seed: int, keys: Iterable[int]) -> Iterator[np.random.Generator]:
    """``default_rng(SeedSequence((master_seed, key)))`` for each key in order, bit for bit.

    Keys must be integers in [0, 2^32); anything else raises ValueError here,
    not when iterated.  Generators come lazily, their seed states derived
    ``_RNG_CHUNK`` keys at a time.  They cannot spawn children.
    """
    # numpy.random stays out of package import, which would otherwise load it
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedState)
    master = _words(master_seed)
    keys = np.asarray(keys if isinstance(keys, np.ndarray) else list(keys))
    if keys.size and (
        keys.ndim != 1 or keys.dtype.kind not in "iu" or keys.min() < 0 or keys.max() > _MASK32
    ):
        raise ValueError("keys must be a flat sequence of integers in [0, 2**32)")
    keys = keys.astype(np.uint32)
    return (
        Generator(PCG64(_SeedState(state)))
        for lo in range(0, keys.size, _RNG_CHUNK)
        for state in _seed_states(master, keys[lo:lo + _RNG_CHUNK])
    )


def gen_ski_days(b: int, rng: np.random.Generator) -> int:
    """Skiing days uniform on {1..4b}."""
    return int(rng.integers(1, 4 * b + 1))


def gen_pareto_lengths(alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. Pareto job lengths, survival (1/t)^alpha for t >= 1.

    The shortest job is therefore never below one unit, matching the
    normalization the schedulers assume.
    """
    return 1.0 + rng.pareto(alpha, n)
