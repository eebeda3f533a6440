"""Synthetic workload generators: uniform ski demand and heavy-tailed job lengths.

Reproducibility contract: every generator is a deterministic function of its
arguments and the generator passed in, and checks none of them (the sweep
configs do).  `derived_rngs` builds one stream per trial key by hashing
(master seed, key), so trials can run in any order or in parallel without
changing a single draw: it runs numpy's `SeedSequence` hash (O'Neill's
seed_seq mixing) on uint32 arrays over a chunk of keys at once and yields the
generators ``default_rng(SeedSequence((master_seed, key)))`` would, bit for
bit, which the tests check against the installed numpy.  `ski_trial_draws`
goes one step further for the ski sweep: from the same seed states it runs
PCG64 and numpy's bounded-integer, normal and uniform draws on arrays, so a
whole block of trials gets the draws its generators would give.
"""

from __future__ import annotations

import math
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

# PCG64's 128-bit LCG multiplier as (high, low) uint64 limbs, and the masks
# and shifts its arithmetic on two limbs uses.
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_LOW32, _SHIFT32, _ROT_SHIFT = np.uint64(_MASK32), np.uint64(32), np.uint64(58)

# numpy's ziggurat layer widths w (float64 ``wi_double``): the fast path of
# ``standard_normal`` returns +-rabs * w[idx] for the low byte idx and the
# 52 bits rabs above the sign bit of one output word.
_ZIG_W = np.array([
    8.683627060801306e-16, 4.779330175727737e-17, 6.354352417405262e-17, 7.454870481247696e-17,
    8.3293668157931e-17, 9.068060405059482e-17, 9.714860076567762e-17, 1.0294750314241019e-16,
    1.0823430288447684e-16, 1.131147019610903e-16, 1.176635945702292e-16, 1.2193617278714363e-16,
    1.2597439914637093e-16, 1.2981099886264032e-16, 1.3347203736824123e-16, 1.3697864842571203e-16,
    1.4034823001242382e-16, 1.4359529452056943e-16, 1.4673208742364422e-16, 1.4976904668391037e-16,
    1.5271515003596198e-16, 1.5557818169460764e-16, 1.5836494009290885e-16, 1.6108140175274928e-16,
    1.6373285203969853e-16, 1.6632399058420835e-16, 1.6885901708676596e-16, 1.713417017655966e-16,
    1.737754436586486e-16, 1.7616331923000996e-16, 1.7850812316976727e-16, 1.8081240285799152e-16,
    1.830784876482675e-16, 1.853085138861802e-16, 1.8750444639373882e-16, 1.896680970077476e-16,
    1.918011406483862e-16, 1.9390512930625104e-16, 1.9598150426628824e-16, 1.9803160683128174e-16,
    2.000566877627333e-16, 2.0205791562071654e-16, 2.0403638415480212e-16, 2.0599311887403706e-16,
    2.079290829041402e-16, 2.0984518222370352e-16, 2.1174227035760342e-16, 2.1362115259449868e-16,
    2.1548258978581458e-16, 2.1732730177564367e-16, 2.191559705042727e-16, 2.2096924282235318e-16,
    2.2276773304789553e-16, 2.2455202529414355e-16, 2.263226755928568e-16, 2.280802138345017e-16,
    2.2982514554424684e-16, 2.3155795351040804e-16, 2.3327909928004356e-16, 2.3498902453470955e-16,
    2.3668815235791604e-16, 2.3837688840454243e-16, 2.4005562198135063e-16, 2.4172472704675025e-16,
    2.433845631371103e-16, 2.4503547622614954e-16, 2.466777995232705e-16, 2.4831185421610877e-16,
    2.4993795016204524e-16, 2.515563865329658e-16, 2.5316745241713583e-16, 2.547714273816944e-16,
    2.563685819989397e-16, 2.579591783392867e-16, 2.5954347043351707e-16, 2.6112170470670194e-16,
    2.6269412038597256e-16, 2.6426094988411895e-16, 2.658224191608307e-16, 2.6737874806323633e-16,
    2.689301506472616e-16, 2.704768354811995e-16, 2.720190059327732e-16, 2.735568604408679e-16,
    2.7509059277301666e-16, 2.7662039226963903e-16, 2.781464440759544e-16, 2.79668929362423e-16,
    2.8118802553450207e-16, 2.827039064324479e-16, 2.842167425218406e-16, 2.8572670107546015e-16,
    2.87233946347098e-16, 2.887386397378482e-16, 2.9024093995538423e-16, 2.9174100316669455e-16,
    2.9323898314471816e-16, 2.947350314092935e-16, 2.9622929736280665e-16, 2.977219284209029e-16,
    2.992130701386013e-16, 3.007028663321331e-16, 3.0219145919680615e-16, 3.036789894211802e-16,
    3.051655962978219e-16, 3.0665141783089545e-16, 3.081365908408297e-16, 3.0962125106629225e-16,
    3.111055332636893e-16, 3.125895713043999e-16, 3.140734982699446e-16, 3.1555744654528006e-16,
    3.1704154791040285e-16, 3.1852593363044065e-16, 3.2001073454440114e-16, 3.214960811527447e-16,
    3.2298210370394156e-16, 3.244689322801698e-16, 3.2595669688230784e-16, 3.2744552751437067e-16,
    3.2893555426753697e-16, 3.3042690740391284e-16, 3.3191971744017523e-16, 3.3341411523123725e-16,
    3.3491023205407785e-16, 3.364081996918765e-16, 3.37908150518595e-16, 3.394102175841489e-16,
    3.409145347003126e-16, 3.424212365275018e-16, 3.4393045866258313e-16, 3.454423377278584e-16,
    3.4695701146137835e-16, 3.4847461880874137e-16, 3.499953000165381e-16, 3.5151919672760744e-16,
    3.53046452078274e-16, 3.5457721079774357e-16, 3.5611161930983884e-16, 3.5764982583726505e-16,
    3.59191980508603e-16, 3.6073823546823514e-16, 3.6228874498941915e-16, 3.6384366559073444e-16,
    3.65403156156137e-16, 3.669673780588701e-16, 3.685364952894914e-16, 3.7011067458828983e-16,
    3.716900855823823e-16, 3.7327490092779435e-16, 3.7486529645684887e-16, 3.7646145133120287e-16,
    3.7806354820089604e-16, 3.7967177336979443e-16, 3.8128631696783774e-16, 3.829073731305243e-16,
    3.8453514018609596e-16, 3.8616982085091493e-16, 3.878116224335587e-16, 3.894607570481926e-16,
    3.9111744183782054e-16, 3.9278189920805415e-16, 3.944543570720877e-16, 3.9613504910761354e-16,
    3.9782421502646826e-16, 3.995221008578565e-16, 4.012289592460629e-16, 4.029450497636328e-16,
    4.04670639241075e-16, 4.0640600211422504e-16, 4.0815142079049387e-16, 4.0990718603532664e-16,
    4.1167359738030257e-16, 4.134509635544236e-16, 4.1523960294026883e-16, 4.170398440568316e-16,
    4.1885202607101123e-16, 4.206764993399015e-16, 4.2251362598620494e-16, 4.243637805093078e-16,
    4.262273504347798e-16, 4.2810473700531167e-16, 4.2999635591638323e-16, 4.3190263810026294e-16,
    4.338240305622791e-16, 4.357609972736849e-16, 4.3771402012585875e-16, 4.3968359995105214e-16,
    4.4167025761542035e-16, 4.4367453519065673e-16, 4.456969972112043e-16, 4.477382320247534e-16,
    4.49798853244555e-16, 4.518795013130059e-16, 4.539808451870034e-16, 4.561035841567422e-16,
    4.582484498109567e-16, 4.604162081631153e-16, 4.626076619547846e-16, 4.648236531543207e-16,
    4.670650656712631e-16, 4.693328283093329e-16, 4.716279179838351e-16, 4.739513632325867e-16,
    4.763042480533137e-16, 4.786877161048723e-16, 4.811029753147417e-16, 4.835513029411525e-16,
    4.860340511450812e-16, 4.885526531353603e-16, 4.91108629959527e-16, 4.937035980240335e-16,
    4.963392774403987e-16, 4.990175013091822e-16, 5.017402260718089e-16, 5.045095430818727e-16,
    5.073276915733542e-16, 5.101970732341562e-16, 5.131202686306784e-16, 5.161000557743228e-16,
    5.191394311757699e-16, 5.222416338000234e-16, 5.254101724177597e-16, 5.286488569504945e-16,
    5.3196183453384e-16, 5.353536311816497e-16, 5.388292001334053e-16, 5.423939782201712e-16,
    5.46053951907478e-16, 5.498157350892814e-16, 5.536866612467876e-16, 5.576748932926576e-16,
    5.617895553555417e-16, 5.660408920082422e-16, 5.704404621291389e-16, 5.750013768919895e-16,
    5.797385945724594e-16, 5.846692893455479e-16, 5.898133176477899e-16, 5.951938149641444e-16,
    6.008379696271908e-16, 6.067780409333449e-16, 6.130527208725282e-16, 6.197089894581626e-16,
    6.268046963301284e-16, 6.344122407127506e-16, 6.426239659548055e-16, 6.515603317344994e-16,
    6.613827885097664e-16, 6.723150462505587e-16, 6.846803417564259e-16, 6.98971833638762e-16,
    7.159994934830664e-16, 7.372424301798799e-16, 7.658936370805573e-16, 8.113849337656484e-16,
])
# rabs below _ZIG_BOUND[idx] takes numpy's fast path.  numpy's own bounds come
# from the exact layer edges; these come from the rounded widths, one below
# the floor, and the tests check that each is at most numpy's (by 1-2 on
# numpy 2.4).  Layer 1's bound is 0, as in numpy: it always takes the slow path.
_ZIG_BOUND = np.array(
    [math.floor(_ZIG_W[255] * 2.0**52 / _ZIG_W[0]) - 1, 0]
    + [math.floor(_ZIG_W[i - 1] / _ZIG_W[i] * 2.0**52) - 1 for i in range(2, 256)],
    np.uint64,
)

# Keys whose seed states `derived_rngs` and `ski_trial_draws` derive in one
# pass; bounds their memory.
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


def _key_array(keys: Iterable[int]) -> np.ndarray:
    """``keys`` as a uint32 array; ValueError unless they are integers in [0, 2^32)."""
    keys = np.asarray(keys if isinstance(keys, np.ndarray) else list(keys))
    if keys.size and (
        keys.ndim != 1 or keys.dtype.kind not in "iu" or keys.min() < 0 or keys.max() > _MASK32
    ):
        raise ValueError("keys must be a flat sequence of integers in [0, 2**32)")
    return keys.astype(np.uint32)


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
    master, keys = _words(master_seed), _key_array(keys)
    return (
        Generator(PCG64(_SeedState(state)))
        for lo in range(0, keys.size, _RNG_CHUNK)
        for state in _seed_states(master, keys[lo:lo + _RNG_CHUNK])
    )


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """PCG64's LCG step, state * multiplier + inc mod 2^128, on (high, low) uint64 limbs."""
    new_lo = lo * _PCG_MULT_LO + inc_lo
    # high word of lo * _PCG_MULT_LO, from 32-bit halves so no partial sum wraps
    lo0, lo1 = lo & _LOW32, lo >> _SHIFT32
    m0, m1 = _PCG_MULT_LO & _LOW32, _PCG_MULT_LO >> _SHIFT32
    cross = lo1 * m0 + (lo0 * m0 >> _SHIFT32)
    product_hi = lo1 * m1 + (cross >> _SHIFT32) + ((lo0 * m1 + (cross & _LOW32)) >> _SHIFT32)
    carry = (new_lo < inc_lo).astype(np.uint64)
    new_hi = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + product_hi + inc_hi + carry
    return new_hi, new_lo


def _pcg_words(states: np.ndarray, count: int) -> List[np.ndarray]:
    """The first ``count`` 64-bit outputs of ``PCG64`` seeded with each row of ``states``.

    A row is the 4 uint64 words a seed sequence gives PCG64: the initial state's
    high and low limbs, then those of the stream number, whose increment is
    2 * stream + 1.  Seeding steps from state 0, adds the initial state and
    steps again; each output steps, then takes XSL-RR of the new state: its
    high limb xor its low limb, rotated right by the state's top 6 bits.
    """
    init_hi, init_lo, stream_hi, stream_lo = states.T
    inc_hi = stream_hi << np.uint64(1) | stream_lo >> np.uint64(63)
    inc_lo = stream_lo << np.uint64(1) | np.uint64(1)
    lo = inc_lo + init_lo
    hi, lo = _pcg_step(inc_hi + init_hi + (lo < inc_lo).astype(np.uint64), lo, inc_hi, inc_lo)
    words = []
    for _ in range(count):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        mixed, rot = hi ^ lo, hi >> _ROT_SHIFT
        words.append(mixed >> rot | mixed << ((np.uint64(64) - rot) & np.uint64(63)))
    return words


def ski_trial_draws(master_seed: int, b: int, keys: Iterable[int], uniforms: int):
    """Each key's ski trial draws from its `derived_rngs` generator, bit for bit, as arrays.

    For the generator ``rng`` of key k, row k of the result holds
    ``gen_ski_days(b, rng)``, then ``rng.standard_normal()``, then
    ``rng.random(uniforms)``: an int64 day array, a float64 direction array and
    a (keys, uniforms) float64 array.  b is at most B_MAX, so 4b - 1 takes
    numpy's 32-bit bounded path; the keys are checked as `derived_rngs`
    checks them.

    The draws are array versions of numpy's, over PCG64's output words from
    the same seed states: Lemire's bounded integer on the low half of word 0
    (``integers`` buffers the high half, which nothing here reads), the
    ziggurat fast path on word 1 and (word >> 11) * 2^-53 for each uniform
    after that.  A key whose draws leave those paths, as Lemire's leftover
    below 4b or a normal beyond its layer's bound, is drawn again through
    ``derived_rngs``, about 1.5% of keys at b = 100.
    """
    master, keys = _words(master_seed), _key_array(keys)
    days, directions = np.empty(keys.size, np.int64), np.empty(keys.size)
    uniform_draws, fast = np.empty((keys.size, uniforms)), np.empty(keys.size, bool)
    span = np.uint64(4 * b)
    for lo in range(0, keys.size, _RNG_CHUNK):
        part = slice(lo, lo + _RNG_CHUNK)
        day_word, normal_word, *uniform_words = _pcg_words(
            _seed_states(master, keys[part]), 2 + uniforms
        )
        scaled = (day_word & _LOW32) * span
        days[part] = (scaled >> _SHIFT32) + np.uint64(1)
        layer = (normal_word & np.uint64(0xFF)).astype(np.intp)
        rabs = normal_word >> np.uint64(9) & np.uint64((1 << 52) - 1)
        direction = rabs.astype(np.float64) * _ZIG_W[layer]
        np.negative(direction, out=direction, where=(normal_word & np.uint64(0x100)).astype(bool))
        directions[part] = direction
        fast[part] = ((scaled & _LOW32) >= span) & (rabs < _ZIG_BOUND[layer])
        for j, word in enumerate(uniform_words):
            uniform_draws[part, j] = (word >> np.uint64(11)).astype(np.float64) * 2.0**-53
    redo = np.flatnonzero(~fast)
    for k, rng in zip(redo, derived_rngs(master_seed, keys[redo])):
        days[k] = gen_ski_days(b, rng)
        directions[k] = rng.standard_normal()
        uniform_draws[k] = rng.random(uniforms)
    return days, directions, uniform_draws


def gen_ski_days(b: int, rng: np.random.Generator) -> int:
    """Skiing days uniform on {1..4b}."""
    return int(rng.integers(1, 4 * b + 1))


def gen_pareto_lengths(alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. Pareto job lengths, survival (1/t)^alpha for t >= 1.

    The shortest job is therefore never below one unit, matching the
    normalization the schedulers assume.
    """
    return 1.0 + rng.pareto(alpha, n)
