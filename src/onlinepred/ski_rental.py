"""Rent-or-buy decision rules, with and without a day-count prediction.

Costs are in rent-day units: renting costs 1 per day, buying costs ``b``
once.  Day indexing is 1-based and "buy at the start of day j" means j-1
rental days were paid before the purchase.  Everything here is a pure
function of its inputs; sampling takes uniform [0, 1) draws ``u``.

There are three rules: naive, deterministic and randomized.  At lambda = 1
the deterministic rule is break-even (buy on day b) and the randomized rule
is the e/(e-1) rule of Karlin, Manasse, McGeoch and Owicki (1994), so the
classical rules are the lambda rules at lambda = 1.  The rules see the
prediction only through the branch y >= b; the kernel `ski_cost` takes
predictions, picks that branch itself and returns exact costs in closed form.
A day rule buys on a fixed day d (`buy_day`), so x days cost x if x < d,
else b + d - 1.  A randomized rule puts mass proportional to r^(m-i) on buy
days 1..m, with r = (b-1)/b, and its expected cost telescopes to
min(x, m) / (1 - r^m).  That mass is the geometric family of the 1994 rule,
whose CDF has the closed form F(i) = (r^(m-i) - r^m) / (1 - r^m).  Given
uniform draws ``u`` instead, a randomized rule buys on the day that inverts
this CDF for each draw, in O(1) per draw and with no mass vector built, and
then costs like a day rule; so every sampled score goes through `ski_cost` too.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

import numpy as np

# lambda * b or b / lambda within this relative distance of an integer is that integer
SNAP_TOLERANCE = 1e-12
# The randomized rules use r = (b-1)/b, which float64 rounds within 2**-53
# relatively.  Their normaliser 1 - r**m then carries a relative error of at
# most 2**-53 * m r**m / (1 - r**m) <= 2**-53 * (b - 1): 1.1e-10 at B_MAX,
# far below the printed 6 decimals.  Supports reach m = ceil(b / lambda) < b**2,
# 10**12 days at B_MAX, still exact in float64 (below 2**53).
B_MAX = 1_000_000
X_MAX = 2**53  # skiing days: the largest count a float64 cost holds exactly


def _check_count(name: str, value, least: int, most: Optional[int] = None) -> None:
    """Reject a ``value`` that is a bool, not an integer, below ``least`` or above ``most``.

    One of the package's three input checks, with `_require` for element
    ranges and `_check_lambda` for lambda: instances, demands, sweep configs
    and the CLI all use it.  Plain ints skip the slower abstract-class check.
    """
    plain = type(value) is int
    if not plain and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    if most is not None and value > most:
        raise ValueError(f"{name} = {value} exceeds the limit of {most}")


def _require(ok, values, message: str) -> None:
    """Raise "<message>, got <first bad entry>" unless ``ok`` holds for every entry of ``values``.

    ``ok`` is a bool or a bool array shaped like ``values``; a Python bool
    skips numpy.  A numpy entry is named as a Python number.
    """
    if ok is not True and (ok is False or not ok.all()):
        bad = np.extract(np.logical_not(ok), values)[0] if np.ndim(ok) else values
        raise ValueError(f"{message}, got {bad.item() if isinstance(bad, np.generic) else bad!r}")


def _fits_float64(value) -> bool:
    """Whether a real ``value`` is no int at or past 2**1024 - 2**970, the
    least magnitude that float() rounds past the largest float64."""
    return not isinstance(value, int) or abs(value) < 2**1024 - 2**970


def _is_real(value) -> bool:
    """Whether ``value`` is a real scalar: a float, an int or their numpy kinds, never a bool."""
    return type(value) is float or (
        isinstance(value, (float, int, np.floating, np.integer)) and not isinstance(value, bool)
    )


def _floats(values, not_real: str, too_big: str, copy: Optional[bool] = None) -> np.ndarray:
    """``values`` as a float64 array (``copy`` as in numpy), if they are real
    numbers: the package's one rule for a real array taken from a caller.

    Real means a numpy array of an int, uint or float dtype, or else a
    scalar or (nested) sequence whose entries each pass `_is_real`; a str
    or bytes is one value, never a sequence of characters or byte codes.
    The first entry that is not real raises "<not_real>, got <entry>", and
    the first int past the float64 range (`_fits_float64`) "<too_big>, got
    <entry>".  A scalar gives a 0-d array; a float64 array is not copied
    unless ``copy`` asks.
    """
    if not isinstance(values, np.ndarray):
        # the entries of nested sequences, or the one entry of a scalar
        sequence = isinstance(values, Iterable) and not isinstance(values, (str, bytes))
        values = list(values) if sequence else values
        if not sequence or not set(map(type, values)) <= {float}:  # plain floats pass both checks
            values = np.array(values, dtype=object)
            for value in values.flat:
                _require(_is_real(value), value, not_real)
                _require(_fits_float64(value), value, too_big)
    elif values.dtype.kind not in "iuf":
        _require(np.zeros(values.shape, bool), values, not_real)
    return np.array(values, dtype=np.float64, copy=copy)


def _check_lambda(lam, low: float, closed: bool, message: str, arrays: bool = False):
    """Reject a lambda outside (low, 1] if ``closed``, else (low, 1), with `_require`.

    Lambda is a real scalar (`_is_real`), never a bool, a str or a Fraction.
    With ``arrays`` (the bounds) a real numpy array is accepted too, by
    `_floats`.  Returns lambda in float64, the precision the rules and
    bounds compute in, and the range test compares that value: float32(1/3)
    lies above 1/3 in float64 but not in float32.  A Python float gives a
    plain True and skips numpy.
    """
    if arrays and isinstance(lam, np.ndarray):
        value = _floats(lam, message, message)
    else:
        _require(_is_real(lam), lam, message)
        value = np.float64(lam) if isinstance(lam, np.floating) else lam
    _require((low < value) & ((value <= 1) if closed else (value < 1)), lam, message)
    return value


class PolicyKind(Enum):
    """The three rent-or-buy decision rules."""

    NAIVE = "naive"                    # trust the prediction outright
    DETERMINISTIC = "deterministic"    # threshold rule; break-even at lambda = 1
    RANDOMIZED = "randomized"          # randomized rule; Karlin et al.'s at lambda = 1


@dataclass(frozen=True)
class SkiInstance:
    """One rent-or-buy instance.

    b: cost to buy (integer in [2, B_MAX], in rent-day units).
    x: actual number of skiing days (integer in [1, X_MAX]).
    y: predicted number of skiing days (any non-negative real).
    """

    b: int
    x: int
    y: float

    def __post_init__(self):
        _check_count("buy cost b", self.b, 2, B_MAX)
        _check_count("skiing days x", self.x, 1, X_MAX)
        ok = _is_real(self.y) and 0 <= self.y < math.inf and _fits_float64(self.y)
        _require(ok, self.y, "prediction y must be a finite real >= 0")

    @property
    def error(self) -> float:
        """Absolute prediction error |y - x|."""
        return abs(self.y - self.x)


@dataclass(frozen=True)
class SkiPolicy:
    """A decision rule plus its hyperparameter, validated at use time.

    Break-even is ``SkiPolicy(DETERMINISTIC, 1.0)`` and Karlin's rule
    ``SkiPolicy(RANDOMIZED, 1.0)``; the naive rule takes no lambda.  The
    object keeps the checked terms `ski_cost` derives at each b
    (`_policy_terms`); they take no part in equality, hashing, repr or
    pickling.
    """

    kind: PolicyKind
    lam: Optional[float] = None

    def __getstate__(self):
        return {"kind": self.kind, "lam": self.lam}  # a copy checks its lambda anew


def ski_opt(instance: SkiInstance) -> int:
    """Offline optimum: buy up front or rent every day, whichever is cheaper."""
    return min(instance.b, instance.x)


def _snap(q: float):
    """``q``, or the nearest integer when ``q`` lies within a relative SNAP_TOLERANCE of it.

    Decimal lambdas are not exact in binary: 21 / 0.7 evaluates to
    30.000000000000004 and 0.28 * 25 to 7.000000000000001, so without the
    snap the rules would round to days 31 and 8 where 30 and 7 were meant.
    Scalar math only, since every kernel call goes through it.
    """
    n = round(q)
    return n if abs(q - n) <= SNAP_TOLERANCE * n else q


def _support_size(b: int, lam: float, big: bool) -> int:
    """Support of the randomized rule: floor(lambda*b) if big, else ceil(b/lambda), snapped."""
    _check_lambda(lam, 1.0 / b, True, f"randomized rule requires lambda in (1/{b}, 1] for b={b}")
    lam = float(lam)  # a numpy lambda would round lambda * b in its own precision
    return math.floor(_snap(lam * b)) if big else math.ceil(_snap(b / lam))


def buy_day(policy: SkiPolicy, b: int, big: bool) -> Optional[int]:
    """Buy day of a day rule on one prediction branch; ``None`` means never buy.

    ``big`` selects the branch y >= b.  The naive rule buys on day 1 if big
    and never otherwise.  The deterministic rule buys on day ceil(lambda*b)
    if big, else ceil(b/lambda), snapped; at lambda = 1 both are day b.  The
    day is an exact int even where b/lambda overflows a float.
    """
    _check_count("b", b, 2, B_MAX)
    if policy.kind is PolicyKind.NAIVE:
        return 1 if big else None
    if policy.kind is not PolicyKind.DETERMINISTIC:
        raise ValueError("the randomized rule draws its buy day; see randomized_buy_day")
    _check_lambda(policy.lam, 0, True, "deterministic rule requires lambda in (0, 1]")
    lam, b = float(policy.lam), int(b)  # numpy scalars would warn where b / lambda overflows
    q = lam * b if big else b / lam
    if math.isinf(q):  # b / lambda in exact integer arithmetic, lambda = num / den
        num, den = lam.as_integer_ratio()
        return -(-b * den // num)
    return math.ceil(_snap(q))


def _policy_terms(policy: SkiPolicy, b: int):
    """The checked terms of ``policy`` at ``b``: one tuple for y >= b, one for y < b.

    A day rule's tuple holds its buy day (`buy_day`) capped at X_MAX + 1,
    which also stands for never buying: no x <= X_MAX reaches that day, so
    a later day and never both cost x, and the day stays an int64.  The
    randomized rule's holds its support m, the normaliser 1 - r^m and the
    tail r^m, r = (b-1)/b.  The terms are kept per b in a private
    ``__dict__`` entry of the policy object, so a rule passed on every call
    is checked once per b.  Each object is checked by itself, never by a
    cache keyed on equal policies:
    ``SkiPolicy(RANDOMIZED, True)`` equals ``SkiPolicy(RANDOMIZED, 1.0)``
    but must still be rejected.
    """
    cache = policy.__dict__.setdefault("_terms", {})
    terms = cache.get(b)
    if terms is None:
        if policy.kind is PolicyKind.RANDOMIZED:
            terms = []
            for big in (True, False):
                m = _support_size(b, policy.lam, big)
                tail = ((b - 1) / b) ** m
                terms.append((m, 1.0 - tail, tail))
        else:
            days = (buy_day(policy, b, big) for big in (True, False))
            terms = [(X_MAX + 1 if day is None else min(day, X_MAX + 1),) for day in days]
        cache[b] = terms
    return terms


def _check_draws(u) -> np.ndarray:
    """Uniform draws ``u`` as float64 (`_floats`), rejecting any outside [0, 1) with `_require`.

    ``u`` is any real array-like, a list included, and is taken in float64
    whatever its own precision, as lambda is.  A bad entry of an array is
    named by that float64 value, and a bad scalar as given.
    """
    message = "uniform draws u must lie in [0, 1)"
    draws = _floats(u, message, message)
    _require((draws >= 0.0) & (draws < 1.0), draws if draws.ndim else u, message)  # NaN fails
    return draws


def _drawn_day(b: int, m: int, norm: float, tail: float, u):
    """Buy day the inverse CDF picks for draws ``u``, support m, normaliser 1 - r^m, tail r^m."""
    with np.errstate(divide="ignore"):
        day = m + 1 - np.ceil(np.log(u * norm + tail) / math.log((b - 1) / b))
    return np.clip(day, 1, m).astype(np.int64)


def randomized_buy_day(b: int, lam: float, big: bool, u):
    """Buy day a randomized rule (Karlin at lambda = 1) picks for uniform [0,1) draws ``u``.

    With support m and r = (b-1)/b, day i has mass proportional to r^(m-i),
    so the CDF is F(i) = (r^(m-i) - r^m) / (1 - r^m) and the smallest day
    with F(i) > u is m + 1 - ceil(log(u(1 - r^m) + r^m) / log r).  The day
    is clipped to [1, m] in float before the cast: u = 0 with an underflowed
    r^m takes the log of 0.  ``u`` is any real array-like, taken in float64
    (`_check_draws`).  Returns an int64 scalar or array shaped like u.
    """
    _check_count("b", b, 2, B_MAX)
    u = _check_draws(u)
    terms = _policy_terms(SkiPolicy(PolicyKind.RANDOMIZED, lam), b)
    return _drawn_day(b, *terms[0 if big else 1], u)


def _cost_on_branch(kind: PolicyKind, b: int, terms, xs, u):
    """`ski_cost` on one branch, given its `_policy_terms` tuple, for every entry of ``xs``."""
    if kind is not PolicyKind.RANDOMIZED:
        (day,) = terms
    elif u is None:
        m, norm, _ = terms
        return np.minimum(xs, m) / norm
    else:
        day = _drawn_day(b, *terms, u)
    # day - 1 is at most X_MAX, so float64 xs compare with it exactly
    return 1.0 * np.where(xs <= day - 1, xs, b + day - 1)


def ski_cost(policy: SkiPolicy, b: int, xs, ys, u=None):
    """Cost of ``policy`` for skiing days ``xs`` under predictions ``ys``.

    ``xs`` and ``ys`` are scalars or broadcastable arrays, and the result a
    float array of their broadcast shape; each entry takes the branch its own
    prediction selects, y >= b or y < b.  The day rules (naive,
    deterministic) buy on their `buy_day` d and cost x if x < d, else
    b + d - 1, where never buying is day X_MAX + 1 (`_policy_terms`).
    Without ``u`` the randomized rule is scored exactly: support size m,
    expected cost min(x, m) / (1 - r^m), r = (b-1)/b, since each skiing
    day up to m adds the same 1 / (1 - r^m).  With uniform [0,1) draws
    ``u``, any real array-like (a list too) that broadcasts and is taken in
    float64 (`_check_draws`), it buys on the day the branch's inverse CDF
    picks for each draw (`randomized_buy_day`) and costs like a day rule;
    the day rules ignore ``u``.  Both branches are priced over ``xs`` from
    the policy's checked terms at ``b`` (`_policy_terms`) and each entry
    takes its own, so an (x, y) grid prices two costs per x, not one per
    point.  ``b`` must be an integer in [2, B_MAX].
    ``xs`` and ``ys`` are the caller's to check (`SkiInstance`,
    `DemandInstance` and the sweep draws do): two element checks here would
    cost about as much as a scalar call itself.
    """
    _check_count("b", b, 2, B_MAX)
    if u is not None and policy.kind is PolicyKind.RANDOMIZED:
        u = _check_draws(u)
    big, small = (
        _cost_on_branch(policy.kind, b, terms, xs, u) for terms in _policy_terms(policy, b)
    )
    return np.where(np.greater_equal(ys, b), big, small)


def policy_cost(instance: SkiInstance, policy: SkiPolicy, u=None) -> float:
    """Cost of running ``policy`` on ``instance``.

    The randomized rule is scored by its exact expected cost unless one
    uniform [0, 1) draw ``u``, a real scalar, is given; then it buys on the
    day that draw picks, as in `ski_cost`.  The day rules ignore ``u``.
    """
    _require(u is None or _is_real(u), u, "policy_cost takes one uniform draw u, a real scalar")
    return float(ski_cost(policy, instance.b, instance.x, instance.y, u))
