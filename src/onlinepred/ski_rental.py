"""Rent-or-buy decision rules, with and without a day-count prediction.

Costs are in rent-day units: renting costs 1 per day, buying costs ``b``
once.  Day indexing is 1-based and "buy at the start of day j" means j-1
rental days were paid before the purchase.  Everything here is a pure
function of its inputs; sampling takes an explicit numpy generator.

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
from typing import Optional

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


def _check_lambda(lam, low: float, closed: bool, message: str, arrays: bool = False) -> None:
    """Reject a lambda outside (low, 1] if ``closed``, else (low, 1), with `_require`.

    Lambda is a real scalar: a float, an int or their numpy kinds, never a
    bool, a str or a Fraction.  With ``arrays`` (the bounds) a real numpy
    array is accepted too.  A Python float gives a plain True and skips numpy.
    """
    if arrays and isinstance(lam, np.ndarray):
        # every entry of a non-real array fails, so the message names the first
        real = lam.dtype.kind in "iuf" or np.zeros(lam.shape, bool)
    else:
        real = type(lam) is float or (
            isinstance(lam, (float, int, np.floating, np.integer)) and not isinstance(lam, bool)
        )
    inside = (low < lam) & ((lam <= 1) if closed else (lam < 1)) if real is True else real
    _require(inside, lam, message)


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
        _require(0 <= self.y < math.inf, self.y, "prediction y must be a finite real >= 0")

    @property
    def error(self) -> float:
        """Absolute prediction error |y - x|."""
        return abs(self.y - self.x)


@dataclass(frozen=True)
class SkiPolicy:
    """A decision rule plus its hyperparameter, validated at use time.

    Break-even is ``SkiPolicy(DETERMINISTIC, 1.0)`` and Karlin's rule
    ``SkiPolicy(RANDOMIZED, 1.0)``; the naive rule takes no lambda.
    """

    kind: PolicyKind
    lam: Optional[float] = None


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
    if policy.kind is PolicyKind.NAIVE:
        return 1 if big else None
    if policy.kind is not PolicyKind.DETERMINISTIC:
        raise ValueError("the randomized rule draws its buy day; see randomized_buy_day")
    _check_lambda(policy.lam, 0, True, "deterministic rule requires lambda in (0, 1]")
    lam = float(policy.lam)  # a numpy lambda would warn where b / lambda overflows
    q = lam * b if big else b / lam
    if math.isinf(q):  # b / lambda in exact integer arithmetic, lambda = num / den
        num, den = lam.as_integer_ratio()
        return -(-b * den // num)
    return math.ceil(_snap(q))


def randomized_buy_day(b: int, lam: float, big: bool, u):
    """Buy day a randomized rule (Karlin at lambda = 1) picks for uniform [0,1) draws ``u``.

    With support m and r = (b-1)/b, day i has mass proportional to r^(m-i),
    so the CDF is F(i) = (r^(m-i) - r^m) / (1 - r^m) and the smallest day
    with F(i) > u is m + 1 - ceil(log(u(1 - r^m) + r^m) / log r).  The day
    is clipped to [1, m] in float before the cast: u = 0 with an underflowed
    r^m takes the log of 0.  Returns an int64 scalar or array shaped like u.
    """
    inside = np.logical_and(np.greater_equal(u, 0.0), np.less(u, 1.0))  # NaN fails
    _require(inside, u, "uniform draws u must lie in [0, 1)")
    m = _support_size(b, lam, big)
    ratio = (b - 1) / b
    tail = ratio**m
    with np.errstate(divide="ignore"):
        day = m + 1 - np.ceil(np.log(u * (1.0 - tail) + tail) / math.log(ratio))
    return np.clip(day, 1, m).astype(np.int64)


def _cost_on_branch(policy: SkiPolicy, b: int, big: bool, xs, u):
    """`ski_cost` on the branch ``big`` for every entry of ``xs``."""
    if policy.kind is PolicyKind.RANDOMIZED:
        if u is None:
            m = _support_size(b, policy.lam, big)
            ratio = (b - 1) / b
            return np.minimum(xs, m) / (1.0 - ratio**m)
        day = randomized_buy_day(b, policy.lam, big, u)
    else:
        day = buy_day(policy, b, big)
        if day is None:
            return xs * 1.0  # never buys
        # a later day costs the same for every x <= X_MAX, and stays an int64
        day = min(day, X_MAX + 1)
    return 1.0 * np.where(xs < day, xs, b + day - 1)


def ski_cost(policy: SkiPolicy, b: int, xs, ys, u=None):
    """Cost of ``policy`` for skiing days ``xs`` under predictions ``ys``.

    ``xs`` and ``ys`` are scalars or broadcastable arrays, and the result a
    float array of their broadcast shape; each entry takes the branch its own
    prediction selects, y >= b or y < b.  The day rules (naive,
    deterministic) buy on their `buy_day` d and cost x if x < d, else
    b + d - 1.  Without ``u`` the randomized rule is scored exactly: support
    size m, expected cost min(x, m) / (1 - r^m), r = (b-1)/b, since each
    skiing day up to m adds the same 1 / (1 - r^m).  With uniform [0,1)
    draws ``u`` (broadcastable too) it buys on the day the branch's inverse
    CDF picks for each draw (`randomized_buy_day`) and costs like a day rule;
    the day rules ignore ``u``.  ``b`` must be an integer in [2, B_MAX].
    ``xs`` and ``ys`` are the caller's to check (`SkiInstance`,
    `DemandInstance` and the sweep draws do): two element checks here would
    add about 10 us to every call, near doubling a scalar call's 12 us.
    """
    _check_count("b", b, 2, B_MAX)
    big, small = (_cost_on_branch(policy, b, branch, xs, u) for branch in (True, False))
    return np.where(np.greater_equal(ys, b), big, small)


def policy_cost(
    instance: SkiInstance,
    policy: SkiPolicy,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Cost of running ``policy`` on ``instance``.

    The randomized rule is scored by its exact expected cost unless a
    generator is supplied, in which case a single buy day is sampled.
    """
    u = rng.random() if rng is not None and policy.kind is PolicyKind.RANDOMIZED else None
    return float(ski_cost(policy, instance.b, instance.x, instance.y, u))
