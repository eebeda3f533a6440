"""Rent-or-buy decision rules, with and without a day-count prediction.

Costs are in rent-day units: renting costs 1 per day, buying costs ``b``
once.  Day indexing is 1-based and "buy at the start of day j" means j-1
rental days were paid before the purchase.  Everything here is a pure
function of its inputs; sampling takes an explicit numpy generator.

The rules see the prediction only through the branch y >= b, and
`branch_cost` turns a rule and a branch into exact costs in closed form.
A day rule buys on a fixed day d, so x days cost x if x < d, else b + d - 1.
A randomized rule puts mass proportional to r^(m-i) on buy days 1..m, with
r = (b-1)/b, and its expected cost telescopes to min(x, m) / (1 - r^m).
That mass is the geometric family of Karlin, Manasse, McGeoch and Owicki
(1994), whose CDF has the closed form F(i) = (r^(m-i) - r^m) / (1 - r^m).
Given uniform draws ``u`` instead, a randomized rule buys on the day that
inverts this CDF for each draw, in O(1) per draw and with no mass vector
built, and then costs like a day rule; so every sampled score goes
through `branch_cost` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

# lambda * b or b / lambda within this relative distance of an integer is that integer
SNAP_TOLERANCE = 1e-12


class PolicyKind(Enum):
    """The five rent-or-buy decision rules."""

    BREAK_EVEN = "break-even"          # rent b-1 days, buy on day b
    KARLIN = "karlin"                  # classical randomized rule
    NAIVE = "naive"                    # trust the prediction outright
    DETERMINISTIC = "deterministic"    # threshold rule with parameter lambda
    RANDOMIZED = "randomized"          # randomized rule with parameter lambda


@dataclass(frozen=True)
class SkiInstance:
    """One rent-or-buy instance.

    b: cost to buy (integer, at least 2, in rent-day units).
    x: actual number of skiing days (integer, at least 1).
    y: predicted number of skiing days (any non-negative real).
    """

    b: int
    x: int
    y: float

    def __post_init__(self):
        if not isinstance(self.b, (int, np.integer)) or self.b < 2:
            raise ValueError(f"buy cost b must be an integer >= 2, got {self.b!r}")
        if not isinstance(self.x, (int, np.integer)) or self.x < 1:
            raise ValueError(f"skiing days x must be an integer >= 1, got {self.x!r}")
        if not math.isfinite(self.y) or self.y < 0:
            raise ValueError(f"prediction y must be a finite real >= 0, got {self.y!r}")

    @property
    def error(self) -> float:
        """Absolute prediction error |y - x|."""
        return abs(self.y - self.x)


@dataclass(frozen=True)
class SkiPolicy:
    """A decision rule plus its hyperparameter, validated at use time."""

    kind: PolicyKind
    lam: Optional[float] = None

    def effective_lambda(self) -> float:
        """The lambda actually applied: the classical rules pin it to 1."""
        if self.kind in (PolicyKind.BREAK_EVEN, PolicyKind.KARLIN):
            return 1.0
        if self.kind is PolicyKind.NAIVE:
            raise ValueError("the naive rule has no lambda parameter")
        if self.lam is None:
            raise ValueError(f"policy {self.kind.value!r} requires a lambda value")
        return self.lam

    @property
    def randomized(self) -> bool:
        """Whether the rule draws its buy day (Karlin, randomized)."""
        return self.kind in (PolicyKind.KARLIN, PolicyKind.RANDOMIZED)


def ski_opt(instance: SkiInstance) -> int:
    """Offline optimum: buy up front or rent every day, whichever is cheaper."""
    return min(instance.b, instance.x)


def simulate_buy_day(instance: SkiInstance, buy_day: Optional[int]) -> int:
    """Cost of renting until ``buy_day`` then buying; ``None`` means never buy.

    If the skier leaves before the buy day the purchase never happens and
    every skiing day was rented.
    """
    if buy_day is None:
        return instance.x
    if not isinstance(buy_day, (int, np.integer)) or buy_day < 1:
        raise ValueError(f"buy_day must be a positive integer or None, got {buy_day!r}")
    if instance.x >= buy_day:
        return instance.b + int(buy_day) - 1
    return instance.x


def naive_buy_day(instance: SkiInstance) -> Optional[int]:
    """Trust the prediction: buy immediately if y >= b, otherwise never."""
    return 1 if instance.y >= instance.b else None


def _check_deterministic_lambda(lam: float) -> None:
    if not (isinstance(lam, (int, float, np.floating)) and 0 < lam <= 1):
        raise ValueError(f"deterministic rule requires lambda in (0, 1], got {lam!r}")


def _check_randomized_lambda(lam: float, b: int) -> None:
    if not (isinstance(lam, (int, float, np.floating)) and 1.0 / b < lam <= 1):
        raise ValueError(
            f"randomized rule requires lambda in (1/{b}, 1] for b={b}, got {lam!r}"
        )


def _snap(q: float):
    """``q``, or the nearest integer when ``q`` lies within a relative SNAP_TOLERANCE of it.

    Decimal lambdas are not exact in binary: 21 / 0.7 evaluates to
    30.000000000000004 and 0.28 * 25 to 7.000000000000001, so without the
    snap the rules would round to days 31 and 8 where 30 and 7 were meant.
    Scalar math only, since every kernel call goes through it.
    """
    n = round(q)
    return n if abs(q - n) <= SNAP_TOLERANCE * n else q


def _threshold_day(b: int, lam: float, big: bool) -> int:
    """Buy day of the deterministic rule: ceil(lambda*b) if big, else ceil(b/lambda), snapped."""
    _check_deterministic_lambda(lam)
    return math.ceil(_snap(lam * b if big else b / lam))


def _support_size(b: int, lam: float, big: bool) -> int:
    """Support of the randomized rule: floor(lambda*b) if big, else ceil(b/lambda), snapped."""
    _check_randomized_lambda(lam, b)
    return math.floor(_snap(lam * b)) if big else math.ceil(_snap(b / lam))


def deterministic_buy_day(instance: SkiInstance, lam: float) -> int:
    """Threshold rule: buy early when the prediction says buy, late otherwise."""
    return _threshold_day(instance.b, lam, instance.y >= instance.b)


def randomized_buy_day(b: int, lam: float, big: bool, u):
    """Buy day a randomized rule (Karlin at lambda = 1) picks for uniform [0,1) draws ``u``.

    With support m and r = (b-1)/b, day i has mass proportional to r^(m-i),
    so the CDF is F(i) = (r^(m-i) - r^m) / (1 - r^m) and the smallest day
    with F(i) > u is m + 1 - ceil(log(u(1 - r^m) + r^m) / log r).  The day
    is clipped to [1, m] in float before the cast: u = 0 with an underflowed
    r^m takes the log of 0.  Returns an int64 scalar or array shaped like u.
    """
    m = _support_size(b, lam, big)
    ratio = (b - 1) / b
    tail = ratio**m
    with np.errstate(divide="ignore"):
        day = m + 1 - np.ceil(np.log(u * (1.0 - tail) + tail) / math.log(ratio))
    return np.clip(day, 1, m).astype(np.int64)


def branch_cost(policy: SkiPolicy, b: int, big: bool, xs, u=None):
    """Cost of ``policy`` on one prediction branch for skiing days ``xs``.

    ``big`` selects the branch y >= b; ``xs`` is an int or an int array and
    the result a float or a float array of the same shape.  The day rules
    (break-even, deterministic, naive) buy on a fixed day d and cost x if
    x < d, else b + d - 1.  Without ``u`` the randomized rules (Karlin,
    randomized) are scored exactly: support size m, expected cost
    min(x, m) / (1 - r^m), r = (b-1)/b, since each skiing day up to m adds
    the same 1 / (1 - r^m).  With uniform [0,1) draws ``u`` (shaped like
    ``xs``) they buy on the day the branch's inverse CDF picks for each draw
    (`randomized_buy_day`) and cost like a day rule; the day rules ignore ``u``.
    """
    if policy.randomized:
        lam = policy.effective_lambda()
        if u is None:
            m = _support_size(b, lam, big)
            ratio = (b - 1) / b
            return np.minimum(xs, m) / (1.0 - ratio**m)
        day = randomized_buy_day(b, lam, big, u)
    elif policy.kind is PolicyKind.NAIVE:
        if not big:
            return xs * 1.0  # never buys
        day = 1
    else:
        day = _threshold_day(b, policy.effective_lambda(), big)
    return 1.0 * np.where(xs < day, xs, b + day - 1)


def randomized_expected_cost(instance: SkiInstance, lam: float) -> float:
    """Exact expected cost of the randomized rule."""
    return policy_cost(instance, SkiPolicy(PolicyKind.RANDOMIZED, lam))


def policy_cost(
    instance: SkiInstance,
    policy: SkiPolicy,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Cost of running ``policy`` on ``instance``.

    Randomized rules are scored by their exact expected cost unless a
    generator is supplied, in which case a single buy day is sampled.
    """
    u = rng.random() if rng is not None and policy.randomized else None
    return float(branch_cost(policy, instance.b, instance.y >= instance.b, instance.x, u))
