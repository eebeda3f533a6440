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
Given uniform draws ``u`` instead, a randomized rule buys on the day its
branch's inverse CDF picks for each draw and then costs like a day rule,
so every sampled score goes through `branch_cost` too.  The buy-day
distribution itself is only built for sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

# A mass vector passed to BuyDayDistribution must sum to 1 within this.
MASS_TOLERANCE = 1e-12


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


class BuyDayDistribution:
    """Probability mass over buy days 1..m."""

    __slots__ = ("mass", "_cdf")

    def __init__(self, mass):
        arr = np.asarray(mass, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("mass must be a non-empty 1-d vector")
        if np.any(arr < 0):
            raise ValueError("mass entries must be non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise ValueError(f"mass must sum to 1 within {MASS_TOLERANCE}, got {total!r}")
        self.mass = arr
        self._cdf = np.cumsum(arr)

    @property
    def support_size(self) -> int:
        return int(self.mass.size)

    def day_probability(self, day: int) -> float:
        """Mass assigned to buying at the start of ``day``."""
        if not 1 <= day <= self.support_size:
            return 0.0
        return float(self.mass[day - 1])


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


def _threshold_day(b: int, lam: float, big: bool) -> int:
    _check_deterministic_lambda(lam)
    return math.ceil(lam * b) if big else math.ceil(b / lam)


def _support_size(b: int, lam: float, big: bool) -> int:
    _check_randomized_lambda(lam, b)
    return math.floor(lam * b) if big else math.ceil(b / lam)


def deterministic_buy_day(instance: SkiInstance, lam: float) -> int:
    """Threshold rule: buy early when the prediction says buy, late otherwise."""
    return _threshold_day(instance.b, lam, instance.y >= instance.b)


def _branch_distribution(b: int, lam: float, big: bool) -> BuyDayDistribution:
    size = _support_size(b, lam, big)
    weights = ((b - 1) / b) ** np.arange(size - 1, -1, -1)
    return BuyDayDistribution(weights / weights.sum())


def randomized_distribution(instance: SkiInstance, lam: float) -> BuyDayDistribution:
    """Buy-day distribution of the randomized rule, for sampling.

    The prediction only selects the support size: floor(lambda*b) days when
    y >= b, ceil(b/lambda) days otherwise.  Within the support, day i gets
    mass proportional to ((b-1)/b)^(size-i).  The weights are normalised by
    their own sum, so the masses sum to 1 to rounding at any support size.
    """
    return _branch_distribution(instance.b, lam, instance.y >= instance.b)


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
    and cost like a day rule; the day rules ignore ``u``.
    """
    if policy.randomized:
        lam = policy.effective_lambda()
        if u is None:
            m = _support_size(b, lam, big)
            ratio = (b - 1) / b
            return np.minimum(xs, m) / (1.0 - ratio**m)
        day = buy_day_from_uniform(_branch_distribution(b, lam, big), u)
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


def sample_buy_day(dist: BuyDayDistribution, rng: np.random.Generator, size=None):
    """Inverse-CDF sample of a buy day; an int, or an array when ``size`` is given."""
    u = rng.random(size)
    return buy_day_from_uniform(dist, u)


def buy_day_from_uniform(dist: BuyDayDistribution, u):
    """Map uniform [0,1) draws to buy days through the distribution's CDF."""
    idx = np.searchsorted(dist._cdf, u, side="right")
    idx = np.minimum(idx, dist.support_size - 1)  # guard the cdf[-1] < 1 rounding case
    if np.isscalar(u) or getattr(u, "ndim", 0) == 0:
        return int(idx) + 1
    return idx.astype(int) + 1


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
