"""Rent-or-buy with per-day demand: rent a machine-day for 1 or buy a machine
for b and cover one unit of demand on every later day.

An instance with daily demands decomposes into independent classical
instances, one per demand unit: unit j exists exactly on the days with
demand >= j, and those days renumbered consecutively form an ordinary
rent-or-buy problem.  Level j is therefore described in full by two counts,
x_j (days with demand >= j) and y_j (days predicted >= j), and every
function here scores the level arrays through `ski_rental.ski_cost`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .ski_rental import B_MAX, PolicyKind, SkiPolicy, _check_count, _require, ski_cost


@dataclass(frozen=True)
class DemandInstance:
    """Daily demand, daily predicted demand, and the shared buy cost b in [2, B_MAX]."""

    b: int
    demand: Tuple[int, ...]
    predicted: Tuple[float, ...]

    def __post_init__(self):
        _check_count("buy cost b", self.b, 2, B_MAX)
        if len(self.demand) < 1 or len(self.demand) != len(self.predicted):
            raise ValueError("demand and predicted must be non-empty vectors of equal length")
        for d in self.demand:
            _check_count("daily demand", d, 0)
        ys = np.asarray(self.predicted)
        _require(np.isfinite(ys) & (ys >= 0), ys, "predicted demand must be a finite real >= 0")
        if max(self.demand) < 1:
            raise ValueError("at least one day must have positive demand")

    @property
    def horizon(self) -> int:
        return len(self.demand)

    @property
    def max_demand(self) -> int:
        return max(self.demand)

    @property
    def error(self) -> float:
        """Total L1 error between predicted and actual daily demand."""
        return float(sum(abs(x - y) for x, y in zip(self.demand, self.predicted)))

    @cached_property
    def _level_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        levels = np.arange(1, self.max_demand + 1)
        xs = self.horizon - np.searchsorted(np.sort(self.demand), levels)
        ys = self.horizon - np.searchsorted(np.sort(self.predicted), levels)
        xs.flags.writeable = ys.flags.writeable = False  # shared by every caller
        return xs, ys


def decompose(instance: DemandInstance) -> Tuple[np.ndarray, np.ndarray]:
    """Per-level counts ``(xs, ys)`` for demand levels 1..max demand.

    ``xs[j-1]`` counts the days with demand >= j (the skiing days of level
    j) and ``ys[j-1]`` the days with predicted demand >= j (its prediction).
    The read-only arrays are computed once per instance.
    """
    return instance._level_counts


def demand_opt(instance: DemandInstance) -> int:
    """Offline optimum: each demand unit independently rents or buys."""
    xs, _ = decompose(instance)
    return int(np.minimum(xs, instance.b).sum())


def demand_algorithm_cost(
    instance: DemandInstance,
    policy: SkiPolicy,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Total cost of running a lambda rule independently on every level.

    Randomized levels are scored by exact expectation when no generator is
    passed, otherwise each level, in level order, samples its own buy day
    from one uniform draw of ``rng``.
    """
    if policy.kind is PolicyKind.NAIVE:
        raise ValueError("the demand extension is defined for the lambda rules only")
    xs, ys = decompose(instance)
    u = rng.random(xs.size) if rng is not None and policy.kind is PolicyKind.RANDOMIZED else None
    costs = ski_cost(policy, instance.b, xs, ys, u)
    # level-order sum: numpy's pairwise sum would round differently
    return sum(costs.tolist(), 0.0)


def demand_level_error(instance: DemandInstance) -> float:
    """Sum over levels of the per-level prediction error |x_level - y_level|."""
    xs, ys = decompose(instance)
    return float(np.abs(xs - ys).sum())


def demand_opt_levels(instance: DemandInstance) -> List[int]:
    """Per-level offline optima; sums to `demand_opt`."""
    xs, _ = decompose(instance)
    return np.minimum(xs, instance.b).tolist()
