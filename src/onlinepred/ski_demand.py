"""Rent-or-buy with per-day demand: rent a machine-day for 1 or buy a machine
for b and cover one unit of demand on every later day.

An instance with daily demands decomposes into independent classical
instances, one per demand unit: unit j exists exactly on the days with
demand >= j, and those days renumbered consecutively form an ordinary
rent-or-buy problem.  Level j is therefore described in full by two counts,
x_j (days with demand >= j) and y_j (days predicted >= j), and every
function here scores the level arrays through `ski_rental.ski_cost`.
An instance keeps its days as two read-only vectors of its own, the demands
in int64 and the predictions in float64, and is equal only to itself.
It counts its levels on first use, in one stacked histogram pass: x_j sums
the days with each demand from the top level down to j, and y_j the same
over the predictions capped at the top level and cast to int64, a
truncation that floors a finite y >= 0, since y >= j exactly when
floor(y) >= j for an integer j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np

from .ski_rental import (
    B_MAX,
    PolicyKind,
    SkiPolicy,
    _check_count,
    _floats,
    _require,
    ski_cost,
)

# The level arrays hold one entry per unit of the largest daily demand
DEMAND_MAX = 1_000_000


def _check_days(demand) -> None:
    """Reject the first day that is not an integer in [0, DEMAND_MAX] (`_check_count`).

    A str or bytes is one day, named whole, never a sequence of characters or byte codes.
    """
    for day in [demand] if isinstance(demand, (str, bytes)) else demand:
        _check_count("daily demand", day, 0, DEMAND_MAX)


@dataclass(frozen=True, eq=False)
class DemandInstance:
    """Daily demand in [0, DEMAND_MAX], daily predicted demand, and the buy cost b in [2, B_MAX].

    Each demand is an integer (`_check_count`).  The predictions are one
    real vector (`_floats`) of finite entries >= 0, one per day; an int
    prediction is taken in float64 and must fit in one.  Demands are
    checked before predictions, each message naming the first bad entry.
    The instance copies them into new read-only vectors of its own,
    ``demand`` in int64 and ``predicted`` in float64, and never keeps a
    caller's array.  Copies and pickles are built again through the
    constructor, so they are checked and frozen anew.  Equality is
    identity, as for `JobSet`.
    """

    b: int
    demand: np.ndarray
    predicted: np.ndarray

    def __post_init__(self):
        _check_count("buy cost b", self.b, 2, B_MAX)
        try:
            ok = 0 < len(self.demand) == len(self.predicted)
        except TypeError:  # a scalar, a 0-d array or a generator has no length
            ok = False
        if not ok:
            raise ValueError("demand and predicted must be non-empty vectors of equal length")
        if isinstance(self.demand, np.ndarray) and self.demand.dtype.kind in "iu":
            demand = self.demand.astype(np.int64)  # a uint64 past int64 wraps below 0
        else:  # np.fromiter would read True as 1, 1.5 as 1 and '3' as 3
            _check_days(self.demand)
            demand = np.fromiter(self.demand, np.int64, len(self.demand))
        if demand.ndim != 1 or not ((demand >= 0) & (demand <= DEMAND_MAX)).all():
            _check_days(self.demand)  # names the first bad day
        message = "predicted demand must be a finite real >= 0"
        ys = _floats(self.predicted, message, "predicted demand must fit in a float64", copy=True)
        _require(ys.ndim == 1, self.predicted, message)
        _require(np.isfinite(ys) & (ys >= 0), ys, message)
        if demand.max() < 1:
            raise ValueError("at least one day must have positive demand")
        demand.flags.writeable = ys.flags.writeable = False
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "predicted", ys)

    def __reduce__(self):
        return type(self), (self.b, self.demand, self.predicted)

    @property
    def horizon(self) -> int:
        return self.demand.size

    @property
    def max_demand(self) -> int:
        return int(self.demand.max())

    @property
    def error(self) -> float:
        """Total L1 error between predicted and actual daily demand, added up day by day."""
        return sum(np.abs(self.demand - self.predicted).tolist(), 0.0)

    @cached_property
    def _level_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        demand_counts = np.bincount(self.demand)
        top = demand_counts.size - 1  # the largest daily demand
        # clipped before the int cast, so a prediction of 1e300 is safe; the
        # cast truncates, which floors a finite y >= 0
        floors = np.minimum(self.predicted, top).astype(np.int64)
        counts = np.array([demand_counts, np.bincount(floors, minlength=top + 1)])
        # level j counts the days at j or above: bins top..j summed from the top down
        levels = np.add.accumulate(counts[:, :0:-1], axis=1)
        levels.flags.writeable = False  # shared by every caller, rows included
        return levels[0, ::-1], levels[1, ::-1]


def decompose(instance: DemandInstance) -> Tuple[np.ndarray, np.ndarray]:
    """Per-level counts ``(xs, ys)`` for demand levels 1..max demand.

    ``xs[j-1]`` counts the days with demand >= j (the skiing days of level
    j) and ``ys[j-1]`` the days with predicted demand >= j (its prediction).
    The read-only int64 arrays are counted once per instance, by histogram.
    """
    return instance._level_counts


def demand_opt(instance: DemandInstance) -> int:
    """Offline optimum: each demand unit independently rents or buys."""
    xs, _ = decompose(instance)
    return int(np.minimum(xs, instance.b).sum())


def demand_algorithm_cost(instance: DemandInstance, policy: SkiPolicy, u=None) -> float:
    """Total cost of running a lambda rule independently on every level.

    Randomized levels are scored by exact expectation unless uniform [0, 1)
    draws ``u`` are given, one per level in level order (``max_demand`` of
    them); then each level buys on the day its own draw picks, as in
    `ski_cost`.  The deterministic rule ignores ``u``.
    """
    if policy.kind is PolicyKind.NAIVE:
        raise ValueError("the demand extension is defined for the lambda rules only")
    xs, ys = decompose(instance)
    if u is not None:  # a scalar would broadcast to every level
        shape, wanted = np.shape(u), xs.shape
        _require(shape == wanted, shape, f"u must hold one draw per demand level, shape {wanted}")
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
