"""Synthetic workload generators: uniform ski demand and heavy-tailed job lengths.

Reproducibility contract: every generator is a deterministic function of its
arguments and the generator passed in; `derived_rng` builds per-trial streams
by hashing (master seed, indices), so trials can run in any order or in
parallel without changing a single draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scheduling import JobSet
from .ski_rental import SkiInstance, _check_count


@dataclass(frozen=True)
class ParetoJobModel:
    """I.i.d. Pareto job lengths: survival (1/t)^alpha for t >= 1.

    The shortest job is therefore never below one unit, matching the
    normalization the schedulers assume.
    """

    alpha: float
    n: int = 50

    def __post_init__(self):
        _check_count("n", self.n, 1)
        if not (math.isfinite(self.alpha) and self.alpha > 1):
            raise ValueError(f"alpha must be finite and exceed 1, got {self.alpha!r}")


def derived_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for one trial: a deterministic hash of (master seed, key)."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, *key)))


def gen_ski_instance(b: int, rng: np.random.Generator) -> SkiInstance:
    """Ski instance with x uniform on {1..4b} and a perfect prediction y = x."""
    if b < 2:
        raise ValueError(f"b must be >= 2, got {b!r}")
    x = int(rng.integers(1, 4 * b + 1))
    return SkiInstance(b, x, float(x))


def gen_pareto_jobs(model: ParetoJobModel, rng: np.random.Generator) -> JobSet:
    """Job set with Pareto lengths; predictions start out perfect (y = x)."""
    return JobSet.from_lengths(1.0 + rng.pareto(model.alpha, model.n))
