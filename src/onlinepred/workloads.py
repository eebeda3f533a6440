"""Synthetic workload generators: uniform ski demand, Gaussian prediction noise,
heavy-tailed job lengths.

Reproducibility contract: every generator is a deterministic function of its
arguments and the generator passed in; `derived_rng` builds per-trial streams
by hashing (master seed, indices), so trials can run in any order or in
parallel without changing a single draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .scheduling import JobSet
from .ski_rental import SkiInstance

GAUSSIAN_ADDITIVE = "gaussian-additive"


@dataclass(frozen=True)
class NoiseModel:
    """Additive Gaussian prediction noise with standard deviation sigma."""

    sigma: float
    kind: str = GAUSSIAN_ADDITIVE

    def __post_init__(self):
        if self.kind != GAUSSIAN_ADDITIVE:
            raise ValueError(f"unsupported noise kind {self.kind!r}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be a finite real >= 0, got {self.sigma!r}")


@dataclass(frozen=True)
class ParetoJobModel:
    """I.i.d. Pareto job lengths: survival (scale/t)^alpha for t >= scale.

    Lengths are floored at max(scale, 1) so the shortest job is never below
    one unit, matching the normalization the schedulers assume.
    """

    alpha: float
    scale: float = 1.0
    n: int = 50

    def __post_init__(self):
        if not self.alpha > 1:
            raise ValueError(f"alpha must exceed 1, got {self.alpha!r}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n!r}")


def derived_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for one trial: a deterministic hash of (master seed, key)."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, *key)))


def apply_noise(
    true_value: float,
    model: NoiseModel,
    rng: np.random.Generator,
    clamp_zero: bool = False,
) -> float:
    """Predicted value: the truth plus one Gaussian draw of the model's sigma."""
    predicted = float(true_value) + model.sigma * float(rng.standard_normal())
    if clamp_zero and predicted < 0:
        return 0.0
    return predicted


def gen_ski_instance(
    b: int,
    rng: np.random.Generator,
    noise: Optional[NoiseModel] = None,
) -> SkiInstance:
    """Ski instance with x uniform on {1..4b}; y is x plus optional noise.

    Ski predictions are day counts, so noisy predictions clamp at zero.
    """
    if b < 2:
        raise ValueError(f"b must be >= 2, got {b!r}")
    x = int(rng.integers(1, 4 * b + 1))
    y = apply_noise(x, noise, rng, clamp_zero=True) if noise is not None else float(x)
    return SkiInstance(b, x, y)


def gen_pareto_jobs(model: ParetoJobModel, rng: np.random.Generator) -> JobSet:
    """Job set with Pareto lengths; predictions start out perfect (y = x)."""
    lengths = model.scale * (1.0 + rng.pareto(model.alpha, model.n))
    lengths = np.maximum(lengths, max(model.scale, 1.0))
    return JobSet.from_lengths(lengths.tolist())
