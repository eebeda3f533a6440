"""Monte Carlo sweeps: average competitive ratio versus prediction noise.

Each problem has its own config type, ``SkiSweepConfig`` or
``SchedSweepConfig``, and its own runner.  Trial t of a sweep derives its
own generator from (seed, t) and draws the instance plus a unit-variance
noise direction once; the prediction at noise level sigma is
truth + sigma * direction.  Sharing the draws across sigma levels and
algorithms is plain common-random-numbers variance reduction.  Each trial is
drawn and scored once for every (sigma, algorithm) point; ``jobs`` workers
split the trials into contiguous ranges whose results are stitched back in
trial order, so any worker count yields identical output.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from . import bounds
from .scheduling import prediction_error, prr, round_robin, sjf_opt, spjf
from .ski_rental import PolicyKind, SkiPolicy, ski_cost
from .workloads import ParetoJobModel, _check_count, derived_rng, gen_pareto_jobs, gen_ski_instance

DEFAULT_SEED = 271828
LAMBDA_RAND_DEFAULT = math.log(1.5)

# Stream key for the job set in fixed-jobs mode; far above any trial index.
_FIXED_JOBS_STREAM = 0x4A4F4253

RR_LABEL = "round-robin"
SPJF_LABEL = "spjf"
PRR_LABEL = "prr"


def _check_sweep(config, default_grid: Tuple[float, ...]) -> None:
    """Check the counts shared by both sweeps; store the sigma grid, or the default if empty."""
    _check_count("trials", config.trials, 1)
    _check_count("jobs", config.jobs, 1)
    _check_count("seed", config.seed, 0)
    grid = tuple(float(s) for s in config.sigma_grid) or default_grid
    if not all(math.isfinite(s) and s >= 0 for s in grid):
        raise ValueError("sigma grid entries must be finite and non-negative")
    if any(lo > hi for lo, hi in zip(grid, grid[1:])):
        raise ValueError("sigma grid must be ascending")
    object.__setattr__(config, "sigma_grid", grid)


@dataclass(frozen=True)
class SkiSweepConfig:
    """Everything a rent-or-buy sweep needs; two configs are equal iff their outputs are.

    Construction rejects a non-integer count, b < 2, a lambda outside its
    rule's range and a sigma grid that is not finite, non-negative and
    ascending.  An empty grid means 0..4b in steps of b/10.  ``sampled``
    scores the randomized rules by one sampled buy day.
    """

    b: int = 100
    trials: int = 10000
    lambda_det: float = 0.5
    lambda_rand: float = LAMBDA_RAND_DEFAULT
    sampled: bool = False
    sigma_grid: Tuple[float, ...] = ()
    seed: int = DEFAULT_SEED
    jobs: int = 1

    def __post_init__(self):
        _check_count("b", self.b, 2)
        _check_sweep(self, tuple(i * (self.b / 10.0) for i in range(41)))
        for _, policy in ski_sweep_algorithms(self):
            ski_cost(policy, self.b, 1, 0.0)  # the kernel checks lambda


@dataclass(frozen=True)
class SchedSweepConfig:
    """Everything a scheduling sweep needs; two configs are equal iff their outputs are.

    Construction rejects a non-integer count, n < 1, alpha <= 1, a PRR lambda
    outside (0, 1) and a sigma grid that is not finite, non-negative and
    ascending.  An empty grid means 0..20 mean job lengths in steps of 2.
    ``fixed_jobs`` draws one job set and resamples only the noise.
    """

    n: int = 50
    alpha: float = 1.1
    trials: int = 1000
    lambda_sched: float = 0.5
    fixed_jobs: bool = False
    sigma_grid: Tuple[float, ...] = ()
    seed: int = DEFAULT_SEED
    jobs: int = 1

    def __post_init__(self):
        ParetoJobModel(alpha=self.alpha, n=self.n)  # rejects a bad n, then alpha <= 1
        mean = self.alpha / (self.alpha - 1.0)
        _check_sweep(self, tuple(i * 2.0 * mean for i in range(11)))
        if not 0 < self.lambda_sched < 1:
            raise ValueError(f"scheduling lambda must lie in (0, 1), got {self.lambda_sched!r}")


@dataclass
class TrialReport:
    """Per-trial optima, ratios and errors for one (sigma, algorithm) grid point."""

    experiment: str
    algorithm: str
    lam: Optional[float]
    sigma: float
    opt_costs: np.ndarray
    ratios: np.ndarray
    etas: np.ndarray

    @property
    def count(self) -> int:
        return int(self.ratios.size)

    @property
    def mean_ratio(self) -> float:
        return float(self.ratios.mean())

    @property
    def mean_eta(self) -> float:
        return float(self.etas.mean())

    @property
    def max_ratio(self) -> float:
        return float(self.ratios.max())


def ski_sweep_algorithms(config: SkiSweepConfig) -> List[Tuple[str, SkiPolicy]]:
    """The four sweep entrants: both lambda rules at lambda = 1 and at the config's lambdas.

    At lambda = 1 the rules are the classical break-even and Karlin rules.
    Sampled-mode randomized entrants carry a "-sampled" suffix so the output
    records how they were scored.
    """
    rand_suffix = "-sampled" if config.sampled else ""
    return [
        ("break-even", SkiPolicy(PolicyKind.DETERMINISTIC, 1.0)),
        ("karlin" + rand_suffix, SkiPolicy(PolicyKind.RANDOMIZED, 1.0)),
        ("deterministic", SkiPolicy(PolicyKind.DETERMINISTIC, config.lambda_det)),
        ("randomized" + rand_suffix, SkiPolicy(PolicyKind.RANDOMIZED, config.lambda_rand)),
    ]


def _ski_trials(config: SkiSweepConfig, lo: int, hi: int):
    """Optima, errors and ratios of ski trials lo..hi-1 at every grid point.

    Each trial draws x days, a noise direction and, in sampled mode, one
    uniform per randomized entrant: the k-th randomized entrant takes the
    k-th uniform, so two entrants that share a policy still draw apart.
    """
    xs, draws, sampled = [], [], config.sampled
    for t in range(lo, hi):
        rng = derived_rng(config.seed, t)
        xs.append(gen_ski_instance(config.b, rng).x)
        draws.append((rng.standard_normal(), *(rng.random(2) if sampled else ())))
    xs, (zs, *us) = np.array(xs, dtype=np.int64), np.array(draws).T

    b, grid, entrants = config.b, config.sigma_grid, ski_sweep_algorithms(config)
    draws_left = iter(us)
    uniforms = [
        next(draws_left) if sampled and p.kind is PolicyKind.RANDOMIZED else None
        for _, p in entrants
    ]
    opts = np.minimum(xs, b).astype(float)
    etas = np.empty((len(grid), xs.size))
    ratios = np.empty((len(grid), len(entrants), xs.size))
    for s, sigma in enumerate(grid):
        ys = np.maximum(xs + sigma * zs, 0.0)
        etas[s] = np.abs(ys - xs)
        for a, (_, policy) in enumerate(entrants):
            ratios[s, a] = ski_cost(policy, b, xs, ys, uniforms[a]) / opts
    return opts, etas, ratios


def sched_sweep_algorithms(config: SchedSweepConfig):
    """(label, lambda, scheduler) of the three scheduling entrants."""
    lam = config.lambda_sched
    return [
        (RR_LABEL, None, round_robin), (SPJF_LABEL, None, spjf), (PRR_LABEL, lam, partial(prr, lam=lam))
    ]


def _sched_trials(config: SchedSweepConfig, lo: int, hi: int):
    """Optima, errors and ratios of scheduling trials lo..hi-1 at every grid point.

    Each trial draws its job set (unless the jobs are fixed) and noise
    direction once; the SJF optimum depends only on the true lengths.
    """
    model = ParetoJobModel(alpha=config.alpha, n=config.n)
    fixed = None
    if config.fixed_jobs:
        fixed = gen_pareto_jobs(model, derived_rng(config.seed, _FIXED_JOBS_STREAM))
    grid, entrants = config.sigma_grid, sched_sweep_algorithms(config)
    opts = np.empty(hi - lo)
    etas = np.empty((len(grid), hi - lo))
    ratios = np.empty((len(grid), len(entrants), hi - lo))
    for i, t in enumerate(range(lo, hi)):
        rng = derived_rng(config.seed, t)
        base = fixed if fixed is not None else gen_pareto_jobs(model, rng)
        z = rng.standard_normal(config.n)
        opts[i] = sjf_opt(base).objective
        for s, sigma in enumerate(grid):
            jobs = base.with_predictions(base.lengths + sigma * z)
            etas[s, i] = prediction_error(jobs)
            for a, (_, _, schedule) in enumerate(entrants):
                ratios[s, a, i] = schedule(jobs).objective / opts[i]
    return opts, etas, ratios


def _run_trials(config, draw, experiment: str, entrants) -> List[TrialReport]:
    """One report per (sigma, entrant) from ``draw(config, lo, hi)`` over all trials.

    Workers take contiguous trial ranges, at most one per trial; the chunks
    are stitched back in trial order, so the worker count changes no value.
    """
    chunks = min(config.jobs, config.trials)
    if chunks == 1:
        opts, etas, ratios = draw(config, 0, config.trials)
    else:
        edges = [config.trials * k // chunks for k in range(chunks + 1)]
        with ProcessPoolExecutor(max_workers=chunks) as pool:
            parts = list(pool.map(draw, [config] * chunks, edges[:-1], edges[1:]))
        opts, etas, ratios = (np.concatenate(arrays, axis=-1) for arrays in zip(*parts))
    return [
        TrialReport(experiment, label, lam, sigma, opts, ratios[s, a], etas[s])
        for s, sigma in enumerate(config.sigma_grid)
        for a, (label, lam) in enumerate(entrants)
    ]


def run_ski_sweep(config: SkiSweepConfig) -> List[TrialReport]:
    """Mean competitive ratio per (sigma, algorithm) for the rent-or-buy rules."""
    if not isinstance(config, SkiSweepConfig):
        raise TypeError(f"expected a SkiSweepConfig, got {type(config).__name__}")
    entrants = [(label, p.lam) for label, p in ski_sweep_algorithms(config)]
    return _run_trials(config, _ski_trials, "ski-sweep", entrants)


def run_scheduling_sweep(config: SchedSweepConfig) -> List[TrialReport]:
    """Mean competitive ratio per (sigma, algorithm) for the schedulers."""
    if not isinstance(config, SchedSweepConfig):
        raise TypeError(f"expected a SchedSweepConfig, got {type(config).__name__}")
    entrants = [(label, lam) for label, lam, _ in sched_sweep_algorithms(config)]
    return _run_trials(config, _sched_trials, "sched-sweep", entrants)


@dataclass(frozen=True)
class TradeoffPoint:
    """Guarantee pair (robustness, consistency) of both rules at one lambda."""

    lam: float
    det_robustness: float
    det_consistency: float
    rand_robustness: float
    rand_consistency: float


def run_tradeoff_curve(b: int, lambdas) -> List[TradeoffPoint]:
    """Evaluate both guarantee pairs across a lambda grid at buy cost b."""
    points = []
    for lam in lambdas:
        points.append(
            TradeoffPoint(
                lam=float(lam),
                det_robustness=bounds.det_robustness(lam),
                det_consistency=bounds.det_consistency(lam),
                rand_robustness=bounds.rand_robustness(b, lam),
                rand_consistency=bounds.rand_consistency(lam),
            )
        )
    return points
