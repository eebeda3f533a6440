"""Monte Carlo sweeps: average competitive ratio versus prediction noise.

Trial t of a sweep derives its own generator from (master seed, t) and draws
the instance plus a unit-variance noise direction once; the prediction at
noise level sigma is truth + sigma * direction.  Sharing the draws across
sigma levels and algorithms is plain common-random-numbers variance
reduction; determinism and per-trial seeding are unaffected.  Each trial is
drawn and scored once for every (sigma, algorithm) point; workers split the
trials into contiguous ranges whose results are stitched back in trial
order, so any worker count yields identical output.
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
from .ski_rental import PolicyKind, SkiPolicy, branch_cost
from .workloads import ParetoJobModel, derived_rng, gen_pareto_jobs, gen_ski_instance

DEFAULT_SEED = 271828
LAMBDA_RAND_DEFAULT = math.log(1.5)

# Stream key for the job set in fixed-jobs mode; far above any trial index.
_FIXED_JOBS_STREAM = 0x4A4F4253

SKI_SWEEP = "ski-sweep"
SCHED_SWEEP = "sched-sweep"

RR_LABEL = "round-robin"
SPJF_LABEL = "spjf"
PRR_LABEL = "prr"


def default_ski_sigma_grid(b: int) -> Tuple[float, ...]:
    """Noise grid 0..4b in steps of b/10."""
    return tuple(i * (b / 10.0) for i in range(41))


def default_sched_sigma_grid(alpha: float) -> Tuple[float, ...]:
    """Noise grid 0..20*mean in steps of 2*mean of the job-length distribution."""
    mean = alpha / (alpha - 1.0)
    return tuple(i * 2.0 * mean for i in range(11))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; two configs are equal iff their outputs are.

    Construction rejects values outside the sweep's domain: a sigma grid
    that is not finite, non-negative and ascending; b, and both lambdas, for
    a ski sweep; alpha, n and the PRR lambda for a scheduling sweep.
    """

    experiment: str = SKI_SWEEP
    b: int = 100
    trials: int = 10000
    lambda_det: float = 0.5
    lambda_rand: float = LAMBDA_RAND_DEFAULT
    n: int = 50
    alpha: float = 1.1
    lambda_sched: float = 0.5
    sigma_grid: Tuple[float, ...] = ()
    master_seed: int = DEFAULT_SEED
    exact_expectation: bool = True
    regenerate_jobs: bool = True
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        grid = tuple(float(s) for s in self.sigma_grid)
        if not grid:
            if self.experiment == SCHED_SWEEP:
                grid = default_sched_sigma_grid(self.alpha)
            else:
                grid = default_ski_sigma_grid(self.b)
            object.__setattr__(self, "sigma_grid", grid)
        if not all(math.isfinite(s) and s >= 0 for s in self.sigma_grid):
            raise ValueError("sigma grid entries must be finite and non-negative")
        if any(lo > hi for lo, hi in zip(self.sigma_grid, self.sigma_grid[1:])):
            raise ValueError("sigma grid must be ascending")
        if self.experiment == SCHED_SWEEP:
            ParetoJobModel(alpha=self.alpha, n=self.n)  # rejects alpha <= 1 and n < 1
            if not 0 < self.lambda_sched < 1:
                raise ValueError(
                    f"scheduling lambda must lie in (0, 1), got {self.lambda_sched!r}"
                )
        else:
            if self.b < 2:
                raise ValueError(f"b must be >= 2, got {self.b!r}")
            for _, policy in ski_sweep_algorithms(self):
                branch_cost(policy, self.b, False, 1)  # the kernel checks lambda


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


def ski_sweep_algorithms(config: ExperimentConfig) -> List[Tuple[str, SkiPolicy]]:
    """The four sweep entrants: both classical rules and both lambda rules.

    Sampled-mode randomized entrants carry a "-sampled" suffix so the output
    records how they were scored.
    """
    rand_suffix = "" if config.exact_expectation else "-sampled"
    return [
        ("break-even", SkiPolicy(PolicyKind.BREAK_EVEN)),
        ("karlin" + rand_suffix, SkiPolicy(PolicyKind.KARLIN)),
        ("deterministic", SkiPolicy(PolicyKind.DETERMINISTIC, config.lambda_det)),
        ("randomized" + rand_suffix, SkiPolicy(PolicyKind.RANDOMIZED, config.lambda_rand)),
    ]


def _ski_trials(config: ExperimentConfig, lo: int, hi: int):
    """Optima, errors and ratios of ski trials lo..hi-1 at every grid point.

    Each trial draws x days, a noise direction and, in sampled mode, one
    uniform each for the classical and the prediction randomized rule.
    """
    xs, draws, sampled = [], [], not config.exact_expectation
    for t in range(lo, hi):
        rng = derived_rng(config.master_seed, t)
        xs.append(gen_ski_instance(config.b, rng).x)
        draws.append((rng.standard_normal(), *(rng.random(2) if sampled else ())))
    xs, (zs, *us) = np.array(xs, dtype=np.int64), np.array(draws).T

    b, grid, entrants = config.b, config.sigma_grid, ski_sweep_algorithms(config)
    opts = np.minimum(xs, b).astype(float)
    etas = np.empty((len(grid), xs.size))
    ratios = np.empty((len(grid), len(entrants), xs.size))
    for s, sigma in enumerate(grid):
        ys = np.maximum(xs + sigma * zs, 0.0)
        etas[s] = np.abs(ys - xs)
        for a, (_, policy) in enumerate(entrants):
            u = us[0 if policy.kind is PolicyKind.KARLIN else 1] if sampled else None
            costs = np.where(
                ys >= b, branch_cost(policy, b, True, xs, u), branch_cost(policy, b, False, xs, u)
            )
            ratios[s, a] = costs / opts
    return opts, etas, ratios


def sched_sweep_algorithms(config: ExperimentConfig):
    """(label, lambda, scheduler) of the three scheduling entrants."""
    lam = config.lambda_sched
    return [
        (RR_LABEL, None, round_robin), (SPJF_LABEL, None, spjf), (PRR_LABEL, lam, partial(prr, lam=lam))
    ]


def _sched_trials(config: ExperimentConfig, lo: int, hi: int):
    """Optima, errors and ratios of scheduling trials lo..hi-1 at every grid point.

    Each trial draws its job set (unless the jobs are fixed) and noise
    direction once; the SJF optimum depends only on the true lengths.
    """
    model = ParetoJobModel(alpha=config.alpha, n=config.n)
    fixed = None
    if not config.regenerate_jobs:
        fixed = gen_pareto_jobs(model, derived_rng(config.master_seed, _FIXED_JOBS_STREAM))
    grid, entrants = config.sigma_grid, sched_sweep_algorithms(config)
    opts = np.empty(hi - lo)
    etas = np.empty((len(grid), hi - lo))
    ratios = np.empty((len(grid), len(entrants), hi - lo))
    for i, t in enumerate(range(lo, hi)):
        rng = derived_rng(config.master_seed, t)
        base = fixed if fixed is not None else gen_pareto_jobs(model, rng)
        z = rng.standard_normal(config.n)
        opts[i] = sjf_opt(base).objective
        for s, sigma in enumerate(grid):
            jobs = base.with_predictions(base.lengths + sigma * z)
            etas[s, i] = prediction_error(jobs)
            for a, (_, _, schedule) in enumerate(entrants):
                ratios[s, a, i] = schedule(jobs).objective / opts[i]
    return opts, etas, ratios


def _run_trials(config: ExperimentConfig, draw, experiment: str, entrants) -> List[TrialReport]:
    """One report per (sigma, entrant) from ``draw(config, lo, hi)`` over all trials.

    Workers take contiguous trial ranges, at most one per trial; the chunks
    are stitched back in trial order, so the worker count changes no value.
    """
    chunks = min(config.workers, config.trials)
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


def run_ski_sweep(config: ExperimentConfig) -> List[TrialReport]:
    """Mean competitive ratio per (sigma, algorithm) for the rent-or-buy rules."""
    entrants = [(label, p.effective_lambda()) for label, p in ski_sweep_algorithms(config)]
    return _run_trials(config, _ski_trials, SKI_SWEEP, entrants)


def run_scheduling_sweep(config: ExperimentConfig) -> List[TrialReport]:
    """Mean competitive ratio per (sigma, algorithm) for the schedulers."""
    entrants = [(label, lam) for label, lam, _ in sched_sweep_algorithms(config)]
    return _run_trials(config, _sched_trials, SCHED_SWEEP, entrants)


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
