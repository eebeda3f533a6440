"""Monte Carlo sweeps: average competitive ratio versus prediction noise.

Trial t of a sweep derives its own generator from (master seed, t) and draws
the instance plus a unit-variance noise direction once; the prediction at
noise level sigma is truth + sigma * direction.  Sharing the draws across
sigma levels and algorithms is plain common-random-numbers variance
reduction; determinism and per-trial seeding are unaffected.  Work is
parallelized over (sigma, algorithm) blocks whose results depend only on the
configuration, so any worker count yields identical output.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
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


def default_sched_sigma_grid(alpha: float, scale: float = 1.0) -> Tuple[float, ...]:
    """Noise grid 0..20*mean in steps of 2*mean of the job-length distribution."""
    mean = scale * alpha / (alpha - 1.0)
    return tuple(i * 2.0 * mean for i in range(11))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; two configs are equal iff their outputs are."""

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
        if any(s < 0 for s in self.sigma_grid):
            raise ValueError("sigma grid entries must be non-negative")
        if any(lo > hi for lo, hi in zip(self.sigma_grid, self.sigma_grid[1:])):
            raise ValueError("sigma grid must be ascending")


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


def _validate_ski_config(config: ExperimentConfig) -> None:
    if config.b < 2:
        raise ValueError(f"b must be >= 2, got {config.b!r}")
    # surface lambda range errors before any work happens; the kernel checks
    # lambda without building a buy-day distribution
    for _, policy in ski_sweep_algorithms(config):
        branch_cost(policy, config.b, False, 1)


@lru_cache(maxsize=4)
def _draw_ski_trials(config: ExperimentConfig):
    """Per-trial (x, z, uniforms): x days, noise direction, sampling draws.

    Cached per configuration so every (sigma, algorithm) block in a process
    reuses the same draws; the blocks never mutate these arrays.
    """
    trials = config.trials
    xs = np.empty(trials, dtype=np.int64)
    zs = np.empty(trials, dtype=float)
    needs_u = not config.exact_expectation
    us = np.empty((2, trials), dtype=float) if needs_u else None
    for t in range(trials):
        rng = derived_rng(config.master_seed, t)
        xs[t] = gen_ski_instance(config.b, rng).x
        zs[t] = rng.standard_normal()
        if needs_u:
            us[0, t] = rng.random()  # classical randomized rule
            us[1, t] = rng.random()  # prediction randomized rule
    return xs, zs, us


def _ski_block(config: ExperimentConfig, sigma: float, alg_index: int) -> TrialReport:
    """One (sigma, algorithm) grid point of the ski sweep."""
    label, policy = ski_sweep_algorithms(config)[alg_index]
    xs, zs, us = _draw_ski_trials(config)
    b = config.b
    ys = np.maximum(xs + sigma * zs, 0.0)
    big = ys >= b
    etas = np.abs(ys - xs)
    opts = np.minimum(xs, b).astype(float)

    # sampled mode: one uniform per trial and randomized rule; day rules ignore it
    u = None if us is None else us[0 if policy.kind is PolicyKind.KARLIN else 1]
    costs = np.where(
        big, branch_cost(policy, b, True, xs, u), branch_cost(policy, b, False, xs, u)
    )

    return TrialReport(
        experiment=SKI_SWEEP,
        algorithm=label,
        lam=policy.effective_lambda(),
        sigma=float(sigma),
        opt_costs=opts,
        ratios=costs / opts,
        etas=etas,
    )


def _sched_algorithms(config: ExperimentConfig) -> List[Tuple[str, Optional[float]]]:
    return [(RR_LABEL, None), (SPJF_LABEL, None), (PRR_LABEL, config.lambda_sched)]


def _sched_block(config: ExperimentConfig, sigma: float, alg_index: int) -> TrialReport:
    """One (sigma, algorithm) grid point of the scheduling sweep."""
    label, lam = _sched_algorithms(config)[alg_index]
    model = ParetoJobModel(alpha=config.alpha, scale=1.0, n=config.n)
    fixed_jobs = None
    if not config.regenerate_jobs:
        fixed_jobs = gen_pareto_jobs(model, derived_rng(config.master_seed, _FIXED_JOBS_STREAM))

    trials = config.trials
    costs = np.empty(trials, dtype=float)
    opts = np.empty(trials, dtype=float)
    etas = np.empty(trials, dtype=float)
    for t in range(trials):
        rng = derived_rng(config.master_seed, t)
        base = fixed_jobs if fixed_jobs is not None else gen_pareto_jobs(model, rng)
        z = rng.standard_normal(config.n)
        preds = [j.length + sigma * z[i] for i, j in enumerate(base.jobs)]
        jobs = base.with_predictions(preds)
        if label == RR_LABEL:
            result = round_robin(jobs)
        elif label == SPJF_LABEL:
            result = spjf(jobs)
        else:
            result = prr(jobs, lam)
        costs[t] = result.objective
        opts[t] = sjf_opt(jobs).objective
        etas[t] = prediction_error(jobs)

    return TrialReport(
        experiment=SCHED_SWEEP,
        algorithm=label,
        lam=lam,
        sigma=float(sigma),
        opt_costs=opts,
        ratios=costs / opts,
        etas=etas,
    )


def _run_blocks(block_fn, config: ExperimentConfig, n_algs: int) -> List[TrialReport]:
    tasks = [
        (config, sigma, alg_index)
        for sigma in config.sigma_grid
        for alg_index in range(n_algs)
    ]
    if config.workers <= 1 or len(tasks) <= 1:
        return [block_fn(*task) for task in tasks]
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        return list(pool.map(block_fn, *zip(*tasks)))


def run_ski_sweep(config: ExperimentConfig) -> List[TrialReport]:
    """Mean competitive ratio per (sigma, algorithm) for the rent-or-buy rules."""
    _validate_ski_config(config)
    return _run_blocks(_ski_block, config, len(ski_sweep_algorithms(config)))


def run_scheduling_sweep(config: ExperimentConfig) -> List[TrialReport]:
    """Mean competitive ratio per (sigma, algorithm) for the schedulers."""
    if config.n < 1:
        raise ValueError(f"n must be >= 1, got {config.n!r}")
    if not 0 < config.lambda_sched < 1:
        raise ValueError(
            f"scheduling lambda must lie in (0, 1), got {config.lambda_sched!r}"
        )
    if not config.alpha > 1:
        raise ValueError(f"alpha must exceed 1, got {config.alpha!r}")
    return _run_blocks(_sched_block, config, len(_sched_algorithms(config)))


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
