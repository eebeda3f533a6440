"""Monte Carlo sweeps: average competitive ratio versus prediction noise.

Each problem has its own config type, ``SkiSweepConfig`` or
``SchedSweepConfig``, and its own runner.  Trial t of a sweep derives its
own generator from (seed, t) and draws the instance plus a unit-variance
noise direction once; the prediction at noise level sigma is
truth + sigma * direction.  Ski trials take those draws from
`workloads.ski_trial_draws`, which gives a whole block's in one array pass,
bit for bit as the generators would; scheduling trials draw from each
trial's generator in turn.  Sharing the draws across sigma levels and
algorithms is plain common-random-numbers variance reduction.

A block of trials is the unit of both the work and the reduction.  Blocks
sit on a fixed grid of trial indices, as many trials each as keep their
kernel entries within ``KERNEL_ENTRIES``.  A ski block makes one
``ski_cost`` call per rule, with one entry per sigma point per trial; a
scheduling block puts (sigma points + 1) rows of n jobs per trial in one
batched round-robin/PRR kernel call (round-robin ignores predictions, so it
takes one row per trial).  Each block is reduced to its sums of ratio and
error and its largest ratio per (sigma, algorithm); the sums are added in
block order.  ``jobs`` workers take whole blocks, so any worker count
yields identical output.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial, reduce
from typing import List, Optional, Tuple

import numpy as np

from .scheduling import objectives, prr_batch, sequential_batch
from .ski_rental import B_MAX, PolicyKind, SkiPolicy, ski_cost
from .ski_rental import _check_count, _check_lambda, _is_real, _require
from .workloads import DEFAULT_SEED, derived_rngs, gen_pareto_lengths, ski_trial_draws

LAMBDA_RAND_DEFAULT = math.log(1.5)
# Largest accepted noise level: truth + sigma * direction stays finite for
# any direction a trial can draw, so every prediction passes the kernels.
SIGMA_MAX = 1e300
JOBS_MAX = 64  # worker processes; the pool starts them all at once
N_MAX = 100_000  # jobs per set: 16 B per job (two float64 arrays)
TRIALS_MAX = 1_000_000
# A sweep scores one ratio per sigma point, algorithm and trial.  This caps
# a run's work at the default ski grid (41 points, 4 algorithms) at
# TRIALS_MAX; finer grids get proportionally fewer trials.  It also caps the
# block of a single trial whose grid alone passes KERNEL_ENTRIES.
SWEEP_MAX_RATIOS = 41 * 4 * TRIALS_MAX

# Stream key for the job set in fixed-jobs mode; above every trial index (< TRIALS_MAX).
_FIXED_JOBS_STREAM = 0x4A4F4253

# Bound on the kernel entries of one block of trials, which bounds a sweep's
# working set whatever the trial count.  It also fixes the block grid, and
# block sums are added in turn, so changing it can change the last bits of
# a multi-block sweep's means.
KERNEL_ENTRIES = 1 << 19


def _check_sweep(config, default_grid: Tuple[float, ...], entrants: int) -> None:
    """Check the counts, the sigma grid and the ratio count both sweeps share.

    The sweep scores grid points x ``entrants`` (its algorithm count) x
    trials ratios.  Stores the sigma grid, or the default if empty.
    """
    _check_count("trials", config.trials, 1, TRIALS_MAX)
    _check_count("jobs", config.jobs, 1, JOBS_MAX)
    _check_count("seed", config.seed, 0)
    grid, numbers = config.sigma_grid, "sigma grid must be a sequence of numbers"
    _require(not isinstance(grid, (str, bytes)), grid, numbers)
    grid = tuple(grid)
    for sigma in grid:
        _require(_is_real(sigma), sigma, numbers)
    grid = tuple(map(float, grid)) or default_grid
    sigmas = np.array(grid)  # NaN fails the range check too
    message = f"sigma grid entries must be finite and in [0, {SIGMA_MAX:g}]"
    _require((sigmas >= 0) & (sigmas <= SIGMA_MAX), sigmas, message)
    if any(lo > hi for lo, hi in zip(grid, grid[1:])):
        raise ValueError("sigma grid must be ascending")
    if len(grid) * entrants * config.trials > SWEEP_MAX_RATIOS:
        raise ValueError(
            f"{len(grid)} sigma points x {entrants} algorithms x {config.trials} trials "
            f"exceeds the limit of {SWEEP_MAX_RATIOS} ratios"
        )
    object.__setattr__(config, "sigma_grid", grid)


@dataclass(frozen=True)
class SkiSweepConfig:
    """Everything a rent-or-buy sweep needs; two configs are equal iff their outputs are.

    Construction rejects a non-integer count, b outside [2, B_MAX], a count
    over its limit, a lambda outside its rule's range and a sigma grid that
    is not real, finite, non-negative and ascending.  An empty grid means
    0..4b in steps of b/10.  ``sampled`` scores the randomized rules by one
    sampled buy day.
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
        _check_count("b", self.b, 2, B_MAX)
        entrants = ski_sweep_algorithms(self)
        _check_sweep(self, tuple(i * (self.b / 10.0) for i in range(41)), len(entrants))
        for _, policy in entrants:
            ski_cost(policy, self.b, 1, 0.0)  # the kernel checks lambda


@dataclass(frozen=True)
class SchedSweepConfig:
    """Everything a scheduling sweep needs; two configs are equal iff their outputs are.

    Construction rejects a non-integer count, n outside [1, N_MAX], a count
    over its limit, an alpha that is not a real > 1, a PRR lambda outside
    (0, 1) and a sigma grid that is not real, finite, non-negative and
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
        _check_count("n", self.n, 1, N_MAX)
        ok = _is_real(self.alpha) and 1 < self.alpha < math.inf
        _require(ok, self.alpha, "alpha must be finite and exceed 1")
        mean = float(self.alpha) / (float(self.alpha) - 1.0)  # the default grid is float64
        grid = tuple(i * 2.0 * mean for i in range(11))
        _check_sweep(self, grid, len(sched_sweep_algorithms(self)))
        _check_lambda(self.lambda_sched, 0, False, "PRR lambda must lie in (0, 1)")


@dataclass
class TrialReport:
    """Trial count, mean ratio, mean error and largest ratio of one (sigma, algorithm) point."""

    experiment: str
    algorithm: str
    lam: Optional[float]
    sigma: float
    count: int
    mean_ratio: float
    mean_eta: float
    max_ratio: float


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
    """Optima, errors and ratios of ski trials lo..hi-1.

    The arrays are indexed [trial], [sigma, trial] and [sigma, entrant,
    trial].  `ski_trial_draws` draws every trial of the block in one array
    pass, as trial t's ``derived_rngs`` generator would: x days, a noise
    direction and, in sampled mode, one uniform per randomized entrant.  The
    k-th randomized entrant takes the k-th uniform, so two entrants that
    share a policy still draw apart.
    """
    sampled = config.sampled
    xs, zs, us = ski_trial_draws(config.seed, config.b, np.arange(lo, hi), 2 if sampled else 0)

    b, grid, entrants = config.b, config.sigma_grid, ski_sweep_algorithms(config)
    draws_left = iter(us.T)
    uniforms = [
        next(draws_left) if sampled and p.kind is PolicyKind.RANDOMIZED else None
        for _, p in entrants
    ]
    opts = np.minimum(xs, b)
    ys = np.maximum(xs + np.array(grid)[:, None] * zs, 0.0)  # one row per sigma point
    etas = ys - xs
    np.abs(etas, out=etas)
    ratios = np.empty((len(grid), len(entrants), xs.size))
    for a, (_, policy) in enumerate(entrants):
        np.divide(ski_cost(policy, b, xs, ys, uniforms[a]), opts, out=ratios[:, a])
    return opts, etas, ratios


def sched_sweep_algorithms(config: SchedSweepConfig) -> List[Tuple[str, Optional[float]]]:
    """(label, lambda) of the three scheduling entrants."""
    return [("round-robin", None), ("spjf", None), ("prr", config.lambda_sched)]


def _sched_block(config: SchedSweepConfig, lo: int, hi: int):
    """Optima, errors and ratios of scheduling trials lo..hi-1, indexed as `_ski_trials`'s.

    Each trial's ``derived_rngs`` generator draws its job lengths (unless the
    jobs are fixed, drawn from their own stream) and noise direction once,
    straight into the kernel arrays.  Kernel rows come in groups of T, one
    per trial: first round-robin at lambda = 0, scored once per trial since
    it ignores predictions (its group takes the sigma = 0 predictions, which
    are the lengths), then PRR at each sigma.  SPJF and the errors come from
    the PRR groups' predictions.  Only when one trial's groups exceed
    KERNEL_ENTRIES do the groups take more than one call.
    """
    draw, fixed = partial(gen_pareto_lengths, config.alpha, config.n), None
    if config.fixed_jobs:
        fixed = draw(next(derived_rngs(config.seed, [_FIXED_JOBS_STREAM])))
    lengths, directions = [], []
    for rng in derived_rngs(config.seed, range(lo, hi)):
        lengths.append(draw(rng) if fixed is None else fixed)
        directions.append(rng.standard_normal(config.n))
    lengths, directions = np.array(lengths), np.array(directions)
    trials, n = lengths.shape
    sigmas = np.array((0.0, *config.sigma_grid))
    lams = np.array((0.0,) + (config.lambda_sched,) * len(config.sigma_grid))

    opts = objectives(sequential_batch(lengths, lengths))
    etas, ratios = np.empty((sigmas.size - 1, trials)), np.empty((sigmas.size - 1, 3, trials))
    shared = np.empty((sigmas.size, trials))
    per_call = max(1, KERNEL_ENTRIES // (trials * n))
    for g in range(0, sigmas.size, per_call):
        groups = slice(g, g + per_call)
        predicted = lengths + sigmas[groups, None, None] * directions
        first = max(g, 1)  # group 0 is round-robin's; group s + 1 is grid point s
        points, scored = slice(first - 1, g + per_call - 1), predicted[first - g:]
        etas[points] = objectives(np.abs(lengths - scored))
        ratios[points, 1] = objectives(sequential_batch(lengths, scored)) / opts
        kernel_lengths = np.broadcast_to(lengths, predicted.shape).reshape(-1, n)
        lam = np.repeat(lams[groups], trials)
        completions, _ = prr_batch(kernel_lengths, predicted.reshape(-1, n), lam)
        shared[groups] = objectives(completions).reshape(-1, trials)
    ratios[:, 0] = shared[0] / opts
    ratios[:, 2] = shared[1:] / opts
    return opts, etas, ratios


def _block_stats(config, fill, per_block: int, lo: int):
    """Per (sigma, entrant) ratio sum and largest ratio, and per sigma error sum, of one block.

    The block holds trials lo..lo+per_block-1, or up to the last trial.
    """
    _, etas, ratios = fill(config, lo, min(lo + per_block, config.trials))
    return ratios.sum(axis=-1), etas.sum(axis=-1), ratios.max(axis=-1)


def _add_block(total, block):
    """Running ratio sums, error sums and largest ratios, with ``block``'s added."""
    return total[0] + block[0], total[1] + block[1], np.maximum(total[2], block[2])


def _run_trials(config, fill, per_trial: int, experiment: str, entrants) -> List[TrialReport]:
    """One report per (sigma, entrant) over all trials, from ``fill``'s blocks.

    A block holds as many trials as keep their ``per_trial`` kernel entries
    each (a ski trial has one per sigma point) within KERNEL_ENTRIES, and at
    least one.  Block results are added in block order as they arrive.
    Workers take whole blocks, at most one worker per block; a single block
    runs in this process.
    """
    per_block = max(1, KERNEL_ENTRIES // per_trial)
    starts = range(0, config.trials, per_block)
    stats = partial(_block_stats, config, fill, per_block)
    workers = min(config.jobs, len(starts))
    if workers == 1:
        ratio_sums, eta_sums, top = reduce(_add_block, map(stats, starts))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            ratio_sums, eta_sums, top = reduce(_add_block, pool.map(stats, starts))
    trials = int(config.trials)
    mean_ratios, mean_etas = ratio_sums / trials, eta_sums / trials
    return [
        TrialReport(
            experiment, label, lam, sigma, trials,
            float(mean_ratios[s, a]), float(mean_etas[s]), float(top[s, a]),
        )
        for s, sigma in enumerate(config.sigma_grid)
        for a, (label, lam) in enumerate(entrants)
    ]


def run_ski_sweep(config: SkiSweepConfig) -> List[TrialReport]:
    """Mean competitive ratio per (sigma, algorithm) for the rent-or-buy rules."""
    if not isinstance(config, SkiSweepConfig):
        raise TypeError(f"expected a SkiSweepConfig, got {type(config).__name__}")
    entrants = [(label, p.lam) for label, p in ski_sweep_algorithms(config)]
    return _run_trials(config, _ski_trials, len(config.sigma_grid), "ski-sweep", entrants)


def run_scheduling_sweep(config: SchedSweepConfig) -> List[TrialReport]:
    """Mean competitive ratio per (sigma, algorithm) for the schedulers."""
    if not isinstance(config, SchedSweepConfig):
        raise TypeError(f"expected a SchedSweepConfig, got {type(config).__name__}")
    entrants, per_trial = sched_sweep_algorithms(config), (len(config.sigma_grid) + 1) * config.n
    return _run_trials(config, _sched_block, per_trial, "sched-sweep", entrants)

