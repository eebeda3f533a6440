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

Both sweeps run one block loop: a trial range's result arrays are allocated
once, and each block of trials is scored into its slices of them.  A ski
block makes one ``ski_cost`` call per rule, with one entry per sigma point
per trial; a scheduling block puts (sigma points + 1) rows of n jobs per
trial in one batched round-robin/PRR kernel call (round-robin ignores
predictions, so it takes one row per trial).  Blocks keep kernel entries
within ``KERNEL_ENTRIES``, which bounds the working set at any trial count;
trials are independent, so block sizes change no value.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from .scheduling import objectives, prr_batch, sequential_batch
from .ski_rental import B_MAX, PolicyKind, SkiPolicy, ski_cost
from .ski_rental import _check_count, _check_lambda, _require
from .workloads import DEFAULT_SEED, derived_rngs, gen_pareto_lengths, gen_ski_days

LAMBDA_RAND_DEFAULT = math.log(1.5)
# Largest accepted noise level: truth + sigma * direction stays finite for
# any direction a trial can draw, so every prediction passes the kernels.
SIGMA_MAX = 1e300
JOBS_MAX = 64  # worker processes; the pool starts them all at once
N_MAX = 100_000  # jobs per set: 16 B per job (two float64 arrays)
TRIALS_MAX = 1_000_000
# A sweep holds one float64 ratio per sigma point, algorithm and trial.  The
# default ski grid (41 points, 4 algorithms) at TRIALS_MAX is
# 41 * 4 * 10**6 * 8 B = 1.3 GB, plus 41 * 10**6 * 8 B = 0.3 GB of errors;
# finer grids get proportionally fewer trials.
SWEEP_MAX_RATIOS = 41 * 4 * TRIALS_MAX

# Stream key for the job set in fixed-jobs mode; above every trial index (< TRIALS_MAX).
_FIXED_JOBS_STREAM = 0x4A4F4253

# Bound on the kernel entries of one block of trials, which bounds a sweep's
# working set whatever the trial count.
KERNEL_ENTRIES = 1 << 19


def _check_sweep(config, default_grid: Tuple[float, ...], entrants: int) -> None:
    """Check the counts, the sigma grid and the ratio count both sweeps share.

    The sweep holds grid points x ``entrants`` (its algorithm count) x trials
    ratios.  Stores the sigma grid, or the default if empty.
    """
    _check_count("trials", config.trials, 1, TRIALS_MAX)
    _check_count("jobs", config.jobs, 1, JOBS_MAX)
    _check_count("seed", config.seed, 0)
    if isinstance(config.sigma_grid, (str, bytes)):
        raise ValueError(f"sigma grid must be a sequence of numbers, got {config.sigma_grid!r}")
    grid = tuple(float(s) for s in config.sigma_grid) or default_grid
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
    is not finite, non-negative and ascending.  An empty grid means 0..4b in
    steps of b/10.  ``sampled`` scores the randomized rules by one sampled
    buy day.
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
    over its limit, alpha <= 1, a PRR lambda outside (0, 1) and a sigma grid
    that is not finite, non-negative and ascending.  An empty grid means
    0..20 mean job lengths in steps of 2.  ``fixed_jobs`` draws one job set
    and resamples only the noise.
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
        _require(1 < self.alpha < math.inf, self.alpha, "alpha must be finite and exceed 1")
        mean = self.alpha / (self.alpha - 1.0)
        grid = tuple(i * 2.0 * mean for i in range(11))
        _check_sweep(self, grid, len(sched_sweep_algorithms(self)))
        _check_lambda(self.lambda_sched, 0, False, "PRR lambda must lie in (0, 1)")


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


def _ski_trials(config: SkiSweepConfig, lo: int, hi: int, opts, etas, ratios) -> None:
    """Write the optima, errors and ratios of ski trials lo..hi-1 into the given slices.

    Each trial's ``derived_rngs`` generator draws x days, a noise direction
    and, in sampled mode, one uniform per randomized entrant: the k-th
    randomized entrant takes the k-th uniform, so two entrants that share a
    policy still draw apart.
    """
    xs, draws, sampled = [], [], config.sampled
    for rng in derived_rngs(config.seed, range(lo, hi)):
        xs.append(gen_ski_days(config.b, rng))
        draws.append((rng.standard_normal(), *(rng.random(2) if sampled else ())))
    xs, (zs, *us) = np.array(xs, dtype=np.int64), np.array(draws).T

    b, grid, entrants = config.b, config.sigma_grid, ski_sweep_algorithms(config)
    draws_left = iter(us)
    uniforms = [
        next(draws_left) if sampled and p.kind is PolicyKind.RANDOMIZED else None
        for _, p in entrants
    ]
    opts[:] = np.minimum(xs, b)
    ys = np.maximum(xs + np.array(grid)[:, None] * zs, 0.0)  # one row per sigma point
    np.abs(np.subtract(ys, xs, out=etas), out=etas)
    for a, (_, policy) in enumerate(entrants):
        np.divide(ski_cost(policy, b, xs, ys, uniforms[a]), opts, out=ratios[:, a])


def sched_sweep_algorithms(config: SchedSweepConfig) -> List[Tuple[str, Optional[float]]]:
    """(label, lambda) of the three scheduling entrants."""
    return [("round-robin", None), ("spjf", None), ("prr", config.lambda_sched)]


def _sched_block(config: SchedSweepConfig, lo: int, hi: int, opts, etas, ratios) -> None:
    """Write the optima, errors and ratios of scheduling trials lo..hi-1 into the given slices.

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

    opts[:] = objectives(sequential_batch(lengths, lengths))
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


def _fill_trials(config, fill, entrants: int, per_trial: int, lo: int, hi: int):
    """Optima, errors and ratios of trials lo..hi-1, written by ``fill`` block by block.

    The three arrays are allocated once; ``fill(config, lo, hi, opts, etas,
    ratios)`` writes one block into its slices.  A block holds as many trials
    as keep their ``per_trial`` kernel entries each (a ski trial has one per
    sigma point) within KERNEL_ENTRIES, and at least one.
    """
    count, points = hi - lo, len(config.sigma_grid)
    opts, etas = np.empty(count), np.empty((points, count))
    ratios = np.empty((points, entrants, count))
    per_block = max(1, KERNEL_ENTRIES // per_trial)
    for start in range(0, count, per_block):
        part = slice(start, min(start + per_block, count))
        fill(config, lo + part.start, lo + part.stop, opts[part], etas[:, part], ratios[..., part])
    return opts, etas, ratios


def _run_trials(config, fill, per_trial: int, experiment: str, entrants) -> List[TrialReport]:
    """One read-only report per (sigma, entrant) over all trials, from ``_fill_trials``.

    Workers take contiguous trial ranges, at most one per trial; the chunks
    are stitched back in trial order, so the worker count changes no value.
    """
    fill_range = partial(_fill_trials, config, fill, len(entrants), per_trial)
    chunks = min(config.jobs, config.trials)
    if chunks == 1:
        opts, etas, ratios = fill_range(0, config.trials)
    else:
        edges = [config.trials * k // chunks for k in range(chunks + 1)]
        with ProcessPoolExecutor(max_workers=chunks) as pool:
            parts = list(pool.map(fill_range, edges[:-1], edges[1:]))
        opts, etas, ratios = (np.concatenate(arrays, axis=-1) for arrays in zip(*parts))
    for array in (opts, etas, ratios):  # the reports share them
        array.flags.writeable = False
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
    return _run_trials(config, _ski_trials, len(config.sigma_grid), "ski-sweep", entrants)


def run_scheduling_sweep(config: SchedSweepConfig) -> List[TrialReport]:
    """Mean competitive ratio per (sigma, algorithm) for the schedulers."""
    if not isinstance(config, SchedSweepConfig):
        raise TypeError(f"expected a SchedSweepConfig, got {type(config).__name__}")
    entrants, per_trial = sched_sweep_algorithms(config), (len(config.sigma_grid) + 1) * config.n
    return _run_trials(config, _sched_block, per_trial, "sched-sweep", entrants)

