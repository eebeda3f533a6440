"""Monte Carlo sweeps: average competitive ratio versus prediction noise.

Each problem has its own config type, ``SkiSweepConfig`` or
``SchedSweepConfig``, and its own runner.  Trial t of a sweep draws the
instance plus a unit-variance noise direction once, as numpy's generator
``default_rng(SeedSequence((seed, t)))`` would; the prediction at noise
level sigma is truth + sigma * direction.  Trials take those draws from
`workloads.ski_trial_draws` and `workloads.sched_trial_draws`, which give a
whole block's at once, bit for bit as the generators would.  Sharing the
draws across sigma levels and algorithms is plain common-random-numbers
variance reduction.

A block of trials is the unit of both the work and the reduction.  Blocks
sit on a fixed grid of trial indices, ``KERNEL_ENTRIES`` // (sigma points)
ski trials or as many scheduling trials as keep their kernel entries
within ``KERNEL_ENTRIES``.  A ski rule sees a prediction only through
y >= b, which changes at most once along the sigma grid, so a ski block
makes one ``ski_cost`` call per rule that prices both branches of every
trial, and finds where each trial switches branch by counting its grid
points on the y >= b branch in the pass that sums the errors; it holds
O(trials + sigma points) float entries at a time, and one byte per (sigma,
trial) for that count.  A scheduling block puts
(sigma points + 1) rows of n jobs per trial in one batched round-robin/PRR
kernel call (round-robin ignores predictions, so it takes one row per
trial).  Each block yields a ``_BlockStats`` record of its ratio and error
sums and largest ratios, and the records merge in block order
(``_BlockStats.merge``).  ``jobs`` workers take whole blocks, so any worker
count yields identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial, reduce
from typing import List, Optional, Tuple

import numpy as np

from .scheduling import objectives, prr_batch, sequential_batch
from .ski_rental import B_MAX, PolicyKind, SkiPolicy, ski_cost
from .ski_rental import _check_count, _check_lambda, _fits_float64, _floats, _is_real, _require
from .workloads import DEFAULT_SEED, sched_trial_draws, ski_trial_draws

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

# Bound on the kernel entries of one scheduling block of trials, which bounds
# a sweep's working set whatever the trial count; a ski block, which holds
# O(trials + sigma points) float entries and a byte per (sigma, trial),
# takes KERNEL_ENTRIES // (sigma points) trials.  It fixes the block grid,
# and block sums are added in turn, so changing it can change the last bits
# of a multi-block sweep's means.
KERNEL_ENTRIES = 1 << 19
# Entries of one slice of a ski block's errors; 256 KB slices run the error
# pass fastest (a default block took 1.35 ms against 1.53 ms with 128 KB
# slices on a 2-core x86 VM).
# The slices serve fine sigma grids, whose blocks hold few trials, such as
# ski-sweep --trials 4000 --sigma-grid 0:400:0.04, where one sum per sigma
# ran several times slower; a default block's 12,787 trials fill two rows
# of a slice.
_ERROR_ENTRIES = 1 << 15


def _check_sweep(config, default_grid: Tuple[float, ...], entrants: int) -> None:
    """Check the counts, the sigma grid and the ratio count both sweeps share.

    The sweep scores grid points x ``entrants`` (its algorithm count) x
    trials ratios.  The sigma grid is one real vector (`_floats`), so a
    scalar, a str or a nested grid is named whole.  Stores it as a tuple of
    floats, or the default if empty.
    """
    _check_count("trials", config.trials, 1, TRIALS_MAX)
    _check_count("jobs", config.jobs, 1, JOBS_MAX)
    _check_count("seed", config.seed, 0)
    numbers = "sigma grid must be a sequence of numbers"
    message = f"sigma grid entries must be finite and in [0, {SIGMA_MAX:g}]"
    sigmas = _floats(config.sigma_grid, numbers, message)  # NaN fails the range check below
    _require(sigmas.ndim == 1, config.sigma_grid, numbers)
    _require((sigmas >= 0) & (sigmas <= SIGMA_MAX), sigmas, message)
    grid = tuple((sigmas + 0.0).tolist()) or default_grid  # stores -0.0 as 0.0
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
    0..4b in steps of b/10.  ``sampled``, a bool, scores the randomized
    rules by one sampled buy day.
    """

    b: int = 100
    trials: int = 10000
    lambda_det: float = 0.5
    lambda_rand: float = LAMBDA_RAND_DEFAULT
    sampled: bool = False
    sigma_grid: Tuple[float, ...] = ()
    seed: int = DEFAULT_SEED
    jobs: int = field(default=1, compare=False)  # never changes a byte

    def __post_init__(self):
        _check_count("b", self.b, 2, B_MAX)
        _require(isinstance(self.sampled, bool), self.sampled, "sampled must be a bool")
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
    ``fixed_jobs``, a bool, draws one job set and resamples only the noise.
    """

    n: int = 50
    alpha: float = 1.1
    trials: int = 1000
    lambda_sched: float = 0.5
    fixed_jobs: bool = False
    sigma_grid: Tuple[float, ...] = ()
    seed: int = DEFAULT_SEED
    jobs: int = field(default=1, compare=False)  # never changes a byte

    def __post_init__(self):
        _check_count("n", self.n, 1, N_MAX)
        _require(isinstance(self.fixed_jobs, bool), self.fixed_jobs, "fixed_jobs must be a bool")
        ok = _is_real(self.alpha) and 1 < self.alpha < math.inf and _fits_float64(self.alpha)
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


def _fold_by_switch(ufunc, empty: float, before, after, keys, points: int):
    """Per grid point s and row, ``ufunc`` folded over trials: before[t] if s < k_t, else after[t].

    ``before`` and ``after`` are (rows, trials) and ``keys`` holds each
    trial's k_t in [0, points].  Each row is folded per k_t, in trial order
    from ``empty``, and the groups then as a suffix of ``before`` (k_t > s)
    and a prefix of ``after`` (k_t <= s): a total less a running sum would
    cancel.  Returns (points, rows).
    """
    rows = len(before)
    bins = (keys + (points + 1) * np.arange(rows)[:, None]).ravel()
    groups = np.full((2, rows * (points + 1)), empty)
    for group, values in zip(groups, (before, after)):
        ufunc.at(group, bins, values.ravel())
    groups = groups.reshape(2, rows, points + 1)
    above = ufunc.accumulate(groups[0, :, ::-1], axis=1)[:, -2::-1]
    return ufunc(above, ufunc.accumulate(groups[1], axis=1)[:, :-1]).T


def _error_sums(xs, zs, grid, b: int):
    """Per sigma, the sum over trials of the error |max(x + sigma z, 0) - x|,
    and per trial the first index of the ascending ``grid`` at which y >= b changes.

    The errors are computed a slice of grid rows at a time, at most
    _ERROR_ENTRIES entries, and each row summed as numpy sums a row of the
    whole (sigma, trial) array, so the sums are that array's bit for bit.
    Above about 1e12 a mean error is printed to its last bit, so a sum in
    another order, or in closed form, would change the output.

    The same rows mark, in a (sigma, trial) byte matrix, where the test
    ``xs + grid[:, None] * zs >= b`` holds.  Float rounding is monotone, so
    along the grid a trial's test rises at most once if z >= 0 and falls at
    most once if z < 0: the switch index is S less its count of marks if
    z >= 0 and that count if z < 0, S if the test never changes.  The marks
    are counted 255 rows at a time, whose counts fit a byte.
    """
    rows, sums = max(1, _ERROR_ENTRIES // xs.size), np.empty(len(grid))
    marks = np.empty((len(grid), xs.size), np.uint8)
    for s in range(0, len(grid), rows):
        errors = grid[s:s + rows, None] * zs
        errors += xs
        np.greater_equal(errors, b, out=marks[s:s + rows].view(bool))
        np.maximum(errors, 0.0, out=errors)
        errors -= xs
        sums[s:s + rows] = np.abs(errors, out=errors).sum(axis=-1)
    counts = sum(
        marks[s:s + 255].sum(axis=0, dtype=np.uint8).astype(np.intp)
        for s in range(0, len(grid), 255)
    )
    return sums, np.where(zs < 0, counts, len(grid) - counts)


@dataclass(frozen=True, eq=False)
class _BlockStats:
    """One block's ratio sums and largest ratios per (sigma, entrant), and error sums per sigma."""

    ratio_sums: np.ndarray
    eta_sums: np.ndarray
    top: np.ndarray

    def merge(self, later: _BlockStats) -> _BlockStats:
        """These statistics followed by the ``later`` block's: sums added, maxima taken."""
        top = np.maximum(self.top, later.top)
        return _BlockStats(self.ratio_sums + later.ratio_sums, self.eta_sums + later.eta_sums, top)


def _ski_block(config: SkiSweepConfig, lo: int, hi: int) -> _BlockStats:
    """The ``_BlockStats`` of ski trials lo..hi-1.

    `ski_trial_draws` draws every trial of the block in one array pass, as
    trial t's generator ``default_rng(SeedSequence((seed, t)))`` would: x
    days, a noise direction z and, in sampled mode, one uniform per
    randomized entrant.  The k-th randomized entrant takes the k-th uniform,
    so two entrants that share a policy still draw apart.

    The prediction at sigma is y = max(x + sigma z, 0), which the rules see
    only through y >= b: that test changes at most once along the grid, at
    the trial's switch index k_t.  So each rule's one ``ski_cost`` call, on
    ys = [[b], [0]], prices both branches of every trial; grid points below
    k_t take the ratio of the branch the trial starts on, the others that of
    the other branch.  One pass over the predictions (`_error_sums`) sums
    the errors per point and counts each trial's points on the y >= b
    branch, which gives k_t.
    """
    sampled = config.sampled
    xs, zs, us = ski_trial_draws(config.seed, config.b, np.arange(lo, hi), 2 if sampled else 0)

    b, grid, entrants = config.b, np.array(config.sigma_grid), ski_sweep_algorithms(config)
    draws_left = iter(us.T)
    uniforms = [
        next(draws_left) if sampled and p.kind is PolicyKind.RANDOMIZED else None
        for _, p in entrants
    ]
    opts, falling = np.minimum(xs, b), zs < 0
    before, after = np.empty((2, len(entrants), xs.size))  # ratios either side of the switch
    for a, (_, policy) in enumerate(entrants):
        big, small = ski_cost(policy, b, xs, np.array([[b], [0]]), uniforms[a]) / opts
        before[a], after[a] = np.where(falling, big, small), np.where(falling, small, big)
    days = xs.astype(np.float64)  # as x + sigma z converts them, once
    eta_sums, keys = _error_sums(days, zs, grid, b)
    return _BlockStats(
        _fold_by_switch(np.add, 0.0, before, after, keys, grid.size),
        eta_sums,
        _fold_by_switch(np.maximum, -np.inf, before, after, keys, grid.size),
    )


def sched_sweep_algorithms(config: SchedSweepConfig) -> List[Tuple[str, Optional[float]]]:
    """(label, lambda) of the three scheduling entrants."""
    return [("round-robin", None), ("spjf", None), ("prr", config.lambda_sched)]


def _sched_block(config: SchedSweepConfig, lo: int, hi: int):
    """Optima, errors and ratios of scheduling trials lo..hi-1.

    The arrays are indexed [trial], [sigma, trial] and [sigma, entrant,
    trial].  `sched_trial_draws` draws every trial of the block at once, as
    trial t's generator ``default_rng(SeedSequence((seed, t)))`` would: its
    job lengths (unless the jobs are fixed, drawn from their own stream) and
    noise direction.
    Kernel rows come in groups of T, one per trial: first round-robin at
    lambda = 0, scored once per trial since it ignores predictions (its
    group takes the sigma = 0 predictions, which are the lengths), then PRR
    at each sigma.  SPJF and the errors come from the PRR groups'
    predictions.  Only when one trial's groups exceed KERNEL_ENTRIES do the
    groups take more than one call.
    """
    jobs_key = _FIXED_JOBS_STREAM if config.fixed_jobs else None
    lengths, directions = sched_trial_draws(
        config.seed, config.alpha, config.n, np.arange(lo, hi), jobs_key
    )
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
        shared[groups] = objectives(prr_batch(lengths, predicted, lams[groups, None]))
    ratios[:, 0] = shared[0] / opts
    ratios[:, 2] = shared[1:] / opts
    return opts, etas, ratios


def _sched_stats(config: SchedSweepConfig, lo: int, hi: int) -> _BlockStats:
    """The ``_BlockStats`` of scheduling trials lo..hi-1, from `_sched_block`'s arrays."""
    _, etas, ratios = _sched_block(config, lo, hi)
    return _BlockStats(ratios.sum(axis=-1), etas.sum(axis=-1), ratios.max(axis=-1))


def _run_trials(config, block, per_trial: int, experiment: str, entrants) -> List[TrialReport]:
    """One report per (sigma, entrant) over all trials, from the ``_BlockStats`` ``block`` returns.

    Blocks hold KERNEL_ENTRIES // ``per_trial`` trials each, and at least
    one.  A scheduling trial has ``per_trial`` kernel entries; a ski trial
    counts one per sigma point, though a ski block holds O(trials + sigma
    points) float entries, which keeps the block grid.  The records merge in
    block order as they arrive (``_BlockStats.merge``).  Workers take whole
    blocks, at most one worker per block; a single block runs in this
    process.
    """
    per_block = max(1, KERNEL_ENTRIES // per_trial)
    starts = range(0, config.trials, per_block)
    stops = [min(lo + per_block, config.trials) for lo in starts]
    stats = partial(block, config)
    workers = min(config.jobs, len(starts))
    if workers == 1:
        total = reduce(_BlockStats.merge, map(stats, starts, stops))
    else:
        # imported here, since it loads multiprocessing and logging (about
        # 20 ms) that a one-worker run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            total = reduce(_BlockStats.merge, pool.map(stats, starts, stops))
    trials = int(config.trials)
    mean_ratios, mean_etas = total.ratio_sums / trials, total.eta_sums / trials
    return [
        TrialReport(
            experiment, label, lam, sigma, trials,
            float(mean_ratios[s, a]), float(mean_etas[s]), float(total.top[s, a]),
        )
        for s, sigma in enumerate(config.sigma_grid)
        for a, (label, lam) in enumerate(entrants)
    ]


def run_ski_sweep(config: SkiSweepConfig) -> List[TrialReport]:
    """Mean competitive ratio per (sigma, algorithm) for the rent-or-buy rules."""
    if not isinstance(config, SkiSweepConfig):
        raise TypeError(f"expected a SkiSweepConfig, got {type(config).__name__}")
    entrants = [(label, p.lam) for label, p in ski_sweep_algorithms(config)]
    return _run_trials(config, _ski_block, len(config.sigma_grid), "ski-sweep", entrants)


def run_scheduling_sweep(config: SchedSweepConfig) -> List[TrialReport]:
    """Mean competitive ratio per (sigma, algorithm) for the schedulers."""
    if not isinstance(config, SchedSweepConfig):
        raise TypeError(f"expected a SchedSweepConfig, got {type(config).__name__}")
    entrants, per_trial = sched_sweep_algorithms(config), (len(config.sigma_grid) + 1) * config.n
    return _run_trials(config, _sched_stats, per_trial, "sched-sweep", entrants)

