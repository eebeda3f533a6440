"""Independent oracle for the ski sweep's block statistics.

``ski_trials`` scores every (sigma, entrant, trial) point of a block on its
own: it builds each prediction max(x + sigma z, 0), passes the whole
(sigma, trial) prediction array to ``ski_cost`` once per rule, and divides
by the optimum.  The sweep instead scores each trial once per prediction
branch (``experiments._ski_block``); this dense form shares none of that
branch bookkeeping and is the reference it is checked against.

``sorted_level_counts`` takes a demand instance's per-level counts by
sorting its days and bisecting at each level, sharing nothing with the
histogram count in ``ski_demand``.
"""

import numpy as np

from onlinepred.experiments import _BlockStats, ski_sweep_algorithms
from onlinepred.ski_rental import PolicyKind, ski_cost
from onlinepred.workloads import ski_trial_draws


def ski_trials(config, lo, hi):
    """Optima, errors and ratios of ski trials lo..hi-1 of ``config``.

    The arrays are indexed [trial], [sigma, trial] and [sigma, entrant,
    trial].  The draws are the sweep's: x days, a noise direction and, in
    sampled mode, one uniform per randomized entrant, the k-th randomized
    entrant taking the k-th uniform.
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


def block_stats(config, lo, hi):
    """``ski_trials`` reduced as a sweep block, by dense numpy sums and maxima."""
    _, etas, ratios = ski_trials(config, lo, hi)
    return _BlockStats(
        ratio_sums=ratios.sum(axis=-1), eta_sums=etas.sum(axis=-1), top=ratios.max(axis=-1)
    )


def sorted_level_counts(instance):
    """Per-level counts ``(xs, ys)`` of a demand instance: days in all, less those below level j."""
    levels = np.arange(1, instance.max_demand + 1)
    xs = instance.horizon - np.searchsorted(np.sort(instance.demand), levels)
    ys = instance.horizon - np.searchsorted(np.sort(instance.predicted), levels)
    return xs, ys
