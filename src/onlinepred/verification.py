"""Grid verification of every proven guarantee against the simulators.

Each check family enumerates instances (exhaustively where the domain is
finite, from a seeded generator otherwise), runs the real decision rule, and
compares the observed ratio against the closed-form guarantee in `bounds`,
evaluated on whole arrays.  One fold, `_fold`, turns every family's excesses
(observed - allowed) into a `FamilyResult`; an excess that is not at most
the family tolerance, NaN included, is a violation.  Since every guarantee
is proven, any violation is an implementation bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from . import bounds
from .scheduling import _require_jobs, objectives, prr_batch, sequential_batch
from .ski_rental import PolicyKind, SkiPolicy, _require, buy_day, ski_cost
from .workloads import DEFAULT_SEED, derived_rngs

NINE_LAMBDAS = tuple(round(0.1 * i, 10) for i in range(1, 10))
TOLERANCE = 1e-9
LEMMA_SLACK = 1e-12
CLASSICAL_B = 100  # b at which the randomized classical rule must sit within 1/b of e/(e-1)
TIGHTNESS_N, TIGHTNESS_EPS, TIGHTNESS_SAFETY = 50, 1e-3, 0.9
DOMINANCE_B = 100
DOMINANCE_LAMBDAS = tuple(round(0.05 * i, 10) for i in range(1, 21))


@dataclass(frozen=True)
class FamilyResult:
    """Aggregate outcome of one check family."""

    family: str
    points: int
    violations: int
    worst_excess: float
    tolerance: float
    worst_case: str

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _fold(
    family: str, tolerance: float, grids: Iterable[Tuple[np.ndarray, Callable[[int], str]]]
) -> FamilyResult:
    """Fold (excess array, label(i)) pairs into one family result.

    A point is a violation unless its excess is <= tolerance, so NaN fails.
    The worst point is the first maximum in grid order, or the first NaN;
    only its label is formatted.  Empty grids add nothing.
    """
    points = violations = 0
    worst, worst_label = -math.inf, ""
    for excess, label in grids:
        excess = np.asarray(excess, dtype=float)
        if excess.size == 0:
            continue
        points += excess.size
        violations += excess.size - int(np.count_nonzero(excess <= tolerance))
        at = int(np.argmax(excess))  # the first NaN, if there is one
        value = float(excess.flat[at])
        if not math.isnan(worst) and (math.isnan(value) or value > worst):
            worst, worst_label = value, label(at)
    return FamilyResult(family, points, violations, worst, tolerance, worst_label)


def _ski_label(b: int, lam, shape, at: int) -> str:
    xi, yi = np.unravel_index(at, shape)
    text = f"b={b} x={xi + 1} y={yi}"
    return text if lam is None else f"{text} lambda={lam}"


def _ski_grids(b_max: int, lambdas: Sequence, rule):
    """cost/OPT minus its bound over b in 2..b_max, lambdas, x in 1..4b, y in 0..4b.

    rule(b, lam) gives (policy, allowed), where allowed(eta, opt) is the
    guaranteed ratio, or None where lam is outside the rule's domain.  One
    kernel call covers the whole (x, y) grid, since the kernel picks the
    branch y >= b per point, while the bound is evaluated on the same grid.
    """
    for b in range(2, b_max + 1):
        xs = np.arange(1, 4 * b + 1, dtype=float)[:, None]
        ys = np.arange(0, 4 * b + 1, dtype=float)[None, :]
        opt = np.minimum(xs, float(b))
        eta = np.abs(ys - xs)
        for lam in lambdas:
            case = rule(b, lam)
            if case is None:
                continue
            policy, allowed = case
            cost = ski_cost(policy, b, xs, ys)
            yield cost / opt - allowed(eta, opt), partial(_ski_label, b, lam, cost.shape)


def check_det_ski_guarantee(
    b_max: int = 50, lambdas: Sequence[float] = NINE_LAMBDAS
) -> FamilyResult:
    """Deterministic rule vs its guarantee, exhaustively over b, x, y, lambda."""

    def rule(b, lam):
        return SkiPolicy(PolicyKind.DETERMINISTIC, lam), partial(bounds.det_ski_bound, lam)

    return _fold("deterministic-rule-guarantee", TOLERANCE, _ski_grids(b_max, lambdas, rule))


def check_rand_ski_guarantee(
    b_max: int = 50, lambdas: Sequence[float] = NINE_LAMBDAS
) -> FamilyResult:
    """Randomized rule (exact expectation) vs its guarantee on the same grid.

    Lambdas at or below 1/b are outside the rule's domain and are skipped.
    """

    def rule(b, lam):
        if lam <= 1.0 / b:
            return None
        return SkiPolicy(PolicyKind.RANDOMIZED, lam), partial(bounds.rand_ski_bound, b, lam)

    return _fold("randomized-rule-guarantee", TOLERANCE, _ski_grids(b_max, lambdas, rule))


def check_naive_lemma(b_max: int = 50) -> FamilyResult:
    """Naive rule: cost <= OPT + eta, a ratio of 1 + eta/OPT, on every instance of the grid."""

    def rule(b, lam):
        return SkiPolicy(PolicyKind.NAIVE), bounds.naive_ski_bound

    return _fold("naive-rule-additive-guarantee", TOLERANCE, _ski_grids(b_max, (None,), rule))


def check_classical_recovery(b_max: int = 50) -> FamilyResult:
    """lambda = 1 recovers the classical rules, break-even and Karlin's.

    Deterministic: the buy day equals b on both prediction branches for every
    b.  Randomized: for b = CLASSICAL_B the worst expected ratio over x in
    {1..4b} sits within 1/b of e/(e-1); for smaller b it stays below
    e/(e-1) + 1/b.
    """
    break_even = SkiPolicy(PolicyKind.DETERMINISTIC, 1.0)
    karlin = SkiPolicy(PolicyKind.RANDOMIZED, 1.0)  # both branches have support b
    excesses = []
    labels = []
    for b in range(2, b_max + 1):
        for big in (False, True):
            excesses.append(float(abs(buy_day(break_even, b, big) - b)))
            labels.append(f"deterministic b={b} {'y >= b' if big else 'y < b'}")
        x = np.arange(1, 4 * b + 1)
        worst_ratio = float(np.max(ski_cost(karlin, b, x, b) / np.minimum(x, b)))
        excesses.append(worst_ratio - (bounds.E_OVER_E_MINUS_1 + 1.0 / b))
        labels.append(f"randomized-ceiling b={b}")

    b = CLASSICAL_B
    x = np.arange(1, 4 * b + 1)
    worst_ratio = float(np.max(ski_cost(karlin, b, x, b) / np.minimum(x, b)))
    excesses.append(abs(worst_ratio - bounds.E_OVER_E_MINUS_1) - 1.0 / b)
    labels.append(f"randomized-proximity b={b} worst_ratio={worst_ratio:.6f}")
    return _fold("classical-recovery", TOLERANCE, [(excesses, labels.__getitem__)])


def random_jobsets(count: int, seed: int) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Seeded job sets of 1..8 jobs with lengths in [1, 10] and assorted prediction styles.

    Set s draws from generator s of ``derived_rngs(seed, range(count))``.
    Prediction modes rotate by index: perfect, mild noise, heavy noise,
    unrelated uniform (may be negative), and fully reversed order.  The sets
    come stacked by size, as one (set indices, lengths, predictions) triple
    per size in ascending order, each stack checked as a JobSet checks its
    jobs.
    """
    by_size: Dict[int, list] = {}
    for s, rng in enumerate(derived_rngs(seed, range(count))):
        n = int(rng.integers(1, 9))
        lengths = rng.uniform(1.0, 10.0, n)
        mode = s % 5
        if mode == 0:
            preds = lengths
        elif mode == 1:
            preds = lengths + rng.normal(0.0, 0.5, n)
        elif mode == 2:
            preds = lengths + rng.normal(0.0, 5.0, n)
        elif mode == 3:
            preds = rng.uniform(-5.0, 15.0, n)
        else:
            preds = -lengths
        by_size.setdefault(n, []).append((s, lengths, preds))
    stacks = []
    for size in sorted(by_size):
        ids, lengths, preds = (np.array(column) for column in zip(*by_size[size]))
        _require_jobs(lengths, preds)
        stacks.append((ids, lengths, preds))
    return stacks


def check_jobset_families(
    count: int = 10000,
    lambdas: Sequence[float] = NINE_LAMBDAS,
    seed: int = DEFAULT_SEED,
) -> List[FamilyResult]:
    """Three guarantees on one random job-set grid, drawn once.

    SPJF ratio <= 1 + 2*eta/n; PRR ratio <= min((1/lam)(1 + 2*eta/n),
    2/(1-lam)); with perfect predictions, PRR ratio <= (1+lam)/(2*lam).  The
    SJF optimum ignores predictions, so the perfect family reuses it.  Each
    stack of equal-size job sets is one PRR kernel call over every lambda,
    noisy and perfect.
    """
    n = np.empty(count, dtype=np.int64)
    eta, spjf_excess = np.empty(count), np.empty(count)
    prr_excess, perfect_excess = np.empty((count, len(lambdas))), np.empty((count, len(lambdas)))
    lam_rows = np.array(lambdas, dtype=float)
    for ids, lengths, predicted in random_jobsets(count, seed):
        n[ids] = lengths.shape[1]
        opt = objectives(sequential_batch(lengths, lengths))
        eta[ids] = objectives(np.abs(lengths - predicted))
        spjf_excess[ids] = objectives(sequential_batch(lengths, predicted)) / opt
        # rows: every lambda on the noisy predictions, then on the perfect ones
        per_lambda = (len(lambdas), 1)
        completions, _ = prr_batch(
            np.tile(lengths, (2 * len(lambdas), 1)),
            np.concatenate([np.tile(predicted, per_lambda), np.tile(lengths, per_lambda)]),
            np.tile(np.repeat(lam_rows, ids.size), 2),
        )
        noisy, perfect = objectives(completions).reshape(2, len(lambdas), ids.size) / opt
        prr_excess[ids], perfect_excess[ids] = noisy.T, perfect.T
    # the excess arrays hold ratios until one broadcast bounds call per family
    spjf_excess -= bounds.spjf_bound(n, eta)
    prr_excess -= bounds.prr_bound(n[:, None], eta[:, None], lam_rows)
    perfect_excess -= bounds.prr_perfect_bound(lam_rows)

    def lambda_label(at: int) -> str:
        s, k = divmod(at, len(lambdas))
        return f"jobset#{s} lambda={lambdas[k]}"

    return [
        _fold("spjf-guarantee", TOLERANCE, [(spjf_excess, lambda s: f"jobset#{s} n={n[s]}")]),
        _fold("prr-guarantee", TOLERANCE, [(prr_excess, lambda_label)]),
        _fold("prr-perfect-prediction-guarantee", TOLERANCE, [(perfect_excess, lambda_label)]),
    ]


def check_spjf_tightness() -> FamilyResult:
    """The equal-predictions family drives SPJF close to its guarantee.

    One job of length 1+eps, then n-1 unit jobs, all predicted 1; ties run in
    id order, so the long job runs first (the worst tie order) and must reach
    at least ``safety`` of the guarantee's excess 2(n-1)eta / (n(n+1)), with
    n, eps and safety the TIGHTNESS_* constants.
    """
    n, eps, safety = TIGHTNESS_N, TIGHTNESS_EPS, TIGHTNESS_SAFETY
    lengths = np.array([1.0 + eps] + [1.0] * (n - 1))
    predicted = np.ones(n)
    opt = objectives(sequential_batch(lengths, lengths))
    ratio = objectives(sequential_batch(lengths, predicted)) / opt
    eta = objectives(np.abs(lengths - predicted))
    required = 1.0 + safety * 2.0 * (n - 1) * eta / (n * (n + 1))
    label = f"n={n} eps={eps} ratio={ratio:.9f} required>={required:.9f}"
    return _fold("spjf-tightness-family", 0.0, [([required - ratio], lambda at: label)])


def _inequality_family(
    family: str, lhs: np.ndarray, rhs: np.ndarray, coords: Dict[str, np.ndarray]
) -> FamilyResult:
    """lhs <= rhs on a grid; ``coords`` name the grid point reported as the worst."""

    def label(at: int) -> str:
        return ", ".join(f"{k}={v.flat[at]:.6g}" for k, v in coords.items())

    return _fold(family, LEMMA_SLACK, [(lhs - rhs, label)])


def check_appendix_families(
    a1_step: float = 1e-3, a2_b_max: int = 1000, a2_lambda_points: int = 100
) -> List[FamilyResult]:
    """Grid-check the four helper inequalities; one result per family.

    Family 1 (three parts), over x in (0, 1]:
      (i)   exp(x - 1/x) <= 1
      (ii)  exp(-1/x)    <= x/e
      (iii) x/e          <= 1 - 1/x + exp(-x)/x
    Family 2, over integer b >= 2 and lambda in (1/b, 1):
      (1/lambda + 1/b) / (1 - exp(-1/lambda))
          <= (1 + 1/b) / (1 - exp(-(lambda - 1/b)))
    """
    _require(a1_step > 0, a1_step, "a1_step must be positive")
    n = max(1, round(1.0 / a1_step))
    x = np.arange(1, n + 1) * (1.0 / n)
    results = [
        _inequality_family("lemma-helper-i", np.exp(x - 1.0 / x), np.ones_like(x), {"x": x}),
        _inequality_family("lemma-helper-ii", np.exp(-1.0 / x), x * math.exp(-1.0), {"x": x}),
        _inequality_family(
            "lemma-helper-iii", x * math.exp(-1.0), 1.0 - 1.0 / x + np.exp(-x) / x, {"x": x}
        ),
    ]

    b = np.arange(2, a2_b_max + 1, dtype=float)[:, None]
    j = np.arange(1, a2_lambda_points + 1, dtype=float)[None, :]
    lam = 1.0 / b + (1.0 - 1.0 / b) * j / (a2_lambda_points + 1)
    lhs = (1.0 / lam + 1.0 / b) / (1.0 - np.exp(-1.0 / lam))
    rhs = (1.0 + 1.0 / b) / (1.0 - np.exp(-(lam - 1.0 / b)))
    coords = {"b": np.broadcast_to(b, lam.shape), "lambda": lam}
    results.append(_inequality_family("lemma-robustness-transfer", lhs, rhs, coords))
    return results


def check_tradeoff_dominance(rand_grid_size: int = 20000) -> FamilyResult:
    """At every deterministic lambda some randomized lambda dominates it.

    Checked at b = DOMINANCE_B for each of DOMINANCE_LAMBDAS.  Dominance: no
    worse robustness with strictly better consistency.  At the shared
    classical endpoint (lambda = 1) equal consistency is accepted.
    """
    b = DOMINANCE_B
    grid = np.linspace(1.0 / b + 1e-9, 1.0, rand_grid_size)
    lam_d = np.array(DOMINANCE_LAMBDAS)
    dr, dc = bounds.det_robustness(lam_d), bounds.det_consistency(lam_d)
    # row k: the best randomized consistency with robustness no worse than dr[k]
    covered = bounds.rand_robustness(b, grid) <= dr[:, None]
    best = np.where(covered, bounds.rand_consistency(grid), math.inf).min(axis=1)
    strict = (best < dc) | ((lam_d == 1.0) & (best <= dc))
    excesses = np.where(strict, -1.0, best - dc)

    def label(at: int) -> str:
        return f"lambda_det={DOMINANCE_LAMBDAS[at]} best_rand_consistency={best[at]:.6f}"

    return _fold("tradeoff-dominance", 0.0, [(excesses, label)])


DENSITIES: Dict[str, Dict] = {
    "tiny": dict(
        b_max=12,
        lambdas=(0.3, 0.5, 0.7),
        jobsets=200,
        a1_step=1e-2,
        a2_b_max=50,
        a2_lambda_points=25,
        rand_grid_size=2000,
    ),
    "default": dict(
        b_max=50,
        lambdas=NINE_LAMBDAS,
        jobsets=10000,
        a1_step=1e-3,
        a2_b_max=1000,
        a2_lambda_points=100,
        rand_grid_size=20000,
    ),
    "dense": dict(
        b_max=60,
        lambdas=tuple(round(0.05 * i, 10) for i in range(1, 20)),
        jobsets=20000,
        a1_step=5e-4,
        a2_b_max=1200,
        a2_lambda_points=150,
        rand_grid_size=40000,
    ),
}


def run_all_checks(density: str = "default", seed: int = DEFAULT_SEED) -> List[FamilyResult]:
    """Every check family at the chosen grid density."""
    if density not in DENSITIES:
        raise ValueError(f"unknown grid density {density!r}; choose from {sorted(DENSITIES)}")
    d = DENSITIES[density]
    spjf_family, prr_family, perfect_family = check_jobset_families(
        d["jobsets"], d["lambdas"], seed
    )
    results = [
        check_det_ski_guarantee(d["b_max"], d["lambdas"]),
        check_rand_ski_guarantee(d["b_max"], d["lambdas"]),
        check_naive_lemma(d["b_max"]),
        check_classical_recovery(d["b_max"]),
        spjf_family,
        check_spjf_tightness(),
        prr_family,
        perfect_family,
    ]
    results.extend(
        check_appendix_families(d["a1_step"], d["a2_b_max"], d["a2_lambda_points"])
    )
    results.append(check_tradeoff_dominance(rand_grid_size=d["rand_grid_size"]))
    return results
