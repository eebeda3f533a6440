"""Grid verification of every proven guarantee against the simulators.

Each check family enumerates instances (exhaustively where the domain is
finite, from a seeded generator otherwise), runs the real decision rule, and
compares the observed ratio against the closed-form guarantee.  A positive
excess beyond the family tolerance is a violation, and since every guarantee
is proven, any violation is an implementation bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import bounds
from .scheduling import JobSet, prediction_error, prr, sjf_opt, spjf
from .ski_rental import PolicyKind, SkiInstance, SkiPolicy, branch_cost, deterministic_buy_day
from .experiments import DEFAULT_SEED
from .workloads import derived_rng

NINE_LAMBDAS = tuple(round(0.1 * i, 10) for i in range(1, 10))
LEMMA_SLACK = 1e-12


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


def _collect(family: str, tolerance: float, excesses, labels) -> FamilyResult:
    """Fold per-point excesses (observed - allowed) into a family result."""
    worst = -math.inf
    worst_label = ""
    violations = 0
    points = 0
    for excess, label in zip(excesses, labels):
        points += 1
        if excess > worst:
            worst = excess
            worst_label = label
        if excess > tolerance:
            violations += 1
    return FamilyResult(family, points, violations, worst, tolerance, worst_label)


def _grid_excess(excess: np.ndarray, tolerance: float) -> Tuple[float, int, int]:
    """Worst excess on a grid, its flat index, and the count above tolerance."""
    at = int(np.argmax(excess))
    return float(excess.flat[at]), at, int(np.count_nonzero(excess > tolerance))


def _check_ski_rule(
    family: str, b_max: int, lambdas: Sequence, tolerance: float, rule
) -> FamilyResult:
    """Fold cost/OPT minus its bound over b in 2..b_max, lambdas, x in 1..4b, y in 0..4b.

    rule(b, lam) gives (policy, allowed), where allowed(eta, opt) is the
    guaranteed ratio, or None where lam is outside the rule's domain.  The
    cost depends on y only through the branch y >= b, so one kernel call per
    branch covers the whole y range while the bound is evaluated on the grid.
    """
    worst = -math.inf
    worst_label = ""
    violations = 0
    points = 0
    for b in range(2, b_max + 1):
        x = np.arange(1, 4 * b + 1)
        xs = x[:, None].astype(float)
        ys = np.arange(0, 4 * b + 1, dtype=float)[None, :]
        opt = np.minimum(xs, float(b))
        eta = np.abs(ys - xs)
        for lam in lambdas:
            case = rule(b, lam)
            if case is None:
                continue
            policy, allowed = case
            cost = np.where(
                ys >= b,
                branch_cost(policy, b, True, x)[:, None],
                branch_cost(policy, b, False, x)[:, None],
            )
            excess, at, nviol = _grid_excess(cost / opt - allowed(eta, opt), tolerance)
            points += cost.size
            violations += nviol
            if excess > worst:
                xi, yi = np.unravel_index(at, cost.shape)
                worst = excess
                worst_label = f"b={b} x={xi + 1} y={yi}"
                if lam is not None:
                    worst_label += f" lambda={lam}"
    return FamilyResult(family, points, violations, worst, tolerance, worst_label)


def check_det_ski_guarantee(
    b_max: int = 50,
    lambdas: Sequence[float] = NINE_LAMBDAS,
    tolerance: float = 1e-9,
) -> FamilyResult:
    """Deterministic rule vs its guarantee, exhaustively over b, x, y, lambda."""

    def rule(b, lam):
        rob, cons = bounds.det_robustness(lam), bounds.det_consistency(lam)

        def allowed(eta, opt):
            return np.minimum(rob, cons + eta / ((1.0 - lam) * opt))

        return SkiPolicy(PolicyKind.DETERMINISTIC, lam), allowed

    return _check_ski_rule("deterministic-rule-guarantee", b_max, lambdas, tolerance, rule)


def check_rand_ski_guarantee(
    b_max: int = 50,
    lambdas: Sequence[float] = NINE_LAMBDAS,
    tolerance: float = 1e-9,
) -> FamilyResult:
    """Randomized rule (exact expectation) vs its guarantee on the same grid.

    Lambdas at or below 1/b are outside the rule's domain and are skipped.
    """

    def rule(b, lam):
        if lam <= 1.0 / b:
            return None
        rob, cons = bounds.rand_robustness(b, lam), bounds.rand_consistency(lam)

        def allowed(eta, opt):
            return np.minimum(rob, cons * (1.0 + eta / opt))

        return SkiPolicy(PolicyKind.RANDOMIZED, lam), allowed

    return _check_ski_rule("randomized-rule-guarantee", b_max, lambdas, tolerance, rule)


def check_naive_lemma(b_max: int = 50, tolerance: float = 1e-9) -> FamilyResult:
    """Naive rule: cost <= OPT + eta on every instance of the grid."""

    def rule(b, lam):
        def allowed(eta, opt):
            return 1.0 + eta / opt  # cost <= OPT + eta, as a ratio

        return SkiPolicy(PolicyKind.NAIVE), allowed

    return _check_ski_rule("naive-rule-additive-guarantee", b_max, (None,), tolerance, rule)


def check_classical_recovery(
    b_max: int = 50, b_ratio: int = 100, tolerance: float = 1e-9
) -> FamilyResult:
    """lambda = 1 recovers the classical rules.

    Deterministic: the buy day equals b on both prediction branches for every
    b.  Randomized: for b = b_ratio the worst expected ratio over x in
    {1..4b} sits within 1/b of e/(e-1); for smaller b it stays below
    e/(e-1) + 1/b.
    """
    karlin = SkiPolicy(PolicyKind.KARLIN)
    excesses = []
    labels = []
    for b in range(2, b_max + 1):
        for y in (0.0, float(b)):
            day = deterministic_buy_day(SkiInstance(b, 1, y), 1.0)
            excesses.append(float(abs(day - b)))
            labels.append(f"deterministic b={b} y={y}")
        x = np.arange(1, 4 * b + 1)
        worst_ratio = float(np.max(branch_cost(karlin, b, True, x) / np.minimum(x, b)))
        excesses.append(worst_ratio - (bounds.E_OVER_E_MINUS_1 + 1.0 / b))
        labels.append(f"randomized-ceiling b={b}")

    x = np.arange(1, 4 * b_ratio + 1)
    worst_ratio = float(np.max(branch_cost(karlin, b_ratio, True, x) / np.minimum(x, b_ratio)))
    excesses.append(abs(worst_ratio - bounds.E_OVER_E_MINUS_1) - 1.0 / b_ratio)
    labels.append(f"randomized-proximity b={b_ratio} worst_ratio={worst_ratio:.6f}")
    return _collect("classical-recovery", tolerance, excesses, labels)


def random_jobsets(count: int, seed: int, n_max: int = 8, x_max: float = 10.0) -> List[JobSet]:
    """Seeded job sets with lengths in [1, x_max] and assorted prediction styles.

    Prediction modes rotate by index: perfect, mild noise, heavy noise,
    unrelated uniform (may be negative), and fully reversed order.
    """
    sets = []
    for s in range(count):
        rng = derived_rng(seed, s)
        n = int(rng.integers(1, n_max + 1))
        lengths = rng.uniform(1.0, x_max, n)
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
        sets.append(JobSet.from_lengths(lengths, preds))
    return sets


def check_jobset_families(
    count: int = 10000,
    lambdas: Sequence[float] = NINE_LAMBDAS,
    seed: int = DEFAULT_SEED,
    tolerance: float = 1e-9,
) -> List[FamilyResult]:
    """Three guarantees on one random job-set grid, drawn once.

    SPJF ratio <= 1 + 2*eta/n; PRR ratio <= min((1/lam)(1 + 2*eta/n),
    2/(1-lam)); with perfect predictions, PRR ratio <= (1+lam)/(2*lam).  The
    SJF optimum ignores predictions, so the perfect family reuses it.
    """
    spjf_excess, spjf_labels = [], []
    prr_excess, perfect_excess, lambda_labels = [], [], []
    for idx, jobs in enumerate(random_jobsets(count, seed)):
        opt = sjf_opt(jobs).objective
        eta = prediction_error(jobs)
        spjf_excess.append(spjf(jobs).objective / opt - bounds.spjf_bound(jobs.n, eta))
        spjf_labels.append(f"jobset#{idx} n={jobs.n}")
        perfect = jobs.with_predictions(jobs.lengths)
        for lam in lambdas:
            prr_excess.append(prr(jobs, lam).objective / opt - bounds.prr_bound(jobs.n, eta, lam))
            perfect_ratio = prr(perfect, lam).objective / opt
            perfect_excess.append(perfect_ratio - bounds.prr_perfect_bound(lam))
            lambda_labels.append(f"jobset#{idx} lambda={lam}")
    return [
        _collect("spjf-guarantee", tolerance, spjf_excess, spjf_labels),
        _collect("prr-guarantee", tolerance, prr_excess, lambda_labels),
        _collect("prr-perfect-prediction-guarantee", tolerance, perfect_excess, lambda_labels),
    ]


def check_spjf_tightness(
    n: int = 50, eps: float = 1e-3, safety: float = 0.9
) -> FamilyResult:
    """The equal-predictions family drives SPJF close to its guarantee.

    n-1 unit jobs plus one of length 1+eps, all predicted 1; scheduling the
    long job first (worst tie order) must reach at least ``safety`` of the
    guarantee's excess 2(n-1)eta / (n(n+1)).
    """
    lengths = [1.0] * (n - 1) + [1.0 + eps]
    jobs = JobSet.from_lengths(lengths, [1.0] * n)
    opt = sjf_opt(jobs).objective
    ratio = spjf(jobs, adversarial_ties=True).objective / opt
    eta = prediction_error(jobs)
    required = 1.0 + safety * 2.0 * (n - 1) * eta / (n * (n + 1))
    return _collect(
        "spjf-tightness-family",
        0.0,
        [required - ratio],
        [f"n={n} eps={eps} ratio={ratio:.9f} required>={required:.9f}"],
    )


def _inequality_family(
    family: str, lhs: np.ndarray, rhs: np.ndarray, coords: Dict[str, np.ndarray],
    tolerance: float,
) -> FamilyResult:
    """lhs <= rhs on a grid; ``coords`` name the grid point reported as the worst."""
    worst, at, violations = _grid_excess(lhs - rhs, tolerance)
    case = ", ".join(f"{k}={v.flat[at]:.6g}" for k, v in coords.items())
    return FamilyResult(family, lhs.size, violations, worst, tolerance, case)


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
    if a1_step <= 0:
        raise ValueError(f"a1_step must be positive, got {a1_step!r}")
    n = max(1, round(1.0 / a1_step))
    x = np.arange(1, n + 1) * (1.0 / n)
    results = [
        _inequality_family(
            "lemma-helper-i", np.exp(x - 1.0 / x), np.ones_like(x), {"x": x}, LEMMA_SLACK
        ),
        _inequality_family(
            "lemma-helper-ii", np.exp(-1.0 / x), x * math.exp(-1.0), {"x": x}, LEMMA_SLACK
        ),
        _inequality_family(
            "lemma-helper-iii",
            x * math.exp(-1.0),
            1.0 - 1.0 / x + np.exp(-x) / x,
            {"x": x},
            LEMMA_SLACK,
        ),
    ]

    b = np.arange(2, a2_b_max + 1, dtype=float)[:, None]
    j = np.arange(1, a2_lambda_points + 1, dtype=float)[None, :]
    lam = 1.0 / b + (1.0 - 1.0 / b) * j / (a2_lambda_points + 1)
    lhs = (1.0 / lam + 1.0 / b) / (1.0 - np.exp(-1.0 / lam))
    rhs = (1.0 + 1.0 / b) / (1.0 - np.exp(-(lam - 1.0 / b)))
    coords = {"b": np.broadcast_to(b, lam.shape), "lambda": lam}
    results.append(
        _inequality_family("lemma-robustness-transfer", lhs, rhs, coords, LEMMA_SLACK)
    )
    return results


def check_tradeoff_dominance(
    b: int = 100,
    det_lambdas: Sequence[float] = tuple(round(0.05 * i, 10) for i in range(1, 21)),
    rand_grid_size: int = 20000,
) -> FamilyResult:
    """At every deterministic lambda some randomized lambda dominates it.

    Dominance: no worse robustness with strictly better consistency.  At the
    shared classical endpoint (lambda = 1) equal consistency is accepted.
    """
    lo = 1.0 / b + 1e-9
    grid = np.linspace(lo, 1.0, rand_grid_size)
    rand_rob = np.array([bounds.rand_robustness(b, lam) for lam in grid])
    rand_cons = np.array([bounds.rand_consistency(lam) for lam in grid])

    excesses = []
    labels = []
    for lam_d in det_lambdas:
        dr = bounds.det_robustness(lam_d)
        dc = bounds.det_consistency(lam_d)
        mask = rand_rob <= dr
        best = float(np.min(rand_cons[mask])) if np.any(mask) else math.inf
        strict = best < dc or (lam_d == 1.0 and best <= dc)
        excesses.append(-1.0 if strict else best - dc)
        labels.append(f"lambda_det={lam_d} best_rand_consistency={best:.6f}")
    return _collect("tradeoff-dominance", 0.0, excesses, labels)


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
