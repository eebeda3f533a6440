"""The four benchmark workloads: their inputs, the call under test, and output checks.

Each workload turns (size, seed) into a ``Job``: the callable timed in a fresh
interpreter, the name of its root span in a traced run, and a check that
counts attempted and failed output checks.  The three CLI workloads go
through ``onlinepred.cli.main(argv)`` with stdout captured; ``demand-eval``
calls the ``ski_demand`` public functions on instances generated here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent

# The CLI's default master seed.  The first sample of each sweep run uses it,
# and its stdout must match the digest recorded at the benchmark's parent commit.
DEFAULT_SEED = 271828

SKI_B = 100
LAMBDA_DET = 0.5
LAMBDA_RAND = math.log(1.5)
SCHED_N = 50
SCHED_ALPHA = 1.1
SCHED_LAMBDA = 0.5
DEMAND_HORIZON = 400
DEMAND_MAX = 8
DEMAND_NOISE = (0.0, 0.5, 1.0, 2.0, 4.0)  # per-day prediction noise, cycled by instance

# Per-sample work: trials of a sweep, grid density of verify-bounds,
# instances of demand-eval.  "full" is what the timed runs measure.  The
# verify-bounds default grid (13-19 s) fits only one sample in a run, and
# single samples spread too much on a shared 2-core machine, so samples use
# the tiny grid, which keeps the same families, n <= 8 PRR calls and batch
# randomized-rule costs.
SIZES = {
    "full": {"ski-sweep": 50000, "sched-sweep": 10, "verify-bounds": "tiny", "demand-eval": 500},
    "smoke": {"ski-sweep": 200, "sched-sweep": 2, "verify-bounds": "tiny", "demand-eval": 5},
}

SWEEP_HEADER = "experiment,algorithm,lambda,sigma,trials,mean_ratio,mean_eta,max_ratio"
SKI_SIGMA_POINTS = 41
SCHED_SIGMA_POINTS = 11
SKI_ALGORITHMS = ("break-even", "karlin", "deterministic", "randomized")
SCHED_ALGORITHMS = ("round-robin", "spjf", "prr")

# Points per verify-bounds family; they fix the work a run checks.
VERIFY_POINTS = {
    "tiny": {
        "deterministic-rule-guarantee": 32076,
        "randomized-rule-guarantee": 31776,
        "naive-rule-additive-guarantee": 10692,
        "classical-recovery": 34,
        "spjf-guarantee": 200,
        "spjf-tightness-family": 1,
        "prr-guarantee": 600,
        "prr-perfect-prediction-guarantee": 600,
        "lemma-helper-i": 100,
        "lemma-helper-ii": 100,
        "lemma-helper-iii": 100,
        "lemma-robustness-transfer": 1225,
        "tradeoff-dominance": 20,
    },
}
FAMILY_LINE = re.compile(
    r"^(\S+)\s+points=(\d+)\s+violations=(\d+)\s+worst_excess=\S+\s+tol=\S+\s+(PASS|FAIL)$"
)
REL_TOL = 1e-9


# Robustness bounds written out here rather than taken from onlinepred.bounds,
# so a change to the program's bounds cannot pass its own check.
def det_robustness(lam: float) -> float:
    return (1.0 + lam) / lam


def rand_robustness(b: int, lam: float) -> float:
    return (1.0 + 1.0 / b) / (1.0 - math.exp(-(lam - 1.0 / b)))


def prr_robustness(lam: float) -> float:
    return 2.0 / (1.0 - lam)


def sample_seed(seed: int, index: int) -> int:
    """Program seed of sample ``index`` of a run with benchmark seed ``seed``."""
    return random.Random(f"onlinepred-bench:{seed}:{index}").randrange(1, 2**31)


class Checks:
    """Counts output checks; keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(message)
        return ok


@dataclass
class Job:
    """One sample's call under test and what its output must satisfy."""

    root: str  # span name of the root in a traced run
    entry: Callable  # the call under test, wrapped as the root span when traced
    run: Callable[[Callable], object]  # run(entry) -> output
    check: Callable[[object, Checks], int]  # checks the output, returns the items done
    info: Dict[str, object] = field(default_factory=dict)


def _cli_job(cli, argv: List[str], check, info) -> Job:
    def run(entry):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = entry(argv)
        return code, buf.getvalue()

    info = dict(info, argv=argv)
    return Job("cli.main", cli.main, run, check, info)


def _digests() -> Dict[str, str]:
    with open(BENCH_DIR / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)


def _check_sweep(output, checks: Checks, argv, algorithms, sigma_points, trials, bounds) -> int:
    """Header, row count, ratios >= 1, lambda-rule max_ratio <= robustness."""
    code, text = output
    checks.expect(code == 0, f"exit code {code}")
    if "--seed" in argv and int(argv[argv.index("--seed") + 1]) == DEFAULT_SEED:
        key = " ".join(argv)
        expected = _digests().get(key)
        actual = hashlib.sha256(text.encode()).hexdigest()
        checks.expect(actual == expected, f"stdout digest {actual} != {expected} for {key!r}")
    lines = text.split("\n")
    checks.expect(lines[-1] == "", "output does not end with a single newline")
    checks.expect(lines[0] == SWEEP_HEADER, f"header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:-1]]
    checks.expect(
        len(rows) == sigma_points * len(algorithms),
        f"{len(rows)} rows, expected {sigma_points * len(algorithms)}",
    )
    items = 0
    for i, row in enumerate(rows):
        try:
            algorithm = row[1]
            row_trials = int(row[4])
            mean_ratio, max_ratio = float(row[5]), float(row[7])
        except (IndexError, ValueError):
            checks.expect(False, f"row {i} malformed: {row!r}")
            continue
        bound = bounds.get(algorithm, math.inf)
        ok = (
            algorithm == algorithms[i % len(algorithms)]
            and row_trials == trials
            and mean_ratio >= 1.0
            and max_ratio >= mean_ratio
            and max_ratio <= bound + 1e-6  # printed ratios carry 6 decimals
        )
        checks.expect(ok, f"row {i} {row!r} fails an invariant (bound {bound})")
        items += row_trials
    return items


def ski_sweep(modules, size: int, seed: int) -> Job:
    argv = [
        "ski-sweep", "--b", str(SKI_B), "--trials", str(size),
        "--lambda-det", repr(LAMBDA_DET), "--lambda-rand", repr(LAMBDA_RAND),
        "--seed", str(seed), "--jobs", "1",
    ]
    bounds = {
        "deterministic": det_robustness(LAMBDA_DET),
        "randomized": rand_robustness(SKI_B, LAMBDA_RAND),
    }

    def check(output, checks):
        return _check_sweep(output, checks, argv, SKI_ALGORITHMS, SKI_SIGMA_POINTS, size, bounds)

    return _cli_job(modules["cli"], argv, check, {"trials": size})


def sched_sweep(modules, size: int, seed: int) -> Job:
    argv = [
        "sched-sweep", "--n", str(SCHED_N), "--alpha", repr(SCHED_ALPHA),
        "--lambda", repr(SCHED_LAMBDA), "--trials", str(size),
        "--seed", str(seed), "--jobs", "1",
    ]
    bounds = {"prr": prr_robustness(SCHED_LAMBDA)}

    def check(output, checks):
        return _check_sweep(
            output, checks, argv, SCHED_ALGORITHMS, SCHED_SIGMA_POINTS, size, bounds
        )

    return _cli_job(modules["cli"], argv, check, {"trials": size})


def verify_bounds(modules, density: str, seed: int) -> Job:
    argv = ["verify-bounds", "--grid-density", density, "--seed", str(seed)]
    expected = VERIFY_POINTS[density]

    def check(output, checks):
        code, text = output
        checks.expect(code == 0, f"exit code {code}")
        lines = text.rstrip("\n").split("\n")
        families = {}
        for line in lines[:-1]:
            match = FAMILY_LINE.match(line)
            if checks.expect(match is not None, f"unparsable family line {line!r}"):
                name, points, violations, status = match.groups()
                families[name] = int(points)
                checks.expect(
                    status == "PASS" and violations == "0", f"family failed: {line!r}"
                )
        for name, points in expected.items():
            checks.expect(
                families.get(name) == points,
                f"family {name}: points {families.get(name)}, expected {points}",
            )
        checks.expect(
            lines[-1] == f"OVERALL: PASS ({len(families)} families, 0 violations)",
            f"overall line {lines[-1]!r}",
        )
        return sum(families.values())

    return _cli_job(modules["cli"], argv, check, {})


def demand_instances(ski_demand, count: int, seed: int) -> list:
    """Uniform daily demand on {0..8}; prediction = demand + Gaussian noise, clamped at 0."""
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(count):
        sigma = DEMAND_NOISE[i % len(DEMAND_NOISE)]
        demand = rng.integers(0, DEMAND_MAX + 1, DEMAND_HORIZON)
        while demand.max() == 0:
            demand = rng.integers(0, DEMAND_MAX + 1, DEMAND_HORIZON)
        predicted = np.maximum(demand + sigma * rng.standard_normal(DEMAND_HORIZON), 0.0)
        instances.append(
            ski_demand.DemandInstance(
                SKI_B, tuple(int(d) for d in demand), tuple(float(y) for y in predicted)
            )
        )
    return instances


def demand_eval(modules, size: int, seed: int) -> Job:
    ski_demand, ski_rental = modules["ski_demand"], modules["ski_rental"]
    det = ski_rental.SkiPolicy(ski_rental.PolicyKind.DETERMINISTIC, LAMBDA_DET)
    rand = ski_rental.SkiPolicy(ski_rental.PolicyKind.RANDOMIZED, LAMBDA_RAND)
    instances = demand_instances(ski_demand, size, seed)

    def score():
        # module-attribute lookups, so a traced run sees the wrapped functions
        return [
            (
                ski_demand.demand_opt(inst),
                ski_demand.demand_algorithm_cost(inst, det),
                ski_demand.demand_algorithm_cost(inst, rand),
                ski_demand.demand_level_error(inst),
            )
            for inst in instances
        ]

    robust = {
        "deterministic": det_robustness(LAMBDA_DET),
        "randomized": rand_robustness(SKI_B, LAMBDA_RAND),
    }

    def check(rows, checks):
        """OPT <= cost <= robustness * OPT per rule; OPT equals the sum of level optima.

        Level error <= total error is not checked: fractional predictions can
        break it by design (demand 3, prediction 2.5: level error 1, total 0.5).
        """
        checks.expect(len(rows) == len(instances), f"{len(rows)} results for {len(instances)}")
        for i, (inst, (opt, det_cost, rand_cost, _)) in enumerate(zip(instances, rows)):
            for rule, cost in (("deterministic", det_cost), ("randomized", rand_cost)):
                high = robust[rule] * opt
                checks.expect(
                    opt * (1 - REL_TOL) <= cost <= high * (1 + REL_TOL),
                    f"instance {i} {rule}: cost {cost} outside [{opt}, {high}]",
                )
            levels = sum(ski_demand.demand_opt_levels(inst))
            checks.expect(opt == levels, f"instance {i}: demand_opt {opt} != level sum {levels}")
        return len(rows)

    return Job("bench.demand_eval", score, lambda entry: entry(), check, {"instances": size})


CASES = {
    "ski-sweep": ski_sweep,
    "sched-sweep": sched_sweep,
    "verify-bounds": verify_bounds,
    "demand-eval": demand_eval,
}
SWEEPS = ("ski-sweep", "sched-sweep")
