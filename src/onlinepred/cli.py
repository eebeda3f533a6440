"""Command-line front end: sweeps, bound verification, single-instance traces.

Output is byte-deterministic for a fixed seed: ratios print with 6 decimals,
costs and sigmas with 4, CSV rows end with a single newline, and worker count
never changes a byte.  Exit codes: 0 ok, 1 I/O failure, 2 usage error,
3 bound violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from . import bounds
from .experiments import (
    DEFAULT_SEED,
    JOBS_MAX,
    SchedSweepConfig,
    SkiSweepConfig,
    TrialReport,
    run_scheduling_sweep,
    run_ski_sweep,
)
from .scheduling import JobSet, prediction_error, prr, round_robin, sjf_opt, spjf
from .ski_rental import (
    B_MAX,
    PolicyKind,
    SkiInstance,
    SkiPolicy,
    _check_count,
    _support_size,
    buy_day,
    policy_cost,
    randomized_buy_day,
    ski_opt,
)
from .verification import DENSITIES, run_all_checks
from .workloads import seed_uniform

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3

SWEEP_HEADER = "experiment,algorithm,lambda,sigma,trials,mean_ratio,mean_eta,max_ratio"
CURVE_HEADER = "lambda,det_robustness,det_consistency,rand_robustness,rand_consistency"
FAMILY_HEADER = "family,points,violations,worst_excess,tolerance,status"
SIGMA_GRID_MAX_POINTS = 10_001
SWEEP_FORMATS = ("csv", "json")


class UsageError(ValueError, argparse.ArgumentTypeError):
    """Bad flags or config; argparse converts it to an exit-2 as well."""


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``, whose ValueError means bad input: a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {text!r}")
    return seed


def _fmt_ratio(v: float) -> str:
    return f"{v:.6f}"


def _fmt_cost(v: float) -> str:
    return f"{v:.4f}"


def _parse_sigma_grid(text: str) -> List[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"sigma grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"sigma grid must be numeric start:stop:step, got {text!r}")
    if not (all(map(math.isfinite, (start, stop, step))) and step > 0 and stop >= start):
        raise UsageError("sigma grid needs finite values, step > 0 and stop >= start")
    span = (stop - start) / step
    if not span < SIGMA_GRID_MAX_POINTS:  # floor(span) + 1 points; inf if stop - start overflows
        raise UsageError(
            f"sigma grid {text!r} exceeds the limit of {SIGMA_GRID_MAX_POINTS} points"
        )
    grid = []
    for i in range(math.floor(span) + 2):  # one extra for a stop reached by rounding
        v = start + i * step
        if v > stop + 1e-9 * max(1.0, step):
            break
        if not grid or v > grid[-1]:  # a step below the float spacing repeats a point
            grid.append(v)
    return grid


def _read_config_file(path: str) -> Dict[str, str]:
    values, first_line = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        for lineno, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in first_line:
                raise UsageError(f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}")
            first_line[key], values[key] = lineno, value.strip()
    return values


def _merge_config(
    args: argparse.Namespace, schema: Mapping[str, tuple]
) -> Tuple[Dict, Set[str]]:
    """Resolve option values with precedence: built-in default < file < flag.

    Returns the values and the keys that took their built-in default.
    """
    file_values = {}
    if getattr(args, "config", None):
        file_values = _read_config_file(args.config)
        unknown = set(file_values) - set(schema)
        if unknown:
            raise UsageError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    resolved, defaulted = {}, set()
    for key, (convert, default) in schema.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in file_values:
            try:
                resolved[key] = convert(file_values[key])
            except UsageError:
                raise
            except ValueError:
                raise UsageError(f"config key {key}: cannot parse {file_values[key]!r}")
        else:
            resolved[key] = default
            defaulted.add(key)
    return resolved, defaulted


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


def _parse_format(text: str) -> str:
    if text not in SWEEP_FORMATS:
        raise UsageError(f"format must be csv or json, got {text!r}")
    return text


def _write_output(text: str, out: Optional[str]) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _render_sweep(reports: List[TrialReport], fmt: str) -> str:
    if fmt == "json":
        rows = [
            {
                "experiment": r.experiment,
                "algorithm": r.algorithm,
                "lambda": None if r.lam is None else round(r.lam, 6),
                "sigma": round(r.sigma, 4),
                "trials": r.count,
                "mean_ratio": round(r.mean_ratio, 6),
                "mean_eta": round(r.mean_eta, 4),
                "max_ratio": round(r.max_ratio, 6),
            }
            for r in reports
        ]
        return json.dumps(rows, indent=2) + "\n"
    lines = [SWEEP_HEADER]
    for r in reports:
        lam = "" if r.lam is None else _fmt_ratio(r.lam)
        lines.append(
            f"{r.experiment},{r.algorithm},{lam},{_fmt_cost(r.sigma)},{r.count},"
            f"{_fmt_ratio(r.mean_ratio)},{_fmt_cost(r.mean_eta)},{_fmt_ratio(r.max_ratio)}"
        )
    return "\n".join(lines) + "\n"


# Parsers of sweep option text, from a flag or a config file: by field name
# where the field's default alone does not say how, else by the default's type.
_FIELD_PARSERS = {"seed": _parse_seed, "sigma_grid": _parse_sigma_grid}
_TYPE_PARSERS = {int: int, float: float, bool: _parse_bool}
# Config-file keys of a sweep besides its config fields: (parser, default).
_OUTPUT_KEYS = {"format": (_parse_format, "csv"), "out": (str, "-")}

# One row per config field of each sweep: (field, flag, help).  The field's
# default picks its parser, and "{default}" in the help shows that default.
_SHARED_OPTIONS = (
    ("seed", "--seed", "master seed (default {default})"),
    ("jobs", "--jobs", f"worker processes (default {{default}}, at most {JOBS_MAX})"),
)
_SKI_OPTIONS = (
    ("b", "--b", f"buy cost (default {{default}}, at most {B_MAX})"),
    ("trials", "--trials", "trials per grid point (default {default})"),
    ("sigma_grid", "--sigma-grid", "noise grid start:stop:step (default 0:4b:b/10)"),
    ("lambda_det", "--lambda-det", "lambda of the deterministic rule (default {default})"),
    ("lambda_rand", "--lambda-rand",
     "lambda of the randomized rule, in (1/b, 1] (default ln(3/2); --b 2 needs one above 1/2)"),
    ("sampled", "--sampled",
     "score randomized rules by one sampled buy day instead of exact expectation"),
) + _SHARED_OPTIONS
_SCHED_OPTIONS = (
    ("n", "--n", "jobs per set (default {default})"),
    ("alpha", "--alpha", "Pareto exponent (default {default})"),
    ("trials", "--trials", "trials per grid point (default {default})"),
    ("sigma_grid", "--sigma-grid",
     "noise grid start:stop:step (default 0 to 20 mean job lengths in steps of 2, "
     "which is 0:220:22 at alpha 1.1)"),
    ("lambda_sched", "--lambda", "preferential round-robin lambda (default {default})"),
    ("fixed_jobs", "--fixed-jobs", "draw one job set and only resample noise per trial"),
) + _SHARED_OPTIONS


def _field_schema(cls) -> Dict[str, tuple]:
    """(parser, default) of each field of the sweep config ``cls``, as a new dict."""
    return {
        f.name: (_FIELD_PARSERS.get(f.name) or _TYPE_PARSERS[type(f.default)], f.default)
        for f in dataclasses.fields(cls)
    }


def _add_sweep_parser(sub, name: str, text: str, cls, options, func) -> None:
    """The subcommand of one sweep: a flag per row of ``options``, then the output flags."""
    schema = _field_schema(cls)
    p = sub.add_parser(name, help=text)
    for key, flag, help_text in options:
        parse, default = schema[key]
        kind = {"action": "store_const", "const": True} if parse is _parse_bool else {"type": parse}
        p.add_argument(flag, dest=key, default=None, help=help_text.format(default=default), **kind)
    p.add_argument("--format", choices=SWEEP_FORMATS, default=None,
                   help="output format (default csv)")
    p.add_argument("--out", default=None, help="output path, '-' for stdout (default)")
    p.add_argument("--config", default=None,
                   help="key=value config file; flags override file values")
    p.set_defaults(func=func)


def _run_sweep(args: argparse.Namespace, cls, run) -> int:
    """Resolve the fields of ``cls``, build the config (it checks them), run and write a sweep."""
    opts, defaulted = _merge_config(args, {**_field_schema(cls), **_OUTPUT_KEYS})
    fmt, out = opts.pop("format"), opts.pop("out")
    b, lam = opts.get("b"), opts.get("lambda_rand")
    if "lambda_rand" in defaulted and 2 <= b and not 1.0 / b < lam:
        # b = 2 only: the config's own message would blame a lambda the user never gave
        raise UsageError(
            f"--lambda-rand defaults to {lam!r} (ln 3/2), outside the randomized rule's "
            f"range (1/{b}, 1] at b={b}; give --lambda-rand in (1/{b}, 1]"
        )
    config = _checked(cls, **opts)
    _write_output(_render_sweep(run(config), fmt), out)
    return EXIT_OK


# The runners are looked up here at call time, so tests and tracers can replace them.
# The parser binds each cmd_* function once per process: replace run_*, not cmd_*.
def cmd_ski_sweep(args: argparse.Namespace) -> int:
    return _run_sweep(args, SkiSweepConfig, run_ski_sweep)


def cmd_sched_sweep(args: argparse.Namespace) -> int:
    return _run_sweep(args, SchedSweepConfig, run_scheduling_sweep)


def cmd_verify_bounds(args: argparse.Namespace) -> int:
    _checked(_check_count, "--b", args.b, 2, B_MAX)
    results = run_all_checks(args.grid_density, args.seed)
    lines = []
    width = max(len(r.family) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.family:<{width}}  points={r.points:<9} violations={r.violations:<6} "
            f"worst_excess={r.worst_excess:+.6e}  tol={r.tolerance:.1e}  {status}"
        )
        if not r.passed:
            print(f"{r.family}: worst point {r.worst_case}", file=sys.stderr)
    total_violations = sum(r.violations for r in results)
    overall = "PASS" if total_violations == 0 else "FAIL"
    lines.append(
        f"OVERALL: {overall} ({len(results)} families, {total_violations} violations)"
    )
    sys.stdout.write("\n".join(lines) + "\n")

    if args.out:
        rows = [FAMILY_HEADER]
        for r in results:
            rows.append(
                f"{r.family},{r.points},{r.violations},{r.worst_excess:.6e},"
                f"{r.tolerance:.1e},{'PASS' if r.passed else 'FAIL'}"
            )
        _write_output("\n".join(rows) + "\n", args.out)
    if args.curve_out:
        lam = np.array([round(0.02 * i, 10) for i in range(1, 51)])
        lam = lam[lam > 1.0 / args.b]
        columns = (lam, bounds.det_robustness(lam), bounds.det_consistency(lam),
                   bounds.rand_robustness(args.b, lam), bounds.rand_consistency(lam))
        rows = [CURVE_HEADER] + [",".join(map(_fmt_ratio, row)) for row in zip(*columns)]
        _write_output("\n".join(rows) + "\n", args.curve_out)
    return EXIT_OK if total_violations == 0 else EXIT_VIOLATION


# --algo name: (rule, its fixed lambda, or None where --lambda sets it)
_TRACE_SKI_ALGOS = {
    "naive": (PolicyKind.NAIVE, None),
    "break-even": (PolicyKind.DETERMINISTIC, 1.0),
    "karlin": (PolicyKind.RANDOMIZED, 1.0),
    "deterministic": (PolicyKind.DETERMINISTIC, None),
    "det": (PolicyKind.DETERMINISTIC, None),
    "randomized": (PolicyKind.RANDOMIZED, None),
    "rand": (PolicyKind.RANDOMIZED, None),
}


def _free_lambda(args: argparse.Namespace, free: bool) -> bool:
    """Whether --lambda sets the traced rule's lambda (``free``); it is given iff so."""
    if free != (args.lam is not None):
        fault = "requires --lambda" if free else "takes no --lambda"
        raise UsageError(f"algorithm {args.algo!r} {fault}")
    return free


def cmd_trace_ski(args: argparse.Namespace) -> int:
    kind, lam = _TRACE_SKI_ALGOS[args.algo]
    if _free_lambda(args, lam is None and kind is not PolicyKind.NAIVE):
        lam = args.lam
    policy = SkiPolicy(kind, lam)
    # the instance checks b, x and y, the cost the rule's lambda range
    instance = _checked(SkiInstance, args.b, args.x, args.y)
    cost = _checked(policy_cost, instance, policy)
    opt = ski_opt(instance)
    eta = instance.error
    big = instance.y >= instance.b

    info: Dict[str, object] = {
        "algorithm": args.algo,
        "b": args.b,
        "x": args.x,
        "y": args.y,
        "branch": "y >= b" if big else "y < b",
        "opt": opt,
        "eta": round(eta, 4),
    }
    if kind is not PolicyKind.NAIVE:
        info["lambda"] = round(lam, 6)
    if kind is PolicyKind.RANDOMIZED:
        info["support_size"] = _support_size(args.b, lam, big)
        uniform = seed_uniform(args.seed)  # default_rng(SeedSequence(seed)).random()
        info["sampled_buy_day"] = int(randomized_buy_day(args.b, lam, big, uniform))
    else:
        day = buy_day(policy, args.b, big)
        info["buy_day"] = "never" if day is None else day
    if kind is PolicyKind.NAIVE:
        info["guarantee"] = round(opt + eta, 4)
    else:
        info["bound"] = round(float(bounds.ski_guarantee(policy, args.b, eta, opt)), 6)
    info["cost"] = round(cost, 4)
    info["ratio"] = round(cost / opt, 6)

    if args.format == "json":
        sys.stdout.write(json.dumps(info, indent=2) + "\n")
    else:
        order = [
            "algorithm", "lambda", "b", "x", "y", "branch", "buy_day", "support_size",
            "sampled_buy_day", "cost", "opt", "ratio", "eta", "bound", "guarantee",
        ]
        lines = [f"{k}: {info[k]}" for k in order if k in info]
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _parse_job_spec(text: str) -> JobSet:
    pairs = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise UsageError(f"jobs must be 'x:y,x:y,...', got chunk {chunk!r}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise UsageError(f"jobs must contain numbers, got chunk {chunk!r}")
        pairs.append((x, y))
    return _checked(JobSet.from_lengths, [p[0] for p in pairs], [p[1] for p in pairs])


def cmd_trace_sched(args: argparse.Namespace) -> int:
    jobs = _parse_job_spec(args.jobs)
    if _free_lambda(args, args.algo == "prr"):
        result = _checked(prr, jobs, args.lam)  # prr checks lambda
    elif args.algo == "rr":
        result = round_robin(jobs)
    elif args.algo == "spjf":
        result = spjf(jobs)
    else:
        result = sjf_opt(jobs)
    opt = sjf_opt(jobs).objective
    eta = prediction_error(jobs)

    if args.format == "json":
        info = {
            "algorithm": args.algo,
            "lambda": None if args.algo != "prr" else round(args.lam, 6),
            "completions": {
                str(i): round(c, 4) for i, c in enumerate(result.completions.tolist())
            },
            "objective": round(result.objective, 4),
            "opt": round(opt, 4),
            "ratio": round(result.objective / opt, 6),
            "eta": round(eta, 4),
        }
        sys.stdout.write(json.dumps(info, indent=2) + "\n")
        return EXIT_OK

    lines = [f"algorithm: {args.algo}"]
    if args.algo == "prr":
        lines.append(f"lambda: {_fmt_ratio(args.lam)}")
    lines.append("events:")
    for t, ids in result.events:
        done = " ".join(f"job {i}" for i in ids)
        lines.append(f"  t={_fmt_cost(t)}  complete {done}")
    completions = ", ".join(_fmt_cost(c) for c in result.completions.tolist())
    lines.append(f"completions: {completions}")
    lines.append(f"objective: {_fmt_cost(result.objective)}")
    lines.append(f"opt: {_fmt_cost(opt)}")
    lines.append(f"ratio: {_fmt_ratio(result.objective / opt)}")
    lines.append(f"eta: {_fmt_cost(eta)}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one CLI parser, built on the first call; callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="onlinepred",
        description="Benchmarks for rent-or-buy and scheduling rules that use predictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_sweep_parser(sub, "ski-sweep", "mean competitive ratio vs noise, rent-or-buy",
                      SkiSweepConfig, _SKI_OPTIONS, cmd_ski_sweep)
    _add_sweep_parser(sub, "sched-sweep", "mean competitive ratio vs noise, scheduling",
                      SchedSweepConfig, _SCHED_OPTIONS, cmd_sched_sweep)

    verify = sub.add_parser("verify-bounds", help="grid-check every proven guarantee")
    verify.add_argument("--grid-density", choices=tuple(DENSITIES),
                        default="default", help="grid size preset (default 'default')")
    verify.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED,
                        help=f"seed for the random job-set grids (default {DEFAULT_SEED})")
    verify.add_argument("--b", type=int, default=100,
                        help="buy cost for the trade-off curve (default 100)")
    verify.add_argument("--out", default=None, help="write the family report as CSV")
    verify.add_argument("--curve-out", dest="curve_out", default=None,
                        help="write the robustness/consistency curve as CSV")
    verify.set_defaults(func=cmd_verify_bounds)

    trace = sub.add_parser("trace", help="inspect a single instance")
    trace_sub = trace.add_subparsers(dest="trace_kind", required=True)

    tski = trace_sub.add_parser("ski", help="trace one rent-or-buy instance")
    tski.add_argument("--b", type=int, required=True)
    tski.add_argument("--x", type=int, required=True)
    tski.add_argument("--y", type=float, required=True)
    tski.add_argument("--algo", choices=sorted(_TRACE_SKI_ALGOS), required=True)
    tski.add_argument("--lambda", dest="lam", type=float, default=None)
    tski.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED)
    tski.add_argument("--format", choices=("text", "json"), default="text")
    tski.set_defaults(func=cmd_trace_ski)

    tsched = trace_sub.add_parser("sched", help="trace one job set")
    tsched.add_argument("--jobs", required=True, help="job list 'x:y,x:y,...'")
    tsched.add_argument("--algo", choices=("rr", "spjf", "prr", "sjf"), required=True)
    tsched.add_argument("--lambda", dest="lam", type=float, default=None)
    tsched.add_argument("--format", choices=("text", "json"), default="text")
    tsched.set_defaults(func=cmd_trace_sched)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
