"""onlinepred benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see BENCHMARK.json for why each was chosen): ski-sweep,
sched-sweep, verify-bounds, demand-eval.  Every sample is one call of the
workload in a fresh interpreter started by ``worker.py``; samples repeat
until the next one would end past ``--seconds``.

``--trace 0`` prints the end-to-end metrics as medians over the samples:
``setup_s`` (interpreter start to loaded package and built parser),
``items_per_ref`` (work items per reference-loop time, setup excluded) and
``peak_rss_mb`` (peak RSS of the sample's process).  It also prints the
raw wall-clock ``items_per_s`` and ``failed_frac``, the share of failed
output checks (carried by the ``attempted``/``failed`` fields of the result).

``items_per_ref`` is ``items_per_s`` times the duration of a fixed reference
loop, timed in this process just before and after each sample.  The speed of
a shared machine drifts by tens of percent over minutes; the reference loop
drifts with it, so the product measures the program rather than the moment.
On a 2-vCPU VM, ten-run spreads of ``items_per_s`` reached 0.32, above the
largest bound a metric may have, while those of ``items_per_ref`` stayed
between 0.02 and 0.07.  ``failed_frac`` is not declared either: a declared
metric may not be 0, and it is 0 whenever the program is right.

``--trace 1`` runs pairs of samples on the same inputs, one untraced and one
under the span tracer, and prints the per-layer metrics of the traced ones
plus ``trace_overhead_frac`` = traced / untraced wall time - 1.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The full record (environment, every sample, metrics)
goes to ``bench/results/``.  ``--smoke`` runs tiny inputs for the test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import cases
from tracer import MODULES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
# No sample starts after this many seconds, so a run ends well within 180 s.
RUN_BUDGET_S = 150.0


def reference_loop() -> float:
    """Seconds taken by a fixed mix of interpreter, RNG-seeding and memory work.

    It runs in this process, between samples, so it neither competes with a
    sample for the CPU nor adds to the sample's peak RSS.
    """
    start = time.perf_counter()
    table = {}
    total = 0
    for i in range(60000):
        total += (i * i) % 7
        table[i & 1023] = total
    for i in range(300):
        np.random.default_rng(np.random.SeedSequence((12345, i))).standard_normal()
    np.ones(2_000_000).sum()
    return time.perf_counter() - start


def spawn(workload: str, profile: str, seed: int, trace: bool, spans: Path, timeout: float) -> dict:
    """Run one sample in a fresh interpreter; returns its record or an error."""
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        workload, profile, str(seed), "1" if trace else "0", str(spans) if trace else "-",
    ]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"sample timed out after {timeout:.0f} s", "seed": seed}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}", "seed": seed}
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"no result record in output {proc.stdout[-500:]!r}", "seed": seed}
    record["seed"] = seed
    record["setup_s"] = record["setup_done"] - started
    return record


def collect(workload: str, profile: str, seed: int, seconds: float, trace: bool) -> list:
    """Samples (or untraced/traced pairs) until the next would end past ``seconds``."""
    reference_loop()  # the first call pays one-time page faults and lazy imports
    start = time.perf_counter()
    samples = []
    index = 0
    while True:
        begin = time.perf_counter()
        if index == 0 and workload in cases.SWEEPS:
            sample_seed = cases.DEFAULT_SEED  # checked against the recorded digest
        else:
            sample_seed = cases.sample_seed(seed, index)
        spans = RESULTS_DIR / f"spans-{workload}-seed{seed}-{index}.json"
        for traced in ((False, True) if trace else (False,)):
            timeout = max(RUN_BUDGET_S - (time.perf_counter() - start), 1.0)
            ref_before = reference_loop()
            record = spawn(workload, profile, sample_seed, traced, spans, timeout)
            record["ref_s"] = (ref_before + reference_loop()) / 2
            record["traced"] = traced
            record["at_s"] = begin - start
            samples.append(record)
            if "error" in record:
                return samples
        index += 1
        now = time.perf_counter()
        if now + (now - begin) - start > min(seconds, RUN_BUDGET_S):
            return samples


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def layer_value(name: str, sample: dict) -> float:
    """Resolve a per-layer metric name against one traced sample."""
    tr, info = sample["trace"], sample["info"]
    stats, counters = tr["stats"], tr["counters"]

    def calls(key):
        return stats.get(key, [0])[0]

    if name == "root_s":
        return tr["root_s"]
    if name in counters:
        return counters[name]
    if name == "experiments.jobset_regen_per_trial":
        return calls("workloads.gen_pareto_jobs") / info["trials"] if "trials" in info else 0.0
    if name == "scheduling.sjf_opt_per_jobset":
        distinct = counters["distinct_jobsets"]
        return calls("scheduling.sjf_opt") / distinct if distinct else 0.0
    if name == "ski_demand.decompose_per_instance":
        return calls("ski_demand.decompose") / info["instances"] if "instances" in info else 0.0
    key, kind = name.rsplit(".", 1)
    if kind == "calls":
        return calls(key)
    if kind == "self_s":
        if key in MODULES or key == "bench":
            return tr["module_self"].get(key, 0.0)
        return stats.get(key, [0, 0.0, 0.0])[2]
    raise KeyError(f"no per-layer metric {name!r}")


def environment(seed: int, samples: list) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    ok = [s for s in samples if "error" not in s]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": ok[0]["numpy"] if ok else None,
        "commit": commit,
        "seed": seed,
        "sample_seeds": [s["seed"] for s in samples],
        "items_per_sample": sorted({s["items"] for s in ok}),
        "samples": len(samples),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(cases.CASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "onlinepred" / "__init__.py").is_file():
        print(f"error: no onlinepred sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    RESULTS_DIR.mkdir(exist_ok=True)

    profile = "smoke" if args.smoke else "full"
    samples = collect(args.workload, profile, args.seed, args.seconds, bool(args.trace))
    ok = [s for s in samples if "error" not in s]
    attempted = sum(s.get("attempted", 1) for s in samples)
    failed = sum(s.get("failed", 1) for s in samples)
    for s in samples:
        for message in s.get("messages", []) + ([s["error"]] if "error" in s else []):
            print(f"check failed (seed {s['seed']}): {message}", file=sys.stderr)
    if not ok:
        print("error: no sample completed", file=sys.stderr)
        return 1

    lines = [f"onlinepred benchmark: workload={args.workload} seed={args.seed} trace={args.trace}"]
    summary = {}
    if args.trace:
        traced = [s for s in ok if s["traced"]]
        plain = [s for s in ok if not s["traced"]]
        values = {}
        if traced and plain:
            values = {
                m["name"]: [layer_value(m["name"], s) for s in traced]
                for m in spec["per_layer"]
                if m["name"] != "trace_overhead_frac"
            }
            values["trace_overhead_frac"] = [
                statistics.median(s["work_s"] for s in traced)
                / statistics.median(s["work_s"] for s in plain) - 1.0
            ]
        metrics_spec = spec["per_layer"]
    else:
        values = {
            "setup_s": [s["setup_s"] for s in ok],
            "items_per_ref": [s["items"] * s["ref_s"] / s["work_s"] for s in ok],
            "peak_rss_mb": [s["peak_rss_kb"] / 1024.0 for s in ok],
        }
        metrics_spec = spec["end_to_end"]
    # raw wall-clock rate: printed and recorded, not declared (see the module docstring)
    undeclared = [] if args.trace else [
        ("items_per_s", "1/s", [s["items"] / s["work_s"] for s in ok])
    ]
    metrics = {}
    for m in metrics_spec:
        if m["name"] not in values:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
    declared = [(m["name"], m["unit"], values[m["name"]]) for m in metrics_spec]
    for name, unit, vals in declared + undeclared:
        q1, med, q3 = quartiles(vals)
        if name in values:
            metrics[name] = {"value": med, "unit": unit}
        summary[name] = {"median": med, "q1": q1, "q3": q3, "n": len(vals), "unit": unit}
        lines.append(f"  {name:<44} {med:>14.6g} {unit:<12} q1={q1:.6g} q3={q3:.6g} n={len(vals)}")
    lines.append(f"  {'failed_frac':<44} {failed / attempted:>14.6g} {'fraction':<12} "
                 f"({failed} failed of {attempted} output checks)")
    lines.append("  time waited: not reported; no module queues, waits or retries")

    env = environment(args.seed, samples)
    lines.append("  env: " + json.dumps(env))
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "env": env, "summary": summary,
                   "failed_frac": failed / attempted, "samples": samples}, fh, indent=1)
    lines.append(f"  record: {out.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
