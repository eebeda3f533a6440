"""One benchmark sample, run in a fresh interpreter.

    python3 bench/worker.py WORKLOAD PROFILE SEED TRACE SPANS_PATH

Loads ``onlinepred`` from the checkout's ``src`` directory, builds the CLI
parser, and notes the time (``setup_done``, a ``time.perf_counter`` value,
which on Linux is the system-wide monotonic clock the parent also reads).
Then it builds the workload's inputs, runs the call under test once, checks
its output, and prints one JSON record.  With TRACE=1 the call runs under the
span tracer and the spans are written to SPANS_PATH.

Each sample gets its own interpreter because the sweeps cache their trial
draws and cost tables per process (``lru_cache``); the CLI pays for them on
every invocation, so a repeat in one process would time cache hits.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def peak_rss_kb() -> int:
    """Peak resident set size of this process, in KiB.

    Read from VmHWM rather than ``ru_maxrss``: Linux carries the launching
    process's peak across exec into ``ru_maxrss``, so a fresh interpreter
    would report at least its parent's peak.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv) -> int:
    workload, profile, seed, trace, spans_path = argv
    sys.path.insert(0, SRC)
    import onlinepred
    from onlinepred import cli

    cli.build_parser()
    setup_done = time.perf_counter()
    if not os.path.abspath(onlinepred.__file__).startswith(SRC + os.sep):
        print(f"onlinepred was loaded from {onlinepred.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import importlib
    import json

    import numpy

    import cases
    import tracer as tracing

    modules = {name: importlib.import_module(f"onlinepred.{name}") for name in tracing.MODULES}
    job = cases.CASES[workload](modules, cases.SIZES[profile][workload], int(seed))
    entry = job.entry
    tracer = None
    if trace == "1":
        tracer = tracing.Tracer(f"{workload}:{profile}:{seed}")
        tracer.install(modules)
        entry = tracer.wrap(job.root, job.entry)

    start = time.perf_counter()
    output = job.run(entry)
    work_s = time.perf_counter() - start
    rss_kb = peak_rss_kb()
    if tracer is not None:
        tracer.uninstall()

    checks = cases.Checks()
    items = job.check(output, checks)
    record = {
        "setup_done": setup_done,
        "work_s": work_s,
        "items": items,
        "peak_rss_kb": rss_kb,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "messages": checks.messages,
        "info": job.info,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        root_s = tracer.stats[job.root][1]
        self_sum = sum(self_s for _, _, self_s in tracer.stats.values())
        checks.expect(
            abs(self_sum - root_s) <= 1e-9 * max(root_s, 1.0),
            f"span self times sum to {self_sum}, root span lasted {root_s}",
        )
        counters = dict(tracer.counters)
        counters["distinct_jobsets"] = len(counters.pop("_sjf_jobsets"))
        record.update(
            attempted=checks.attempted,
            failed=checks.failed,
            trace={
                "root_s": root_s,
                "stats": tracer.stats,
                "module_self": tracer.module_self(),
                "counters": counters,
            },
        )
        tracer.dump(spans_path)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
