"""Span recorder for the traced benchmark run.

Wrappers are installed from outside the package, on module-level functions
in the namespace where callers look them up:

* every public package function bound in another package module's namespace
  (``experiments.derived_rng``, ``verification.prr``, ``cli.run_ski_sweep``);
* every public function of a module that others call through the module
  object (``bounds.prr_bound`` via ``from . import bounds``);
* the module-global entry points named in ``INTRA_MODULE`` that the
  per-layer metrics need (``ski_rental.randomized_expected_cost``, called by
  ``policy_cost``);
* ``JobSet.from_lengths`` and ``JobSet.with_predictions``, as one span name.

A span's self time is its duration minus the durations of its direct child
spans, so the self times of all spans under a root sum to the root's
duration.  Every call is counted into per-name (calls, total, self)
aggregates; span records (id, name, start, end, parent) are kept in memory
for the first ``SPAN_CAP`` calls of each name, which bounds memory on
leaves called 10^5 times, and written out with the run id when the run ends.
"""

from __future__ import annotations

import itertools
import json
import types
from time import perf_counter

PACKAGE = "onlinepred"
MODULES = (
    "workloads", "ski_rental", "ski_demand", "scheduling",
    "experiments", "verification", "bounds", "cli",
)
INTRA_MODULE = {
    "ski_rental": ("randomized_expected_cost", "randomized_distribution"),
    # the demand entry points are looked up here by the benchmark itself
    "ski_demand": ("decompose", "demand_opt", "demand_algorithm_cost", "demand_level_error"),
    "verification": (
        "random_jobsets", "check_det_ski_guarantee", "check_rand_ski_guarantee",
        "check_naive_lemma", "check_classical_recovery", "check_spjf_lemma",
        "check_spjf_tightness", "check_prr_guarantee", "check_prr_perfect_guarantee",
        "check_appendix_families", "check_tradeoff_dominance",
    ),
}
JOBSET_METHODS = ("from_lengths", "with_predictions")
SPAN_CAP = 10_000


def _count_schedule(counters, args, result):
    counters["scheduling.events"] += len(result.events)
    counters["scheduling.jobs_scheduled"] += len(result.completions)


def _count_jobset(counters, args, result):
    counters["_sjf_jobsets"].add(tuple(job.length for job in args[0].jobs))


def _count_reports(counters, args, result):
    counters["experiments.blocks"] += len(result)
    for report in result:
        counters["experiments.trial_evals"] += report.count
        counters["experiments.report_bytes"] += sum(
            v.nbytes for v in vars(report).values() if hasattr(v, "nbytes")
        )


def _count_points(counters, args, result):
    counters["verification.points"] += sum(r.points for r in result)


# Result hooks run after the span closes; they feed the work counters.
HOOKS = {
    "scheduling.round_robin": _count_schedule,
    "scheduling.spjf": _count_schedule,
    "scheduling.prr": _count_schedule,
    "scheduling.sjf_opt": _count_jobset,
    "experiments.run_ski_sweep": _count_reports,
    "experiments.run_scheduling_sweep": _count_reports,
    "verification.run_all_checks": _count_points,
}


class Tracer:
    """In-memory spans and per-name aggregates for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.spans = []  # (id, name, start, end, parent id)
        self.counters = {
            "scheduling.events": 0,
            "scheduling.jobs_scheduled": 0,
            "experiments.blocks": 0,
            "experiments.trial_evals": 0,
            "experiments.report_bytes": 0,
            "verification.points": 0,
            "_sjf_jobsets": set(),
        }
        self._frames = [[-1, 0.0]]  # sentinel frame: [span id, child time]
        self._ids = itertools.count()
        self._wrappers = {}
        self._patches = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        frames, spans, ids = self._frames, self.spans, self._ids
        hook = HOOKS.get(name)
        counters = self.counters

        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                parent = frames[-1]
                duration = end - start
                parent[1] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if stat[0] <= SPAN_CAP:
                    spans.append((frame[0], name, start, end, parent[0]))
            if hook is not None:
                hook(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrapper_for(self, fn):
        wrapper = self._wrappers.get(fn)
        if wrapper is None:
            module = fn.__module__.rsplit(".", 1)[-1]
            wrapper = self.wrap(f"{module}.{fn.__name__}", fn)
            self._wrappers[fn] = wrapper
        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, modules: dict) -> None:
        """Wrap the functions callers look up; ``modules`` maps short name to module."""
        by_module = {m: name for name, m in modules.items()}
        called_via_module = {
            by_module[v]
            for m in modules.values()
            for v in vars(m).values()
            if isinstance(v, types.ModuleType) and v in by_module and v is not m
        }
        for name, module in modules.items():
            intra = INTRA_MODULE.get(name, ())
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                owner = value.__module__
                if not owner.startswith(PACKAGE + "."):
                    continue
                local = owner == module.__name__
                if local and name not in called_via_module and attr not in intra:
                    continue
                self._patch(module, attr, self._wrapper_for(value))
        jobset = modules["scheduling"].JobSet
        for attr in JOBSET_METHODS:
            raw = jobset.__dict__.get(attr)
            if isinstance(raw, classmethod):
                self._patch(jobset, attr, classmethod(self.wrap("scheduling.JobSet", raw.__func__)))
            elif isinstance(raw, types.FunctionType):
                self._patch(jobset, attr, self.wrap("scheduling.JobSet", raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def module_self(self) -> dict:
        """Self time summed per module (the span-name prefix)."""
        totals = {}
        for name, (_, _, self_time) in self.stats.items():
            module = name.split(".", 1)[0]
            totals[module] = totals.get(module, 0.0) + self_time
        return totals

    def dump(self, path) -> None:
        """Write spans and aggregates as JSON."""
        payload = {
            "run_id": self.run_id,
            "span_fields": ["id", "name", "start", "end", "parent"],
            "span_cap_per_name": SPAN_CAP,
            "spans": self.spans,
            "aggregates": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.stats.items())
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
