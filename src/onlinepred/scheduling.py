"""Preemptive single-machine schedulers, each simulated exactly.

SJF and SPJF run jobs to completion one after another.  Round-robin and
preferential round-robin (PRR) share the machine: with k jobs unfinished every
job runs at rate (1-lam)/k and the unfinished job with the smallest prediction
gets an extra lam (round-robin is lam = 0).  One event sweep serves both; it
advances from completion to completion, so the schedule is exact up to float
error.  The objective throughout is the sum of completion times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

# Remaining work below this fraction of the original length counts as done;
# prevents zero-length phases caused by float residue.
COMPLETION_EPS = 1e-12


@dataclass(frozen=True)
class Job:
    """A job with its true length and a (possibly wrong) predicted length."""

    id: int
    length: float
    predicted: float

    def __post_init__(self):
        if not (math.isfinite(self.length) and self.length >= 1):
            raise ValueError(f"job length must be finite and >= 1, got {self.length!r}")
        if not math.isfinite(self.predicted):
            raise ValueError(f"predicted length must be finite, got {self.predicted!r}")


@dataclass(frozen=True)
class JobSet:
    """An immutable collection of jobs with distinct ids."""

    jobs: Tuple[Job, ...]

    def __post_init__(self):
        if len(self.jobs) < 1:
            raise ValueError("a JobSet needs at least one job")
        ids = [j.id for j in self.jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("job ids must be distinct")

    @classmethod
    def from_lengths(cls, lengths: Iterable[float], predictions: Optional[Iterable[float]] = None) -> "JobSet":
        lengths = [float(v) for v in lengths]
        if predictions is None:
            predictions = lengths
        preds = [float(v) for v in predictions]
        if len(preds) != len(lengths):
            raise ValueError("lengths and predictions must have equal length")
        return cls(tuple(Job(i, x, y) for i, (x, y) in enumerate(zip(lengths, preds))))

    def with_predictions(self, predictions: Iterable[float]) -> "JobSet":
        preds = [float(v) for v in predictions]
        if len(preds) != len(self.jobs):
            raise ValueError("predictions must match the number of jobs")
        return JobSet(tuple(Job(j.id, j.length, y) for j, y in zip(self.jobs, preds)))

    @property
    def n(self) -> int:
        return len(self.jobs)

    @property
    def total_length(self) -> float:
        return sum(j.length for j in self.jobs)


def prediction_error(jobs: JobSet) -> float:
    """Total L1 prediction error over the job set."""
    return sum(abs(j.length - j.predicted) for j in jobs.jobs)


@dataclass(frozen=True)
class ScheduleResult:
    """Completion time per job id, the summed objective, and the event log."""

    completions: Dict[int, float]
    objective: float
    executed_work: float
    events: Tuple[Tuple[float, Tuple[int, ...]], ...]


def _run_sequential(jobs: JobSet, order: Sequence[Job]) -> ScheduleResult:
    t = 0.0
    completions = {}
    events = []
    for job in order:
        t += job.length
        completions[job.id] = t
        events.append((t, (job.id,)))
    objective = sum(completions[j.id] for j in jobs.jobs)
    return ScheduleResult(completions, objective, jobs.total_length, tuple(events))


def sjf_opt(jobs: JobSet) -> ScheduleResult:
    """Clairvoyant optimum: run jobs to completion in ascending true length."""
    order = sorted(jobs.jobs, key=lambda j: (j.length, j.id))
    return _run_sequential(jobs, order)


def _prr_sweep(jobs: JobSet, lam: float) -> ScheduleResult:
    """Exact event sweep of the PRR rates for ``0 <= lam < 1``.

    Every unfinished job that has never been favoured has received the same
    work S, so those jobs finish in length order.  The favoured job keeps its
    favour until it finishes (the unfinished set only shrinks), then hands it
    to the next unfinished job in (prediction, id) order.  One pointer walks
    each order, so an event costs O(1) apart from sorting its completions.
    """
    js = jobs.jobs
    n = len(js)
    by_length = sorted(range(n), key=lambda i: (js[i].length, js[i].id))
    by_pred = sorted(range(n), key=lambda i: (js[i].predicted, js[i].id))
    gone = [False] * n  # finished, or the favoured job (no longer at progress S)
    completions: Dict[int, float] = {}
    events = []
    t = common = extra = executed = 0.0  # extra: favoured job's work beyond S
    next_short = next_pred = 0
    favoured = None
    k = n
    while k:
        if favoured is None:
            while gone[by_pred[next_pred]]:
                next_pred += 1
            favoured = by_pred[next_pred]
            gone[favoured] = True
            extra = 0.0
        while next_short < n and gone[by_length[next_short]]:
            next_short += 1
        share = (1.0 - lam) * (1.0 / k)
        boost = lam + share
        fav_length = js[favoured].length
        dt = (fav_length - common - extra) / boost
        if next_short < n:
            dt = min(dt, (js[by_length[next_short]].length - common) / share)

        t += dt
        common += share * dt
        extra += lam * dt
        executed += (boost + (k - 1) * share) * dt
        done = []
        if fav_length - common - extra <= COMPLETION_EPS * fav_length:
            done.append(favoured)
            favoured = None
        pos = next_short
        while pos < n:
            i = by_length[pos]
            pos += 1
            if gone[i]:
                continue
            if js[i].length - common > COMPLETION_EPS * js[i].length:
                break
            gone[i] = True
            done.append(i)
        if not done:  # the job that set dt always crosses the threshold
            raise RuntimeError("event advanced time without completing a job")
        done.sort()
        for i in done:
            completions[js[i].id] = t
        events.append((t, tuple(js[i].id for i in done)))
        k -= len(done)

    objective = sum(completions[j.id] for j in js)
    return ScheduleResult(completions, objective, executed, tuple(events))


def round_robin(jobs: JobSet) -> ScheduleResult:
    """Equal-rate sharing among all unfinished jobs."""
    return _prr_sweep(jobs, 0.0)


def spjf(jobs: JobSet, adversarial_ties: bool = False) -> ScheduleResult:
    """Shortest predicted job first, run sequentially.

    Ties in the predicted length break by ascending id; ``adversarial_ties``
    flips the tie order (descending id), which is only useful for driving the
    worst-case tie schedule in tests.
    """
    if adversarial_ties:
        order = sorted(jobs.jobs, key=lambda j: (j.predicted, -j.id))
    else:
        order = sorted(jobs.jobs, key=lambda j: (j.predicted, j.id))
    return _run_sequential(jobs, order)


def prr(jobs: JobSet, lam: float) -> ScheduleResult:
    """Preferential round-robin: predicted-shortest-first blended with round-robin.

    With k jobs unfinished every job runs at rate (1-lam)/k and the unfinished
    job with the smallest prediction gets an additional lam.
    """
    if not (isinstance(lam, (int, float)) and 0 < lam < 1):
        raise ValueError(f"combination parameter lambda must lie in (0, 1), got {lam!r}")
    return _prr_sweep(jobs, lam)
