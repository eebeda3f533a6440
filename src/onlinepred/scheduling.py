"""Preemptive single-machine schedulers, each simulated exactly.

A job set is a pair of read-only float64 arrays, true lengths and predicted
lengths; a job's id is its index.  SJF and SPJF run jobs to completion one
after another, in a stable argsort order.  Round-robin and preferential
round-robin (PRR) share the machine: with k jobs unfinished every job runs at
rate (1-lam)/k and the unfinished job with the smallest prediction gets an
extra lam (round-robin is lam = 0).  One event sweep serves both; it advances
from completion to completion, so the schedule is exact up to float error.
The objective throughout is the sum of completion times, added up in id order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Tuple

import numpy as np

# Remaining work below this fraction of the original length counts as done;
# prevents zero-length phases caused by float residue.
COMPLETION_EPS = 1e-12


class Job(NamedTuple):
    """One column of a JobSet, for readers that want records (unvalidated)."""

    id: int
    length: float
    predicted: float


def _frozen(values) -> np.ndarray:
    """A read-only float64 vector holding ``values``; frozen vectors are reused."""
    if isinstance(values, np.ndarray):
        reuse = values.dtype == np.float64 and not values.flags.writeable
        array = values if reuse else values.astype(np.float64)
    else:
        array = np.array(list(values), dtype=np.float64)
    if array.ndim != 1:
        raise ValueError(f"job values must form a vector, got shape {array.shape}")
    array.flags.writeable = False
    return array


def _require(ok: np.ndarray, values: np.ndarray, message: str) -> None:
    if not ok.all():
        raise ValueError(f"{message}, got {float(values[np.argmin(ok)])!r}")


@dataclass(frozen=True, eq=False)
class JobSet:
    """True and predicted lengths of n >= 1 jobs; job i is column i."""

    lengths: np.ndarray
    predicted: np.ndarray

    def __post_init__(self):
        lengths, predicted = _frozen(self.lengths), _frozen(self.predicted)
        if predicted.shape != lengths.shape:
            raise ValueError("lengths and predictions must have equal length")
        if lengths.size < 1:
            raise ValueError("a JobSet needs at least one job")
        valid = np.isfinite(lengths) & (lengths >= 1)
        _require(valid, lengths, "job length must be finite and >= 1")
        _require(np.isfinite(predicted), predicted, "predicted length must be finite")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "predicted", predicted)

    @classmethod
    def from_lengths(cls, lengths: Iterable[float], predictions: Optional[Iterable[float]] = None) -> "JobSet":
        lengths = _frozen(lengths)
        return cls(lengths, lengths if predictions is None else predictions)

    def with_predictions(self, predictions: Iterable[float]) -> "JobSet":
        """The same jobs under new predictions; the lengths array is shared."""
        predicted = _frozen(predictions)
        if predicted.shape != self.lengths.shape:
            raise ValueError("predictions must match the number of jobs")
        return JobSet(self.lengths, predicted)

    @property
    def jobs(self) -> Tuple[Job, ...]:
        return tuple(map(Job, range(self.n), self.lengths.tolist(), self.predicted.tolist()))

    @property
    def n(self) -> int:
        return self.lengths.size


def prediction_error(jobs: JobSet) -> float:
    """Total L1 prediction error over the job set."""
    return sum(np.abs(jobs.lengths - jobs.predicted).tolist(), 0.0)


class ScheduleResult(NamedTuple):
    """Completion times in id order, their sum, and the (time, ids) event log."""

    completions: np.ndarray
    objective: float
    events: Tuple[Tuple[float, Tuple[int, ...]], ...]


def _run_sequential(jobs: JobSet, order: np.ndarray) -> ScheduleResult:
    ends = np.cumsum(jobs.lengths[order])
    completions = np.empty(jobs.n)
    completions[order] = ends
    events = tuple(zip(ends.tolist(), zip(order.tolist())))
    return ScheduleResult(completions, sum(completions.tolist(), 0.0), events)


def sjf_opt(jobs: JobSet) -> ScheduleResult:
    """Clairvoyant optimum: run jobs to completion in ascending true length."""
    return _run_sequential(jobs, np.argsort(jobs.lengths, kind="stable"))


def _prr_sweep(jobs: JobSet, lam: float) -> ScheduleResult:
    """Exact event sweep of the PRR rates for ``0 <= lam < 1``.

    Every unfinished job that has never been favoured has received the same
    work S, so those jobs finish in length order.  The favoured job keeps its
    favour until it finishes (the unfinished set only shrinks), then hands it
    to the next unfinished job in (prediction, id) order.  One pointer walks
    each order, so an event costs O(1) apart from sorting its completions.
    """
    lengths = jobs.lengths.tolist()
    n = len(lengths)
    by_length = np.argsort(jobs.lengths, kind="stable").tolist()
    by_pred = np.argsort(jobs.predicted, kind="stable").tolist()
    gone = [False] * n  # finished, or the favoured job (no longer at progress S)
    completions = [0.0] * n
    events = []
    t = common = extra = 0.0  # extra: favoured job's work beyond S
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
        fav_length = lengths[favoured]
        dt = (fav_length - common - extra) / boost
        if next_short < n:
            dt = min(dt, (lengths[by_length[next_short]] - common) / share)

        t += dt
        common += share * dt
        extra += lam * dt
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
            if lengths[i] - common > COMPLETION_EPS * lengths[i]:
                break
            gone[i] = True
            done.append(i)
        if not done:  # the job that set dt always crosses the threshold
            raise RuntimeError("event advanced time without completing a job")
        done.sort()
        for i in done:
            completions[i] = t
        events.append((t, tuple(done)))
        k -= len(done)

    return ScheduleResult(np.array(completions), sum(completions, 0.0), tuple(events))


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
        order = np.lexsort((-np.arange(jobs.n), jobs.predicted))
    else:
        order = np.argsort(jobs.predicted, kind="stable")
    return _run_sequential(jobs, order)


def prr(jobs: JobSet, lam: float) -> ScheduleResult:
    """Preferential round-robin: predicted-shortest-first blended with round-robin.

    With k jobs unfinished every job runs at rate (1-lam)/k and the unfinished
    job with the smallest prediction gets an additional lam.
    """
    if not (isinstance(lam, (int, float)) and 0 < lam < 1):
        raise ValueError(f"combination parameter lambda must lie in (0, 1), got {lam!r}")
    return _prr_sweep(jobs, lam)
