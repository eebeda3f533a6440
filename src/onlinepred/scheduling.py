"""Preemptive single-machine schedulers, each simulated exactly.

A job set is a pair of read-only float64 arrays, true lengths and predicted
lengths; a job's id is its index.  SJF and SPJF run jobs to completion one
after another, in a stable argsort order (`sequential_batch`).  Round-robin
and preferential round-robin (PRR) share the machine: with k jobs unfinished
every job runs at rate (1-lam)/k and the unfinished job with the smallest
prediction gets an extra lam (round-robin is lam = 0).  One kernel serves
both, `prr_batch`: the exact event sweep, completion to completion, run with
numpy across a stack of job sets with one lam per row; `prr` and
`round_robin` are its one-row calls.  The objective throughout is the sum of
completion times, added up in id order (`objectives`) like the prediction
error, and every one-set rule builds its result and event log in `_result`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Tuple

import numpy as np

from .ski_rental import _check_lambda, _require

# Remaining work below this fraction of the original length counts as done;
# prevents zero-length phases caused by float residue.
COMPLETION_EPS = 1e-12


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


def _require_jobs(lengths: np.ndarray, predicted: np.ndarray) -> None:
    """The checks on any array of job sets, one set per row of the last axis.

    Lengths are finite and >= 1 and predictions finite.  So is n times each
    set's total length, which bounds every completion time and objective.
    """
    with np.errstate(over="ignore"):  # the overflow is what the last check looks for
        span = np.atleast_1d(lengths.shape[-1] * lengths.sum(axis=-1))
    lengths, predicted = lengths.ravel(), predicted.ravel()
    _require(np.isfinite(lengths) & (lengths >= 1), lengths, "job length must be finite and >= 1")
    _require(np.isfinite(predicted), predicted, "predicted length must be finite")
    _require(np.isfinite(span), span, "n times the total job length must be finite")


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
        _require_jobs(lengths, predicted)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "predicted", predicted)

    @classmethod
    def from_lengths(cls, lengths: Iterable[float], predictions: Optional[Iterable[float]] = None) -> "JobSet":
        lengths = _frozen(lengths)
        return cls(lengths, lengths if predictions is None else predictions)

    @property
    def n(self) -> int:
        return self.lengths.size


def prediction_error(jobs: JobSet) -> float:
    """Total L1 prediction error over the job set, added up in id order."""
    return float(objectives(np.abs(jobs.lengths - jobs.predicted)))


class ScheduleResult(NamedTuple):
    """Completion times in id order, their sum, and the (time, ids) event log."""

    completions: np.ndarray
    objective: float
    events: Tuple[Tuple[float, Tuple[int, ...]], ...]


def sequential_batch(lengths, keys) -> np.ndarray:
    """Completions when jobs run one after another in stable ``keys`` order.

    Works along the last axis of broadcastable arrays, so a stack of job sets
    is one argsort and one cumulative sum.
    """
    lengths, keys = np.broadcast_arrays(
        np.asarray(lengths, dtype=np.float64), np.asarray(keys, dtype=np.float64)
    )
    order = np.argsort(keys, axis=-1, kind="stable")
    completions = np.empty(lengths.shape)
    ends = np.cumsum(np.take_along_axis(lengths, order, axis=-1), axis=-1)
    np.put_along_axis(completions, order, ends, axis=-1)
    return completions


def objectives(completions) -> np.ndarray:
    """Sum of completion times along the last axis, added up in id order.

    A running sum rather than ``np.sum``, whose pairwise summation would
    change the last bits of the objective.
    """
    return np.cumsum(completions, axis=-1)[..., -1]


def _result(completions: np.ndarray, event_index: np.ndarray) -> ScheduleResult:
    """The result of one job set whose job i finished in event ``event_index[i]``."""
    order = np.argsort(event_index, kind="stable")  # by event, then by id
    groups = np.split(order, np.flatnonzero(np.diff(event_index[order])) + 1)
    events = tuple((float(completions[ids[0]]), tuple(ids.tolist())) for ids in groups)
    return ScheduleResult(completions, float(objectives(completions)), events)


def _run_sequential(jobs: JobSet, keys: np.ndarray) -> ScheduleResult:
    place = np.argsort(np.argsort(keys, kind="stable"))  # each job's place in the run order
    return _result(sequential_batch(jobs.lengths, keys), place)


def sjf_opt(jobs: JobSet) -> ScheduleResult:
    """Clairvoyant optimum: run jobs to completion in ascending true length."""
    return _run_sequential(jobs, jobs.lengths)


def prr_batch(lengths, predicted, lam) -> Tuple[np.ndarray, np.ndarray]:
    """Exact PRR event sweep of R job sets at once, for ``0 <= lam < 1``.

    ``lengths`` and ``predicted`` are (R, n) arrays, one job set per row;
    ``lam`` is a scalar or one value per row (round-robin is lam = 0).
    Returns the (R, n) completion times and, per job, the index of the event
    in which it finished; every unfinished row has one event per step.

    Every unfinished job that has never been favoured has received the same
    work S, so those jobs finish in stable length order.  The favoured job
    keeps its favour until it finishes (the unfinished set only shrinks),
    then hands it to the next unfinished job in stable (prediction, id)
    order.  Each row keeps one pointer into each order; an event advances
    every row by the same float operations as a one-row sweep, so a row's
    result does not depend on the rows stacked with it.
    """
    lengths = np.asarray(lengths, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if lengths.ndim != 2 or predicted.shape != lengths.shape or lengths.shape[1] < 1:
        raise ValueError(
            f"lengths and predictions must be equal (R, n) arrays with n >= 1, "
            f"got {lengths.shape} and {predicted.shape}"
        )
    rows_total, n = lengths.shape
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape not in ((), (rows_total,)):
        raise ValueError(f"lambda must be a scalar or one value per row, got shape {lam.shape}")
    lam = np.broadcast_to(lam, (rows_total,)).copy()
    _require((lam >= 0) & (lam < 1), lam, "combination parameter lambda must lie in [0, 1)")
    _require_jobs(lengths, predicted)

    # Per row: both stable orders, the lengths in length order and, at each
    # position of one order, that job's position in the other order.  Every
    # array has one padding column n, a sentinel position that is never gone
    # and never finishes, so it stops every pointer walk: its rank is n and
    # its length NaN (an infinite length would finish: inf - c <= eps * inf).
    stride = n + 1

    def padded(values, fill, dtype=np.int32):
        out = np.full((rows_total, stride), fill, dtype=dtype)
        out[:, :n] = values
        return out.ravel()

    by_length = np.argsort(lengths, axis=1, kind="stable")
    by_pred = np.argsort(predicted, axis=1, kind="stable")
    positions = np.broadcast_to(np.arange(n), lengths.shape)
    rank = np.empty(lengths.shape, dtype=np.int32)
    np.put_along_axis(rank, by_pred, positions, axis=1)
    pred_rank_by_length = padded(np.take_along_axis(rank, by_length, axis=1), n)
    np.put_along_axis(rank, by_length, positions, axis=1)
    length_rank_by_pred = padded(np.take_along_axis(rank, by_pred, axis=1), n)
    sorted_len = padded(np.take_along_axis(lengths, by_length, axis=1), np.nan, np.float64)
    by_length, by_pred = padded(by_length, n), padded(by_pred, n)
    flat_lengths = lengths.ravel()
    del rank, positions
    completions = np.empty(rows_total * n)
    event_index = np.empty(rows_total * n, dtype=np.int64)

    # Per-row state, compacted to the unfinished rows.  Jobs before next_short
    # in length order and before next_pred in (prediction, id) order are gone
    # (finished, or favoured); the favoured job sits at next_pred.  So a job
    # after next_pred is gone iff its length position is before next_short,
    # and a job at or after next_short is gone iff its (prediction, id)
    # position is at most next_pred.
    rows = np.arange(rows_total)
    k = np.full(rows_total, n)
    t, common, extra = np.zeros(rows_total), np.zeros(rows_total), np.zeros(rows_total)
    next_short = np.zeros(rows_total, dtype=np.int64)
    next_pred = np.full(rows_total, -1)
    favoured = np.full(rows_total, -1)  # -1: none, choose one

    def scan(ranks, bound, sel, start, finishing=False):
        """For compact rows ``sel``: the first position >= start whose rank in
        the other order is >= bound (a job not gone) and, when ``finishing``,
        whose job does not finish now; also the jobs passed over that are not
        gone and finish now.  Each step reads one cell of every row still
        walking and moves the rows that did not stop one position on."""
        cell, limit, work = base[sel] + start, bound[sel], common[sel]
        at, passed = np.arange(sel.size), []
        while at.size:
            here = cell[at]
            stop = ranks[here] >= limit[at]
            if finishing:
                length = sorted_len[here]
                done = stop & (length - work[at] <= COMPLETION_EPS * length)
                passed.append((sel[at[done]], by_length[here[done]]))
                stop &= ~done
            at = at[~stop]
            cell[at] += 1
        return cell - base[sel], passed

    base, offset = rows * stride, rows * n
    step = 0
    while rows.size:
        need = (favoured < 0).nonzero()[0]
        if need.size:
            next_pred[need], _ = scan(length_rank_by_pred, next_short, need, next_pred[need] + 1)
            favoured[need] = by_pred[base[need] + next_pred[need]]
            extra[need] = 0.0
        # The job at next_short is the shortest one not gone, or else the
        # favoured job, chosen just now and so with extra = 0; then its own
        # time to finish at rate share is no less than at rate boost, and dt
        # is the favoured job's, as when the sweep skips past it.
        short_length = sorted_len[base + next_short]  # NaN past the last job
        short_gone = pred_rank_by_length[base + next_short] <= next_pred

        share = (1.0 - lam) * (1.0 / k)
        boost = lam + share
        fav_length = flat_lengths[offset + favoured]
        dt = (fav_length - common - extra) / boost
        short_dt = (short_length - common) / share
        dt = np.where(short_dt < dt, short_dt, dt)
        t += dt
        common += share * dt
        extra += lam * dt

        fav_done = (fav_length - common - extra <= COMPLETION_EPS * fav_length).nonzero()[0]
        short_done = ~short_gone & (short_length - common <= COMPLETION_EPS * short_length)
        done = [(fav_done, favoured[fav_done])]
        if short_done.any():
            at = short_done.nonzero()[0]
            done.append((at, by_length[base[at] + next_short[at]]))
        moving = (short_done | short_gone).nonzero()[0]
        if moving.size:  # on to the next job not gone; any before it finish too
            next_short[moving], passed = scan(
                pred_rank_by_length, next_pred + 1, moving, next_short[moving] + 1, True
            )
            done += passed
        done_rows = np.concatenate([r for r, _ in done])
        done_jobs = np.concatenate([j for _, j in done])
        counts = np.bincount(done_rows, minlength=rows.size)
        if not counts.all():  # the job that set dt always crosses the threshold
            raise RuntimeError("event advanced time without completing a job")
        out = offset[done_rows] + done_jobs
        completions[out] = t[done_rows]
        event_index[out] = step
        favoured[fav_done] = -1
        k -= counts
        step += 1

        live = k > 0
        if not live.all():
            rows, k, lam, t, common, extra = (
                a[live] for a in (rows, k, lam, t, common, extra)
            )
            next_short, next_pred, favoured = (a[live] for a in (next_short, next_pred, favoured))
            base, offset = rows * stride, rows * n
    return completions.reshape(rows_total, n), event_index.reshape(rows_total, n)


def _shared_schedule(jobs: JobSet, lam: float) -> ScheduleResult:
    """One-row ``prr_batch``."""
    completions, event_index = prr_batch(jobs.lengths[None], jobs.predicted[None], lam)
    return _result(completions[0], event_index[0])


def round_robin(jobs: JobSet) -> ScheduleResult:
    """Equal-rate sharing among all unfinished jobs."""
    return _shared_schedule(jobs, 0.0)


def spjf(jobs: JobSet) -> ScheduleResult:
    """Shortest predicted job first, run sequentially; equal predictions run in id order."""
    return _run_sequential(jobs, jobs.predicted)


def prr(jobs: JobSet, lam: float) -> ScheduleResult:
    """Preferential round-robin: predicted-shortest-first blended with round-robin.

    With k jobs unfinished every job runs at rate (1-lam)/k and the unfinished
    job with the smallest prediction gets an additional lam.
    """
    _check_lambda(lam, 0, False, "PRR lambda must lie in (0, 1)")
    return _shared_schedule(jobs, lam)
