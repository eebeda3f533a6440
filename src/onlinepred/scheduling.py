"""Preemptive single-machine schedulers, each simulated exactly.

A job set owns a pair of read-only float64 arrays, true lengths and predicted
lengths; a job's id is its index.  SJF and SPJF run jobs to completion one
after another, in a stable argsort order (`sequential_batch`).  Round-robin
and preferential round-robin (PRR) share the machine: with k jobs unfinished
every job runs at rate (1-lam)/k and the unfinished job with the smallest
prediction gets an extra lam (round-robin is lam = 0).  One kernel serves
both, `prr_batch`: the exact event sweep, completion to completion, run with
numpy across a stack of job sets with one lam per set; `prr` and
`round_robin` are its one-set calls.  It keeps each set's length and
prediction orders as doubly linked lists and unlinks a job as it leaves one,
so an event takes a fixed number of numpy steps, and one short step more
for each job that finishes unfavoured in it.  The objective throughout is
the sum of completion times, added up in id order (`objectives`) like the
prediction error, and every one-set rule builds its result and event log
from its completion times in `_result`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Tuple

import numpy as np

from .ski_rental import _check_lambda, _floats, _require

# Remaining work below this fraction of the original length counts as done;
# prevents zero-length phases caused by float residue.
COMPLETION_EPS = 1e-12
# The `_floats` messages for job lengths and predictions
_JOB_VALUES = ("job values must be real numbers", "job values must fit in a float64")


def _job_vector(values) -> np.ndarray:
    """``values`` (`_floats`) copied into a new read-only float64 vector, for a `JobSet` to own."""
    array = _floats(values, *_JOB_VALUES, copy=True)
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
    """True and predicted lengths of n >= 1 jobs; job i is column i.

    Each field is a read-only float64 vector of the set's own (`_job_vector`),
    never a caller's array.  Copies and pickles are built again through the
    constructor, so they are checked and frozen anew.
    """

    lengths: np.ndarray
    predicted: np.ndarray

    def __post_init__(self):
        lengths, predicted = _job_vector(self.lengths), _job_vector(self.predicted)
        if predicted.shape != lengths.shape:
            raise ValueError("lengths and predictions must have equal length")
        if lengths.size < 1:
            raise ValueError("a JobSet needs at least one job")
        _require_jobs(lengths, predicted)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "predicted", predicted)

    def __reduce__(self):
        return type(self), (self.lengths, self.predicted)

    @classmethod
    def from_lengths(cls, lengths: Iterable[float], predictions: Optional[Iterable[float]] = None) -> "JobSet":
        """The jobs of true ``lengths`` and ``predictions``, which default to the lengths.

        Either may be any real vector `_floats` takes, a generator included.
        """
        lengths = _job_vector(lengths)  # converted once, so a generator can serve both fields
        return cls(lengths, lengths if predictions is None else predictions)

    @property
    def n(self) -> int:
        return self.lengths.size


def prediction_error(jobs: JobSet) -> float:
    """Total L1 prediction error over the job set, added up in id order."""
    return float(objectives(np.abs(jobs.lengths - jobs.predicted)))


class ScheduleResult(NamedTuple):
    """Completion times in id order, their sum, and the (time, ids) event log.

    One event per distinct completion time, its ids ascending: two kernel steps
    that end at the same float time (dt below half an ulp of t) make one."""

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


def _result(completions: np.ndarray) -> ScheduleResult:
    """The result of one job set from its completion times."""
    order = np.argsort(completions, kind="stable")  # by time, then by id
    groups = np.split(order, np.flatnonzero(np.diff(completions[order])) + 1)
    events = tuple((float(completions[ids[0]]), tuple(ids.tolist())) for ids in groups)
    return ScheduleResult(completions, float(objectives(completions)), events)


def sjf_opt(jobs: JobSet) -> ScheduleResult:
    """Clairvoyant optimum: run jobs to completion in ascending true length."""
    return _result(sequential_batch(jobs.lengths, jobs.lengths))


def prr_batch(lengths, predicted, lam) -> np.ndarray:
    """Exact PRR event sweep of a stack of job sets at once, for ``0 <= lam < 1``.

    ``lengths`` and ``predicted`` are (..., n) arrays of job sets and ``lam``
    a scalar or an array of one value per set (round-robin is lam = 0); their
    leading axes broadcast together, as in `sequential_batch`.  All three
    are real arrays (`ski_rental._floats`), so a str, bytes or bool, or an
    array of them, raises a `ValueError`.  Returns the completion times in
    the broadcast (..., n) shape.

    Every unfinished job that has never been favoured has received the same
    work S, so those jobs finish in stable length order.  The favoured job
    keeps its favour until it finishes (the unfinished set only shrinks),
    then hands it to the next unfinished job in stable (prediction, id)
    order.  Each row keeps both orders as doubly linked lists and unlinks a
    job from its length list when it is favoured and from its prediction
    list when it finishes unfavoured.  So the next unfavoured job to finish
    heads the length list, the next favourite follows the favourite in the
    prediction list, and no event walks past a job that left.  An event
    advances every row by the same float operations as a one-row sweep, so
    a row's result does not depend on the rows stacked with it.
    """
    lengths, predicted = _floats(lengths, *_JOB_VALUES), _floats(predicted, *_JOB_VALUES)
    message = "combination parameter lambda must lie in [0, 1)"
    lam = _floats(lam, message, message)
    n = lengths.shape[-1] if lengths.ndim else 0
    try:
        lead = np.broadcast_shapes(lengths.shape[:-1], predicted.shape[:-1], lam.shape)
    except ValueError:
        lead = None
    if lead is None or n < 1 or predicted.shape[-1:] != (n,):
        raise ValueError(
            f"lengths and predictions must be (..., n) arrays with n >= 1 and lambda a scalar "
            f"or one value per row, with leading axes that broadcast together, "
            f"got shapes {lengths.shape}, {predicted.shape} and {lam.shape}"
        )
    lam = np.broadcast_to(lam, lead).ravel()  # one per row
    _require((lam >= 0) & (lam < 1), lam, message)
    _require_jobs(lengths, predicted)
    shape, rows_total = lead + (n,), lam.size

    # Job j of row r is the flat slot r * stride + j; slot r * stride + n is
    # the row's sentinel, which closes both of its lists.  times holds a
    # job's length until it finishes and its completion time after; the
    # sentinel's length is NaN, so it never finishes (an infinite length
    # would) and ends every walk.
    stride = n + 1
    first = np.arange(rows_total) * stride
    offsets = first.reshape(lead + (1,))
    times = np.empty((rows_total, stride))
    times.reshape(lead + (stride,))[..., :n] = lengths
    times[:, n] = np.nan
    times = times.ravel()

    def links(values):
        """The next and previous slots of each row's ring through its sentinel
        and its jobs in stable ``values`` order.  Sets are linked before they
        are broadcast, so a set shared by many rows is sorted once."""
        order = np.argsort(values.reshape(-1, n), axis=-1, kind="stable")
        sets = np.arange(len(order))[:, None]
        next_slot = np.empty((len(order), stride), dtype=order.dtype)
        next_slot[sets, order[:, :-1]] = order[:, 1:]
        next_slot[sets[:, 0], order[:, -1]] = n
        next_slot[:, n] = order[:, 0]
        del order
        prev_slot = np.empty_like(next_slot)
        prev_slot[sets, next_slot] = np.arange(stride)
        rows = []
        for per_set in (next_slot, prev_slot):
            per_set = per_set.reshape(values.shape[:-1] + (stride,))
            if per_set.shape == lead + (stride,):
                per_set += offsets
            else:  # a set shared by several rows: one copy per row
                per_set = per_set + offsets
            rows.append(per_set.ravel())
        return rows

    def unlink(next_slot, prev_slot, slots):
        """Take ``slots``, at most one per row, out of their rows' lists."""
        before, after = prev_slot[slots], next_slot[slots]
        next_slot[before] = after
        prev_slot[after] = before

    next_len, prev_len = links(lengths)
    next_pred, prev_pred = links(predicted)

    # Per-row state, compacted to the unfinished rows.  The length list holds
    # the unfinished jobs never favoured; the prediction list holds every
    # unfinished job from the favourite on, which each row first takes from
    # the head of its prediction order.
    sentinel = first + n
    favoured = next_pred[sentinel]
    unlink(next_len, prev_len, favoured)
    k = np.full(rows_total, n)
    t, common, extra = np.zeros(rows_total), np.zeros(rows_total), np.zeros(rows_total)

    while k.size:
        # short, the head of the length list, is the shortest unfinished job
        # never favoured, or the sentinel once none is left.  fmin takes
        # short_dt only when it is smaller, as min() does, and never its NaN.
        short = next_len[sentinel]
        short_length = times[short]
        fav_length = times[favoured]
        share = (1.0 - lam) * (1.0 / k)
        boost = lam + share
        dt = np.fmin((fav_length - common - extra) / boost, (short_length - common) / share)
        t += dt
        common += share * dt
        extra += lam * dt

        fav_done = fav_length - common - extra <= COMPLETION_EPS * fav_length
        short_done = short_length - common <= COMPLETION_EPS * short_length
        if np.count_nonzero(fav_done | short_done) < k.size:  # the job that set dt always finishes
            raise RuntimeError("event advanced time without completing a job")
        k -= fav_done
        at = short_done.nonzero()[0]
        if at.size:
            while at.size:  # the finishing head of the length list, one job per row and step
                slots = short[at]
                times[slots] = t[at]
                k[at] -= 1
                unlink(next_pred, prev_pred, slots)
                short[at] = slots = next_len[slots]
                length = times[slots]
                at = at[length - common[at] <= COMPLETION_EPS * length]
            next_len[sentinel] = short  # cut the finished jobs off the length list
            prev_len[short] = sentinel

        # A row whose favourite finished hands the favour on: to the sentinel
        # if the row is done, whose unlinking from its empty length list
        # changes nothing.
        handing = fav_done.nonzero()[0]
        if handing.size:
            slots = favoured[handing]
            times[slots] = t[handing]
            favoured[handing] = slots = next_pred[slots]
            unlink(next_len, prev_len, slots)
            extra[handing] = 0.0

        if np.count_nonzero(k) < k.size:
            live = k > 0
            sentinel, favoured, k, lam, t, common, extra = (
                a[live] for a in (sentinel, favoured, k, lam, t, common, extra)
            )
    del next_len, prev_len, next_pred, prev_pred  # freed before the copy below
    return np.ascontiguousarray(times.reshape(rows_total, stride)[:, :n]).reshape(shape)


def round_robin(jobs: JobSet) -> ScheduleResult:
    """Equal-rate sharing among all unfinished jobs."""
    return _result(prr_batch(jobs.lengths, jobs.predicted, 0.0))


def spjf(jobs: JobSet) -> ScheduleResult:
    """Shortest predicted job first, run sequentially; equal predictions run in id order."""
    return _result(sequential_batch(jobs.lengths, jobs.predicted))


def prr(jobs: JobSet, lam: float) -> ScheduleResult:
    """Preferential round-robin: predicted-shortest-first blended with round-robin.

    With k jobs unfinished every job runs at rate (1-lam)/k and the unfinished
    job with the smallest prediction gets an additional lam.
    """
    _check_lambda(lam, 0, False, "PRR lambda must lie in (0, 1)")
    return _result(prr_batch(jobs.lengths, jobs.predicted, lam))
