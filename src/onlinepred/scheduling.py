"""Preemptive single-machine schedulers, each simulated exactly.

A job set is a pair of read-only float64 arrays, true lengths and predicted
lengths; a job's id is its index.  SJF and SPJF run jobs to completion one
after another, in a stable argsort order (`sequential_batch`).  Round-robin
and preferential round-robin (PRR) share the machine: with k jobs unfinished
every job runs at rate (1-lam)/k and the unfinished job with the smallest
prediction gets an extra lam (round-robin is lam = 0).  One kernel serves
both, `prr_batch`: the exact event sweep, completion to completion, run with
numpy across a stack of job sets with one lam per set; `prr` and
`round_robin` are its one-set calls.  The objective throughout is the sum of
completion times, added up in id order (`objectives`) like the prediction
error, and every one-set rule builds its result and event log from its
completion times in `_result`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Tuple

import numpy as np

from .ski_rental import _check_lambda, _fits_float64, _is_real, _require

# Remaining work below this fraction of the original length counts as done;
# prevents zero-length phases caused by float residue.
COMPLETION_EPS = 1e-12


def _floats(values, copy: Optional[bool] = None) -> np.ndarray:
    """``values`` as a float64 array (``copy`` as in numpy), if they are real
    numbers: an array of an int, uint or float dtype, or else (nested)
    entries that each pass `_is_real`, ints within float64 range.  Otherwise
    the error names the first entry.  A scalar gives a 0-d array."""
    if not isinstance(values, np.ndarray):
        # the entries of nested sequences, or the one entry of a scalar
        values = np.array(list(values) if isinstance(values, Iterable) else values, dtype=object)
        for value in values.flat:
            _require(_is_real(value), value, "job values must be real numbers")
            _require(_fits_float64(value), value, "job values must fit in a float64")
    elif values.dtype.kind not in "iuf":
        _require(np.zeros(values.shape, bool), values, "job values must be real numbers")
    return np.array(values, dtype=np.float64, copy=copy)


def _frozen(values) -> np.ndarray:
    """A read-only float64 vector holding ``values`` (`_floats`); frozen vectors are reused."""
    reuse = isinstance(values, np.ndarray) and values.dtype == np.float64 and not values.flags.writeable
    array = values if reuse else _floats(values, copy=True)
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
    leading axes broadcast together, as in `sequential_batch`.  Returns the
    completion times in the broadcast (..., n) shape.

    Every unfinished job that has never been favoured has received the same
    work S, so those jobs finish in stable length order.  The favoured job
    keeps its favour until it finishes (the unfinished set only shrinks),
    then hands it to the next unfinished job in stable (prediction, id)
    order.  Each row keeps one pointer into each order and a gone flag per
    job; an event advances every row by the same float operations as a
    one-row sweep, so a row's result does not depend on the rows stacked
    with it.
    """
    lengths, predicted = _floats(lengths), _floats(predicted)
    lam = np.asarray(lam, dtype=np.float64)
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
    _require((lam >= 0) & (lam < 1), lam, "combination parameter lambda must lie in [0, 1)")
    _require_jobs(lengths, predicted)
    shape, rows_total = lead + (n,), lam.size
    # sets are sorted before they are broadcast, so lengths shared by many
    # rows are sorted once
    by_length = np.argsort(lengths, axis=-1, kind="stable")
    by_pred = np.argsort(predicted, axis=-1, kind="stable")
    lengths = np.broadcast_to(lengths, shape).reshape(rows_total, n)

    # Job j of row r is the flat cell r * stride + j, int64 as R * stride can
    # pass 2**31; by_length and by_pred hold row r's cells in order at the
    # positions from r * stride on.  Job n is a sentinel, never gone and of
    # length NaN, so it never finishes (an infinite length would) and stops
    # every walk.
    stride = n + 1
    rows = np.arange(rows_total)
    first = rows * stride
    cell_len = np.hstack((lengths, np.full((rows_total, 1), np.nan))).ravel()

    def cells(order):
        """Each row's cells in ``order``, its sets' job order, then its sentinel."""
        out = np.full((rows_total, stride), n)
        out[:, :n] = np.broadcast_to(order, shape).reshape(rows_total, n)
        out += first[:, None]
        return out.ravel()

    by_length, by_pred = cells(by_length), cells(by_pred)
    completions = np.empty(rows_total * n)

    # Per-row state, compacted to the unfinished rows.  A job is gone once it
    # finishes or is favoured.  The favoured job sits at position next_pred of
    # by_pred, and every job before it in its row there, or before next_short
    # in its row of by_length, is gone.
    k = np.full(rows_total, n)
    t, common, extra = np.zeros(rows_total), np.zeros(rows_total), np.zeros(rows_total)
    next_short, next_pred = first, first.copy()
    gone = np.zeros(rows_total * stride, dtype=bool)
    gone[by_pred[next_pred]] = True  # each row favours its first job in prediction order

    def scan(order, sel, position, finishing=False):
        """For compact rows ``sel``: the first position in ``order`` from
        ``position`` on (moved in place) whose job is not gone and, when
        ``finishing``, does not finish now; also the cells passed over that
        are not gone and finish now.  Each step reads one cell of every row
        still walking and moves the rows that did not stop one position on."""
        at, passed, work = np.arange(sel.size), [], common[sel]
        while at.size:
            cell = order[position[at]]
            stop = ~gone[cell]
            if finishing:
                length = cell_len[cell]
                done = stop & (length - work[at] <= COMPLETION_EPS * length)
                passed.append((sel[at[done]], cell[done]))
                stop &= ~done
            at = at[~stop]
            position[at] += 1
        return position, passed

    while rows.size:
        # The job at next_short is the shortest one not gone, or else the
        # favoured job, chosen since the last event and so with extra = 0;
        # then its own time to finish at rate share is no less than at rate
        # boost, and dt is the favoured job's, as when the sweep skips past it.
        favoured = by_pred[next_pred]
        short = by_length[next_short]
        short_length = cell_len[short]  # NaN past the last job
        short_gone = gone[short]

        share = (1.0 - lam) * (1.0 / k)
        boost = lam + share
        fav_length = cell_len[favoured]
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
            done.append((at, short[at]))
        moving = (short_done | short_gone).nonzero()[0]
        if moving.size:  # on to the next job not gone; any before it finish too
            next_short[moving], passed = scan(by_length, moving, next_short[moving] + 1, True)
            done += passed
        done_rows = np.concatenate([r for r, _ in done])
        done_cells = np.concatenate([c for _, c in done])
        counts = np.bincount(done_rows, minlength=rows.size)
        if not counts.all():  # the job that set dt always crosses the threshold
            raise RuntimeError("event advanced time without completing a job")
        gone[done_cells] = True
        completions[done_cells - rows[done_rows]] = t[done_rows]  # at row * n + job
        k -= counts

        handing = fav_done[k[fav_done] > 0]  # rows whose favour passes on
        if handing.size:
            next_pred[handing], _ = scan(by_pred, handing, next_pred[handing] + 1)
            gone[by_pred[next_pred[handing]]] = True
            extra[handing] = 0.0

        live = k > 0
        if not live.all():
            rows, k, lam, t, common, extra, next_short, next_pred = (
                a[live] for a in (rows, k, lam, t, common, extra, next_short, next_pred)
            )
    return completions.reshape(shape)


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
