"""Independent oracles for the schedulers.

The closed forms and the phase-by-phase simulation run in exact rational
arithmetic.  ``run_rate_schedule`` is a generic float executor for any rate
policy; it re-queries the policy after every completion, so it shares no
bookkeeping with the batched kernel in ``onlinepred.scheduling``.
``prr_sweep`` is the one-job-set event sweep the kernel replaced, kept as a
bit-exact reference: the kernel must reproduce its float operations.
``run_sorted`` replays a sequential rule over ``Job`` records in ``sorted``
key order, with none of the argsort machinery of the real schedulers.  The
package keeps a job set as two arrays only; ``records`` gives the oracles
their own per-job view of it.
"""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from onlinepred.scheduling import COMPLETION_EPS, ScheduleResult

RATE_SUM_TOLERANCE = 1e-9


class Job(NamedTuple):
    """One job of a JobSet: its id (column), true length and prediction."""

    id: int
    length: float
    predicted: float


def records(jobs):
    """The jobs of a JobSet as ``Job`` records in id order."""
    return tuple(map(Job, range(jobs.n), jobs.lengths.tolist(), jobs.predicted.tolist()))


def rr_rates(active):
    """Round-robin: all k unfinished jobs run at rate 1/k."""
    share = 1.0 / len(active)
    return {job.id: share for job in active}


def prr_rates(lam):
    """PRR: (1-lam)/k each, plus lam for the lowest (prediction, id) job."""

    def rates(active):
        favoured = min(active, key=lambda job: (job.predicted, job.id))
        share = (1.0 - lam) * (1.0 / len(active))
        return {job.id: share + (lam if job is favoured else 0.0) for job in active}

    return rates


def run_rate_schedule(jobs, rates):
    """Event-driven execution of a rate policy until every job completes.

    ``rates`` maps the tuple of unfinished jobs to {id: rate}.  Between events
    each job advances at its rate; the next event is the earliest completion.
    Simultaneous completions are processed as one event and the policy is
    re-queried afterwards.  Negative rates, rates summing above 1 and a policy
    that leaves every remaining job at rate zero (a livelock) are rejected, and
    the work executed must equal the total length within 1e-9 relative.
    """
    remaining = {j.id: j.length for j in records(jobs)}
    active = list(records(jobs))
    completions = {}
    events = []
    t = 0.0
    executed = 0.0

    while active:
        assigned = rates(tuple(active))
        total_rate = 0.0
        for job in active:
            r = assigned.get(job.id, 0.0)
            if r < -1e-15:
                raise ValueError(f"policy assigned negative rate {r!r} to job {job.id}")
            total_rate += r
        if total_rate > 1.0 + RATE_SUM_TOLERANCE:
            raise ValueError(f"policy rates sum to {total_rate!r} > 1")

        dt = math.inf
        for job in active:
            r = assigned.get(job.id, 0.0)
            if r > 0.0:
                dt = min(dt, remaining[job.id] / r)
        if not math.isfinite(dt):
            raise ValueError("livelock: policy assigned total rate 0 while jobs remain")

        t += dt
        done = []
        for job in active:
            r = assigned.get(job.id, 0.0)
            if r > 0.0:
                work = r * dt
                remaining[job.id] -= work
                executed += work
            if remaining[job.id] <= COMPLETION_EPS * job.length:
                done.append(job.id)
        if not done:  # the argmin job always crosses the threshold
            raise RuntimeError("event advanced time without completing a job")
        for i in done:
            completions[i] = t
        events.append((t, tuple(done)))
        active = [job for job in active if job.id not in completions]

    total = sum(jobs.lengths.tolist(), 0.0)
    if abs(executed - total) > 1e-9 * total:
        raise RuntimeError(f"executed work {executed!r} differs from total length {total!r}")
    ordered = [completions[j.id] for j in records(jobs)]
    return ScheduleResult(np.array(ordered), sum(ordered), tuple(events))


def prr_sweep(jobs, lam):
    """Exact event sweep of the PRR rates for ``0 <= lam < 1``.

    Every unfinished job that has never been favoured has received the same
    work S, so those jobs finish in length order.  The favoured job keeps its
    favour until it finishes (the unfinished set only shrinks), then hands it
    to the next unfinished job in (prediction, id) order.  One pointer walks
    each order, so an event costs O(1) apart from sorting its completions.
    Steps that end at the same float time, as one whose dt is below half an
    ulp of t does, make one event.
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
        for i in done:
            completions[i] = t
        k -= len(done)
        if events and events[-1][0] == t:  # a step below half an ulp of t: one event
            done += events.pop()[1]
        events.append((t, tuple(sorted(done))))

    return ScheduleResult(np.array(completions), sum(completions, 0.0), tuple(events))


def run_sorted(jobs, key):
    """Run jobs to completion one after another in ``sorted(records(jobs), key=key)`` order."""
    t = 0.0
    completions = {}
    events = []
    for job in sorted(records(jobs), key=key):
        t += job.length
        completions[job.id] = t
        events.append((t, (job.id,)))
    ordered = [completions[j.id] for j in records(jobs)]
    return ScheduleResult(np.array(ordered), sum(ordered), tuple(events))


def rr_closed_form(lengths):
    """Sorted-order round-robin completions: n*x(1), then +(n-j)(x(j+1)-x(j))."""
    s = sorted(Fraction(v) for v in lengths)
    n = len(s)
    completions = []
    t = Fraction(0)
    prev = Fraction(0)
    for j, xj in enumerate(s):
        t += (n - j) * (xj - prev)
        completions.append(t)
        prev = xj
    return completions


def prr_exact_rational(lengths, predictions, lam):
    """Phase-by-phase preferential round-robin with exact rationals.

    Every unfinished job runs at (1-lam)/k; the lowest-predicted unfinished
    job (ties to the smaller id) gets an extra lam.  Phases end at exact
    completions, so the returned times carry no rounding at all.
    """
    lam = Fraction(lam)
    n = len(lengths)
    remaining = {i: Fraction(lengths[i]) for i in range(n)}
    completions = {}
    t = Fraction(0)
    active = list(range(n))
    while active:
        k = len(active)
        current = min(active, key=lambda i: (predictions[i], i))
        rates = {i: (Fraction(1) - lam) / k + (lam if i == current else 0) for i in active}
        dt = min(remaining[i] / rates[i] for i in active)
        t += dt
        for i in active:
            remaining[i] -= rates[i] * dt
        done = [i for i in active if remaining[i] == 0]
        assert done, "a phase must end with a completion"
        for i in done:
            completions[i] = t
        active = [i for i in active if remaining[i] != 0]
    return completions


def prr_two_job_formula(x0, x1, y0, y1, lam):
    """Explicit two-job preferential round-robin completion times."""
    x0, x1, lam = Fraction(x0), Fraction(x1), Fraction(lam)
    pref_first = (y0, 0) <= (y1, 1)
    fast = lam + (Fraction(1) - lam) / 2
    slow = (Fraction(1) - lam) / 2
    ra, rb = (fast, slow) if pref_first else (slow, fast)
    if x0 / ra <= x1 / rb:
        c0 = x0 / ra
        c1 = c0 + (x1 - rb * c0)
    else:
        c1 = x1 / rb
        c0 = c1 + (x0 - ra * c1)
    return {0: c0, 1: c1}
