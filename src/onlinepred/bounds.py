"""Closed-form competitive-ratio guarantees.

These expressions are the proven guarantees for the decision rules in
`ski_rental` and `scheduling`; the simulators never use them, which keeps
them usable as independent oracles.  Robustness is the error-independent
ceiling, consistency is the value at zero prediction error.  The bounds
broadcast numpy arrays of lambda, eta, opt and n (b stays a scalar).  Lambda
follows the rules' type rule (`ski_rental._check_lambda`) plus arrays: a real
scalar or a numpy array the package's real-array rule (`ski_rental._floats`)
takes, never a bool, a str, a Fraction or a bool array.  Eta, opt and n
follow that real-array rule alone, so a list is taken too, in float64.
They reject a bool or fractional b, a NaN opt or n, and the ski bounds a NaN
eta; each message names the first bad entry.
"""

from __future__ import annotations

import math

import numpy as np

from .ski_rental import PolicyKind, _check_count, _check_lambda, _floats, _require

E_OVER_E_MINUS_1 = math.e / (math.e - 1.0)


def det_robustness(lam):
    """Worst-case ratio ceiling of the deterministic rule: (1 + lambda)/lambda."""
    lam = _check_lambda(lam, 0, True, "lambda must lie in (0, 1]", arrays=True)
    return (1.0 + lam) / lam


def det_consistency(lam):
    """Ratio of the deterministic rule under perfect predictions: 1 + lambda."""
    lam = _check_lambda(lam, 0, True, "lambda must lie in (0, 1]", arrays=True)
    return 1.0 + lam


def rand_robustness(b: int, lam):
    """Worst-case ratio ceiling of the randomized rule."""
    _check_count("b", b, 2)
    lam = _check_lambda(lam, 1.0 / b, True, f"lambda must lie in (1/{b}, 1]", arrays=True)
    # -expm1(-x) is 1 - exp(-x) without the cancellation to 0 within an ulp of 1/b
    return (1.0 + 1.0 / b) / -np.expm1(-(lam - 1.0 / b))


def rand_consistency(lam):
    """Ratio of the randomized rule under perfect predictions."""
    lam = _check_lambda(lam, 0, True, "lambda must lie in (0, 1]", arrays=True)
    return lam / -np.expm1(-lam)


def _reals(name: str, values, least=None):
    """``values`` in float64 by the real-array rule (`_floats`), each >= ``least`` if given.

    NaN fails the range test, and a bad entry is named as given.
    """
    reals = _floats(values, f"{name} must be a real number", f"{name} must fit in a float64")
    if least is not None:
        _require(reals >= least, values, f"{name} must be >= {least}")
    return reals


def _check_ski_instance(eta, opt):
    """``(eta, opt)`` in float64 (`_reals`), rejecting an opt below 1 or an eta below 0."""
    opt = _reals("opt", opt, 1)
    return _reals("eta", eta, 0), opt


def naive_ski_bound(eta, opt):
    """Per-instance guarantee of the naive rule: cost <= OPT + eta, a ratio of 1 + eta/OPT."""
    eta, opt = _check_ski_instance(eta, opt)
    return 1.0 + eta / opt


def det_ski_bound(lam, eta, opt):
    """Per-instance guarantee of the deterministic rule at error eta."""
    lam = _check_lambda(lam, 0, False, "lambda must lie in (0, 1) for the error term", arrays=True)
    eta, opt = _check_ski_instance(eta, opt)
    return np.minimum(det_robustness(lam), det_consistency(lam) + eta / ((1.0 - lam) * opt))


def rand_ski_bound(b: int, lam, eta, opt):
    """Per-instance guarantee of the randomized rule at error eta."""
    eta, opt = _check_ski_instance(eta, opt)
    return np.minimum(rand_robustness(b, lam), rand_consistency(lam) * (1.0 + eta / opt))


def ski_guarantee(policy, b: int, eta, opt):
    """Guaranteed cost/OPT of the ski rule ``policy`` at buy cost b, error eta and optimum opt.

    Break-even (deterministic, lambda = 1) has no error term: 2, shaped like eta and opt broadcast.
    """
    if policy.kind is PolicyKind.NAIVE:
        return naive_ski_bound(eta, opt)
    if policy.kind is PolicyKind.RANDOMIZED:
        return rand_ski_bound(b, policy.lam, eta, opt)
    if policy.lam != 1:
        return det_ski_bound(policy.lam, eta, opt)
    eta, opt = _check_ski_instance(eta, opt)
    return np.full(np.broadcast_shapes(eta.shape, opt.shape), det_robustness(policy.lam))


def spjf_bound(n, eta):
    """Shortest-predicted-job-first guarantee: 1 + 2*eta/n."""
    n = _reals("n", n, 1)
    return 1.0 + 2.0 * _reals("eta", eta) / n


def prr_bound(n, eta, lam):
    """Preferential round-robin guarantee: min of the two mixture terms."""
    lam = _check_lambda(lam, 0, False, "lambda must lie in (0, 1)", arrays=True)
    with np.errstate(over="ignore"):  # inf at the least lambdas, where the min takes 2/(1 - lambda)
        return np.minimum(spjf_bound(n, eta) / lam, 2.0 / (1.0 - lam))


def prr_perfect_bound(lam):
    """Sharper preferential round-robin guarantee at zero error: (1+lambda)/(2*lambda)."""
    lam = _check_lambda(lam, 0, False, "lambda must lie in (0, 1)", arrays=True)
    return (1.0 + lam) / (2.0 * lam)


def sched_guarantee(label: str, n, eta, lam=None):
    """Guaranteed cost/OPT of the scheduling-sweep entrant ``label`` on n jobs at error eta.

    Round-robin ignores predictions: 2n/(n + 1) (Motwani, Phillips and Torng,
    1994), shaped like n and eta broadcast.  Lambda is given for PRR alone.
    """
    if label not in ("round-robin", "spjf", "prr"):
        raise ValueError(f"unknown scheduling entrant {label!r}")
    if (lam is None) == (label == "prr"):
        raise ValueError(f"lambda is given for prr alone, got {lam!r} for {label!r}")
    if label == "prr":
        return prr_bound(n, eta, lam)
    if label == "spjf":
        return spjf_bound(n, eta)
    n = _reals("n", n, 1)
    return np.full(np.broadcast_shapes(n.shape, _reals("eta", eta).shape), 2.0 * n / (n + 1.0))
