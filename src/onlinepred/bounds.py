"""Closed-form competitive-ratio guarantees.

These expressions are the proven guarantees for the decision rules in
`ski_rental` and `scheduling`; the simulators never use them, which keeps
them usable as independent oracles.  Robustness is the error-independent
ceiling, consistency is the value at zero prediction error.  The bounds
broadcast numpy arrays of lambda, eta, opt and n (b stays a scalar).  Lambda
follows the rules' type rule (`ski_rental._check_lambda`) plus arrays: a real
scalar or real numpy array, never a bool, a str, a Fraction or a bool array.
They reject a bool or fractional b, a NaN opt or n, and the ski bounds a NaN
eta; each message names the first bad entry.
"""

from __future__ import annotations

import math

import numpy as np

from .ski_rental import _check_count, _check_lambda, _require

E_OVER_E_MINUS_1 = math.e / (math.e - 1.0)


def det_robustness(lam):
    """Worst-case ratio ceiling of the deterministic rule: (1 + lambda)/lambda."""
    _check_lambda(lam, 0, True, "lambda must lie in (0, 1]", arrays=True)
    return (1.0 + lam) / lam


def det_consistency(lam):
    """Ratio of the deterministic rule under perfect predictions: 1 + lambda."""
    _check_lambda(lam, 0, True, "lambda must lie in (0, 1]", arrays=True)
    return 1.0 + lam


def rand_robustness(b: int, lam):
    """Worst-case ratio ceiling of the randomized rule."""
    _check_count("b", b, 2)
    _check_lambda(lam, 1.0 / b, True, f"lambda must lie in (1/{b}, 1]", arrays=True)
    # -expm1(-x) is 1 - exp(-x) without the cancellation to 0 within an ulp of 1/b
    return (1.0 + 1.0 / b) / -np.expm1(-(lam - 1.0 / b))


def rand_consistency(lam):
    """Ratio of the randomized rule under perfect predictions."""
    _check_lambda(lam, 0, True, "lambda must lie in (0, 1]", arrays=True)
    return lam / -np.expm1(-lam)


def _check_ski_instance(eta, opt) -> None:
    """Reject an opt below 1 or an eta below 0, NaN included."""
    _require(opt >= 1, opt, "opt must be >= 1")
    _require(eta >= 0, eta, "eta must be >= 0")


def naive_ski_bound(eta, opt):
    """Per-instance guarantee of the naive rule: cost <= OPT + eta, a ratio of 1 + eta/OPT."""
    _check_ski_instance(eta, opt)
    return 1.0 + eta / opt


def det_ski_bound(lam, eta, opt):
    """Per-instance guarantee of the deterministic rule at error eta."""
    _check_lambda(lam, 0, False, "lambda must lie in (0, 1) for the error term", arrays=True)
    _check_ski_instance(eta, opt)
    return np.minimum(det_robustness(lam), det_consistency(lam) + eta / ((1.0 - lam) * opt))


def rand_ski_bound(b: int, lam, eta, opt):
    """Per-instance guarantee of the randomized rule at error eta."""
    _check_ski_instance(eta, opt)
    return np.minimum(rand_robustness(b, lam), rand_consistency(lam) * (1.0 + eta / opt))


def spjf_bound(n, eta):
    """Shortest-predicted-job-first guarantee: 1 + 2*eta/n."""
    _require(n >= 1, n, "n must be >= 1")
    return 1.0 + 2.0 * eta / n


def prr_bound(n, eta, lam):
    """Preferential round-robin guarantee: min of the two mixture terms."""
    _check_lambda(lam, 0, False, "lambda must lie in (0, 1)", arrays=True)
    return np.minimum(spjf_bound(n, eta) / lam, 2.0 / (1.0 - lam))


def prr_perfect_bound(lam):
    """Sharper preferential round-robin guarantee at zero error: (1+lambda)/(2*lambda)."""
    _check_lambda(lam, 0, False, "lambda must lie in (0, 1)", arrays=True)
    return (1.0 + lam) / (2.0 * lam)
