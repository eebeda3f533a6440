"""Closed-form competitive-ratio guarantees.

These expressions are the proven guarantees for the decision rules in
`ski_rental` and `scheduling`; the simulators never use them, which keeps
them usable as independent oracles.  Robustness is the error-independent
ceiling, consistency is the value at zero prediction error.  The bounds
broadcast numpy arrays of lambda, eta, opt and n (b stays a scalar); they
reject a bool lambda or b, a NaN opt or n, and the ski bounds a NaN eta.
"""

from __future__ import annotations

import math

import numpy as np

from .ski_rental import _check_count

E_OVER_E_MINUS_1 = math.e / (math.e - 1.0)


def _check_lambda(lam, low: float, closed: bool, domain: str) -> None:
    """Reject a bool or NaN lambda, or one outside (low, 1] if ``closed``, else (low, 1)."""
    # a Python float gives a plain True and skips np.all; the message names the first bad entry
    boolean = type(lam) is bool or getattr(lam, "dtype", None) == bool
    inside = (low < lam) & ((lam <= 1) if closed else (lam < 1)) & (not boolean)
    if inside is not True and not np.all(inside):
        bad = lam if np.ndim(lam) == 0 else np.extract(np.logical_not(inside), lam)[0].item()
        raise ValueError(f"lambda must lie in {domain}, got {bad!r}")


def det_robustness(lam):
    """Worst-case ratio ceiling of the deterministic rule: (1 + lambda)/lambda."""
    _check_lambda(lam, 0, True, "(0, 1]")
    return (1.0 + lam) / lam


def det_consistency(lam):
    """Ratio of the deterministic rule under perfect predictions: 1 + lambda."""
    _check_lambda(lam, 0, True, "(0, 1]")
    return 1.0 + lam


def rand_robustness(b: int, lam):
    """Worst-case ratio ceiling of the randomized rule."""
    _check_count("b", b, 2)
    _check_lambda(lam, 1.0 / b, True, f"(1/{b}, 1]")
    return (1.0 + 1.0 / b) / (1.0 - np.exp(-(lam - 1.0 / b)))


def rand_consistency(lam):
    """Ratio of the randomized rule under perfect predictions."""
    _check_lambda(lam, 0, True, "(0, 1]")
    return lam / (1.0 - np.exp(-lam))


def _check_ski_instance(eta, opt) -> None:
    """Reject an opt below 1 or an eta below 0, NaN included."""
    if not np.all(opt >= 1):
        raise ValueError(f"opt must be >= 1, got {opt!r}")
    if not np.all(eta >= 0):
        raise ValueError(f"eta must be >= 0, got {eta!r}")


def naive_ski_bound(eta, opt):
    """Per-instance guarantee of the naive rule: cost <= OPT + eta, a ratio of 1 + eta/OPT."""
    _check_ski_instance(eta, opt)
    return 1.0 + eta / opt


def det_ski_bound(lam, eta, opt):
    """Per-instance guarantee of the deterministic rule at error eta."""
    _check_lambda(lam, 0, False, "(0, 1) for the error term")
    _check_ski_instance(eta, opt)
    return np.minimum(det_robustness(lam), det_consistency(lam) + eta / ((1.0 - lam) * opt))


def rand_ski_bound(b: int, lam, eta, opt):
    """Per-instance guarantee of the randomized rule at error eta."""
    _check_ski_instance(eta, opt)
    return np.minimum(rand_robustness(b, lam), rand_consistency(lam) * (1.0 + eta / opt))


def spjf_bound(n, eta):
    """Shortest-predicted-job-first guarantee: 1 + 2*eta/n."""
    if not np.all(n >= 1):
        raise ValueError(f"n must be >= 1, got {n!r}")
    return 1.0 + 2.0 * eta / n


def prr_bound(n, eta, lam):
    """Preferential round-robin guarantee: min of the two mixture terms."""
    _check_lambda(lam, 0, False, "(0, 1)")
    return np.minimum(spjf_bound(n, eta) / lam, 2.0 / (1.0 - lam))


def prr_perfect_bound(lam):
    """Sharper preferential round-robin guarantee at zero error: (1+lambda)/(2*lambda)."""
    _check_lambda(lam, 0, False, "(0, 1)")
    return (1.0 + lam) / (2.0 * lam)
