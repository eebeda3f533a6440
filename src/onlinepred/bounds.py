"""Closed-form competitive-ratio guarantees.

These expressions are the proven guarantees for the decision rules in
`ski_rental` and `scheduling`; the simulators never use them, which keeps
them usable as independent oracles.  Robustness is the error-independent
ceiling, consistency is the value at zero prediction error.  The five
per-instance bounds also take numpy arrays for eta, opt and n (lambda and b
stay scalars); they reject a NaN opt or n, and the ski bounds a NaN eta.
"""

from __future__ import annotations

import math

import numpy as np

E_OVER_E_MINUS_1 = math.e / (math.e - 1.0)


def det_robustness(lam: float) -> float:
    """Worst-case ratio ceiling of the deterministic rule: (1 + lambda)/lambda."""
    if not 0 < lam <= 1:
        raise ValueError(f"lambda must lie in (0, 1], got {lam!r}")
    return (1.0 + lam) / lam


def det_consistency(lam: float) -> float:
    """Ratio of the deterministic rule under perfect predictions: 1 + lambda."""
    if not 0 < lam <= 1:
        raise ValueError(f"lambda must lie in (0, 1], got {lam!r}")
    return 1.0 + lam


def rand_robustness(b: int, lam: float) -> float:
    """Worst-case ratio ceiling of the randomized rule."""
    if b < 2:
        raise ValueError(f"b must be >= 2, got {b!r}")
    if not 1.0 / b < lam <= 1:
        raise ValueError(f"lambda must lie in (1/{b}, 1], got {lam!r}")
    return (1.0 + 1.0 / b) / (1.0 - math.exp(-(lam - 1.0 / b)))


def rand_consistency(lam: float) -> float:
    """Ratio of the randomized rule under perfect predictions."""
    if not 0 < lam <= 1:
        raise ValueError(f"lambda must lie in (0, 1], got {lam!r}")
    return lam / (1.0 - math.exp(-lam))


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


def det_ski_bound(lam: float, eta, opt):
    """Per-instance guarantee of the deterministic rule at error eta."""
    if not 0 < lam < 1:
        raise ValueError(f"lambda must lie in (0, 1) for the error term, got {lam!r}")
    _check_ski_instance(eta, opt)
    return np.minimum(det_robustness(lam), det_consistency(lam) + eta / ((1.0 - lam) * opt))


def rand_ski_bound(b: int, lam: float, eta, opt):
    """Per-instance guarantee of the randomized rule at error eta."""
    _check_ski_instance(eta, opt)
    return np.minimum(rand_robustness(b, lam), rand_consistency(lam) * (1.0 + eta / opt))


def spjf_bound(n, eta):
    """Shortest-predicted-job-first guarantee: 1 + 2*eta/n."""
    if not np.all(n >= 1):
        raise ValueError(f"n must be >= 1, got {n!r}")
    return 1.0 + 2.0 * eta / n


def prr_bound(n, eta, lam: float):
    """Preferential round-robin guarantee: min of the two mixture terms."""
    if not 0 < lam < 1:
        raise ValueError(f"lambda must lie in (0, 1), got {lam!r}")
    return np.minimum(spjf_bound(n, eta) / lam, 2.0 / (1.0 - lam))


def prr_perfect_bound(lam: float) -> float:
    """Sharper preferential round-robin guarantee at zero error: (1+lambda)/(2*lambda)."""
    if not 0 < lam < 1:
        raise ValueError(f"lambda must lie in (0, 1), got {lam!r}")
    return (1.0 + lam) / (2.0 * lam)
