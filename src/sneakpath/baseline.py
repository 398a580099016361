"""Single-threshold reference detector.

Treats sneak-path interference as part of the noise: every cell is decided
against one threshold chosen to minimize the expected per-cell error under
the marginal three-level mixture (LRS with probability q, plain HRS or the
degraded sneak-path level otherwise, split by the sneak-path occurrence
probability implied by the failure-count prior).  The threshold is
re-optimized per noise level, which only strengthens this reference.
"""

from __future__ import annotations

import numpy as np

from .bounds import SFCountDistribution, q_function
from .channel import ChannelParams

# Threshold grid size, and the grid strides of the successive brackets of
# :func:`optimal_threshold`.
_GRID_POINTS = 180001
_STRIDES = (10_000, 100, 1)


def marginal_error(t, params: ChannelParams, p: SFCountDistribution):
    """Expected per-cell error of threshold ``t`` (decide 0 iff y > t)."""
    t = np.asarray(t, dtype=float)
    q = params.q
    psp = p.sp_potential_probability(q)
    sig = params.sigma
    # The three tails in one q_function call: each erfc call has a fixed cost.
    miss_one, miss_zero_clear, miss_zero_sp = q_function(
        np.stack(((t - params.r1) / sig, (params.r0 - t) / sig, (params.r0_prime - t) / sig)))
    return q * miss_one + (1.0 - q) * ((1.0 - psp) * miss_zero_clear + psp * miss_zero_sp)


def optimal_threshold(params: ChannelParams, p: SFCountDistribution) -> float:
    """Threshold minimizing :func:`marginal_error` on a fixed grid over [r1, r0].

    The grid is np.linspace(r1, r0, _GRID_POINTS): 180001 points, 5 mOhm
    apart at the default levels.  Ties resolve to the smallest threshold.

    The error is quasi-convex on [r1, r0]: its slope has the sign of
    (1 - q) R(t) - q with R(t) = [(1 - psp) phi((r0 - t)/sigma)
    + psp phi((r0' - t)/sigma)] / phi((t - r1)/sigma), a positive mix of
    exponentials increasing in t (r0, r0' > r1), so the error falls, then
    rises, once.  Hence on any window of the grid that holds the first
    minimum of the whole grid, the first minimum over every s-th point of
    the window lies within s points of it.  The search narrows the window
    with the strides in ``_STRIDES`` and returns the same grid point from
    421 of the 180001 evaluations (the tests compare both over q, priors
    and sigma from 1e-3 to 5e3).  Only the evaluated points are built.
    """
    step = (params.r0 - params.r1) / (_GRID_POINTS - 1)

    def grid(k):
        # Points k of np.linspace(r1, r0, _GRID_POINTS), bit for bit.
        return np.where(k == _GRID_POINTS - 1, params.r0, k * step + params.r1)

    lo, hi = 0, _GRID_POINTS - 1
    for stride in _STRIDES:
        k = np.arange(lo, hi + 1, stride)
        ts = grid(k)
        best = int(np.argmin(marginal_error(ts, params, p)))
        c = int(k[best])
        lo, hi = max(c - stride, lo), min(c + stride, hi)
    return float(ts[best])


def detect_baseline(y: np.ndarray, threshold: float) -> np.ndarray:
    """Decide every cell against one fixed threshold: 0 iff y > threshold.

    The threshold is :func:`optimal_threshold` at the readout's noise level.
    """
    return (np.asarray(y, dtype=float) <= threshold).astype(np.uint8)
