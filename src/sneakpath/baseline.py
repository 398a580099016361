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

# Grid points between the coarse samples of :func:`optimal_threshold`.
_COARSE_STRIDE = 100


def marginal_error(t, params: ChannelParams, p: SFCountDistribution):
    """Expected per-cell error of threshold ``t`` (decide 0 iff y > t)."""
    t = np.asarray(t, dtype=float)
    q = params.q
    psp = p.sp_potential_probability(q)
    sig = params.sigma
    miss_one = q_function((t - params.r1) / sig)
    miss_zero_clear = q_function((params.r0 - t) / sig)
    miss_zero_sp = q_function((params.r0_prime - t) / sig)
    return q * miss_one + (1.0 - q) * ((1.0 - psp) * miss_zero_clear + psp * miss_zero_sp)


def optimal_threshold(
    params: ChannelParams, p: SFCountDistribution, grid_points: int = 180001
) -> float:
    """Threshold minimizing :func:`marginal_error` on a fine grid over (r1, r0).

    Grid resolution is (r0 - r1) / (grid_points - 1), 5 mOhm at the default
    levels; ties resolve to the smallest threshold.

    The error is quasi-convex on [r1, r0]: its slope has the sign of
    (1 - q) R(t) - q with R(t) = [(1 - psp) phi((r0 - t)/sigma)
    + psp phi((r0' - t)/sigma)] / phi((t - r1)/sigma), a positive mix of
    exponentials increasing in t (r0, r0' > r1), so the error falls, then
    rises, once.  Hence the first minimum of every ``_COARSE_STRIDE``-th grid
    point lies within one stride of the first minimum of the whole grid, and
    searching that window returns the same grid point from about 2% of the
    evaluations (the tests compare both over q, priors and sigma from 1e-3
    to 5e3).  Only the evaluated points are built.

    Raises ValueError if ``grid_points`` is below 2.
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be at least 2, got {grid_points}")
    step = (params.r0 - params.r1) / (grid_points - 1)

    def grid(k):
        # Points k of np.linspace(r1, r0, grid_points), bit for bit.
        return np.where(k == grid_points - 1, params.r0, k * step + params.r1)

    coarse = grid(np.arange(0, grid_points, _COARSE_STRIDE))
    c = int(np.argmin(marginal_error(coarse, params, p))) * _COARSE_STRIDE
    window = grid(np.arange(max(c - _COARSE_STRIDE, 0), min(c + _COARSE_STRIDE + 1, grid_points)))
    return float(window[int(np.argmin(marginal_error(window, params, p)))])


def detect_baseline(y: np.ndarray, threshold: float) -> np.ndarray:
    """Decide every cell against one fixed threshold: 0 iff y > threshold.

    The threshold is :func:`optimal_threshold` at the readout's noise level.
    """
    return (np.asarray(y, dtype=float) <= threshold).astype(np.uint8)
