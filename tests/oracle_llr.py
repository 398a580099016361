"""Independent reference for the detector's per-cell LLRs.

Written from the channel model alone: each cell reads one of three levels
(r1 for a stored 1, r0 for a clear stored 0, r0' for a stored 0 under a
sneak path) plus Gaussian noise, and every LLR is a ratio of mixtures of the
three Gaussian log-kernels, summed with ``scipy.special.logsumexp``.  It
shares no code with the detector, so it can serve as the oracle the
detector's softplus kernel is judged against.
"""

import numpy as np
from scipy.special import logsumexp


def log_kernels(y, params):
    """Per-cell -(y - level)^2 / (2 sigma^2) at r1, r0 and r0'."""
    y = np.asarray(y, dtype=float)
    return np.stack([-((y - level) ** 2) / (2.0 * params.sigma**2)
                     for level in (params.r1, params.r0, params.r0_prime)])


def log_mixture(y, weights, params):
    """Per-cell log(a e^{d1} + b e^{d0} + c e^{d0'}) for weights (a, b, c)."""
    d = log_kernels(y, params)
    w = np.asarray(weights, dtype=float).reshape((3,) + (1,) * (d.ndim - 1))
    return logsumexp(d, axis=0, b=np.broadcast_to(w, d.shape))


def mixture_density(y, a, b, c, params):
    """Unnormalized three-component mixture at the readout levels."""
    return np.exp(log_mixture(y, (a, b, c), params))


def _clear_and_capable(y, params):
    """Log-likelihoods of a clear cell (r1 or r0) and a capable one (r1 or r0')."""
    q = params.q
    return (log_mixture(y, (q, 1.0 - q, 0.0), params),
            log_mixture(y, (q, 0.0, 1.0 - q), params))


def sneak_llr(y, params):
    """Per-cell LLR of a sneak-path-capable cell against a clear one."""
    clear, capable = _clear_and_capable(y, params)
    return capable - clear


def presence_llr(y_line, params):
    """First-pass LLR of one line: 'holds one support' against 'clear'.

    A line with one support has each cell capable with probability q.
    """
    clear, capable = _clear_and_capable(y_line, params)
    one_support = logsumexp(np.stack([clear, capable]), axis=0,
                            b=np.array([[1.0 - params.q], [params.q]]))
    return float(np.sum(one_support - clear))


def completeness_llr(y_line, crossing_flags, params):
    """Second-pass LLR of one line: 'fully affected' against 'partially affected'.

    Each cell weighs 'capable' against the even blend of clear and capable,
    with weight 2 x its crossing line's flag.
    """
    clear, capable = _clear_and_capable(y_line, params)
    partial = logsumexp(np.stack([clear, capable]), axis=0, b=0.5)
    weights = 2.0 * np.asarray(crossing_flags, dtype=float)
    return float(np.sum(weights * (capable - partial)))


def candidate_mixtures(y, params):
    """Per-cell (mix10, mix1p) of a cell on a partially affected column.

    The cell reads r1 or r0 with equal weight when its row is clear (mix10),
    and r1 or r0' when its row is fully affected (mix1p).
    """
    return (log_mixture(y, (0.5, 0.5, 0.0), params),
            log_mixture(y, (0.5, 0.0, 0.5), params))
