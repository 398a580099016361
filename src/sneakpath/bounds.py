"""Analytic BER bounds and decision thresholds for the readout channel.

The genie bound assumes the failure rows and columns are recovered exactly,
leaving only the per-cell two-threshold decision over the remaining cells.
It is the floor any detector on this channel can reach, and the simulated
detector is compared against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .channel import ChannelParams


@dataclass(frozen=True)
class SFCountDistribution:
    """Prior (p0, p1, p2) over the number of active selector failures."""

    p0: float
    p1: float
    p2: float

    def __post_init__(self):
        ps = (self.p0, self.p1, self.p2)
        if any(p < 0.0 for p in ps):
            raise ValueError(f"probabilities must be nonnegative, got {ps}")
        if abs(sum(ps) - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1 within 1e-12, got {ps}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p0, self.p1, self.p2)

    def sp_potential_probability(self, q: float) -> float:
        """Chance that a cell lies on a failure row/column crossing of 1s."""
        return 1.0 - sum(p * (1.0 - q * q) ** k for k, p in enumerate(self.as_tuple()))


REFERENCE_SF_DIST = SFCountDistribution(0.5, 0.4, 0.1)


def q_function(x):
    """Upper-tail probability of the standard normal, via erfc."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def thresholds(params: ChannelParams) -> tuple[float, float]:
    """MAP decision thresholds (gamma, gamma_prime).

    ``gamma`` separates r1 from r0 for cells that cannot see a sneak path;
    ``gamma_prime`` separates r1 from r0' for cells that can.  Both shift
    with the bit prior through log(q / (1 - q)).
    """
    prior = math.log(params.q / (1.0 - params.q))
    s2 = params.sigma**2
    gamma = s2 / (params.r0 - params.r1) * prior + (params.r0 + params.r1) / 2.0
    gamma_prime = s2 / (params.r0_prime - params.r1) * prior + (params.r0_prime + params.r1) / 2.0
    return gamma, gamma_prime


def _per_count_average(n: int, p: SFCountDistribution, q: float, far: float, near: float) -> float:
    """Average over the failure count of the non-failure-cell fraction times the
    per-cell error: ``far`` off the sneak-path-capable cells, ``near`` on them."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    total = 0.0
    for k, pk in enumerate(p.as_tuple()):
        frac = 1.0 - (2.0 * k * n - k * k) / n**2
        clear = (1.0 - q * q) ** k
        total += pk * frac * (clear * far + (1.0 - clear) * near)
    return total


def ber_lower_bound(n: int, p: SFCountDistribution, params: ChannelParams) -> float:
    """Finite-array BER floor at array dimension ``n``.

    Averages over the failure count k the non-failure-cell fraction times
    the two-threshold error terms, taking Pr(cell can see a sneak path) =
    1 - (1 - q^2)^k.  Only the LRS-side tail enters each term, exactly as
    the closed form is stated; see ``genie_error_symmetric`` for the
    two-sided diagnostic variant.
    """
    gamma, gamma_prime = thresholds(params)
    sig = params.sigma
    q_far = float(q_function((gamma - params.r1) / sig))
    q_near = float(q_function((gamma_prime - params.r1) / sig))
    return _per_count_average(n, p, params.q, q_far, q_near)


def asymptotic_bound(p: SFCountDistribution, params: ChannelParams) -> float:
    """Large-array limit of :func:`ber_lower_bound`."""
    gamma, gamma_prime = thresholds(params)
    sig = params.sigma
    psp = p.sp_potential_probability(params.q)
    return (1.0 - psp) * float(q_function((gamma - params.r1) / sig)) + psp * float(
        q_function((gamma_prime - params.r1) / sig)
    )


def genie_error_symmetric(n: int, p: SFCountDistribution, params: ChannelParams) -> float:
    """Diagnostic only: exact two-sided error of the genie-aided rule.

    Unlike :func:`ber_lower_bound` this weights both decision-boundary tails
    by the bit prior.  It coincides with the bound at q = 1/2 and is logged
    alongside it for comparison; it is not used in any acceptance check.
    """
    gamma, gamma_prime = thresholds(params)
    q = params.q
    sig = params.sigma
    miss_far = q * float(q_function((gamma - params.r1) / sig)) + (1.0 - q) * float(
        q_function((params.r0 - gamma) / sig)
    )
    miss_near = q * float(q_function((gamma_prime - params.r1) / sig)) + (1.0 - q) * float(
        q_function((params.r0_prime - gamma_prime) / sig)
    )
    return _per_count_average(n, p, q, miss_far, miss_near)
