"""Analytic BER bounds and decision thresholds for the readout channel.

The genie bound assumes the failure rows and columns are recovered exactly,
leaving only the per-cell two-threshold decision over the remaining cells.
It is the floor any detector on this channel can reach, and the simulated
detector is compared against it.

The Gaussian tails come from :func:`erfc`, a vectorized port of the Cephes
``erfc`` (S. L. Moshier, ``ndtr.c``) that ``scipy.special.erfc`` runs.  It
gives SciPy's results bit for bit, so the package needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, check_sf_prior

# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| < 1, and
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, R(x) / S(x) from 8 up.
# The leading 1.0 of U, Q and S is the monic term of Cephes' p1evl.
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# Past x^2 = MAXLOG, exp(-x^2) underflows and erfc is 0 (x > 0) or 2.
_MAXLOG = 7.09782712893383996843e2


@dataclass(frozen=True)
class SFCountDistribution:
    """Prior (p0, p1, p2) over the number of active selector failures."""

    p0: float
    p1: float
    p2: float

    def __post_init__(self):
        check_sf_prior(self.as_tuple())

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p0, self.p1, self.p2)

    def sp_potential_probability(self, q: float) -> float:
        """Chance that a cell lies on a failure row/column crossing of 1s."""
        return 1.0 - sum(p * (1.0 - q * q) ** k for k, p in enumerate(self.as_tuple()))


REFERENCE_SF_DIST = SFCountDistribution(0.5, 0.4, 0.1)


def _horner(x, coefs):
    """Cephes polevl: the polynomial with ``coefs`` highest power first."""
    acc = coefs[0]
    for c in coefs[1:]:
        acc = acc * x + c
    return acc


def erfc(x):
    """Complementary error function of a scalar or array, as scipy.special.erfc.

    Every step is one IEEE operation in Cephes' order, and exp(-x^2) comes
    from ``math.exp`` (the C library's exp, as in SciPy; ``np.exp`` rounds
    some values differently).  NaN gives NaN.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    a = np.abs(flat)
    out = np.full(flat.shape, np.nan)  # NaN takes no branch below
    small = a < 1.0  # erfc = 1 - erf
    xs = flat[small]
    z = xs * xs
    out[small] = 1.0 - xs * _horner(z, _T) / _horner(z, _U)
    with np.errstate(over="ignore"):  # a * a is inf past 1e154, as in C
        under = a * a > _MAXLOG
    out[under] = np.where(flat[under] < 0.0, 2.0, 0.0)
    tail = (a >= 1.0) & ~under  # erfc(|x|) = exp(-x^2) P/Q or R/S; 2 - that for x < 0
    at = a[tail]
    e = np.fromiter(map(math.exp, (-(at * at)).tolist()), float, at.size)
    y = np.empty_like(at)
    for part, num, den in ((at < 8.0, _P, _Q), (at >= 8.0, _R, _S)):
        v = at[part]
        y[part] = e[part] * _horner(v, num) / _horner(v, den)
    out[tail] = np.where(flat[tail] < 0.0, 2.0 - y, y)
    return out.reshape(x.shape)[()]


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
