"""Crossbar readout channel: data arrays, selector failures, sneak paths, noise.

A stored bit matrix X maps to cell resistances (HRS ``r0`` for 0, LRS ``r1``
for 1).  A faulty selector on a cell that stores a 1 re-enables sneak paths:
every HRS cell that closes a 3-cell alternating path through the failed cell
reads the degraded level ``r0' = (1/r0 + 1/rs)^-1`` instead of ``r0``.  The
readout adds i.i.d. Gaussian noise.

All coordinates are 0-based ``(row, col)`` pairs.  Bit matrices are uint8
ndarrays; readouts are float64 ndarrays.  Every sampling function takes an
explicit ``numpy.random.Generator`` so trials can own independent substreams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class InfeasibleSFError(ValueError):
    """Raised when a data array cannot host the requested failure count."""


@dataclass(frozen=True)
class ChannelParams:
    """Physical and statistical constants of the readout channel.

    r0, r1: high- and low-resistance state levels (ohms), r0 > r1 > 0.
    rs: parasitic resistance added in parallel by a sneak path (ohms); the
        sneak-path level r0' = (1/r0 + 1/rs)^-1 must stay above r1, or a
        sneak path would read like a stored 1.
    sigma: readout noise standard deviation (ohms).
    q: probability that a stored bit is 1, strictly inside (0, 1).
    """

    r0: float = 1000.0
    r1: float = 100.0
    rs: float = 250.0
    sigma: float = 30.0
    q: float = 0.5

    def __post_init__(self):
        levels = (self.r0, self.r1, self.rs, self.sigma)
        if not all(math.isfinite(v) for v in levels):
            raise ValueError(f"r0, r1, rs and sigma must be finite, got {levels}")
        if not (self.r0 > self.r1 > 0.0):
            raise ValueError(f"need r0 > r1 > 0, got r0={self.r0}, r1={self.r1}")
        if self.rs <= 0.0:
            raise ValueError(f"rs must be positive, got {self.rs}")
        if self.r0_prime <= self.r1:
            raise ValueError(f"need r0' = 1/(1/r0 + 1/rs) > r1, got r0'={self.r0_prime:g} "
                             f"(r0={self.r0}, rs={self.rs}), r1={self.r1}")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"q must lie in (0, 1), got {self.q}")

    @property
    def r0_prime(self) -> float:
        """Degraded HRS level seen by a sneak-path cell; always < r0."""
        return 1.0 / (1.0 / self.r0 + 1.0 / self.rs)


@dataclass(frozen=True)
class SFPattern:
    """Set of active selector failures: 0, 1, or 2 cells, no shared line.

    Every coordinate must hold a stored 1 in its paired data array (a failure
    on a 0-cell cannot complete a sneak path and is not modeled).
    """

    pairs: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        pairs = tuple((int(r), int(c)) for r, c in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if len(pairs) > 2:
            raise ValueError(f"at most two selector failures supported, got {len(pairs)}")
        if len(pairs) == 2:
            (i, j), (ip, jp) = pairs
            if i == ip or j == jp:
                raise ValueError(f"failures {pairs} share a row or column")

    def __len__(self) -> int:
        return len(self.pairs)

    def validate_against(self, x: np.ndarray) -> None:
        """Check that each failure sits on a stored 1 of ``x``."""
        n = x.shape[0]
        for (i, j) in self.pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"failure ({i}, {j}) outside a {n}x{n} array")
            if x[i, j] != 1:
                raise ValueError(f"failure ({i}, {j}) does not sit on a stored 1")


def sample_data(n: int, q: float, rng: np.random.Generator) -> np.ndarray:
    """Draw an n-by-n bit matrix with i.i.d. Bernoulli(q) entries."""
    if n < 2:
        raise ValueError(f"array dimension must be at least 2, got {n}")
    if not (0.0 < q <= 1.0):
        raise ValueError(f"bit probability must lie in (0, 1], got {q}")
    return (rng.random((n, n)) < q).astype(np.uint8)


def check_sf_prior(p) -> np.ndarray:
    """The failure-count prior (p0, p1, p2) as an array, checked.

    Raises ValueError unless ``p`` holds 3 finite nonnegative values that sum
    to 1 within 1e-12.
    """
    p = np.asarray(p, dtype=float)
    # NaN fails p >= 0, and an infinite value leaves the sum away from 1.
    if p.shape != (3,) or not np.all(p >= 0.0) or abs(p.sum() - 1.0) > 1e-12:
        raise ValueError("failure-count prior must be 3 finite nonnegative values summing "
                         f"to 1 within 1e-12, got {p.tolist()}")
    return p


def sample_sf_count(p: tuple[float, float, float], rng: np.random.Generator) -> int:
    """Draw the number of active selector failures from (p0, p1, p2)."""
    return int(rng.choice(3, p=check_sf_prior(p)))


def place_sfs(x: np.ndarray, k: int, rng: np.random.Generator) -> SFPattern:
    """Place ``k`` active failures uniformly on 1-cells of ``x``.

    For k=2 the two cells must occupy distinct rows and distinct columns;
    the pair is uniform over all such pairs.  Raises InfeasibleSFError,
    before drawing anything, when ``x`` has no valid placement.
    """
    if k == 0:
        return SFPattern(())
    is_one = x == 1
    ones = np.flatnonzero(is_one)
    width = x.shape[1]
    if k == 1:
        if len(ones) == 0:
            raise InfeasibleSFError("no 1-cells available for a selector failure")
        return SFPattern((divmod(int(ones[rng.integers(len(ones))]), width),))
    if k != 2:
        raise ValueError(f"selector-failure count must be 0, 1, or 2, got {k}")
    # Two 1-cells in distinct rows and columns exist iff the 1-cells span two
    # rows and two columns (of two 1-cells in different rows that share a
    # column, any 1-cell off that column pairs with one).
    if np.count_nonzero(is_one.any(axis=1)) < 2 or np.count_nonzero(is_one.any(axis=0)) < 2:
        raise InfeasibleSFError("no two 1-cells lie in distinct rows and columns")
    # Rejection from uniform unordered pairs keeps the valid-pair law uniform.
    while True:
        a, b = rng.choice(len(ones), size=2, replace=False)
        (i, j), (ip, jp) = divmod(int(ones[a]), width), divmod(int(ones[b]), width)
        if i != ip and j != jp:
            return SFPattern(((i, j), (ip, jp)))


def _sp_cells(x: np.ndarray, pairs) -> np.ndarray:
    """Sneak-path cells of bit arrays of shape (..., N, N) under failures ``pairs``.

    Cell (m, n) is a sneak-path cell iff it stores a 0 and some active
    failure (i, j) has x[i, n] = x[m, j] = 1, closing the 3-cell path
    (m, n) -> (m, j) -> (i, j) -> (i, n).  Returns a bool array.
    """
    ones = np.asarray(x, dtype=bool)
    e = np.zeros_like(ones)
    for (i, j) in pairs:
        e |= ones[..., :, j, None] & ones[..., None, i, :]
    return e & ~ones


def compute_sp_indicators(x: np.ndarray, sf: SFPattern) -> np.ndarray:
    """Mark every sneak-path cell of ``x`` under ``sf`` as a uint8 matrix."""
    sf.validate_against(x)
    return _sp_cells(x, sf.pairs).astype(np.uint8)


def resistance_map(x: np.ndarray, e: np.ndarray, params: ChannelParams) -> np.ndarray:
    """Noiseless readout levels for a whole array of bits and indicators.

    Code x + 2e picks the level: a stored 1 reads r1 whatever its indicator.
    """
    levels = np.array([params.r0, params.r1, params.r0_prime, params.r1])
    return np.take(levels, x + 2 * e)


def sample_readout(
    x: np.ndarray, e: np.ndarray, params: ChannelParams, rng: np.random.Generator
) -> np.ndarray:
    """Add i.i.d. Gaussian(0, sigma^2) readout noise to the resistance map."""
    if x.shape != e.shape:
        raise ValueError(f"shape mismatch: bits {x.shape} vs indicators {e.shape}")
    return resistance_map(x, e, params) + rng.normal(0.0, params.sigma, x.shape)


def sample_instance(
    n: int,
    params: ChannelParams,
    p: tuple[float, float, float],
    rng: np.random.Generator,
) -> tuple[np.ndarray, SFPattern, np.ndarray, np.ndarray]:
    """Draw one complete channel use: bits, failures, indicators, readout.

    The failure count is drawn once; if the bit matrix cannot host it the
    bits are resampled (never the count), preserving the count marginals.
    """
    k = sample_sf_count(p, rng)
    while True:
        x = sample_data(n, params.q, rng)
        try:
            sf = place_sfs(x, k, rng)
            break
        except InfeasibleSFError:
            continue
    e = compute_sp_indicators(x, sf)
    y = sample_readout(x, e, params, rng)
    return x, sf, e, y
