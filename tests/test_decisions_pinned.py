"""Pinned detector decisions on a fixed seeded set of readouts.

The digest covers every decision a caller sees: the bit estimate, the
declared failure count, the sorted failure locations, and the pairing
case and tie of a declared double failure.  It changes only
when a detector decision changes, so a speed change to the LLR arithmetic
must leave it as it is.  A second digest pins larger arrays, N = 256.
"""

import hashlib

import numpy as np

from sneakpath import ChannelParams, detect_array, sample_instance, sample_readout
from sneakpath.bounds import REFERENCE_SF_DIST, SFCountDistribution
from sneakpath.instances import make_case_library

PRIORS = (REFERENCE_SF_DIST, SFCountDistribution(0.2, 0.3, 0.5))
ARRAYS_PER_SETTING = 8
PINNED_DECISIONS_SHA256 = "db418367575069c22780753c6999ffb6fb50028dbefe68ac062c9187b2942023"
# N = 256 readouts, where the per-cell temporaries are 512 KiB each.
LARGE_N = 256
PINNED_N256_DECISIONS_SHA256 = "6e0c36b2238ffe50237192b1dd196ec109fec6be5d08446cc4ece61727fd4f36"


def _update(digest, res) -> None:
    digest.update(np.ascontiguousarray(res.x_hat, dtype=np.uint8).tobytes())
    digest.update(res.hypothesis.kind.encode())
    digest.update(repr(sorted((int(i), int(j)) for i, j in res.hypothesis.locations)).encode())
    digest.update(repr((res.hypothesis.case, res.hypothesis.pairing_tie)).encode())


def decisions_digest() -> str:
    digest = hashlib.sha256()
    for n in (16, 64, 128):
        for sigma in (30.0, 150.0, 350.0):
            params = ChannelParams(sigma=sigma)
            for k, prior in enumerate(PRIORS):
                rng = np.random.default_rng([n, int(sigma), k])
                for _ in range(ARRAYS_PER_SETTING):
                    _, _, _, y = sample_instance(n, params, prior.as_tuple(), rng)
                    _update(digest, detect_array(y, params, prior))
    params = ChannelParams(sigma=1e-6)
    rng = np.random.default_rng(402)
    for inst in make_case_library(q=0.5, seed=7):
        _update(digest, detect_array(sample_readout(inst.x, inst.e, params, rng), params))
    return digest.hexdigest()


def n256_decisions_digest() -> str:
    digest = hashlib.sha256()
    for sigma in (30.0, 100.0, 350.0):
        params = ChannelParams(sigma=sigma)
        for k, prior in enumerate(PRIORS):
            rng = np.random.default_rng([LARGE_N, int(sigma), k])
            for _ in range(4):
                _, _, _, y = sample_instance(LARGE_N, params, prior.as_tuple(), rng)
                _update(digest, detect_array(y, params, prior))
    return digest.hexdigest()


def test_decisions_pinned():
    assert decisions_digest() == PINNED_DECISIONS_SHA256


def test_n256_decisions_pinned():
    assert n256_decisions_digest() == PINNED_N256_DECISIONS_SHA256
