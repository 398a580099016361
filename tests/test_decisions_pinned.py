"""Pinned detector decisions on a fixed seeded set of readouts.

The digest covers every decision a caller sees: the bit estimate, the
declared failure count, the sorted failure locations, and the pairing
case and tie of a declared double failure.  It changes only
when a detector decision changes, so a speed change to the LLR arithmetic
must leave it as it is.  A second digest pins larger arrays, N = 256, and a
third pins channels off the reference: q != 1/2 and other r0 and rs.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sneakpath import ChannelParams, detect_array, sample_instance, sample_readout
from sneakpath.bounds import REFERENCE_SF_DIST, SFCountDistribution
from sneakpath.instances import make_case_library

PRIORS = (REFERENCE_SF_DIST, SFCountDistribution(0.2, 0.3, 0.5))
ARRAYS_PER_SETTING = 8
PINNED_DECISIONS_SHA256 = "db418367575069c22780753c6999ffb6fb50028dbefe68ac062c9187b2942023"
# N = 256 readouts, where the per-cell temporaries are 512 KiB each.
LARGE_N = 256
PINNED_N256_DECISIONS_SHA256 = "6e0c36b2238ffe50237192b1dd196ec109fec6be5d08446cc4ece61727fd4f36"
# q != 1/2 takes its own branch of the per-cell terms and of the mixture gain.
OFF_REFERENCE_QS = (0.2, 0.8)
OFF_REFERENCE_CHANNELS = ((1000.0, 250.0), (500.0, 250.0), (1000.0, 1000.0))  # (r0, rs)
PINNED_OFF_REFERENCE_DECISIONS_SHA256 = "4db7d926665da87a7d2b7f3b6d9913d83a2624e7a6415e460174d717d22a9862"
# numpy 2.4's x86 dispatch targets above its X86_V2 baseline.  Disabling them
# changes the bits of np.exp, np.log1p and np.log, but no decision may change.
SIMD_TARGETS = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")


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


def off_reference_decisions_digest() -> str:
    digest = hashlib.sha256()
    for q in OFF_REFERENCE_QS:
        for r0, rs in OFF_REFERENCE_CHANNELS:
            for n in (32, 128):
                for sigma in (30.0, 100.0, 250.0):
                    params = ChannelParams(r0=r0, rs=rs, sigma=sigma, q=q)
                    rng = np.random.default_rng([n, int(sigma), int(10 * q), int(r0), int(rs)])
                    for _ in range(ARRAYS_PER_SETTING):
                        _, _, _, y = sample_instance(n, params, REFERENCE_SF_DIST.as_tuple(), rng)
                        _update(digest, detect_array(y, params))
    return digest.hexdigest()


def test_decisions_pinned():
    assert decisions_digest() == PINNED_DECISIONS_SHA256


def test_n256_decisions_pinned():
    assert n256_decisions_digest() == PINNED_N256_DECISIONS_SHA256


def test_off_reference_decisions_pinned():
    assert off_reference_decisions_digest() == PINNED_OFF_REFERENCE_DECISIONS_SHA256


def _active_simd_targets() -> list[str]:
    """The SIMD_TARGETS numpy was built for and this CPU runs."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return []
    return [t for t in SIMD_TARGETS if t in __cpu_dispatch__ and __cpu_features__.get(t)]


_DIGESTS_WITHOUT_SIMD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import test_decisions_pinned as t
print(json.dumps([t._active_simd_targets(), t.decisions_digest(),
                  t.n256_decisions_digest(), t.off_reference_decisions_digest()]))
"""


def test_decisions_do_not_depend_on_simd_dispatch():
    targets = _active_simd_targets()
    if not targets:
        pytest.skip(f"numpy dispatches to none of {', '.join(SIMD_TARGETS)} here")
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(p for p in (str(here.parent / "src"), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    proc = subprocess.run([sys.executable, "-c", _DIGESTS_WITHOUT_SIMD, str(here)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    still_active, *digests = json.loads(proc.stdout)
    assert still_active == []
    assert digests == [PINNED_DECISIONS_SHA256, PINNED_N256_DECISIONS_SHA256,
                       PINNED_OFF_REFERENCE_DECISIONS_SHA256]
