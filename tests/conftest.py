import dataclasses

import numpy as np
import pytest

from sneakpath import ChannelParams

# 4x4 demo array used throughout; failure at (0, 3) puts sneak paths at
# (2, 1) and (3, 1).
DEMO_X = np.array(
    [[0, 1, 0, 1],
     [1, 0, 1, 0],
     [0, 0, 0, 1],
     [1, 0, 1, 1]],
    dtype=np.uint8,
)


@pytest.fixture
def demo_x():
    return DEMO_X.copy()


@pytest.fixture
def ref_params():
    """Reference physical constants: r0=1000, r1=100, rs=250, q=1/2."""
    return ChannelParams(sigma=30.0)


def near_noiseless(params: ChannelParams) -> ChannelParams:
    return dataclasses.replace(params, sigma=1e-6)
