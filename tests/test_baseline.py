import math

import numpy as np
import pytest
from scipy.special import erfc

from sneakpath import ChannelParams, SFCountDistribution, SFPattern, compute_sp_indicators, detect_baseline
from sneakpath.baseline import marginal_error, optimal_threshold
from sneakpath.channel import resistance_map

PA = SFCountDistribution(0.5, 0.4, 0.1)
NO_SF = SFCountDistribution(1.0, 0.0, 0.0)

SEARCH_PRIORS = [PA, SFCountDistribution(0.2, 0.3, 0.5), NO_SF, SFCountDistribution(0.0, 0.0, 1.0)]
SEARCH_SIGMAS = np.geomspace(1e-3, 5e3, 74)


def full_grid_threshold(params, p):
    """Reference: first minimum of the error over every grid point.

    The error is :func:`marginal_error`'s formula with its tails taken from
    ``scipy.special.erfc``, independent of the package's own erfc.
    """
    ts = np.linspace(params.r1, params.r0, 180001)

    def tail(x):
        return 0.5 * erfc(x / math.sqrt(2.0))

    q, sig = params.q, params.sigma
    psp = p.sp_potential_probability(q)
    err = q * tail((ts - params.r1) / sig) + (1.0 - q) * (
        (1.0 - psp) * tail((params.r0 - ts) / sig) + psp * tail((params.r0_prime - ts) / sig))
    return ts[np.argmin(err)]


class TestThresholdChoice:
    def test_symmetric_two_level_case(self, ref_params):
        # No sneak-path mass and even priors: midpoint of the two levels.
        assert optimal_threshold(ref_params, NO_SF) == pytest.approx(550.0, abs=0.01)

    def test_stationarity_at_grid_minimum(self):
        params = ChannelParams(sigma=150.0)
        t = optimal_threshold(params, PA)
        h = 0.005  # grid resolution
        here = marginal_error(t, params, PA)
        assert here <= marginal_error(t - h, params, PA) + 1e-15
        assert here <= marginal_error(t + h, params, PA) + 1e-15
        # Central difference vanishes at the resolution scale.
        slope = (marginal_error(t + h, params, PA) - marginal_error(t - h, params, PA)) / (2 * h)
        curv = (marginal_error(t + h, params, PA) - 2 * here + marginal_error(t - h, params, PA)) / h**2
        assert abs(slope) <= abs(curv) * h + 1e-12

    def test_low_noise_squeezes_between_levels(self):
        # With small noise the best single threshold separates the LRS level
        # from the sneak-path level, recovering everything.
        params = ChannelParams(sigma=20.0)
        t = optimal_threshold(params, PA)
        assert params.r1 < t < params.r0_prime

    def test_high_noise_gives_up_on_sneak_cells(self):
        params = ChannelParams(sigma=200.0)
        t = optimal_threshold(params, PA)
        assert params.r0_prime < t < params.r0


class TestThresholdSearch:
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("p", SEARCH_PRIORS)
    def test_bracketed_search_matches_full_grid(self, q, p):
        for sigma in SEARCH_SIGMAS:
            params = ChannelParams(sigma=float(sigma), q=q)
            assert optimal_threshold(params, p) == full_grid_threshold(params, p), sigma


class TestDetection:
    def _noiseless_instance(self, demo_x, params):
        e = compute_sp_indicators(demo_x, SFPattern(((0, 3),)))
        return e, resistance_map(demo_x, e, params)

    def test_midgap_threshold_misreads_sneak_cells(self, demo_x, ref_params):
        e, y = self._noiseless_instance(demo_x, ref_params)
        bits = detect_baseline(y, 550.0)
        wrong = bits != demo_x
        assert np.array_equal(wrong, e == 1)  # exactly the sneak cells flip

    def test_low_threshold_recovers_everything(self, demo_x, ref_params):
        e, y = self._noiseless_instance(demo_x, ref_params)
        for t in (150.0, 120.0, 199.0):
            bits = detect_baseline(y, t)
            assert np.array_equal(bits, demo_x)

    def test_decision_convention(self):
        y = np.array([[551.0, 549.0]])
        bits = detect_baseline(y, 550.0)
        assert bits.tolist() == [[0, 1]]

    def test_threshold_recomputed_per_noise_level(self):
        t_low = optimal_threshold(ChannelParams(sigma=20.0), PA)
        t_high = optimal_threshold(ChannelParams(sigma=250.0), PA)
        assert abs(t_low - t_high) > 100.0
