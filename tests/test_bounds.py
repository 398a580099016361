import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from sneakpath import ChannelParams, SFCountDistribution, asymptotic_bound, ber_lower_bound, q_function, thresholds
from sneakpath.bounds import erfc, genie_error_symmetric

PA = SFCountDistribution(0.5, 0.4, 0.1)


def q_by_quadrature(x):
    val, _ = quad(lambda u: math.exp(-u * u / 2.0) / math.sqrt(2.0 * math.pi), x, np.inf)
    return val


class TestQFunction:
    def test_symmetry_point(self):
        assert q_function(0.0) == pytest.approx(0.5, abs=1e-12)

    def test_far_left_tail(self):
        assert q_function(-10.0) == pytest.approx(1.0, abs=1e-12)

    def test_reference_value(self):
        # 0.5*erfc(5/3/sqrt(2)) to 17 digits.
        assert q_function(5.0 / 3.0) == pytest.approx(0.047790352272814708, rel=1e-12)

    @pytest.mark.parametrize("x", [-3.0, -0.5, 0.3, 1.6667, 4.0, 7.5])
    def test_matches_quadrature(self, x):
        assert q_function(x) == pytest.approx(q_by_quadrature(x), rel=1e-10)

    def test_vectorized(self):
        xs = np.array([0.0, 1.0, 2.0])
        assert q_function(xs).shape == (3,)


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


# sqrt(MAXLOG): past it exp(-x^2) underflows and erfc is exactly 0 or 2.
UNDERFLOW_EDGE = math.sqrt(7.09782712893383996843e2)
EXACT_INPUTS = [0.0, 1.0, 8.0, 26.64, UNDERFLOW_EDGE, np.nextafter(1.0, 0.0), np.nextafter(8.0, 0.0),
                np.nextafter(UNDERFLOW_EDGE, np.inf), 5e-324, 1e300, np.inf]


class TestErfcMatchesScipy:
    """The in-repo erfc is SciPy's Cephes erfc, bit for bit."""

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (1.0, 8.0), (8.0, UNDERFLOW_EDGE), (UNDERFLOW_EDGE, 1e3)],
                             ids=["erf-series", "PQ-fit", "RS-fit", "underflow"])
    def test_each_branch(self, lo, hi):
        rng = np.random.default_rng(11)
        x = rng.uniform(lo, hi, 10**5) * rng.choice([-1.0, 1.0], 10**5)
        assert same_bits(erfc(x), special.erfc(x))
        assert same_bits(q_function(x), 0.5 * special.erfc(x / math.sqrt(2.0)))

    def test_exact_inputs(self):
        x = np.array(EXACT_INPUTS + [-v for v in EXACT_INPUTS])
        assert same_bits(erfc(x), special.erfc(x))
        assert same_bits(q_function(x), 0.5 * special.erfc(x / math.sqrt(2.0)))

    def test_nan_stays_nan(self):
        assert np.isnan(erfc(np.nan))
        assert np.isnan(q_function(np.nan))
        got = erfc(np.array([np.nan, 0.0, -np.nan]))
        assert np.isnan(got[[0, 2]]).all() and got[1] == 1.0

    def test_shapes(self):
        assert np.ndim(erfc(0.5)) == 0 and np.ndim(q_function(0.5)) == 0
        assert erfc(np.zeros((2, 3, 4))).shape == (2, 3, 4)
        assert q_function(np.zeros((3, 1))).shape == (3, 1)
        assert erfc(np.zeros(0)).shape == (0,)
        assert same_bits(erfc([[0.25, 2.5], [-9.0, 30.0]]), special.erfc([[0.25, 2.5], [-9.0, 30.0]]))


def test_import_loads_no_scipy():
    # The package runs on numpy alone; SciPy is a test dependency only.  The
    # process pool's modules load only when a sweep starts a pool.
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import sneakpath, sneakpath.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')"
             " or m == 'concurrent.futures.process'))")
    done = subprocess.run([sys.executable, "-c", probe, str(src)],
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.strip() == "[]"


class TestThresholds:
    def test_reference_pair(self, ref_params):
        gamma, gamma_prime = thresholds(ref_params)
        assert gamma == pytest.approx(550.0, abs=1e-9)
        assert gamma_prime == pytest.approx(150.0, abs=1e-9)

    def test_sigma_free_at_even_prior(self, ref_params):
        for sigma in (1.0, 30.0, 400.0):
            gamma, gamma_prime = thresholds(replace(ref_params, sigma=sigma))
            assert gamma == pytest.approx(550.0, abs=1e-9)
            assert gamma_prime == pytest.approx(150.0, abs=1e-9)

    def test_prior_shift_direction(self):
        # More stored 1s push both thresholds toward the HRS side, widening
        # the decide-1 region.
        base = thresholds(ChannelParams(sigma=30.0, q=0.5))
        skew = thresholds(ChannelParams(sigma=30.0, q=0.7))
        assert skew[0] > base[0]
        assert skew[1] > base[1]

    def test_ordering_invariant(self, ref_params):
        for sigma in (10.0, 30.0, 100.0):
            p = replace(ref_params, sigma=sigma)
            gamma, gamma_prime = thresholds(p)
            assert p.r1 < gamma_prime < p.r0_prime < gamma < p.r0


class TestSFCountDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            SFCountDistribution(0.5, 0.4, 0.2)
        with pytest.raises(ValueError):
            SFCountDistribution(-0.1, 0.6, 0.5)

    def test_sp_potential_probability(self):
        assert PA.sp_potential_probability(0.5) == pytest.approx(0.14375, abs=1e-15)
        assert SFCountDistribution(1.0, 0.0, 0.0).sp_potential_probability(0.5) == 0.0


class TestBounds:
    def test_no_failures_reduces_to_far_tail(self, ref_params):
        p0 = SFCountDistribution(1.0, 0.0, 0.0)
        gamma, _ = thresholds(ref_params)
        want = float(q_function((gamma - ref_params.r1) / ref_params.sigma))
        assert ber_lower_bound(128, p0, ref_params) == pytest.approx(want, rel=1e-15)
        assert asymptotic_bound(p0, ref_params) == pytest.approx(want, rel=1e-15)

    def test_reference_asymptote(self, ref_params):
        # 0.85625*Q(15) + 0.14375*Q(5/3) at sigma=30.
        assert asymptotic_bound(PA, ref_params) == pytest.approx(0.0068698631392171143, rel=1e-12)

    def test_large_array_limit(self, ref_params):
        # The finite-size correction scales as 2*k/N, so at N = 10^6 the gap
        # is ~2.6e-6 relative but well under 1e-6 absolute.
        fin = ber_lower_bound(10**6, PA, ref_params)
        asym = asymptotic_bound(PA, ref_params)
        assert fin == pytest.approx(asym, abs=1e-6)
        assert fin == pytest.approx(asym, rel=1e-5)

    def test_finite_below_asymptotic(self, ref_params):
        for sigma in (30.0, 150.0, 350.0):
            p = replace(ref_params, sigma=sigma)
            assert ber_lower_bound(128, PA, p) <= asymptotic_bound(PA, p)

    def test_monotone_in_noise(self, ref_params):
        values = [ber_lower_bound(128, PA, replace(ref_params, sigma=s))
                  for s in (30.0, 60.0, 120.0, 240.0, 480.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_matches_term_by_term_quadrature(self, ref_params):
        # Rebuild the bound from quadrature-evaluated tails.
        p = replace(ref_params, sigma=150.0)
        gamma, gamma_prime = thresholds(p)
        n = 128
        total = 0.0
        for k, pk in enumerate(PA.as_tuple()):
            frac = 1.0 - (2 * k * n - k * k) / n**2
            clear = (1 - p.q**2) ** k
            total += pk * frac * (
                clear * q_by_quadrature((gamma - p.r1) / p.sigma)
                + (1 - clear) * q_by_quadrature((gamma_prime - p.r1) / p.sigma)
            )
        assert ber_lower_bound(n, PA, p) == pytest.approx(total, rel=1e-9)

    def test_dimension_validated(self, ref_params):
        with pytest.raises(ValueError):
            ber_lower_bound(1, PA, ref_params)


class TestSymmetricDiagnostic:
    def test_coincides_at_even_prior(self, ref_params):
        for sigma in (30.0, 150.0):
            p = replace(ref_params, sigma=sigma)
            assert genie_error_symmetric(128, PA, p) == pytest.approx(
                ber_lower_bound(128, PA, p), rel=1e-12)

    def test_diverges_off_even_prior(self):
        p = ChannelParams(sigma=150.0, q=0.65)
        assert genie_error_symmetric(128, PA, p) != pytest.approx(
            ber_lower_bound(128, PA, p), rel=1e-6)
