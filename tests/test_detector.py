import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sneakpath import (
    ChannelParams,
    SFPattern,
    classify_sf_pattern,
    compute_sp_indicators,
    detect_array,
    detect_baseline,
    detect_non_sf,
    estimate_sp_types,
    resistance_map,
    sample_data,
    sample_instance,
    sample_readout,
)
from sneakpath.baseline import optimal_threshold
from sneakpath.bounds import SFCountDistribution
from sneakpath.detector import (
    CASE_ALL_CLEAR,
    CASE_ALL_COMPLETE,
    CASE_MIXED,
    PATTERN_DOUBLE,
    PATTERN_NONE,
    PATTERN_SINGLE,
    SPTypeEstimate,
    _cell_terms,
    _exponent_fields,
    _line_types,
    _log_mix,
    double_sf_candidates,
    locate_single_sf,
    refine_uncertain_pairs,
    resolve_pairing,
    uncertain_pair_llr,
)
from sneakpath.instances import ALL_KINDS, KIND_DOUBLE_11, KIND_SINGLE, make_case_instance


def rng_of(seed):
    return np.random.default_rng(seed)


def make_estimate(row_types, col_types):
    z = np.zeros(len(row_types))
    return SPTypeEstimate(
        row_types=np.asarray(row_types, float),
        col_types=np.asarray(col_types, float),
        presence_llr_rows=z, presence_llr_cols=z,
        completeness_llr_rows=z, completeness_llr_cols=z,
        sneak_llr=np.zeros((len(row_types), len(col_types))),
    )


def mixture_density(y, a, b, c, params):
    """Unnormalized three-component mixture at the readout levels."""
    return np.exp(_log_mix(_exponent_fields(np.asarray(y, dtype=float), params), a, b, c))


def presence_llr(y_line, params):
    """First-pass LLR of one line: its presence terms summed."""
    fields = _exponent_fields(np.asarray(y_line, dtype=float), params)
    return float(np.sum(_cell_terms(fields, params.q)[0]))


def completeness_llr(y_line, crossing_flags, params):
    """Second-pass LLR of one line: completeness terms weighted by 2 x flags."""
    fields = _exponent_fields(np.asarray(y_line, dtype=float), params)
    weights = 2.0 * np.asarray(crossing_flags, dtype=float)
    return float(np.sum(weights * _cell_terms(fields, params.q)[1]))


class TestMixtureDensity:
    def test_peaks(self, ref_params):
        # Component kernels peak at 1.
        assert mixture_density(100.0, 1.0, 0.0, 0.0, ref_params) == pytest.approx(1.0, rel=1e-12)
        assert mixture_density(1000.0, 0.0, 1.0, 0.0, ref_params) == pytest.approx(1.0, rel=1e-12)

    def test_midpoint_value(self, ref_params):
        # 0.5 e^{-112.5} + 0.5 e^{-112.5} at equal distance 450 with sigma 30.
        got = mixture_density(550.0, 0.5, 0.5, 0.0, ref_params)
        assert got == pytest.approx(1.3863432936411706e-49, rel=1e-12)


class TestTypeLLRs:
    def test_matrix_matches_vector_ops(self, ref_params):
        rng = rng_of(0)
        y = rng.normal(500.0, 300.0, (12, 12))
        est = estimate_sp_types(y, ref_params)
        flags_rows = (est.presence_llr_rows >= 0).astype(float) / 2.0
        flags_cols = (est.presence_llr_cols >= 0).astype(float) / 2.0
        for n in range(12):
            assert est.presence_llr_cols[n] == pytest.approx(presence_llr(y[:, n], ref_params), rel=1e-12)
            assert est.completeness_llr_cols[n] == pytest.approx(
                completeness_llr(y[:, n], flags_rows, ref_params), rel=1e-12)
        for m in range(12):
            assert est.presence_llr_rows[m] == pytest.approx(presence_llr(y[m, :], ref_params), rel=1e-12)
            assert est.completeness_llr_rows[m] == pytest.approx(
                completeness_llr(y[m, :], flags_cols, ref_params), rel=1e-12)

    @pytest.mark.parametrize("shape", [(256, 256), (250, 250), (400, 130)])
    def test_row_tiles_match_one_pass(self, shape):
        params = ChannelParams(sigma=100.0)
        y = rng_of(2).normal(500.0, 350.0, shape)
        t1, t2, sneak = _cell_terms(_exponent_fields(y, params), params.q)
        est = estimate_sp_types(y, params)
        assert np.array_equal(est.sneak_llr, sneak)
        assert np.array_equal(est.presence_llr_rows, t1.sum(axis=1))
        assert np.array_equal(est.presence_llr_cols, t1.sum(axis=0))
        flags_rows = (t1.sum(axis=1) >= 0.0).astype(float)
        flags_cols = (t1.sum(axis=0) >= 0.0).astype(float)
        assert np.array_equal(est.completeness_llr_cols, flags_rows @ t2)
        assert np.array_equal(est.completeness_llr_rows, t2 @ flags_cols)

    def test_presence_invariant_under_permutation(self, ref_params):
        rng = rng_of(1)
        y = rng.normal(400.0, 250.0, 32)
        perm = rng.permutation(32)
        assert presence_llr(y, ref_params) == pytest.approx(
            presence_llr(y[perm], ref_params), rel=1e-12)

    def test_no_flags_no_completeness_evidence(self, ref_params):
        y = rng_of(2).normal(500.0, 200.0, 16)
        assert completeness_llr(y, np.zeros(16), ref_params) == 0.0

    def test_presence_sign_separates_models(self, ref_params):
        # One-support columns give positive evidence, clear columns negative,
        # each at least 99% of the time at this size and noise level.
        rng = rng_of(3)
        n, trials = 128, 400
        hits_pos = hits_neg = 0
        for _ in range(trials):
            u = rng.random(n)
            lvl = np.where(u < 0.5, 100.0, np.where(u < 0.75, 1000.0, 200.0))
            y = lvl + rng.normal(0, 30.0, n)
            hits_pos += presence_llr(y, ref_params) > 0
            lvl = np.where(rng.random(n) < 0.5, 100.0, 1000.0)
            y = lvl + rng.normal(0, 30.0, n)
            hits_neg += presence_llr(y, ref_params) < 0
        assert hits_pos / trials > 0.99
        assert hits_neg / trials > 0.99

    def test_completeness_sign_separates_models(self, ref_params):
        rng = rng_of(4)
        n, trials = 128, 400
        flags = np.zeros(n)
        flags[: n // 2] = 0.5
        hits_pos = hits_neg = 0
        for _ in range(trials):
            u = rng.random(n)
            lvl_full = np.where(u < 0.5, 100.0, 200.0)
            y = lvl_full + rng.normal(0, 30.0, n)
            hits_pos += completeness_llr(y, flags, ref_params) > 0
            u = rng.random(n)
            lvl_part = np.where(u < 0.5, 100.0, np.where(u < 0.75, 1000.0, 200.0))
            y = lvl_part + rng.normal(0, 30.0, n)
            hits_neg += completeness_llr(y, flags, ref_params) < 0
        assert hits_pos / trials > 0.99
        assert hits_neg / trials > 0.99


class TestDecideTypes:
    def test_truth_table(self):
        rows = _line_types(np.array([-3.0, 2.0, 0.0]), np.array([5.0, -1.0, 0.0]))
        cols = _line_types(np.array([1.0, 1.0, -1.0]), np.array([-2.0, 0.0, 9.0]))
        assert rows.tolist() == [0.0, 0.5, 1.0]
        assert cols.tolist() == [0.5, 1.0, 0.0]


class TestPatternDeclaration:
    def test_all_clear(self):
        assert classify_sf_pattern(make_estimate([0, 0], [0, 0])) == PATTERN_NONE

    def test_single(self):
        assert classify_sf_pattern(make_estimate([0, 1], [1, 0])) == PATTERN_SINGLE

    def test_double_on_any_partial(self):
        assert classify_sf_pattern(make_estimate([0, 0.5], [1, 0])) == PATTERN_DOUBLE
        assert classify_sf_pattern(make_estimate([0, 0], [0.5, 1])) == PATTERN_DOUBLE

    def test_flagged_rows_and_columns_propose_alike(self):
        # The proposal treats rows and columns alike: one flagged line on
        # either axis allows the same failure count.
        assert (classify_sf_pattern(make_estimate([0, 1], [0, 0]))
                == classify_sf_pattern(make_estimate([0, 0], [0, 1])))


def _move_ones_to_sneak_level(y, x, col, rows, params):
    """Read the stored 1s of ``col`` in ``rows`` at the sneak-path level r0'.

    Enough such cells make the presence pass flag the column, although no
    selector has failed on it.
    """
    y = y.copy()
    y[rows, col] = params.r0_prime
    assert np.all(x[rows, col] == 1)
    return y


class TestFailureCountStepDown:
    # At sigma=20 each moved cell adds about +12 to its column's presence LLR
    # and each stored 0 about -0.7, so ten moved cells flag any column of 128.
    params = ChannelParams(sigma=20.0)

    def test_flagged_column_without_failure_declared_none(self):
        params = self.params
        rng = rng_of(16)
        x = sample_data(128, 0.5, rng)
        y = resistance_map(x, np.zeros_like(x), params) + rng.normal(0.0, params.sigma, x.shape)
        # Move the 1s of the busiest rows, so no moved cell sits on the row
        # that best matches a single-failure profile.
        ones = np.flatnonzero(x[:, 0] == 1)
        rows = ones[np.argsort(-x[ones].sum(axis=1), kind="stable")[:10]]
        y = _move_ones_to_sneak_level(y, x, 0, rows, params)
        # The transposed readout has a flagged row instead.
        for y_case, x_case in ((y, x), (y.T, x.T)):
            est = estimate_sp_types(y_case, params)
            assert classify_sf_pattern(est) != PATTERN_NONE
            res = detect_array(y_case, params)
            assert res.hypothesis.kind == PATTERN_NONE
            assert np.array_equal(res.x_hat, x_case)

    def test_spurious_partial_line_declared_single(self):
        params = self.params
        rng = rng_of(17)
        inst = make_case_instance(KIND_SINGLE, 128, 0.5, rng)
        (i, j), = inst.sf.pairs
        y = sample_readout(inst.x, inst.e, params, rng)
        # A clear column (it crosses the failed row at a 0) gets ten cells at
        # the sneak-path level; the completeness pass then calls it partial.
        col = int(np.flatnonzero(inst.x[i] == 0)[0])
        rows = np.flatnonzero((inst.x[:, col] == 1) & (np.arange(128) != i))[:10]
        y = _move_ones_to_sneak_level(y, inst.x, col, rows, params)
        est = estimate_sp_types(y, params)
        assert est.col_types[col] == 0.5
        assert classify_sf_pattern(est) == PATTERN_DOUBLE
        res = detect_array(y, params)
        assert res.hypothesis.kind == PATTERN_SINGLE
        assert res.hypothesis.locations == ((i, j),)
        # Every bit as the genie decodes it: r1 and r0' lie 2.5 sigma apart.
        genie = detect_non_sf(y, inst.sf.pairs, inst.x, params)
        assert np.array_equal(res.x_hat, genie)


class TestSymmetries:
    """Transposing or permuting the lines of a readout maps the decisions alike."""

    def test_transposed_readout_same_single_failure(self):
        # With the partial lines settled in one fixed order (rows first),
        # this readout is declared double at (0, 17), (12, 2) and its
        # transpose single at (2, 0), and the bit estimates differ in 34 bits.
        params = ChannelParams(sigma=150.0)
        _, sf, _, y = sample_instance(32, params, (0.5, 0.4, 0.1),
                                      np.random.default_rng([32, 34, 150, 5]))
        assert sf.pairs == ((0, 2),)
        res, res_t = detect_array(y, params), detect_array(y.T, params)
        assert res.hypothesis.kind == res_t.hypothesis.kind == PATTERN_SINGLE
        assert res.hypothesis.locations == ((0, 2),)
        assert res_t.hypothesis.locations == ((2, 0),)
        assert np.array_equal(res_t.x_hat, res.x_hat.T)

    @given(st.integers(8, 48), st.sampled_from([30.0, 100.0, 200.0, 350.0]),
           st.integers(0, 2**32 - 1))
    @settings(deadline=None, derandomize=True)
    def test_transpose_equivariant(self, n, sigma, seed):
        params = ChannelParams(sigma=sigma)
        _, _, _, y = sample_instance(n, params, (0.5, 0.4, 0.1), rng_of(seed))
        res, res_t = detect_array(y, params), detect_array(y.T, params)
        assert res_t.hypothesis.kind == res.hypothesis.kind
        assert sorted(res_t.hypothesis.locations) == sorted(
            (j, i) for i, j in res.hypothesis.locations)
        assert np.array_equal(res_t.x_hat, res.x_hat.T)

    @given(st.integers(8, 48), st.sampled_from([30.0, 100.0, 200.0, 350.0]),
           st.integers(0, 2**32 - 1))
    @settings(deadline=None, derandomize=True)
    def test_permutation_equivariant(self, n, sigma, seed):
        params = ChannelParams(sigma=sigma)
        rng = rng_of(seed)
        _, _, _, y = sample_instance(n, params, (0.5, 0.4, 0.1), rng)
        rows, cols = rng.permutation(n), rng.permutation(n)
        res = detect_array(y, params)
        res_p = detect_array(y[np.ix_(rows, cols)], params)
        # Line k of the permuted readout is line rows[k] (cols[k]) of y.
        new_row, new_col = np.argsort(rows), np.argsort(cols)
        assert res_p.hypothesis.kind == res.hypothesis.kind
        assert sorted(res_p.hypothesis.locations) == sorted(
            (int(new_row[i]), int(new_col[j])) for i, j in res.hypothesis.locations)
        assert np.array_equal(res_p.x_hat, res.x_hat[np.ix_(rows, cols)])


class TestSingleLocalization:
    def test_zero_residual_at_failure_row(self):
        params = ChannelParams(sigma=1e-6)
        rng = rng_of(5)
        inst = make_case_instance(KIND_SINGLE, 16, 0.5, rng)
        (i, j) = inst.sf.pairs[0]
        y = sample_readout(inst.x, inst.e, params, rng)
        est = make_estimate(np.zeros(16), inst.x[i, :].astype(float))
        col_levels = np.where(est.col_types == 1.0, params.r1, params.r0)
        resid = ((y - col_levels[None, :]) ** 2).sum(axis=1)
        assert resid[i] == pytest.approx(0.0, abs=1e-6)
        got_i, _, _, _ = locate_single_sf(y, est, params)
        assert got_i == i

    def test_library_instance_recovered(self):
        params = ChannelParams(sigma=1e-6)
        rng = rng_of(6)
        for _ in range(5):
            inst = make_case_instance(KIND_SINGLE, 24, 0.5, rng)
            y = sample_readout(inst.x, inst.e, params, rng)
            res = detect_array(y, params)
            assert res.hypothesis.kind == PATTERN_SINGLE
            assert res.hypothesis.locations == inst.sf.pairs


class TestDoubleCandidates:
    def test_tie_breaks_to_lower_index(self, ref_params):
        y = np.full((4, 4), 1000.0)
        y[1] = y[3] = [1000.0, 100.0, 1000.0, 100.0]
        est = make_estimate([0, 0, 0, 0], [0, 1, 0, 1])
        (i1, i2), _ = double_sf_candidates(y, est, ref_params)
        assert (i1, i2) == (1, 3)
        # Rows 0 and 2 tie as well; they come after the better-matching pair.
        y2 = np.full((4, 4), 1000.0)
        est2 = make_estimate([0, 0, 0, 0], [0, 0, 0, 0])
        (a, b), _ = double_sf_candidates(y2, est2, ref_params)
        assert (a, b) == (0, 1)

    def test_partial_rows_excluded(self, ref_params):
        y = np.full((4, 4), 1000.0)
        est = make_estimate([0.5, 0, 0.5, 0], [0, 0, 0, 0])
        (i1, i2), _ = double_sf_candidates(y, est, ref_params)
        assert {i1, i2} == {1, 3}


class TestPairLLR:
    def test_plugin_value(self, ref_params):
        y = np.zeros((2, 3))
        y[0] = [1000.0, 100.0, 550.0]
        y[1] = [100.0, 1000.0, 550.0]
        llr = uncertain_pair_llr(y, (0, 1), (0.0, 0.0), ref_params)
        s2 = 2.0 * ref_params.sigma**2
        assert llr[0] == pytest.approx(1620000.0 / s2, rel=1e-12)
        assert llr[1] == pytest.approx(-1620000.0 / s2, rel=1e-12)

    def test_equal_readings_cancel(self, ref_params):
        y = np.full((2, 4), 321.0)
        llr = uncertain_pair_llr(y, (0, 1), (1.0, 1.0), ref_params)
        assert np.allclose(llr, 0.0, atol=1e-12)

    def test_swap_negates(self, ref_params):
        rng = rng_of(7)
        y = rng.normal(500, 300, (6, 6))
        for types in ((0.0, 0.0), (1.0, 1.0), (1.0, 0.0)):
            a = uncertain_pair_llr(y.T, (2, 4), types, ref_params)
            b = uncertain_pair_llr(y.T, (4, 2), types[::-1], ref_params)
            assert np.allclose(a, -b, rtol=1e-12)


class TestPairing:
    def test_all_clear_plugin(self, ref_params):
        y = np.full((4, 4), 550.0)
        y[0, 0] = y[2, 2] = 100.0
        y[0, 2] = y[2, 0] = 1000.0
        est = make_estimate([0, 0, 0, 0], [0, 0, 0, 0])
        bits = np.zeros((2, 4), dtype=np.uint8)
        d = resolve_pairing(y, est, (0, 2), (0, 2), bits, bits, ref_params)
        assert d.case == CASE_ALL_CLEAR
        assert d.score == pytest.approx(1620000.0 / ref_params.sigma**2, rel=1e-12)
        assert d.chose_h0 and not d.tie

    def test_identical_pair_bits_tie_to_h1(self, ref_params):
        y = rng_of(8).normal(500, 200, (6, 6))
        est = make_estimate([1, 1, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0])
        same = np.ones((2, 6), dtype=np.uint8)
        d = resolve_pairing(y, est, (0, 1), (0, 1), same, same.T.copy().T, ref_params)
        assert d.case == CASE_ALL_COMPLETE
        assert d.score == 0.0
        assert d.tie and not d.chose_h0

    def test_mixed_case_pairs_by_class(self, ref_params):
        y = np.zeros((4, 4))
        bits = np.zeros((2, 4), dtype=np.uint8)
        est = make_estimate([1, 0, 0, 0], [0, 1, 0, 0])
        d = resolve_pairing(y, est, (0, 1), (0, 1), bits, bits, ref_params)
        assert d.case == CASE_MIXED and d.chose_h0  # full row 0 with clear col 0
        est = make_estimate([1, 0, 0, 0], [1, 0, 0, 0])
        d = resolve_pairing(y, est, (0, 1), (0, 1), bits, bits, ref_params)
        assert d.case == CASE_MIXED and not d.chose_h0

    def test_noiseless_mixed_instances_localized(self):
        params = ChannelParams(sigma=1e-6)
        rng = rng_of(9)
        for kind in ("double_cross_10", "double_cross_01"):
            for _ in range(4):
                inst = make_case_instance(kind, 20, 0.5, rng)
                y = sample_readout(inst.x, inst.e, params, rng)
                res = detect_array(y, params)
                assert set(res.hypothesis.locations) == set(inst.sf.pairs)
                assert res.hypothesis.case == CASE_MIXED


class TestRefinement:
    def test_no_partial_lines_passthrough(self, ref_params):
        y = rng_of(10).normal(500, 200, (8, 8))
        est = make_estimate([1, 1, 0, 0, 0, 0, 0, 0], [1, 1, 0, 0.5, 0, 0, 0, 0])
        row_llr = np.linspace(-2, 2, 8)
        col_llr = np.linspace(1, -1, 8)
        l2r, l2c = refine_uncertain_pairs(y, est, (0, 1), (0, 1), row_llr, col_llr, ref_params)
        assert np.array_equal(l2r, row_llr)
        assert np.array_equal(l2c, col_llr)

    def test_neutral_priors_passthrough(self, ref_params):
        y = rng_of(11).normal(500, 200, (8, 8))
        est = make_estimate([0, 0, 0.5, 0.5, 0, 0, 0, 0], [0, 0, 0.5, 0.5, 0, 0, 0, 0])
        row_llr = np.array([0.0, 0.0, 3.0, -1.0, 0, 0, 0, 0])
        col_llr = np.zeros(8)
        l2r, _ = refine_uncertain_pairs(y, est, (0, 1), (0, 1), row_llr, col_llr, ref_params)
        assert np.allclose(l2r, row_llr, atol=1e-12)

    def test_refinement_reduces_pair_errors(self):
        # Fully ambiguous double-failure instances: messages between row
        # pairs and column pairs must beat the isolated two-cell decisions.
        params = ChannelParams(sigma=100.0)
        rng = rng_of(12)
        first = refined = 0
        used = 0
        for _ in range(40):
            inst = make_case_instance(KIND_DOUBLE_11, 128, 0.5, rng)
            y = sample_readout(inst.x, inst.e, params, rng)
            res = detect_array(y, params)
            if set(res.hypothesis.locations) != set(inst.sf.pairs):
                continue
            used += 1
            est = estimate_sp_types(y, params)
            (i1, j1), (i2, j2) = res.hypothesis.locations
            ti = (float(est.row_types[i1]), float(est.row_types[i2]))
            tj = (float(est.col_types[j1]), float(est.col_types[j2]))
            row_llr = uncertain_pair_llr(y, (i1, i2), ti, params)
            col_llr = uncertain_pair_llr(y.T, (j1, j2), tj, params)
            l2r, l2c = refine_uncertain_pairs(y, est, (i1, i2), (j1, j2), row_llr, col_llr, params)
            unc = est.col_types == 0.5
            truth = inst.x[i1, unc] == 0
            first += int((truth != (row_llr[unc] > 0)).sum())
            refined += int((truth != (l2r[unc] > 0)).sum())
            unc_r = est.row_types == 0.5
            truth_c = inst.x[unc_r, j1] == 0
            first += int((truth_c != (col_llr[unc_r] > 0)).sum())
            refined += int((truth_c != (l2c[unc_r] > 0)).sum())
        assert used >= 30
        assert refined < first


class TestDoubleThreshold:
    def test_clear_cells_use_wide_threshold(self, ref_params):
        y = np.array([[551.0, 549.0], [100.0, 1000.0]])
        bits = detect_non_sf(y, (), None, ref_params)
        assert bits.tolist() == [[0, 1], [1, 0]]

    def test_sneak_capable_cells_use_tight_threshold(self, ref_params):
        n = 4
        x_sf = np.zeros((n, n), dtype=np.uint8)
        x_sf[0, :] = [1, 0, 1, 1]
        x_sf[:, 3] = [1, 0, 1, 0]
        y = np.full((n, n), 1000.0)
        y[2, 0] = 151.0   # sneak-capable: x_sf[0,0]=1 and x_sf[2,3]=1
        y[2, 1] = 149.0   # not sneak-capable (x_sf[0,1]=0): wide threshold
        bits = detect_non_sf(y, ((0, 3),), x_sf, ref_params)
        assert bits[2, 0] == 0
        assert bits[2, 1] == 1
        y[2, 0] = 149.0
        bits = detect_non_sf(y, ((0, 3),), x_sf, ref_params)
        assert bits[2, 0] == 1


class TestFullPipeline:
    def test_noiseless_exact_per_kind(self):
        params = ChannelParams(sigma=1e-6)
        rng = rng_of(13)
        for kind in ALL_KINDS:
            for _ in range(3):
                inst = make_case_instance(kind, 16, 0.5, rng)
                y = sample_readout(inst.x, inst.e, params, rng)
                res = detect_array(y, params)
                assert np.array_equal(res.x_hat, inst.x), kind
                assert set(res.hypothesis.locations) == set(inst.sf.pairs), kind

    def test_beats_single_threshold_at_high_noise(self):
        # Needs arrays big enough for reliable line classification; at very
        # small dimensions the failure-structure estimate is too noisy to
        # pay off against the plain threshold.
        params = ChannelParams(sigma=250.0)
        p = SFCountDistribution(0.5, 0.4, 0.1)
        threshold = optimal_threshold(params, p)
        rng = rng_of(14)
        prop = base = 0
        for _ in range(150):
            x, sf, e, y = sample_instance(128, params, p.as_tuple(), rng)
            prop += int((detect_array(y, params).x_hat != x).sum())
            base += int((detect_baseline(y, threshold) != x).sum())
        assert prop < base

    def test_ber_monotone_in_noise(self):
        from sneakpath.harness import ExperimentConfig, run_experiment
        cfg = ExperimentConfig(n=32, sigma_list=(30.0, 150.0, 300.0), trials=300,
                               detectors=("proposed",), seed=77)
        recs = run_experiment(cfg)
        bers = [r.ber for r in recs]
        assert bers[0] < bers[1] < bers[2]


class TestInputValidation:
    def _readout(self, shape):
        params = ChannelParams(sigma=30.0)
        x = sample_data(max(shape), params.q, rng_of(8))[:shape[0], :shape[1]]
        return sample_readout(x, np.zeros_like(x), params, rng_of(9)), params

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_readout_rejected(self, bad):
        y, params = self._readout((64, 64))
        y[5, :] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            detect_array(y, params)

    def test_non_square_readout_rejected(self):
        y, params = self._readout((16, 24))
        with pytest.raises(ValueError, match="square"):
            detect_array(y, params)

    @pytest.mark.parametrize("shape", [(16,), (2, 8, 8)])
    def test_non_matrix_readout_rejected(self, shape):
        y = np.full(shape, 550.0)
        with pytest.raises(ValueError, match="square"):
            detect_array(y, ChannelParams(sigma=30.0))


class TestNumericalRobustness:
    @pytest.mark.parametrize("sigma", [1e-6, 1.0, 30.0, 400.0])
    def test_llr_surfaces_finite_on_adversarial_grid(self, sigma):
        params = ChannelParams(sigma=sigma)
        ks = np.concatenate([np.linspace(-1000, 1000, 401), [-1000.0, 1000.0]])
        for level in (params.r1, params.r0, params.r0_prime):
            y = level + ks * sigma
            fields = _exponent_fields(y, params)
            for surface in _cell_terms(fields, params.q):
                assert np.all(np.isfinite(surface))
            assert np.all(np.isfinite(_log_mix(fields, 0.5, 0.25, 0.25)))

    def test_pipeline_total_on_extreme_inputs(self):
        params = ChannelParams(sigma=30.0)
        rng = rng_of(15)
        y = rng.choice([100.0, 200.0, 1000.0, -3e4, 3e4, 550.0], size=(16, 16))
        res = detect_array(y, params)
        assert set(np.unique(res.x_hat)) <= {0, 1}
        assert np.all(np.isfinite(res.sp_types.presence_llr_rows))
        assert np.all(np.isfinite(res.sp_types.completeness_llr_cols))

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1e-6, 1e-3, 1.0, 30.0, 400.0]))
    @settings(max_examples=25, deadline=None)
    def test_pair_llr_and_messages_finite(self, seed, sigma):
        params = ChannelParams(sigma=sigma)
        rng = rng_of(seed)
        y = params.r1 + rng.uniform(-1000.0, 1000.0, (8, 8)) * sigma
        est = make_estimate([0, 1, 0.5, 0.5, 0, 0, 0, 0], [1, 0, 0.5, 0.5, 0, 0, 0, 0])
        row_llr = uncertain_pair_llr(y, (0, 1), (0.0, 1.0), params)
        col_llr = uncertain_pair_llr(y.T, (0, 1), (1.0, 0.0), params)
        assert np.all(np.isfinite(row_llr)) and np.all(np.isfinite(col_llr))
        l2r, l2c = refine_uncertain_pairs(y, est, (0, 1), (0, 1), row_llr, col_llr, params)
        assert np.all(np.isfinite(l2r)) and np.all(np.isfinite(l2c))
