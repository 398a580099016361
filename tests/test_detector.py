import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_lines import candidate_row_scores, failed_row_residuals
from oracle_llr import (
    candidate_mixtures,
    completeness_llr,
    mixture_density,
    presence_llr,
    sneak_llr,
)
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
from sneakpath.bounds import SFCountDistribution, thresholds
from sneakpath import detector
from sneakpath.detector import (
    CASE_ALL_CLEAR,
    CASE_ALL_COMPLETE,
    CASE_FALLBACK,
    CASE_MIXED,
    PATTERN_DOUBLE,
    PATTERN_NONE,
    PATTERN_SINGLE,
    SPTypeEstimate,
    _candidate_mixtures,
    _cell_terms,
    _log_kernel,
    _messages_to_row_pair,
    _softplus,
    double_sf_candidates,
    locate_single_sf,
    refine_uncertain_pairs,
    resolve_pairing,
    uncertain_pair_llr,
)
from sneakpath.instances import (
    ALL_KINDS,
    KIND_DOUBLE_11,
    KIND_NO_SF,
    KIND_SINGLE,
    _noiseless_view,
    make_case_instance,
    make_case_library,
)
from sneakpath.structure import COMPLETE, INCOMPLETE, NON_SP


def rng_of(seed):
    return np.random.default_rng(seed)


def make_estimate(row_types, col_types, sneak=None):
    return SPTypeEstimate(
        row_types=np.asarray(row_types, float),
        col_types=np.asarray(col_types, float),
        sneak_llr=np.zeros((len(row_types), len(col_types))) if sneak is None else sneak,
    )


def reference_types(presence, completeness):
    """Line classes from the reference's line sums, by the detector's rule."""
    return [0.0 if p < 0.0 else 0.5 if c < 0.0 else 1.0 for p, c in zip(presence, completeness)]


def detector_presence(y_line, params):
    """The detector's presence LLR of one line: its per-cell terms summed."""
    return float(_cell_terms(np.asarray(y_line, dtype=float), params)[0].sum())


def detector_completeness(y_line, crossing_flags, params):
    """The detector's completeness LLR of one line, weighted by 2 x flags."""
    weights = 2.0 * np.asarray(crossing_flags, dtype=float)
    return float(weights @ _cell_terms(np.asarray(y_line, dtype=float), params)[1])


def assert_same_line_llr(got, ref):
    assert got == pytest.approx(ref, rel=1e-12, abs=1e-9)


class TestMixtureDensity:
    def test_peaks(self, ref_params):
        # Component kernels peak at 1, in the reference and in the detector.
        assert mixture_density(100.0, 1.0, 0.0, 0.0, ref_params) == pytest.approx(1.0, rel=1e-12)
        assert mixture_density(1000.0, 0.0, 1.0, 0.0, ref_params) == pytest.approx(1.0, rel=1e-12)
        assert _log_kernel(np.array([100.0]), ref_params.r1, ref_params) == 0.0
        assert _log_kernel(np.array([1000.0]), ref_params.r0, ref_params) == 0.0

    def test_midpoint_value(self, ref_params):
        # 0.5 e^{-112.5} + 0.5 e^{-112.5} at equal distance 450 with sigma 30.
        got = mixture_density(550.0, 0.5, 0.5, 0.0, ref_params)
        assert got == pytest.approx(1.3863432936411706e-49, rel=1e-12)
        # The detector's mix10 is the same mixture; at y = 150, halfway
        # between r1 and r0', mix1p = mix10 + gain is -50^2 / (2 * 30^2).
        mix10, gain = _candidate_mixtures(np.array([550.0, 150.0]), ref_params)
        assert math.exp(mix10[0]) == pytest.approx(1.3863432936411706e-49, rel=1e-12)
        assert mix10[1] + gain[1] == pytest.approx(-2500.0 / 1800.0, rel=1e-12)


class TestTypeLLRs:
    @pytest.mark.parametrize("sigma", [30.0, 100.0, 350.0])
    def test_kernel_matches_reference(self, sigma):
        params = ChannelParams(sigma=sigma)
        y = rng_of(int(sigma)).normal(500.0, 350.0, (12, 12))
        presence, completeness, sneak = _cell_terms(y, params)
        np.testing.assert_allclose(sneak, sneak_llr(y, params), rtol=1e-12, atol=1e-10)
        mix10, mix1p = candidate_mixtures(y, params)
        got_mix10, got_gain = _candidate_mixtures(y, params)
        np.testing.assert_allclose(got_mix10, mix10, rtol=1e-12, atol=1e-10)
        np.testing.assert_allclose(got_gain, mix1p - mix10, rtol=1e-12, atol=1e-10)
        # Line sums: presence over each line, completeness weighted by the
        # crossing lines' presence flags (as 2 x flags in the reference).
        ref_rows = [presence_llr(y[m], params) for m in range(12)]
        ref_cols = [presence_llr(y[:, n], params) for n in range(12)]
        assert presence.sum(axis=1) == pytest.approx(ref_rows, rel=1e-12)
        assert presence.sum(axis=0) == pytest.approx(ref_cols, rel=1e-12)
        flags_rows = (np.array(ref_rows) >= 0).astype(float)
        flags_cols = (np.array(ref_cols) >= 0).astype(float)
        ref_comp_rows = [completeness_llr(y[m], flags_cols / 2.0, params) for m in range(12)]
        ref_comp_cols = [completeness_llr(y[:, n], flags_rows / 2.0, params) for n in range(12)]
        assert completeness @ flags_cols == pytest.approx(ref_comp_rows, rel=1e-12)
        assert flags_rows @ completeness == pytest.approx(ref_comp_cols, rel=1e-12)
        est = estimate_sp_types(y, params)
        assert est.row_types.tolist() == reference_types(ref_rows, ref_comp_rows)
        assert est.col_types.tolist() == reference_types(ref_cols, ref_comp_cols)
        assert np.array_equal(est.sneak_llr, sneak)

    @pytest.mark.parametrize("q", [0.5, 0.3])
    def test_cell_terms_equal_two_softplus_terms(self, q):
        # At q = 1/2 the presence and completeness terms share one softplus
        # tail; either way they equal the two-softplus formulas bit for bit.
        params = ChannelParams(sigma=30.0, q=q)
        y = np.concatenate([rng_of(4).normal(500.0, 350.0, 4000),
                            np.linspace(-3000.0, 4000.0, 7001),
                            [params.r1, params.r0, params.r0_prime]])
        presence, completeness, sneak = _cell_terms(y, params)
        c = math.log((1.0 - q) / q)
        assert np.abs(sneak).max() > 50.0  # the softplus clip is reached
        assert np.array_equal(presence, _softplus(sneak - c) + math.log1p(-q))
        assert np.array_equal(completeness, math.log(2.0) - _softplus(-sneak))

    def test_presence_invariant_under_permutation(self, ref_params):
        rng = rng_of(1)
        y = rng.normal(400.0, 250.0, 32)
        perm = rng.permutation(32)
        for presence in (detector_presence, presence_llr):
            assert presence(y, ref_params) == pytest.approx(
                presence(y[perm], ref_params), rel=1e-12)
        assert_same_line_llr(detector_presence(y, ref_params), presence_llr(y, ref_params))

    def test_no_flags_no_completeness_evidence(self, ref_params):
        y = rng_of(2).normal(500.0, 200.0, 16)
        assert detector_completeness(y, np.zeros(16), ref_params) == 0.0
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
            got = detector_presence(y, ref_params)
            assert_same_line_llr(got, presence_llr(y, ref_params))
            hits_pos += got > 0
            lvl = np.where(rng.random(n) < 0.5, 100.0, 1000.0)
            y = lvl + rng.normal(0, 30.0, n)
            got = detector_presence(y, ref_params)
            assert_same_line_llr(got, presence_llr(y, ref_params))
            hits_neg += got < 0
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
            got = detector_completeness(y, flags, ref_params)
            assert_same_line_llr(got, completeness_llr(y, flags, ref_params))
            hits_pos += got > 0
            u = rng.random(n)
            lvl_part = np.where(u < 0.5, 100.0, np.where(u < 0.75, 1000.0, 200.0))
            y = lvl_part + rng.normal(0, 30.0, n)
            got = detector_completeness(y, flags, ref_params)
            assert_same_line_llr(got, completeness_llr(y, flags, ref_params))
            hits_neg += got < 0
        assert hits_pos / trials > 0.99
        assert hits_neg / trials > 0.99


class TestDecideTypes:
    @staticmethod
    def row_classes(monkeypatch, presence, completeness):
        """Row classes of an estimate whose rows sum to ``presence`` in the
        first pass and to ``completeness`` in the second.

        The presence terms sit on the diagonal, so each line's presence is
        the same on both axes, and the completeness terms fill the first
        column flagged present.
        """
        t1 = np.diag(presence)
        t2 = np.zeros_like(t1)
        t2[:, np.flatnonzero(np.asarray(presence) >= 0.0)[0]] = completeness
        monkeypatch.setattr(detector, "_cell_terms", lambda y, params: (t1, t2, t1))
        return estimate_sp_types(t1, ChannelParams(sigma=30.0)).row_types

    def test_truth_table(self, monkeypatch):
        # Class 0 when the presence sum is negative; otherwise partial when
        # the completeness sum is negative.  Zero sums go to the stronger class.
        rows = self.row_classes(monkeypatch, [-3.0, 2.0, 0.0], [5.0, -1.0, 0.0])
        cols = self.row_classes(monkeypatch, [1.0, 1.0, -1.0], [-2.0, 0.0, 9.0])
        assert rows.tolist() == [NON_SP, INCOMPLETE, COMPLETE]
        assert cols.tolist() == [INCOMPLETE, COMPLETE, NON_SP]

    def test_library_classes_are_the_noiseless_view(self):
        # The case library screens instances on the classes the detector
        # would read at vanishing noise; the detector must read exactly those.
        params = ChannelParams(sigma=1e-6)
        rng = rng_of(402)
        library = make_case_library()
        for inst in library:
            est = estimate_sp_types(sample_readout(inst.x, inst.e, params, rng), params)
            rows, cols = _noiseless_view(inst.x, inst.e)
            assert np.array_equal(est.row_types, rows), inst.kind
            assert np.array_equal(est.col_types, cols), inst.kind
        assert len(library) == 612


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
    """Transposing or permuting the lines of a readout maps the decisions alike.

    The properties draw q off 1/2 too, where the level LLRs carry a prior shift.
    """

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
           st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 2**32 - 1))
    @settings(deadline=None, derandomize=True)
    def test_transpose_equivariant(self, n, sigma, q, seed):
        params = ChannelParams(sigma=sigma, q=q)
        _, _, _, y = sample_instance(n, params, (0.5, 0.4, 0.1), rng_of(seed))
        res, res_t = detect_array(y, params), detect_array(y.T, params)
        assert res_t.hypothesis.kind == res.hypothesis.kind
        assert sorted(res_t.hypothesis.locations) == sorted(
            (j, i) for i, j in res.hypothesis.locations)
        assert np.array_equal(res_t.x_hat, res.x_hat.T)

    @given(st.integers(8, 48), st.sampled_from([30.0, 100.0, 200.0, 350.0]),
           st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 2**32 - 1))
    @settings(deadline=None, derandomize=True)
    def test_permutation_equivariant(self, n, sigma, q, seed):
        params = ChannelParams(sigma=sigma, q=q)
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


def _class_patterns(est, rng):
    """(label, row classes, column classes): the estimate's own and forced ones."""
    n = est.row_types.size
    classes = np.array([0.0, 0.5, 1.0])
    yield "estimated", est.row_types, est.col_types
    yield "random", rng.choice(classes, n), rng.choice(classes, n)
    yield "no partial column", rng.choice(classes, n), rng.choice(classes[[0, 2]], n)
    few = np.full(n, 0.5)
    few[rng.integers(n)] = rng.choice(classes[[0, 2]])
    yield "under two eligible rows", few, rng.choice(classes, n)
    yield "every column partial", rng.choice(classes, n), np.full(n, 0.5)


def _near(a, b) -> bool:
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def _assert_failed_line(got, resid, eligible, label):
    order = eligible[np.argsort(resid[eligible], kind="stable")]
    if got != order[0]:
        assert order.size > 1 and got == order[1] and _near(resid[order[0]], resid[order[1]]), label


def _assert_candidate_pair(got, scores, eligible, label):
    order = eligible[np.argsort(-scores[eligible], kind="stable")]
    want = (int(order[0]), int(order[1]))
    if _near(scores[order[0]], scores[order[1]]):
        assert set(got) == set(want), label
    else:
        assert got == want, label


class TestLineScoresMatchReference:
    """The mat-vec line scores pick the lines of the per-line reference scores."""

    @pytest.mark.parametrize("n", [8, 33, 128])
    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("sigma", [30.0, 150.0, 350.0])
    def test_same_lines_as_reference(self, n, q, sigma):
        params = ChannelParams(sigma=sigma, q=q)
        rng = rng_of([n, int(100 * q), int(sigma)])
        for _ in range(3):
            _, _, _, y = sample_instance(n, params, (0.2, 0.3, 0.5), rng)
            est = estimate_sp_types(y, params)
            for label, row_types, col_types in _class_patterns(est, rng):
                e = SPTypeEstimate(row_types, col_types, est.sneak_llr)
                i, j, _, _ = locate_single_sf(y, e, params)
                _assert_failed_line(i, *failed_row_residuals(y, row_types, col_types, params), label)
                _assert_failed_line(j, *failed_row_residuals(y.T, col_types, row_types, params), label)
                rows, cols = double_sf_candidates(y, e, params)
                _assert_candidate_pair(rows, *candidate_row_scores(y, row_types, col_types, params),
                                       label)
                _assert_candidate_pair(cols, *candidate_row_scores(y.T, col_types, row_types, params),
                                       label)


class TestLineFieldsBuiltOnce:
    """Both axes and both localizations share one build of each per-array field."""

    @pytest.mark.parametrize("q", [0.2, 0.5])
    @pytest.mark.parametrize("kind, proposal, kernel_builds, mixture_builds", [
        (KIND_NO_SF, PATTERN_NONE, 0, 0),
        (KIND_SINGLE, PATTERN_SINGLE, 1, 0),
        (KIND_DOUBLE_11, PATTERN_DOUBLE, 1, 1),
    ])
    def test_builds_per_proposal(self, monkeypatch, q, kind, proposal, kernel_builds,
                                 mixture_builds):
        calls = {"_line_kernels": 0, "_candidate_mixtures": 0}

        def counting(name):
            build = getattr(detector, name)

            def counted(*args):
                calls[name] += 1
                return build(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(detector, name, counting(name))
        params = ChannelParams(sigma=1e-6, q=q)
        rng = rng_of([17, int(10 * q)])
        inst = make_case_instance(kind, 16, q, rng)
        y = sample_readout(inst.x, inst.e, params, rng)
        assert classify_sf_pattern(estimate_sp_types(y, params)) == proposal
        detect_array(y, params)
        assert calls == {"_line_kernels": kernel_builds, "_candidate_mixtures": mixture_builds}


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


def pairing(y, est, i_pair, j_pair, params):
    """``resolve_pairing`` on the pair LLRs the detector would pass it."""
    row_llr = uncertain_pair_llr(y, i_pair, est.row_types[list(i_pair)], params)
    col_llr = uncertain_pair_llr(y.T, j_pair, est.col_types[list(j_pair)], params)
    return resolve_pairing(y, est, i_pair, j_pair, row_llr, col_llr, params)


class TestPairing:
    def test_all_clear_plugin(self, ref_params):
        # The primary pairing wins on the all-clear readout.
        y = np.full((4, 4), 550.0)
        y[0, 0] = y[2, 2] = 100.0
        y[0, 2] = y[2, 0] = 1000.0
        est = make_estimate([0, 0, 0, 0], [0, 0, 0, 0])
        assert pairing(y, est, (0, 2), (0, 2), ref_params) == (True, CASE_ALL_CLEAR, False)

    @pytest.mark.parametrize("ti, tj, case", [
        ((0, 0), (0, 0), CASE_ALL_CLEAR),
        ((1, 0), (0, 1), CASE_MIXED),
        ((1, 1), (1, 1), CASE_ALL_COMPLETE),
        ((1, 0), (1, 1), CASE_FALLBACK),
    ])
    def test_swapping_column_pair_flips_choice(self, ti, tj, case, ref_params):
        rest = [0.5, 0.5, 0.5, 0.0, 1.0, 0.5]
        est = make_estimate([*ti, *rest], [*tj, *rest])
        decided = 0
        for seed in range(8):
            y = rng_of(seed).uniform(0.0, 1200.0, (8, 8))
            chose_h0, got_case, tie = pairing(y, est, (0, 1), (0, 1), ref_params)
            assert got_case == case
            # A tie stays a tie and goes to h1 either way.
            swapped = (not chose_h0 and not tie, case, tie)
            assert pairing(y, est, (0, 1), (1, 0), ref_params) == swapped
            decided += not tie
        assert decided >= 4

    def test_all_equal_readout_ties(self, ref_params):
        y = np.full((4, 4), 550.0)
        est = make_estimate([0, 0, 0, 0], [0, 0, 0, 0])
        assert pairing(y, est, (0, 2), (0, 2), ref_params) == (False, CASE_ALL_CLEAR, True)

    def test_identical_pair_bits_tie_to_h1(self, ref_params):
        # No ambiguous crossing, so both pairs' bits agree on every line.
        y = rng_of(8).normal(500, 200, (6, 6))
        est = make_estimate([1, 1, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0])
        assert pairing(y, est, (0, 1), (0, 1), ref_params) == (False, CASE_ALL_COMPLETE, True)

    def test_mixed_case_pairs_by_class(self, ref_params):
        y = np.zeros((4, 4))
        llr = np.zeros(4)
        est = make_estimate([1, 0, 0, 0], [0, 1, 0, 0])
        # Full row 0 pairs with clear column 0.
        assert resolve_pairing(y, est, (0, 1), (0, 1), llr, llr, ref_params)[:2] == (True, CASE_MIXED)
        est = make_estimate([1, 0, 0, 0], [1, 0, 0, 0])
        assert resolve_pairing(y, est, (0, 1), (0, 1), llr, llr, ref_params)[:2] == (False, CASE_MIXED)

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
        est = make_estimate([1, 1, 0, 0, 0, 0, 0, 0], [1, 1, 0, 0.5, 0, 0, 0, 0],
                            _cell_terms(y, ref_params)[2])
        row_llr = np.linspace(-2, 2, 8)
        col_llr = np.linspace(1, -1, 8)
        l2r, l2c = refine_uncertain_pairs(est, (0, 1), (0, 1), row_llr, col_llr)
        assert np.array_equal(l2r, row_llr)
        assert np.array_equal(l2c, col_llr)

    def test_neutral_priors_passthrough(self, ref_params):
        y = rng_of(11).normal(500, 200, (8, 8))
        est = make_estimate([0, 0, 0.5, 0.5, 0, 0, 0, 0], [0, 0, 0.5, 0.5, 0, 0, 0, 0],
                            _cell_terms(y, ref_params)[2])
        row_llr = np.array([0.0, 0.0, 3.0, -1.0, 0, 0, 0, 0])
        col_llr = np.zeros(8)
        l2r, _ = refine_uncertain_pairs(est, (0, 1), (0, 1), row_llr, col_llr)
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
            l2r, l2c = refine_uncertain_pairs(est, (i1, i2), (j1, j2), row_llr, col_llr)
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

    @pytest.mark.parametrize("q, sigma", [(0.2, 150.0), (0.5, 150.0), (0.8, 150.0), (0.8, 350.0)])
    def test_matches_per_cell_threshold_field(self, q, sigma):
        # At q = 0.8, sigma = 350 the tight threshold lies above the wide one.
        params = ChannelParams(sigma=sigma, q=q)
        gamma, gamma_prime = thresholds(params)
        assert (gamma_prime > gamma) == (q == 0.8 and sigma == 350.0)
        rng = rng_of([int(100 * q), int(sigma)])
        for _ in range(10):
            x, sf, _, y = sample_instance(24, params, (0.2, 0.3, 0.5), rng)
            capable = np.zeros(y.shape, dtype=bool)
            for (i, j) in sf.pairs:
                capable |= (x[:, j] == 1)[:, None] & (x[i, :] == 1)[None, :]
            want = (y <= np.where(capable, gamma_prime, gamma)).astype(np.uint8)
            for (i, j) in sf.pairs:
                want[i, :] = x[i, :]
                want[:, j] = x[:, j]
            got = detect_non_sf(y, sf.pairs, x, params)
            assert got.dtype == np.uint8 and np.array_equal(got, want)


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

    @pytest.mark.parametrize("shape", [(1, 1), (0, 0)])
    def test_readout_smaller_than_2x2_rejected(self, shape):
        y = np.full(shape, 550.0)
        with pytest.raises(ValueError, match="at least 2x2"):
            detect_array(y, ChannelParams(sigma=30.0))


class TestNumericalRobustness:
    @pytest.mark.parametrize("sigma", [1e-6, 1.0, 30.0, 400.0])
    def test_llr_surfaces_finite_on_adversarial_grid(self, sigma):
        params = ChannelParams(sigma=sigma)
        ks = np.concatenate([np.linspace(-1000, 1000, 401), [-1000.0, 1000.0]])
        for level in (params.r1, params.r0, params.r0_prime):
            y = level + ks * sigma
            terms = _cell_terms(y, params)
            sneak = terms[2]
            peak = float(np.max(np.abs(sneak)))
            messages = [_messages_to_row_pair(np.array([prior]), sneak[None, :])
                        for prior in (-peak, -1.0, 0.0, 1.0, peak)]
            for surface in (*terms, *_candidate_mixtures(y, params), *messages):
                assert np.all(np.isfinite(surface))

    def test_pipeline_total_on_extreme_inputs(self):
        params = ChannelParams(sigma=30.0)
        rng = rng_of(15)
        y = rng.choice([100.0, 200.0, 1000.0, -3e4, 3e4, 550.0], size=(16, 16))
        res = detect_array(y, params)
        assert set(np.unique(res.x_hat)) <= {0, 1}
        for surface in _cell_terms(y, params):
            assert np.all(np.isfinite(surface))

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1e-6, 1e-3, 1.0, 30.0, 400.0]))
    @settings(max_examples=25, deadline=None)
    def test_pair_llr_and_messages_finite(self, seed, sigma):
        params = ChannelParams(sigma=sigma)
        rng = rng_of(seed)
        y = params.r1 + rng.uniform(-1000.0, 1000.0, (8, 8)) * sigma
        est = make_estimate([0, 1, 0.5, 0.5, 0, 0, 0, 0], [1, 0, 0.5, 0.5, 0, 0, 0, 0],
                            _cell_terms(y, params)[2])
        row_llr = uncertain_pair_llr(y, (0, 1), (0.0, 1.0), params)
        col_llr = uncertain_pair_llr(y.T, (0, 1), (1.0, 0.0), params)
        assert np.all(np.isfinite(row_llr)) and np.all(np.isfinite(col_llr))
        l2r, l2c = refine_uncertain_pairs(est, (0, 1), (0, 1), row_llr, col_llr)
        assert np.all(np.isfinite(l2r)) and np.all(np.isfinite(l2c))
