import tracemalloc

import numpy as np
import pytest

from sneakpath import ChannelParams, SFPattern, compute_sp_indicators, sample_data
from sneakpath.channel import InfeasibleSFError, _sp_cells, place_sfs
from sneakpath import structure
from sneakpath.instances import make_case_library
from sneakpath.structure import (
    COMPLETE,
    EVENT_FORMS,
    INCOMPLETE,
    NON_SP,
    classify_line_types,
    estimate_event_frequency,
    event_probability,
    line_classes,
    sp_supports,
    verify_event_frequencies,
    verify_intersection_correspondence,
)


def rng_of(seed):
    return np.random.default_rng(seed)


def random_double_instance(n, q, rng):
    while True:
        x = sample_data(n, q, rng)
        try:
            sf = place_sfs(x, 2, rng)
        except InfeasibleSFError:
            continue
        return x, sf, compute_sp_indicators(x, sf)


class TestSupports:
    def test_demo_array(self, demo_x):
        sup = sp_supports(demo_x, SFPattern(((0, 3),)))
        # Failure row 0 holds a support at column 1; failure column 3 at rows 2, 3.
        assert np.array_equal(np.argwhere(sup.cells), [[0, 1], [2, 3], [3, 3]])
        assert sup.row_counts.tolist() == [1, 0, 1, 1]
        assert sup.col_counts.tolist() == [0, 1, 0, 2]

    def test_no_failures(self, demo_x):
        sup = sp_supports(demo_x, SFPattern(()))
        assert sup.cells.sum() == 0
        assert sup.row_counts.sum() == 0

    def test_saturated_array(self):
        x = np.ones((6, 6), dtype=np.uint8)
        sup = sp_supports(x, SFPattern(((2, 4),)))
        assert sup.row_counts[2] == 5
        assert sup.col_counts[4] == 5


class TestClassification:
    def test_no_failures_all_clear(self, demo_x):
        e = np.zeros_like(demo_x)
        types = classify_line_types(demo_x, e, SFPattern(()))
        assert np.all(types.row_types == NON_SP)
        assert np.all(types.col_types == NON_SP)

    def test_single_failure_never_partial(self):
        rng = rng_of(2)
        for _ in range(50):
            x = sample_data(12, 0.5, rng)
            try:
                sf = place_sfs(x, 1, rng)
            except InfeasibleSFError:
                continue
            e = compute_sp_indicators(x, sf)
            types = classify_line_types(x, e, sf)
            assert INCOMPLETE not in types.row_types
            assert INCOMPLETE not in types.col_types

    def test_single_failure_lines_clear(self):
        rng = rng_of(3)
        for _ in range(50):
            x = sample_data(12, 0.5, rng)
            sf = place_sfs(x, 1, rng)
            (i, j) = sf.pairs[0]
            e = compute_sp_indicators(x, sf)
            types = classify_line_types(x, e, sf)
            assert types.row_types[i] == NON_SP
            assert types.col_types[j] == NON_SP

    def test_handcrafted_partial_lines(self):
        # Two failures at (0,0) and (1,1); row 4 is supported only via
        # column 0, column 5 only via row 1, and they cross at a stored 0
        # that closes no path: both lines are partially affected.
        x = np.zeros((6, 6), dtype=np.uint8)
        for cell in [(0, 0), (1, 1), (4, 0), (0, 2), (2, 1), (1, 5)]:
            x[cell] = 1
        sf = SFPattern(((0, 0), (1, 1)))
        e = compute_sp_indicators(x, sf)
        types = classify_line_types(x, e, sf)
        assert types.row_types.tolist() == [0, 0, INCOMPLETE, 0, INCOMPLETE, 0]
        assert types.col_types.tolist() == [0, 0, INCOMPLETE, 0, 0, INCOMPLETE]

    def test_partial_lines_single_supported(self):
        # Deterministic half of the support-count correspondence.
        rng = rng_of(4)
        for _ in range(40):
            x, sf, e = random_double_instance(10, 0.5, rng)
            sup = sp_supports(x, sf)
            types = classify_line_types(x, e, sf)
            for m in np.flatnonzero(types.row_types == INCOMPLETE):
                assert sup.row_counts[m] == 1
            for n in np.flatnonzero(types.col_types == INCOMPLETE):
                assert sup.col_counts[n] == 1

    def test_sp_lines_are_supported(self):
        rng = rng_of(5)
        for _ in range(40):
            x, sf, e = random_double_instance(10, 0.4, rng)
            sup = sp_supports(x, sf)
            assert np.all(sup.cells.any(axis=1)[e.any(axis=1)])
            assert np.all(sup.cells.any(axis=0)[e.any(axis=0)])


class TestLineClasses:
    def test_batch_matches_per_array_and_critical_cells(self):
        # The reference is the module definition: a line with sneak-path
        # cells is partial iff it holds a plain-HRS critical cell, at the
        # crossing of a supported row and a supported column.
        rng = rng_of(10)
        xs, es, rows, cols = [], [], [], []
        for t in range(60):
            x = sample_data(9, (0.3, 0.5, 0.7)[t % 3], rng)
            try:
                sf = place_sfs(x, t % 3, rng)
            except InfeasibleSFError:
                continue
            e = compute_sp_indicators(x, sf)
            cells = sp_supports(x, sf).cells
            critical = cells.any(axis=1)[:, None] & cells.any(axis=0)[None, :]
            hrs_critical = critical & (x == 0) & (e == 0)
            types = classify_line_types(x, e, sf)
            for axis, got in ((1, types.row_types), (0, types.col_types)):
                partial = hrs_critical.any(axis=axis)
                want = np.where(e.any(axis=axis), np.where(partial, INCOMPLETE, COMPLETE), NON_SP)
                assert np.array_equal(got, want)
            xs.append(x)
            es.append(e)
            rows.append(cells.any(axis=1))
            cols.append(cells.any(axis=0))
        batch = line_classes(np.stack(xs), np.stack(es), np.stack(rows), np.stack(cols))
        for k in range(len(xs)):
            single = line_classes(xs[k], es[k], rows[k], cols[k])
            assert np.array_equal(batch.row_types[k], single.row_types)
            assert np.array_equal(batch.col_types[k], single.col_types)

    def test_noiseless_view_matches_literal_on_library(self):
        for inst in make_case_library(sizes=(16, 32)):
            view = line_classes(inst.x, inst.e, inst.e.any(axis=1), inst.e.any(axis=0))
            literal = classify_line_types(inst.x, inst.e, inst.sf)
            assert np.array_equal(view.row_types, literal.row_types), inst.kind
            assert np.array_equal(view.col_types, literal.col_types), inst.kind

    def test_views_differ_on_small_double(self):
        rng = rng_of(11)
        for _ in range(100):
            x, sf, e = random_double_instance(8, 0.5, rng)
            literal = classify_line_types(x, e, sf)
            view = line_classes(x, e, e.any(axis=1), e.any(axis=0))
            if not (np.array_equal(view.row_types, literal.row_types)
                    and np.array_equal(view.col_types, literal.col_types)):
                return
        pytest.fail("the two views agreed on 100 random 8x8 double-failure arrays")

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n", [3, 4, 8, 33])
    def test_line_local_class_matches_full_classes(self, n, q):
        # The lemma estimator classifies only the lines an event reads; each
        # row and column, the failure lines included, must agree with the
        # whole-array classes.
        rng = rng_of(12)
        for pairs in (structure._SINGLE, structure._DOUBLE, ((n - 1, 2),), ((1, n - 1), (n - 1, 1))):
            b = rng.random((40, n, n)) < q
            sup = structure._support_cells(b, pairs)
            want = line_classes(b, _sp_cells(b, pairs), sup.any(-1), sup.any(-2))
            flipped = tuple((j, i) for (i, j) in pairs)
            for m in range(n):
                assert np.array_equal(structure._row_class(b, pairs, m), want.row_types[:, m])
                assert np.array_equal(structure._row_class(b.transpose(0, 2, 1), flipped, m),
                                      want.col_types[:, m])


class TestIntersectionCorrespondence:
    def test_requires_double(self, demo_x):
        types = classify_line_types(demo_x, np.zeros_like(demo_x), SFPattern(()))
        with pytest.raises(ValueError):
            verify_intersection_correspondence(demo_x, SFPattern(((0, 3),)), types)

    def test_random_instances_consistent(self):
        rng = rng_of(7)
        for _ in range(60):
            x, sf, e = random_double_instance(12, 0.5, rng)
            types = classify_line_types(x, e, sf)
            report = verify_intersection_correspondence(x, sf, types)
            assert report.ok, report.violations

    def test_zero_crossing_forces_clear_lines(self):
        rng = rng_of(8)
        seen = 0
        for _ in range(60):
            x, sf, e = random_double_instance(12, 0.5, rng)
            (i, j), (ip, jp) = sf.pairs
            types = classify_line_types(x, e, sf)
            if x[i, jp] == 0:
                seen += 1
                assert types.row_types[i] == NON_SP
                assert types.col_types[jp] == NON_SP
        assert seen > 5

    def test_complete_line_forces_one_crossing(self):
        rng = rng_of(9)
        seen = 0
        for _ in range(60):
            x, sf, e = random_double_instance(12, 0.5, rng)
            (i, j), (ip, jp) = sf.pairs
            types = classify_line_types(x, e, sf)
            if types.row_types[i] == COMPLETE:
                seen += 1
                assert x[i, jp] == 1
        assert seen > 5


class TestEventProbability:
    def test_known_values(self):
        assert event_probability("single_sf_supported_line_complete", 0.5, 4) == pytest.approx(0.578125, abs=1e-15)
        assert event_probability("double_sf_double_supported_complete", 0.5, 3) == pytest.approx(0.375, abs=1e-15)

    def test_limits(self):
        for event in ("single_sf_supported_line_complete",
                      "double_sf_double_supported_complete",
                      "double_sf_cross_one_line_complete"):
            assert event_probability(event, 0.5, 500) == pytest.approx(1.0, abs=1e-9)

    def test_unknown_event(self):
        with pytest.raises(KeyError):
            event_probability("nope", 0.5, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            event_probability("single_sf_supported_line_complete", 0.0, 8)
        with pytest.raises(ValueError):
            event_probability("single_sf_supported_line_complete", 0.5, 2)

    def test_bound_flags(self):
        assert EVENT_FORMS["single_sf_supported_line_complete"].exact
        assert not EVENT_FORMS["double_sf_single_supported_incomplete"].exact


class TestEventFrequencies:
    def test_all_events_behave_at_small_scale(self):
        # Smoke-scale version of the full check; 4 standard errors of slack
        # keeps the flake rate negligible at 20k trials.
        for k, event in enumerate(sorted(EVENT_FORMS)):
            est = estimate_event_frequency(event, 16, 0.5, 20000, seed=100 + k)
            assert est.samples > 1000
            assert est.within(4.0), (event, est.frequency, est.predicted, est.z)

    def test_estimate_reproducible(self):
        a = estimate_event_frequency("single_sf_supported_line_complete", 12, 0.5, 5000, seed=3)
        b = estimate_event_frequency("single_sf_supported_line_complete", 12, 0.5, 5000, seed=3)
        assert (a.samples, a.successes) == (b.samples, b.successes)

    def test_counts_independent_of_batch_size(self, monkeypatch):
        # Batches of 3 arrays, the last one of 2: the same doubles in order.
        n, trials = 8, 200
        default = [estimate_event_frequency(e, n, 0.5, trials, seed=4) for e in sorted(EVENT_FORMS)]
        monkeypatch.setattr(structure, "_EVENT_CELLS", 3 * n * n + 5)
        small = [estimate_event_frequency(e, n, 0.5, trials, seed=4) for e in sorted(EVENT_FORMS)]
        assert [(a.samples, a.successes) for a in small] == [
            (a.samples, a.successes) for a in default]

    @pytest.mark.parametrize("setting, counts", [
        ((32, 0.5, 5000, 555),
         [(1284, 1262), (2535, 2535), (1294, 1294), (2531, 2531), (2563, 2532), (2534, 2534)]),
        ((16, 0.3, 3000, 7),
         [(301, 258), (893, 870), (282, 282), (2084, 2082), (1231, 1161), (895, 872)]),
    ])
    def test_counts_pinned(self, setting, counts):
        # (samples, successes) of the six events in sorted order; the first
        # setting is the benchmark's lemma check.
        assert [(e.samples, e.successes) for e in verify_event_frequencies(*setting)] == counts

    def test_batch_memory_bounded(self):
        tracemalloc.start()
        try:
            estimate_event_frequency("double_sf_single_supported_incomplete", 128, 0.5, 600, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak
