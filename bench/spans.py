"""In-memory span tracing of sneakpath's layers, from outside the package.

The tracer replaces a module-level function with a wrapper under the name
the caller looks up (``harness.detect_array`` is what the harness calls,
``detector.estimate_sp_types`` is what ``detect_array`` calls), so nothing
under ``src/`` changes.  Each call records a span ``[name, start, end,
parent id, array id]``; a layer's self time is its span minus the spans of
its direct children.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import csv
import statistics
import time
from pathlib import Path

from sneakpath import detector, harness, instances, structure

# (module, attribute, span name).  The harness imported its helpers by name,
# so they are wrapped in the harness namespace; the detector stages are
# looked up in the detector namespace by detect_array itself.
SPAN_TARGETS = (
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "sf_diagnostics", "harness.sf_diagnostics"),
    (harness, "optimal_threshold", "baseline.optimal_threshold"),
    (harness, "detect_baseline", "baseline.detect_baseline"),
    (detector, "estimate_sp_types", "detector.estimate_sp_types"),
    (detector, "classify_sf_pattern", "detector.classify_sf_pattern"),
    (detector, "locate_single_sf", "detector.locate_single_sf"),
    (detector, "double_sf_candidates", "detector.double_sf_candidates"),
    (detector, "uncertain_pair_llr", "detector.uncertain_pair_llr"),
    (detector, "resolve_pairing", "detector.resolve_pairing"),
    (detector, "refine_uncertain_pairs", "detector.refine_uncertain_pairs"),
    (detector, "detect_non_sf", "detector.detect_non_sf"),
)

DOUBLE_STAGES = (
    "detector.double_sf_candidates",
    "detector.uncertain_pair_llr",
    "detector.resolve_pairing",
    "detector.refine_uncertain_pairs",
)

KINDS = (detector.PATTERN_NONE, detector.PATTERN_SINGLE, detector.PATTERN_DOUBLE)
CASES = (detector.CASE_ALL_CLEAR, detector.CASE_MIXED, detector.CASE_ALL_COMPLETE,
         detector.CASE_FALLBACK)


class Tracer:
    """Span recorder plus the per-array outcomes the detector returns."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.array_id = -1
        self.round = 0
        self.true_count: int | None = None
        # (round, array id, true failure count, declared kind, case, tie)
        self.outcomes: list[tuple] = []
        self.data_draws = 0
        self.event_trials: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn):
        def wrapped(*args, **kwargs):
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.array_id]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
        return wrapped

    def start_array(self, true_count: int | None = None) -> None:
        self.array_id += 1
        self.true_count = true_count

    def _patch(self, module, attr, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function; undo with :meth:`restore`."""
        for module, attr, name in SPAN_TARGETS:
            self._patch(module, attr, self._span(name, getattr(module, attr)))

        sample = self._span("channel.sample_instance", harness.sample_instance)

        def sample_instance(*args, **kwargs):
            self.start_array()
            out = sample(*args, **kwargs)
            self.true_count = len(out[1])
            return out
        self._patch(harness, "sample_instance", sample_instance)

        for module in (harness, detector):
            detect = self._span("detector.detect_array", module.detect_array)

            def detect_array(*args, _detect=detect, **kwargs):
                result = _detect(*args, **kwargs)
                hyp = result.hypothesis
                self.outcomes.append((self.round, self.array_id, self.true_count,
                                      hyp.kind, hyp.case, hyp.pairing_tie))
                return result
            self._patch(module, "detect_array", detect_array)

        make = self._span("instances.make_case_instance", instances.make_case_instance)

        def make_case_instance(*args, **kwargs):
            self.start_array()
            return make(*args, **kwargs)
        self._patch(instances, "make_case_instance", make_case_instance)

        draw = instances.sample_data

        def sample_data(*args, **kwargs):
            self.data_draws += 1
            return draw(*args, **kwargs)
        self._patch(instances, "sample_data", sample_data)

        estimate = structure.estimate_event_frequency

        def estimate_event_frequency(*args, **kwargs):
            out = estimate(*args, **kwargs)
            self.event_trials.append(out.trials)
            return out
        self._patch(structure, "estimate_event_frequency",
                    self._span("structure.estimate_event_frequency", estimate_event_frequency))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def active(self, round_index: int):
        """Trace everything called inside the block as round ``round_index``."""
        self.round = round_index
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, list[float]]:
        """Self time in seconds of every span, grouped by span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out.setdefault(name, []).append(end - start - child[k])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(("span_id", "name", "start_s", "end_s", "parent_id", "array_id"))
            for k, (name, start, end, parent, array) in enumerate(self.spans):
                w.writerow((k, name, f"{start:.9f}", f"{end:.9f}", parent, array))


def layer_metrics(tr: Tracer, rounds: int, sigmas: int) -> dict[str, tuple[float, str] | None]:
    """Per-layer metrics from a traced run; None marks a layer not exercised.

    Times are the median self time per call.  Counts come from the first
    traced round only, so they repeat exactly at a fixed seed.
    """
    st = tr.self_times()

    def p50(name, scale):
        vals = st.get(name)
        return (statistics.median(vals) * scale, "us" if scale == 1e6 else "ms") if vals else None

    out: dict[str, tuple[float, str] | None] = {
        "channel.sample_instance_us": p50("channel.sample_instance", 1e6),
        "detector.estimate_sp_types_us": p50("detector.estimate_sp_types", 1e6),
        "detector.classify_sf_pattern_us": p50("detector.classify_sf_pattern", 1e6),
    }
    for name in DOUBLE_STAGES:
        out[name + "_us"] = p50(name, 1e6)
    decoded = len(st.get("detector.detect_array", ()))
    double_total = sum(sum(st.get(name, ())) for name in DOUBLE_STAGES)
    out["detector.double_us_per_array"] = (
        (double_total / decoded * 1e6, "us") if decoded and double_total else None)
    out["detector.locate_single_sf_us"] = p50("detector.locate_single_sf", 1e6)
    out["detector.detect_non_sf_us"] = p50("detector.detect_non_sf", 1e6)
    out["detector.detect_array_self_us"] = p50("detector.detect_array", 1e6)

    first = [o for o in tr.outcomes if o[0] == 0]
    for kind in KINDS:
        out[f"detector.declared_{kind}"] = (
            (sum(o[3] == kind for o in first), "count") if first else None)
    scored = [o for o in first if o[2] is not None]
    out["detector.kind_correct_ratio"] = (
        (sum(KINDS.index(o[3]) == o[2] for o in scored) / len(scored), "ratio")
        if scored else None)
    for case in CASES:
        out[f"detector.case_{case}"] = (sum(o[4] == case for o in first), "count") if first else None
    out["detector.pairing_ties"] = (sum(bool(o[5]) for o in first), "count") if first else None

    out["baseline.detect_baseline_us"] = p50("baseline.detect_baseline", 1e6)
    out["baseline.optimal_threshold_ms"] = p50("baseline.optimal_threshold", 1e3)
    calls = len(st.get("baseline.optimal_threshold", ()))
    out["baseline.optimal_threshold_calls"] = (
        (calls / (rounds * sigmas), "count") if calls else None)

    out["harness.sf_diagnostics_us"] = p50("harness.sf_diagnostics", 1e6)
    runs = st.get("harness.run_experiment")
    out["harness.run_experiment_self_ms"] = (
        (statistics.median(runs) / sigmas * 1e3, "ms") if runs else None)

    out["structure.estimate_event_frequency_ms"] = p50("structure.estimate_event_frequency", 1e3)
    out["structure.arrays"] = (
        (sum(tr.event_trials) / rounds, "count") if tr.event_trials else None)

    out["instances.make_case_instance_us"] = p50("instances.make_case_instance", 1e6)
    made = len(st.get("instances.make_case_instance", ()))
    out["instances.acceptance_ratio"] = (
        (made / tr.data_draws, "ratio") if tr.data_draws else None)
    return out
