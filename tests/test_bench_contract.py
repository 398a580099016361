"""The benchmark's hold on the package: every name ``bench/spans.py`` uses resolves.

The benchmark traces the detector by patching module attributes by name and
reads the pairing case of every decode.  A rename under ``src/`` would break
it only when the benchmark next runs, so these checks run in the fast suite.
Nothing under ``bench/`` is changed; it is only put on the import path.
"""

import sys
from pathlib import Path

import numpy as np

from sneakpath import ChannelParams, detector, sample_readout
from sneakpath.instances import KIND_DOUBLE_00, KIND_DOUBLE_11, make_case_instance

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import spans  # noqa: E402  (bench/ is not a package)


def test_span_targets_resolve_to_callables():
    for module, attr, name in spans.SPAN_TARGETS:
        assert callable(getattr(module, attr, None)), name


def test_cases_and_kinds_resolve():
    assert len(set(spans.CASES)) == 4 and all(isinstance(c, str) for c in spans.CASES)
    assert len(set(spans.KINDS)) == 3 and all(isinstance(k, str) for k in spans.KINDS)


def test_traced_double_decodes_record_every_stage():
    params = ChannelParams(sigma=1e-6)
    rng = np.random.default_rng(3)
    tracer = spans.Tracer()
    with tracer.active(0):
        for kind in (KIND_DOUBLE_00, KIND_DOUBLE_11):
            inst = make_case_instance(kind, 16, 0.5, rng)
            tracer.start_array(len(inst.sf.pairs))
            detector.detect_array(sample_readout(inst.x, inst.e, params, rng), params)
    recorded = {span[0] for span in tracer.spans}
    for name in spans.DOUBLE_STAGES:
        assert name in recorded
    assert len(tracer.outcomes) == 2
    for outcome in tracer.outcomes:
        assert outcome[4] in spans.CASES
