"""Crossbar resistive-memory readout simulation and detection.

Submodules:

* :mod:`sneakpath.channel` -- data arrays, selector failures, sneak-path
  indicators, noisy readouts.
* :mod:`sneakpath.structure` -- ground-truth line classification, support
  combinatorics, closed-form event probabilities and their Monte Carlo
  estimators.
* :mod:`sneakpath.detector` -- the joint data / failure-structure detector.
* :mod:`sneakpath.baseline` -- single-threshold reference detector.
* :mod:`sneakpath.bounds` -- decision thresholds and analytic BER bounds.
* :mod:`sneakpath.instances` -- constructed instances with exact-recovery
  guarantees for validation.
* :mod:`sneakpath.harness` -- deterministic Monte Carlo experiment runner.
* :mod:`sneakpath.cli` -- ``sneakpath`` command-line entry point.
"""

import numpy as _np

from .baseline import detect_baseline, optimal_threshold
from .bounds import SFCountDistribution, asymptotic_bound, ber_lower_bound, q_function, thresholds
from .channel import (
    ChannelParams,
    InfeasibleSFError,
    SFPattern,
    compute_sp_indicators,
    resistance_map,
    sample_data,
    sample_instance,
    sample_readout,
)
from .detector import (
    DetectionResult,
    SFHypothesis,
    SPTypeEstimate,
    classify_sf_pattern,
    detect_array,
    detect_non_sf,
    estimate_sp_types,
)
from .harness import ExperimentConfig, ExperimentRecord, run_experiment, sf_diagnostics, write_results
from .structure import classify_line_types, event_probability, sp_supports

# Free one untouched block just under 32 MiB, the most for which glibc's rule
# in mallopt(3) raises the mmap threshold to its size and the trim threshold to
# twice that: N^2 temporaries up to N = 2047 then stay on the heap and are not
# faulted in again per array.  A threshold the user set turns the rule off.
_np.empty((1 << 22) - 1024)

__all__ = [
    "ChannelParams",
    "DetectionResult",
    "ExperimentConfig",
    "ExperimentRecord",
    "InfeasibleSFError",
    "SFCountDistribution",
    "SFHypothesis",
    "SFPattern",
    "SPTypeEstimate",
    "asymptotic_bound",
    "ber_lower_bound",
    "classify_line_types",
    "classify_sf_pattern",
    "compute_sp_indicators",
    "detect_array",
    "detect_baseline",
    "detect_non_sf",
    "estimate_sp_types",
    "event_probability",
    "optimal_threshold",
    "q_function",
    "resistance_map",
    "run_experiment",
    "sample_data",
    "sample_instance",
    "sample_readout",
    "sf_diagnostics",
    "sp_supports",
    "thresholds",
    "write_results",
]

__version__ = "0.1.0"
