"""Trace the full detection pipeline on one noisy double-failure array.

Prints the intermediate quantities the detector works with: the lines the
presence pass flags and their classes, the failure count the classes
propose and the one declared after the MAP step-down, candidate lines,
pairing decision, and the final bit error count against the truth.
"""

import numpy as np

from sneakpath import ChannelParams, detect_array, sample_readout
from sneakpath.detector import (
    PATTERN_DOUBLE,
    classify_sf_pattern,
    double_sf_candidates,
    estimate_sp_types,
)
from sneakpath.harness import sf_diagnostics
from sneakpath.instances import KIND_DOUBLE_11, make_case_instance

params = ChannelParams(sigma=120.0)
rng = np.random.default_rng(11)
inst = make_case_instance(KIND_DOUBLE_11, 64, 0.5, rng)
y = sample_readout(inst.x, inst.e, params, rng)

print(f"true failures: {inst.sf.pairs}  (array 64x64, sigma={params.sigma:g})")
print(f"true sneak-path cells: {int(inst.e.sum())}")

est = estimate_sp_types(y, params)
flagged_rows = np.flatnonzero(est.row_types > 0)
flagged_cols = np.flatnonzero(est.col_types > 0)
print(f"\nlines flagged by the presence pass: rows {flagged_rows.tolist()}, "
      f"cols {flagged_cols.tolist()}")
print("row classes at flagged rows:", {int(m): float(est.row_types[m]) for m in flagged_rows})
print("col classes at flagged cols:", {int(n): float(est.col_types[n]) for n in flagged_cols})

res = detect_array(y, params)
h = res.hypothesis
print(f"failure count proposed by the classes: {classify_sf_pattern(est)}, "
      f"declared after the MAP step-down: {h.kind}")
if h.kind == PATTERN_DOUBLE:
    rows, cols = double_sf_candidates(y, est, params)
    print(f"\ncandidate rows {rows}, candidate cols {cols}")
    print(f"pairing case: {h.case}, tie: {h.pairing_tie}")
print(f"declared locations: {h.locations}")

errors = int((res.x_hat != inst.x).sum())
print(f"\nbit errors: {errors} of {inst.x.size} "
      f"(BER {errors / inst.x.size:.4f})")
diag = sf_diagnostics(inst.x, inst.sf, res.x_hat, h.locations)
print(f"errors on the failure rows/columns: {diag.sfrc_errors} of {diag.sfrc_bits}")
