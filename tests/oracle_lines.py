"""Reference failure-line scores, one N^2 field per axis.

The detector scores failure lines as matrix-vector products of per-array
fields with line-class masks.  This module scores them the direct way, one
line at a time from each cell's term, as the detector did before: the
failed row of a single failure by its squared residual against the class
profile, and the two candidate rows of a double failure by the summed
per-cell log-likelihood, with the softplus taken by ``np.logaddexp``.
Columns are scored as rows of the transposed readout.
"""

import math

import numpy as np


def failed_row_residuals(y, row_types, col_types, params):
    """Per row, the squared residual against r1 on class-1 columns, r0 elsewhere.

    Returns the residuals and the rows eligible as the failed row: class 0,
    or every row when no row is class 0.
    """
    levels = np.where(col_types == 1.0, params.r1, params.r0)
    resid = ((y - levels[None, :]) ** 2).sum(axis=1)
    eligible = np.flatnonzero(row_types == 0.0)
    if eligible.size == 0:
        eligible = np.arange(y.shape[0])
    return resid, eligible


def candidate_row_scores(y, row_types, col_types, params):
    """Per row, the log-likelihood of being a failure row, summed over its cells.

    Class-0 columns read r0, class-1 columns r1.  A partially affected
    column's cell reads r1 or r0 with weight 1/2 each when the row is clear
    and r1 or r0' when the row is fully affected.  Returns the scores and
    the eligible rows: those not partially affected, or every row when
    fewer than two are left.
    """
    s2 = 2.0 * params.sigma**2
    levels = np.where(col_types == 0.0, params.r0, params.r1)
    terms = -((y - levels[None, :]) ** 2) / s2
    half = col_types == 0.5
    d1 = -((y[:, half] - params.r1) ** 2) / s2
    l0 = (params.r0 - params.r1) * (2.0 * y[:, half] - params.r0 - params.r1) / s2
    lp = (params.r0_prime - params.r1) * (2.0 * y[:, half] - params.r0_prime - params.r1) / s2
    mix10 = d1 + math.log(0.5) + np.logaddexp(0.0, l0)
    mix1p = d1 + math.log(0.5) + np.logaddexp(0.0, lp)
    full = row_types == 1.0
    terms[:, half] = np.where(full[:, None], mix1p, mix10)
    scores = terms.sum(axis=1)
    eligible = np.flatnonzero(row_types != 0.5)
    if eligible.size < 2:
        eligible = np.arange(y.shape[0])
    return scores, eligible
