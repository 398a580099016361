"""Joint recovery of stored data and selector-failure structure.

The pipeline works on one noisy readout matrix at a time:

1. Two LLR passes classify every row and column as clear, partially
   affected, or fully affected by sneak-path interference (the classes of
   :mod:`sneakpath.structure`).
   Every per-cell term is a softplus of the readout's log-likelihood ratio
   of r0 or r0' against r1, which is linear in the readout.
2. The class pattern proposes a failure count (none, one, two).  Every count
   up to the proposal is localized (steps 3 and 4), and the array-level MAP
   choice steps down to the count with the largest log prior plus
   structured log-likelihood against "no failure": the per-cell evidence
   for a sneak-path-capable cell summed over the cells each localized
   hypothesis makes sneak-path-capable.
3. One failure: the failed row/column is found by residual matching and its
   bits read directly off the column/row classes; a partially affected line,
   which one failure cannot produce, gets the bit its cells support, in
   the line order whose sneak-path-capable cells score higher.
4. Two failures: two candidate rows and columns are scored, and each pair
   gets a per-crossing LLR of which of its two lines holds the stored 1.
   The pairing ambiguity is resolved (four sub-cases depending on the
   classes of the candidate lines); when all four lines are fully affected
   the pair LLRs are refined with cross messages between row pairs and
   column pairs.  Each pair's bits are then set once from its LLR.
5. Every remaining cell gets a per-cell MAP decision with one of two
   thresholds, depending on whether the recovered failure lines make the
   cell sneak-path-capable.

Each step is written for rows and applied to the transposed readout for
columns, so transposing the readout transposes every decision.  In steps 3
and 4 a line's score is a log-likelihood summed over its cells, taken as
matrix-vector products of per-array fields with 0/1 masks of crossing-line
classes: the level LLR of r0 and the r1 log-kernel, and for two failures
the per-cell mixture of a partially affected crossing and, on fully
affected candidates, its gain (the capable-cell LLR itself at q = 1/2).
Columns read the transposed fields.  The line kernels are built once per
array, in :func:`detect_array` when a failure is proposed, and shared by
both axes and both steps; the mixtures are built once per two-failure
proposal.  An array with no proposed failure builds neither.

Everything is computed in the log domain from one level LLR, linear in
the readout, with one softplus kernel for every per-cell mixture; all LLRs
stay finite for finite inputs regardless of how many noise standard
deviations separate a sample from the nearest resistance level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import REFERENCE_SF_DIST, SFCountDistribution, thresholds
from .channel import ChannelParams
from .structure import COMPLETE, INCOMPLETE, NON_SP, _line_class

PATTERN_NONE = "none"
PATTERN_SINGLE = "single"
PATTERN_DOUBLE = "double"

CASE_ALL_CLEAR = "all_clear"
CASE_MIXED = "mixed"
CASE_ALL_COMPLETE = "all_complete"
CASE_FALLBACK = "fallback"


@dataclass(frozen=True)
class SPTypeEstimate:
    """Estimated per-line sneak-path classes and the per-cell capable-cell LLR.

    ``sneak_llr`` is the per-cell log-likelihood ratio of a sneak-path-capable
    cell (reads r1 or r0') against a clear one (reads r1 or r0); the failure
    count decision sums it over each hypothesis's capable cells.
    """

    row_types: np.ndarray
    col_types: np.ndarray
    sneak_llr: np.ndarray


@dataclass(frozen=True)
class SFHypothesis:
    """Declared failure pattern; for two failures, the pairing case and tie."""

    kind: str
    locations: tuple[tuple[int, int], ...] = ()
    case: str | None = None
    pairing_tie: bool = False


@dataclass(frozen=True)
class DetectionResult:
    """Recovered bit matrix with failure diagnostics."""

    x_hat: np.ndarray
    hypothesis: SFHypothesis


# ---------------------------------------------------------------------------
# Per-cell LLR kernel.  Every per-cell term is a softplus of fields that are
# linear in the readout, so no Gaussian kernel is ever exponentiated.
# ---------------------------------------------------------------------------

# Clipping |x| at 50 moves sp(x) by less than e^-50 (about 2e-22), nothing
# against the LLR sums.  Without it exp underflows on the far tails, which
# NumPy's vectorized exp handles slowly: at sigma = 30 the kernel then ran
# slower than np.logaddexp.
_SOFTPLUS_CLIP = 50.0
_LOG_HALF = math.log(0.5)


def _softplus_tail(x: np.ndarray) -> np.ndarray:
    """log1p(e^-|x|), the part of sp(x) and sp(-x) that is even in x."""
    out = np.abs(x)
    np.minimum(out, _SOFTPLUS_CLIP, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x) = max(x, 0) + log1p(e^-|x|), finite for every finite x."""
    out = _softplus_tail(x)
    out += np.maximum(x, 0.0)
    return out


def _level_llr(y: np.ndarray, level: float, params: ChannelParams, shift: float = 0.0):
    """Per-cell log N(y; level, sigma) - log N(y; r1, sigma), plus ``shift``.

    It equals (level - r1)(2y - level - r1) / (2 sigma^2): linear in y.
    """
    out = y - (level + params.r1) / 2.0
    out *= (level - params.r1) / params.sigma**2
    if shift:
        out += shift
    return out


def _log_kernel(y: np.ndarray, level, params: ChannelParams) -> np.ndarray:
    """Per-cell Gaussian log-kernel -(y - level)^2 / (2 sigma^2)."""
    out = y - level
    out *= out
    out /= -2.0 * params.sigma**2
    return out


def _cell_terms(y: np.ndarray, params: ChannelParams):
    """Per-cell presence, completeness and sneak-path-capable evidence.

    The capable term weighs 'cell can see a sneak path' (reads r1 or r0')
    against 'cell clear' (reads r1 or r0), the presence term 'line holds one
    support' (the two weighed (1-q, q)) against 'line clear', and the
    completeness term 'fully affected' against 'partially affected' (the two
    weighed (1/2, 1/2)).  With sp the softplus, c = log((1-q)/q) and u0, u'
    the level LLRs of r0 and r0' plus c, the capable term is
    s = sp(u') - sp(u0), the presence term log(1-q) + sp(s - c) and the
    completeness term log 2 - sp(-s).  At q = 1/2 (c = 0) sp(s) and sp(-s)
    share the tail log1p(e^-|s|), which is computed once.
    """
    c = math.log((1.0 - params.q) / params.q)
    sneak = _softplus(_level_llr(y, params.r0_prime, params, c))
    sneak -= _softplus(_level_llr(y, params.r0, params, c))
    if c:
        presence = _softplus(sneak - c)
        completeness = _softplus(-sneak)
    else:
        tail = _softplus_tail(sneak)
        completeness = tail - np.minimum(sneak, 0.0)
        presence = np.add(tail, np.maximum(sneak, 0.0), out=tail)
    presence += math.log1p(-params.q)
    completeness = np.subtract(math.log(2.0), completeness, out=completeness)
    return presence, completeness, sneak


def estimate_sp_types(y: np.ndarray, params: ChannelParams) -> SPTypeEstimate:
    """Run both LLR passes over a whole readout matrix in one vectorized pass.

    A line holds sneak-path cells when its presence sum is nonnegative; its
    completeness sums over the crossing lines that hold them, and a negative
    sum makes it partially affected (boundaries are inclusive toward the
    stronger interference class).
    """
    t1, t2, sneak_llr = _cell_terms(np.asarray(y, dtype=float), params)
    rows = t1.sum(axis=1) >= 0.0
    cols = t1.sum(axis=0) >= 0.0
    return SPTypeEstimate(
        row_types=_line_class(rows, t2 @ cols < 0.0),
        col_types=_line_class(cols, rows @ t2 < 0.0),
        sneak_llr=sneak_llr,
    )


def _transposed(est: SPTypeEstimate) -> SPTypeEstimate:
    """The estimate of the transposed readout: rows and columns swap roles."""
    return SPTypeEstimate(est.col_types, est.row_types, est.sneak_llr.T)


def classify_sf_pattern(est: SPTypeEstimate) -> str:
    """Propose the largest failure count the estimated line classes allow.

    All line classes clear means no failure.  Otherwise a partially
    affected line on either axis proposes two failures, and fully affected
    lines alone propose a single failure.  The proposal is an upper bound,
    not the decision: the line classes come from per-line zero thresholds
    that ignore the failure-count prior and the failure structure, so one
    noisy line can raise the count.  :func:`detect_array` steps down from
    the proposal to the most probable count.
    """
    if np.all(est.row_types == NON_SP) and np.all(est.col_types == NON_SP):
        return PATTERN_NONE
    if np.any(est.col_types == INCOMPLETE) or np.any(est.row_types == INCOMPLETE):
        return PATTERN_DOUBLE
    return PATTERN_SINGLE


# ---------------------------------------------------------------------------
# Single-failure localization and recovery.
# ---------------------------------------------------------------------------

def _partial_lines(line_types: np.ndarray, skip) -> np.ndarray:
    """Mask of the partially affected lines, less the lines in ``skip``."""
    mask = line_types == INCOMPLETE
    mask[list(skip)] = False
    return mask


def _eligible(mask: np.ndarray, k: int) -> np.ndarray:
    """Indices of the masked lines, or of every line when fewer than ``k`` are masked."""
    idx = np.flatnonzero(mask)
    return idx if idx.size >= k else np.arange(mask.size)


def _line_kernels(y: np.ndarray, params: ChannelParams):
    """The level LLR of r0 and the r1 log-kernel, the fields every line score reads.

    Their sum is the r0 log-kernel, so a line's log-likelihood under any
    r0/r1 profile is the r1 kernel's line sum plus the level LLR summed over
    the crossings that read r0.
    """
    return _level_llr(y, params.r0, params), _log_kernel(y, params.r1, params)


def _failed_row(kernels, est: SPTypeEstimate):
    """The failed row of a single failure, and its bits off the failed column.

    The failed row must be class 0, and its bits mirror the column classes
    (a fully affected column crosses the failed row at a stored 1), so the
    class-0 row whose readout best matches the class profile wins: the
    log-likelihood of r1 on class-1 columns and r0 elsewhere, which is the
    squared residual against that profile over -2 sigma^2.  Ties go to the
    lower index; with no class-0 row every row is eligible.
    """
    l0, k1 = kernels
    ones = est.col_types == COMPLETE
    score = k1 @ np.ones(ones.size)
    score += l0 @ (~ones).astype(float)
    rows = _eligible(est.row_types == NON_SP, 1)
    return int(rows[np.argmax(score[rows])]), ones.astype(np.uint8)


def locate_single_sf(y: np.ndarray, est: SPTypeEstimate, params: ChannelParams,
                     kernels=None):
    """Find the single failed cell and read off its row and column bits.

    ``kernels`` are the line kernels of ``y`` (see :func:`_line_kernels`)
    when the caller has built them.
    """
    kernels = kernels or _line_kernels(np.asarray(y, dtype=float), params)
    i, row_bits = _failed_row(kernels, est)
    j, col_bits = _failed_row(tuple(k.T for k in kernels), _transposed(est))
    row_bits[j] = 1
    col_bits[i] = 1
    return i, j, row_bits, col_bits


# ---------------------------------------------------------------------------
# Double-failure localization, pairing, and refinement.
# ---------------------------------------------------------------------------

def _candidate_mixtures(y: np.ndarray, params: ChannelParams, sneak_llr=None, kernels=None):
    """Per-cell log-likelihoods of a cell on a partially affected column.

    The cell reads r1 or r0 with equal weight when its row is clear, and r1
    or r0' when its row is fully affected.  Returns the first, mix10 =
    d1 + log 1/2 + sp(level LLR of r0) with d1 the r1 log-kernel, and the
    gain mix1p - mix10 = sp(level LLR of r0') - sp(level LLR of r0).  The
    weight 1/2 on r1 holds whatever q is: it is the chance that a singly
    supported column's 1 sits on a given failure row.  The capable-cell LLR
    ``sneak_llr`` of :func:`_cell_terms` weighs r1 by q instead, so it is the
    gain at q = 1/2 only, and there it is returned when given.  ``kernels``
    are the line kernels of ``y`` (see :func:`_line_kernels`) when built.
    """
    l0, d1 = kernels or _line_kernels(y, params)
    sp0 = _softplus(l0)
    mix10 = d1 + _LOG_HALF
    mix10 += sp0
    if sneak_llr is not None and params.q == 0.5:
        return mix10, sneak_llr
    gain = _softplus(_level_llr(y, params.r0_prime, params))
    gain -= sp0
    return mix10, gain


def _candidate_rows(fields, est: SPTypeEstimate) -> tuple[int, int]:
    """The two rows that best match a failure row, ties to the lower index.

    A candidate row is scored against the column classes: class-0 columns
    should read r0, class-1 columns r1, and ambiguous columns split between
    r1 and either r0 (candidate row clear) or r0' (candidate row fully
    affected, which puts a sneak path under its stored 0s).  ``fields`` are
    the line kernels, mix10 and the gain, with rows as their first axis.
    Partially affected rows are no candidates unless fewer than two rows
    are left.
    """
    l0, k1, mix10, gain = fields
    ct = est.col_types
    half = (ct == INCOMPLETE).astype(float)
    scores = k1 @ (1.0 - half)
    scores += l0 @ (ct == NON_SP).astype(float)
    scores += mix10 @ half
    full = est.row_types == COMPLETE
    scores[full] += (gain @ half)[full]
    rows = _eligible(est.row_types != INCOMPLETE, 2)
    order = rows[np.argsort(-scores[rows], kind="stable")]
    return int(order[0]), int(order[1])


def double_sf_candidates(y: np.ndarray, est: SPTypeEstimate, params: ChannelParams,
                         kernels=None):
    """Score every non-ambiguous line as a potential failure line, keep two.

    ``kernels`` are the line kernels of ``y`` when the caller has built
    them.  At q = 1/2 the scores read ``est.sneak_llr``, so ``est`` must be
    the estimate of ``y``.
    """
    y = np.asarray(y, dtype=float)
    kernels = kernels or _line_kernels(y, params)
    fields = (*kernels, *_candidate_mixtures(y, params, est.sneak_llr, kernels))
    return (_candidate_rows(fields, est),
            _candidate_rows(tuple(f.T for f in fields), _transposed(est)))


def uncertain_pair_llr(
    y: np.ndarray,
    pair: tuple[int, int],
    pair_types: tuple[float, float],
    params: ChannelParams,
) -> np.ndarray:
    """Per-crossing LLR of (first row holds 0, second holds 1) vs the swap.

    The result is indexed by column; a column pair's is that of the
    transposed readout.  The stored-0 level of each line depends on its
    class: a fully affected failure line reads r0' on its zeros at ambiguous
    crossings, a clear one reads r0.  Swapping the pair negates the result.
    """
    ra, rb = (params.r0_prime if t == COMPLETE else params.r0 for t in pair_types)
    return _level_llr(y[pair[0]], ra, params) - _level_llr(y[pair[1]], rb, params)


def _pair_bits(line_types: np.ndarray, pair_llr: np.ndarray) -> np.ndarray:
    """Hard (first, second) bits per crossing: classes fix the unambiguous ones.

    Returns a (2, N) uint8 array.  Class 0 -> (0, 0); class 1 -> (1, 1);
    ambiguous -> (0, 1) when the pair LLR is positive, else (1, 0).
    """
    n = line_types.size
    bits = np.zeros((2, n), dtype=np.uint8)
    ones = line_types == COMPLETE
    bits[0, ones] = 1
    bits[1, ones] = 1
    unc = line_types == INCOMPLETE
    bits[0, unc] = (pair_llr[unc] <= 0.0).astype(np.uint8)
    bits[1, unc] = (pair_llr[unc] > 0.0).astype(np.uint8)
    return bits


def resolve_pairing(
    y: np.ndarray,
    est: SPTypeEstimate,
    i_pair: tuple[int, int],
    j_pair: tuple[int, int],
    row_llr: np.ndarray,
    col_llr: np.ndarray,
    params: ChannelParams,
) -> tuple[bool, str, bool]:
    """Decide whether failures sit at (i1,j1),(i2,j2) (h0) or at (i1,j2),(i2,j1).

    The candidate line classes pick the method: all-clear lines expose the
    failed cells directly in the four crossings (stored 1s read r1); mixed
    classes pair each fully affected line with a clear one; all-complete
    falls back to counting incompatible plain-HRS cells implied by either
    pairing, as does any class pattern outside the three consistent ones.
    ``row_llr`` and ``col_llr`` are the pair LLRs of ``i_pair`` and
    ``j_pair`` (see :func:`uncertain_pair_llr`).  Returns (chose h0, case,
    tie); a tie chooses h1.
    """
    ti = tuple(float(est.row_types[i]) for i in i_pair)
    tj = tuple(float(est.col_types[j]) for j in j_pair)

    if ti + tj == (NON_SP,) * 4:
        # Under h0 the diagonal crossings are the failed cells and read r1.
        r0_llr = _level_llr(y[np.ix_(i_pair, j_pair)], params.r0, params)
        score = r0_llr[0, 1] + r0_llr[1, 0] - (r0_llr[0, 0] + r0_llr[1, 1])
        return bool(score > 0.0), CASE_ALL_CLEAR, bool(score == 0.0)

    if sorted(ti) == sorted(tj) == [NON_SP, COMPLETE]:
        # A failure couples a fully affected line with a clear one.
        return ti[0] != tj[0], CASE_MIXED, False

    case = CASE_ALL_COMPLETE if ti + tj == (COMPLETE,) * 4 else CASE_FALLBACK
    # Hard-decide every outside cell to its nearest level; a pairing that
    # implies a sneak path over a cell reading plain r0 is contradicted.
    is_r0 = (y > (params.r0_prime + params.r0) / 2.0).astype(float)
    row_bits = _pair_bits(est.col_types, row_llr).astype(float)
    col_bits = _pair_bits(est.row_types, col_llr).astype(float)
    row_diff = row_bits[0] - row_bits[1]
    col_diff = col_bits[1] - col_bits[0]
    row_diff[list(j_pair)] = 0.0
    col_diff[list(i_pair)] = 0.0
    score = float(col_diff @ is_r0 @ row_diff)
    return score > 0.0, case, score == 0.0


def refine_uncertain_pairs(
    est: SPTypeEstimate,
    i_pair: tuple[int, int],
    j_pair_ordered: tuple[int, int],
    row_pair_llr: np.ndarray,
    col_pair_llr: np.ndarray,
):
    """Sharpen ambiguous pair decisions using the cells they jointly explain.

    Each outside cell (m, n) with both its row and column ambiguous ties the
    row-pair decision at column n to the column-pair decision at row m: the
    cell reads the sneak-path level only when the two pair assignments place
    stored 1s on the same failure.  The first-pass pair LLRs act as priors,
    the cells speak through ``est.sneak_llr``, and the updates stay in the
    log domain, so nothing overflows.

    ``col_pair_llr`` must be ordered consistently with ``j_pair_ordered``.
    Returns updated (row_pair_llr, col_pair_llr).
    """
    unc_cols = np.flatnonzero(_partial_lines(est.col_types, j_pair_ordered))
    unc_rows = np.flatnonzero(_partial_lines(est.row_types, i_pair))
    l2_rows = row_pair_llr.astype(float)
    l2_cols = col_pair_llr.astype(float)
    sneak = est.sneak_llr[np.ix_(unc_rows, unc_cols)]
    l2_rows[unc_cols] += _messages_to_row_pair(col_pair_llr[unc_rows], sneak)
    l2_cols[unc_rows] += _messages_to_row_pair(row_pair_llr[unc_cols], sneak.T)
    return l2_rows, l2_cols


def _messages_to_row_pair(col_pair_llr: np.ndarray, sneak_llr: np.ndarray):
    """Per column, the messages to the row pair summed over rows (column-pair LLR per row).

    With prior p and capable-cell LLR s, the message
    log(e^{p+s} + 1) - log(e^p + e^s) = sp(p + s) - sp(p - s) - s is the
    log-ratio of the two pairings' cell likelihoods, each taken relative to
    the clear cell.
    """
    prior = col_pair_llr[:, None]
    msg = _softplus(prior + sneak_llr)
    msg -= _softplus(prior - sneak_llr)
    msg -= sneak_llr
    return msg.sum(axis=0)


# ---------------------------------------------------------------------------
# Per-cell MAP decisions outside the failure lines, and the full pipeline.
# ---------------------------------------------------------------------------

def detect_non_sf(
    y: np.ndarray,
    sf_locations: tuple[tuple[int, int], ...],
    x_sf: np.ndarray | None,
    params: ChannelParams,
) -> np.ndarray:
    """Two-threshold MAP decision for every cell off the failure lines.

    A cell can see a sneak path iff some recovered failure (i, j) has 1s at
    x_sf[i, n] and x_sf[m, j]; such cells use the tighter threshold.  The
    recovered failure rows/columns in ``x_sf`` are copied into the output
    unchanged.  With no failures every cell uses the wide threshold.
    """
    gamma, gamma_prime = thresholds(params)
    y = np.asarray(y, dtype=float)
    bits = y <= gamma
    if sf_locations:
        capable = np.zeros(y.shape, dtype=bool)
        for (i, j) in sf_locations:
            capable |= (x_sf[:, j] == 1)[:, None] & (x_sf[i, :] == 1)[None, :]
        bits &= ~capable
        capable &= y <= gamma_prime
        bits |= capable
    bits = bits.view(np.uint8)
    for (i, j) in sf_locations:
        bits[i, :] = x_sf[i, :]
        bits[:, j] = x_sf[:, j]
    return bits


def _settled_lines(i: int, j: int, row_bits, col_bits, est, est_t):
    """Failed row (i) and column (j) bits, settled on the partial lines row first.

    One failure leaves no line partially affected.  Such lines (the class
    pattern proposed two failures) get the crossing bit whose
    sneak-path-capable cells the readout supports.  The column is settled
    as a row of the transpose (estimate ``est_t``).  Returns the bits and
    their evidence (see :func:`_sneak_evidence`).
    """
    row_bits, col_bits = row_bits.copy(), col_bits.copy()
    for bits, crossing, skip, e in ((row_bits, col_bits, j, est), (col_bits, row_bits, i, est_t)):
        partial = _partial_lines(e.col_types, (skip,))
        support = crossing @ e.sneak_llr
        bits[partial] = support[partial] > 0.0
    return row_bits, col_bits, float(support @ col_bits)


def _detect_single(y: np.ndarray, est: SPTypeEstimate, params: ChannelParams, kernels):
    i, j, row_bits, col_bits = locate_single_sf(y, est, params, kernels)
    est_t = _transposed(est)
    rows, cols, score = _settled_lines(i, j, row_bits, col_bits, est, est_t)
    if (est.row_types == INCOMPLETE).any() and (est.col_types == INCOMPLETE).any():
        # Each settled bit moves the crossing partial lines' evidence, so column
        # first (row first on the transpose) can end elsewhere; keep the better.
        alt_cols, alt_rows, alt_score = _settled_lines(j, i, col_bits, row_bits, est_t, est)
        if alt_score > score:
            rows, cols = alt_rows, alt_cols
    x_sf = np.zeros(y.shape, dtype=np.uint8)
    x_sf[i, :] = rows
    x_sf[:, j] = cols
    return x_sf, SFHypothesis(kind=PATTERN_SINGLE, locations=((i, j),))


def _detect_double(y: np.ndarray, est: SPTypeEstimate, params: ChannelParams, kernels):
    i_pair, j_pair = double_sf_candidates(y, est, params, kernels)
    (i1, i2), (j1, j2) = i_pair, j_pair
    row_llr = uncertain_pair_llr(y, i_pair, (est.row_types[i1], est.row_types[i2]), params)
    col_llr = uncertain_pair_llr(y.T, j_pair, (est.col_types[j1], est.col_types[j2]), params)

    chose_h0, case, tie = resolve_pairing(y, est, i_pair, j_pair, row_llr, col_llr, params)
    if not chose_h0:
        # Order the column pair so that (i1, ja) and (i2, jb) fail.
        j_pair, col_llr = (j2, j1), -col_llr
    ja, jb = j_pair
    if case == CASE_ALL_COMPLETE:
        row_llr, col_llr = refine_uncertain_pairs(est, i_pair, j_pair, row_llr, col_llr)

    x_sf = np.zeros(y.shape, dtype=np.uint8)
    x_sf[[i1, i2]] = _pair_bits(est.col_types, row_llr)
    x_sf[:, [ja, jb]] = _pair_bits(est.row_types, col_llr).T
    # Failed cells store 1 by definition; the other two crossings follow the
    # class correspondence (fully affected line <=> crossing stores 1).
    x_sf[i1, ja] = 1
    x_sf[i2, jb] = 1
    x_sf[i1, jb] = 1 if (est.row_types[i1] == COMPLETE or est.col_types[jb] == COMPLETE) else 0
    x_sf[i2, ja] = 1 if (est.row_types[i2] == COMPLETE or est.col_types[ja] == COMPLETE) else 0
    hyp = SFHypothesis(kind=PATTERN_DOUBLE, locations=((i1, ja), (i2, jb)),
                       case=case, pairing_tie=tie)
    return x_sf, hyp


def _sneak_evidence(sneak_llr: np.ndarray, x_sf: np.ndarray, locations) -> float:
    """Log-likelihood of a localized failure hypothesis against 'no failure'.

    Under failure (i, j) cell (m, n) is sneak-path-capable iff
    x_sf[m, j] = x_sf[i, n] = 1, so its capable cells are the outer product
    of the failure's column bits and row bits, and their summed evidence is
    one bilinear form.  Two failures add by inclusion-exclusion.
    """
    cols = [x_sf[:, j].astype(float) for _, j in locations]
    rows = [x_sf[i, :].astype(float) for i, _ in locations]
    total = sum(a @ sneak_llr @ b for a, b in zip(cols, rows))
    if len(locations) == 2:
        total -= (cols[0] * cols[1]) @ sneak_llr @ (rows[0] * rows[1])
    return float(total)


def detect_array(
    y: np.ndarray, params: ChannelParams, sf_dist: SFCountDistribution = REFERENCE_SF_DIST
) -> DetectionResult:
    """Full pipeline: classify lines, decide the failure count, decide every bit.

    :func:`classify_sf_pattern` proposes a failure count.  Every count k up
    to the proposal is localized, and the count with the largest log prior
    plus log-likelihood against "no failure" (see :func:`_sneak_evidence`)
    is declared, so the decision only ever steps down from the proposal.
    The log prior is log p_k from ``sf_dist``, the failure-count prior
    (p0, p1, p2), which defaults to the reference prior (0.5, 0.4, 0.1),
    less the log number of placements of k failures.  Ties keep the larger
    count.

    Raises ValueError unless ``y`` is a finite square matrix of at least 2x2.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[0] != y.shape[1]:
        raise ValueError(f"readout must be a square matrix, got shape {y.shape}")
    if y.shape[0] < 2:
        raise ValueError(f"readout must be at least 2x2, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("readout holds NaN or infinite values")
    est = estimate_sp_types(y, params)
    proposal = (PATTERN_NONE, PATTERN_SINGLE, PATTERN_DOUBLE).index(classify_sf_pattern(est))
    # log p_k minus the log number of ways to place k failures on the
    # expected q N^2 stored 1s, since the evidence is maximized over them.
    n = y.shape[0]
    ones = params.q * n * n
    log_places = (0.0, math.log(ones), math.log(ones * params.q * (n - 1) ** 2 / 2.0))
    log_prior = [math.log(p) - c if p > 0.0 else -math.inf
                 for p, c in zip(sf_dist.as_tuple(), log_places)]
    x_sf, hyp, best = None, SFHypothesis(kind=PATTERN_NONE), log_prior[0]
    kernels = _line_kernels(y, params) if proposal else None
    for k, localize in enumerate((_detect_single, _detect_double)[:proposal], start=1):
        cand_x_sf, cand_hyp = localize(y, est, params, kernels)
        score = log_prior[k] + _sneak_evidence(est.sneak_llr, cand_x_sf, cand_hyp.locations)
        if score >= best:
            x_sf, hyp, best = cand_x_sf, cand_hyp, score
    x_hat = detect_non_sf(y, hyp.locations, x_sf, params)
    return DetectionResult(x_hat=x_hat, hypothesis=hyp)
