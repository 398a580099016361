"""Joint recovery of stored data and selector-failure structure.

The pipeline works on one noisy readout matrix at a time:

1. Two LLR passes classify every row and column as clear (0), partially
   affected (0.5), or fully affected (1.0) by sneak-path interference.
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
4. Two failures: two candidate rows and columns are scored, the pairing
   ambiguity is resolved (four sub-cases depending on the classes of the
   candidate lines), and the genuinely ambiguous entries are refined with
   cross messages between row pairs and column pairs.
5. Every remaining cell gets a per-cell MAP decision with one of two
   thresholds, depending on whether the recovered failure lines make the
   cell sneak-path-capable.

Each step is written for rows and applied to the transposed readout for
columns, so transposing the readout transposes every decision.

Everything is computed in the log domain; all LLRs stay finite for finite
inputs regardless of how many noise standard deviations separate a sample
from the nearest resistance level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import REFERENCE_SF_DIST, SFCountDistribution, thresholds
from .channel import ChannelParams

PATTERN_NONE = "none"
PATTERN_SINGLE = "single"
PATTERN_DOUBLE = "double"

CASE_ALL_CLEAR = "all_clear"
CASE_MIXED = "mixed"
CASE_ALL_COMPLETE = "all_complete"
CASE_FALLBACK = "fallback"

# Cells per row tile of the LLR pass (32 rows at N = 256).  Arrays of up to
# _ONE_PASS_CELLS cells (N <= 221) take one pass: on a Xeon with 2 MiB of L2
# per core, tiling measured slower up to N = 208 and faster from N = 224.
_TILE_CELLS = 8192
_ONE_PASS_CELLS = 6 * _TILE_CELLS


@dataclass(frozen=True)
class SPTypeEstimate:
    """Estimated per-line sneak-path classes plus the LLRs behind them.

    ``sneak_llr`` is the per-cell log-likelihood ratio of a sneak-path-capable
    cell (reads r1 or r0') against a clear one (reads r1 or r0); the failure
    count decision sums it over each hypothesis's capable cells.
    """

    row_types: np.ndarray
    col_types: np.ndarray
    presence_llr_rows: np.ndarray
    presence_llr_cols: np.ndarray
    completeness_llr_rows: np.ndarray
    completeness_llr_cols: np.ndarray
    sneak_llr: np.ndarray


@dataclass(frozen=True)
class SFHypothesis:
    """Declared failure pattern and everything decided along the way."""

    kind: str
    locations: tuple[tuple[int, int], ...] = ()
    row_candidates: tuple[int, int] | None = None
    col_candidates: tuple[int, int] | None = None
    case: str | None = None
    chose_h0: bool | None = None
    pairing_score: float | None = None
    pairing_tie: bool = False


@dataclass(frozen=True)
class DetectionResult:
    """Recovered bit matrix with failure diagnostics."""

    x_hat: np.ndarray
    hypothesis: SFHypothesis
    sp_types: SPTypeEstimate


# ---------------------------------------------------------------------------
# Gaussian mixture machinery (log domain).
# ---------------------------------------------------------------------------

def _exponent_fields(y: np.ndarray, params: ChannelParams):
    """Per-cell log-kernels -(y - level)^2 / (2 sigma^2) at the three levels."""
    s2 = 2.0 * params.sigma**2
    return (
        -((y - params.r1) ** 2) / s2,
        -((y - params.r0) ** 2) / s2,
        -((y - params.r0_prime) ** 2) / s2,
    )


def _log_mix(fields, a: float, b: float, c: float):
    """log(a e^{d1} + b e^{d0} + c e^{d0'}) via max-shifted summation."""
    terms = [math.log(w) + d for w, d in zip((a, b, c), fields) if w > 0.0]
    if len(terms) == 1:
        return terms[0]
    peak = functools.reduce(np.maximum, terms)
    return peak + np.log(sum(np.exp(t - peak) for t in terms))


def _clear_and_capable(fields, q: float):
    """Log-mixtures of a clear cell (q, 1-q, 0) and a sneak-path-capable one (q, 0, 1-q)."""
    return _log_mix(fields, q, 1.0 - q, 0.0), _log_mix(fields, q, 0.0, 1.0 - q)


def _cell_terms(fields, q: float):
    """Per-cell presence, completeness and sneak-path-capable evidence.

    The presence term weighs 'line holds one support' against 'line clear',
    the completeness term 'fully affected' against 'partially affected', and
    the capable term 'cell can see a sneak path' against 'cell clear'.  All
    four mixtures behind them are blends of the clear cell (q, 1-q, 0) and
    the capable cell (q, 0, 1-q): the one-support mixture weighs them
    (1-q, q), the partially affected one (1/2, 1/2).
    """
    lg_clear, lg_sp = _clear_and_capable(fields, q)
    peak = np.maximum(lg_clear, lg_sp)
    e_clear = np.exp(lg_clear - peak)
    e_sp = np.exp(lg_sp - peak)
    presence = peak + np.log((1.0 - q) * e_clear + q * e_sp) - lg_clear
    completeness = lg_sp - peak - np.log(0.5 * (e_clear + e_sp))
    return presence, completeness, lg_sp - lg_clear


def _line_types(presence: np.ndarray, completeness: np.ndarray) -> np.ndarray:
    """Hard classes of one axis's lines from the two LLR passes.

    Class 0 when the presence LLR is negative; otherwise 0.5 or 1.0 by the
    sign of the completeness LLR (boundaries are inclusive toward the
    stronger interference class).
    """
    return np.where(presence < 0.0, 0.0, np.where(completeness < 0.0, 0.5, 1.0))


def estimate_sp_types(y: np.ndarray, params: ChannelParams) -> SPTypeEstimate:
    """Run both LLR passes over a whole readout matrix.

    Arrays above ``_ONE_PASS_CELLS`` get their per-cell terms in row tiles
    of about ``_TILE_CELLS`` cells, so each tile's temporaries stay in cache;
    the values are the same either way.
    """
    y = np.asarray(y, dtype=float)
    if y.size <= _ONE_PASS_CELLS:
        t1, t2, sneak_llr = _cell_terms(_exponent_fields(y, params), params.q)
    else:
        t1, t2, sneak_llr = (np.empty_like(y) for _ in range(3))
        step = max(1, _TILE_CELLS // y.shape[1])
        for start in range(0, y.shape[0], step):
            rows = slice(start, start + step)
            t1[rows], t2[rows], sneak_llr[rows] = _cell_terms(
                _exponent_fields(y[rows], params), params.q)
    l1_rows = t1.sum(axis=1)
    l1_cols = t1.sum(axis=0)
    flags_rows = (l1_rows >= 0.0).astype(float)
    flags_cols = (l1_cols >= 0.0).astype(float)
    l2_cols = flags_rows @ t2
    l2_rows = t2 @ flags_cols
    return SPTypeEstimate(
        row_types=_line_types(l1_rows, l2_rows),
        col_types=_line_types(l1_cols, l2_cols),
        presence_llr_rows=l1_rows,
        presence_llr_cols=l1_cols,
        completeness_llr_rows=l2_rows,
        completeness_llr_cols=l2_cols,
        sneak_llr=sneak_llr,
    )


def _transposed(est: SPTypeEstimate) -> SPTypeEstimate:
    """The estimate of the transposed readout: rows and columns swap roles."""
    return SPTypeEstimate(est.col_types, est.row_types, est.presence_llr_cols,
                          est.presence_llr_rows, est.completeness_llr_cols,
                          est.completeness_llr_rows, est.sneak_llr.T)


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
    if np.all(est.row_types == 0.0) and np.all(est.col_types == 0.0):
        return PATTERN_NONE
    if np.any(est.col_types == 0.5) or np.any(est.row_types == 0.5):
        return PATTERN_DOUBLE
    return PATTERN_SINGLE


# ---------------------------------------------------------------------------
# Single-failure localization and recovery.
# ---------------------------------------------------------------------------

def _partial_lines(line_types: np.ndarray, skip) -> np.ndarray:
    """Mask of the partially affected lines, less the lines in ``skip``."""
    mask = line_types == 0.5
    mask[list(skip)] = False
    return mask


def _restricted_argmin(values: np.ndarray, mask: np.ndarray) -> int:
    """Argmin over masked indices, widening to all when the mask is empty.

    Ties resolve to the lowest index (np.argmin is first-occurrence).
    """
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        idx = np.arange(values.size)
    return int(idx[np.argmin(values[idx])])


def _failed_row(y: np.ndarray, est: SPTypeEstimate, params: ChannelParams):
    """The failed row of a single failure, and its bits off the failed column.

    The failed row must be class 0, and its bits mirror the column classes
    (a fully affected column crosses the failed row at a stored 1), so the
    class-0 row whose readout best matches the class profile wins.
    """
    levels = np.where(est.col_types == 1.0, params.r1, params.r0)
    resid = ((y - levels[None, :]) ** 2).sum(axis=1)
    return _restricted_argmin(resid, est.row_types == 0.0), (est.col_types == 1.0).astype(np.uint8)


def locate_single_sf(y: np.ndarray, est: SPTypeEstimate, params: ChannelParams):
    """Find the single failed cell and read off its row and column bits."""
    i, row_bits = _failed_row(y, est, params)
    j, col_bits = _failed_row(y.T, _transposed(est), params)
    row_bits[j] = 1
    col_bits[i] = 1
    return i, j, row_bits, col_bits


# ---------------------------------------------------------------------------
# Double-failure localization, pairing, and refinement.
# ---------------------------------------------------------------------------

def _top2(scores: np.ndarray, mask: np.ndarray) -> tuple[int, int]:
    """Two best-scoring indices, ties to the lower index, widening as needed."""
    idx = np.flatnonzero(mask)
    if idx.size < 2:
        idx = np.arange(scores.size)
    order = idx[np.argsort(-scores[idx], kind="stable")]
    return int(order[0]), int(order[1])


def _candidate_rows(d1, d0, mix10, mix1p, est: SPTypeEstimate) -> tuple[int, int]:
    """The two rows that best match a failure row, given the per-cell log-kernels.

    A candidate row is scored against the column classes: class-0 columns
    should read r0, class-1 columns r1, and ambiguous columns split between
    r1 and either r0 (candidate row clear) or r0' (candidate row fully
    affected, which puts a sneak path under its stored 0s).
    """
    ct = est.col_types
    rt = est.row_types
    scores = np.where(ct == 1.0, d1, np.where(ct == 0.0, d0, mix10)).sum(axis=1)
    half_cols = ct == 0.5
    if half_cols.any():
        scores = scores + (rt == 1.0) * (mix1p - mix10)[:, half_cols].sum(axis=1)
    return _top2(scores, rt != 0.5)


def double_sf_candidates(y: np.ndarray, est: SPTypeEstimate, params: ChannelParams):
    """Score every non-ambiguous line as a potential failure line, keep two."""
    d1, d0, dp = _exponent_fields(np.asarray(y, dtype=float), params)
    half = math.log(0.5)
    kernels = (d1, d0, np.logaddexp(d1, d0) + half, np.logaddexp(d1, dp) + half)
    return (_candidate_rows(*kernels, est),
            _candidate_rows(*(k.T for k in kernels), _transposed(est)))


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
    ra, rb = (params.r0_prime if t == 1.0 else params.r0 for t in pair_types)
    r1 = params.r1
    s2 = 2.0 * params.sigma**2
    return (2.0 * y[pair[0]] * (ra - r1) - 2.0 * y[pair[1]] * (rb - r1) + rb**2 - ra**2) / s2


def _pair_bits(line_types: np.ndarray, pair_llr: np.ndarray) -> np.ndarray:
    """Hard (first, second) bits per crossing: classes fix the unambiguous ones.

    Returns a (2, N) uint8 array.  Class 0 -> (0, 0); class 1 -> (1, 1);
    ambiguous -> (0, 1) when the pair LLR is positive, else (1, 0).
    """
    n = line_types.size
    bits = np.zeros((2, n), dtype=np.uint8)
    ones = line_types == 1.0
    bits[0, ones] = 1
    bits[1, ones] = 1
    unc = line_types == 0.5
    bits[0, unc] = (pair_llr[unc] <= 0.0).astype(np.uint8)
    bits[1, unc] = (pair_llr[unc] > 0.0).astype(np.uint8)
    return bits


@dataclass(frozen=True)
class PairingDecision:
    chose_h0: bool
    case: str
    score: float
    tie: bool


def resolve_pairing(
    y: np.ndarray,
    est: SPTypeEstimate,
    i_pair: tuple[int, int],
    j_pair: tuple[int, int],
    row_pair_bits: np.ndarray,
    col_pair_bits: np.ndarray,
    params: ChannelParams,
) -> PairingDecision:
    """Decide whether failures sit at (i1,j1),(i2,j2) or at (i1,j2),(i2,j1).

    The candidate line classes pick the method: all-clear lines expose the
    failed cells directly in the four crossings (stored 1s read r1); mixed
    classes pair each fully affected line with a clear one; all-complete
    falls back to counting incompatible plain-HRS cells implied by either
    pairing, as does any class pattern outside the three consistent ones.
    """
    i1, i2 = i_pair
    j1, j2 = j_pair
    ti = (float(est.row_types[i1]), float(est.row_types[i2]))
    tj = (float(est.col_types[j1]), float(est.col_types[j2]))

    if ti == (0.0, 0.0) and tj == (0.0, 0.0):
        score = (
            (y[i1, j1] + y[i2, j2] - y[i1, j2] - y[i2, j1])
            * (params.r1 - params.r0)
            / params.sigma**2
        )
        return PairingDecision(chose_h0=bool(score > 0.0), case=CASE_ALL_CLEAR,
                               score=float(score), tie=bool(score == 0.0))

    if sorted(ti) == [0.0, 1.0] and sorted(tj) == [0.0, 1.0]:
        # A failure couples a fully affected line with a clear one.
        chose_h0 = ti[0] != tj[0]
        return PairingDecision(chose_h0=chose_h0, case=CASE_MIXED, score=math.nan, tie=False)

    case = CASE_ALL_COMPLETE if ti == (1.0, 1.0) and tj == (1.0, 1.0) else CASE_FALLBACK
    # Hard-decide every outside cell to its nearest level; a pairing that
    # implies a sneak path over a cell reading plain r0 is contradicted.
    is_r0 = (y > (params.r0_prime + params.r0) / 2.0).astype(float)
    row_diff = row_pair_bits[0].astype(float) - row_pair_bits[1].astype(float)
    col_diff = col_pair_bits[1].astype(float) - col_pair_bits[0].astype(float)
    row_diff[[j1, j2]] = 0.0
    col_diff[[i1, i2]] = 0.0
    score = float(col_diff @ is_r0 @ row_diff)
    return PairingDecision(chose_h0=bool(score > 0.0), case=case,
                           score=score, tie=bool(score == 0.0))


def refine_uncertain_pairs(
    y: np.ndarray,
    est: SPTypeEstimate,
    i_pair: tuple[int, int],
    j_pair_ordered: tuple[int, int],
    row_pair_llr: np.ndarray,
    col_pair_llr: np.ndarray,
    params: ChannelParams,
):
    """Sharpen ambiguous pair decisions using the cells they jointly explain.

    Each outside cell (m, n) with both its row and column ambiguous ties the
    row-pair decision at column n to the column-pair decision at row m: the
    cell reads the sneak-path level only when the two pair assignments place
    stored 1s on the same failure.  The first-pass pair LLRs act as priors
    and the updates stay in the log domain, so nothing overflows.

    ``col_pair_llr`` must be ordered consistently with ``j_pair_ordered``.
    Returns updated (row_pair_llr, col_pair_llr).
    """
    unc_cols = np.flatnonzero(_partial_lines(est.col_types, j_pair_ordered))
    unc_rows = np.flatnonzero(_partial_lines(est.row_types, i_pair))
    l2_rows = row_pair_llr.astype(float)
    l2_cols = col_pair_llr.astype(float)
    if unc_cols.size == 0 or unc_rows.size == 0:
        return l2_rows, l2_cols
    sub = np.asarray(y, dtype=float)[np.ix_(unc_rows, unc_cols)]
    lg_clear, lg_sp = _clear_and_capable(_exponent_fields(sub, params), params.q)
    l2_rows[unc_cols] += _messages_to_row_pair(col_pair_llr[unc_rows], lg_clear, lg_sp)
    l2_cols[unc_rows] += _messages_to_row_pair(row_pair_llr[unc_cols], lg_clear.T, lg_sp.T)
    return l2_rows, l2_cols


def _messages_to_row_pair(col_pair_llr: np.ndarray, lg_clear: np.ndarray, lg_sp: np.ndarray):
    """Per column, the messages to the row pair summed over rows (column-pair LLR per row)."""
    prior = col_pair_llr[:, None]
    msg = np.logaddexp(prior + lg_sp, lg_clear) - np.logaddexp(prior + lg_clear, lg_sp)
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
    sp_potential = np.zeros(y.shape, dtype=bool)
    for (i, j) in sf_locations:
        sp_potential |= (x_sf[:, j] == 1)[:, None] & (x_sf[i, :] == 1)[None, :]
    thr = np.where(sp_potential, gamma_prime, gamma)
    bits = (y <= thr).astype(np.uint8)
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


def _detect_single(y: np.ndarray, est: SPTypeEstimate, params: ChannelParams):
    i, j, row_bits, col_bits = locate_single_sf(y, est, params)
    est_t = _transposed(est)
    rows, cols, score = _settled_lines(i, j, row_bits, col_bits, est, est_t)
    if (est.row_types == 0.5).any() and (est.col_types == 0.5).any():
        # Each settled bit moves the crossing partial lines' evidence, so column
        # first (row first on the transpose) can end elsewhere; keep the better.
        alt_cols, alt_rows, alt_score = _settled_lines(j, i, col_bits, row_bits, est_t, est)
        if alt_score > score:
            rows, cols = alt_rows, alt_cols
    x_sf = np.zeros(y.shape, dtype=np.uint8)
    x_sf[i, :] = rows
    x_sf[:, j] = cols
    return x_sf, SFHypothesis(kind=PATTERN_SINGLE, locations=((i, j),))


def _detect_double(y: np.ndarray, est: SPTypeEstimate, params: ChannelParams):
    i_pair, j_pair = double_sf_candidates(y, est, params)
    i1, i2 = i_pair
    j1, j2 = j_pair
    ti = (float(est.row_types[i1]), float(est.row_types[i2]))
    tj = (float(est.col_types[j1]), float(est.col_types[j2]))
    row_llr = uncertain_pair_llr(y, i_pair, ti, params)
    col_llr = uncertain_pair_llr(y.T, j_pair, tj, params)
    row_bits = _pair_bits(est.col_types, row_llr)
    col_bits = _pair_bits(est.row_types, col_llr)

    decision = resolve_pairing(y, est, i_pair, j_pair, row_bits, col_bits, params)
    if decision.chose_h0:
        ja, jb = j1, j2
        col_llr_ordered = col_llr
    else:
        ja, jb = j2, j1
        col_llr_ordered = -col_llr

    if decision.case == CASE_ALL_COMPLETE:
        row_llr, col_llr_ordered = refine_uncertain_pairs(
            y, est, i_pair, (ja, jb), row_llr, col_llr_ordered, params
        )
        row_bits = _pair_bits(est.col_types, row_llr)
    col_bits_ordered = _pair_bits(est.row_types, col_llr_ordered)

    x_sf = np.zeros(y.shape, dtype=np.uint8)
    x_sf[i1], x_sf[i2] = row_bits
    x_sf[:, ja], x_sf[:, jb] = col_bits_ordered
    # Failed cells store 1 by definition; the other two crossings follow the
    # class correspondence (fully affected line <=> crossing stores 1).
    x_sf[i1, ja] = 1
    x_sf[i2, jb] = 1
    x_sf[i1, jb] = 1 if (est.row_types[i1] == 1.0 or est.col_types[jb] == 1.0) else 0
    x_sf[i2, ja] = 1 if (est.row_types[i2] == 1.0 or est.col_types[ja] == 1.0) else 0

    locations = ((i1, ja), (i2, jb))
    hyp = SFHypothesis(
        kind=PATTERN_DOUBLE,
        locations=locations,
        row_candidates=i_pair,
        col_candidates=j_pair,
        case=decision.case,
        chose_h0=decision.chose_h0,
        pairing_score=decision.score,
        pairing_tie=decision.tie,
    )
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

    Raises ValueError unless ``y`` is a finite square matrix.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[0] != y.shape[1]:
        raise ValueError(f"readout must be a square matrix, got shape {y.shape}")
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
    for k, localize in enumerate((_detect_single, _detect_double)[:proposal], start=1):
        cand_x_sf, cand_hyp = localize(y, est, params)
        score = log_prior[k] + _sneak_evidence(est.sneak_llr, cand_x_sf, cand_hyp.locations)
        if score >= best:
            x_sf, hyp, best = cand_x_sf, cand_hyp, score
    x_hat = detect_non_sf(y, hyp.locations, x_sf, params)
    return DetectionResult(x_hat=x_hat, hypothesis=hyp, sp_types=est)
