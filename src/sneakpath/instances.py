"""Constructed instances on which exact noiseless recovery is possible.

The detector's premises are asymptotic: in a large array, support counts,
line classes, and crossing bits line up one-to-one, failure lines are the
unique best-matching lines, and the two pairings of candidate lines leave
distinguishable traces.  At small dimensions random instances occasionally
violate those premises, and then the stored bits are not recoverable from
the noiseless readout by this scheme (sometimes by any scheme: a failure
with no supports leaves no trace at all).

The generators here rejection-sample instances whose *ground-truth*
structure satisfies every premise, so that a correct implementation must
recover them exactly as noise vanishes.  The conditions are purely
combinatorial (bits, supports, classes, crossing bits); the detector itself
is never consulted, so a detection bug cannot bias the library toward
instances it happens to get right.

Instance kinds cover no failure, a single failure, and the four
double-failure crossing patterns (0,0), (1,0), (0,1), (1,1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SFPattern, compute_sp_indicators, place_sfs, sample_data
from .structure import (COMPLETE, INCOMPLETE, NON_SP, LineTypes, classify_line_types, line_classes,
                        sp_supports)

KIND_NO_SF = "no_sf"
KIND_SINGLE = "single"
KIND_DOUBLE_00 = "double_cross_00"
KIND_DOUBLE_10 = "double_cross_10"
KIND_DOUBLE_01 = "double_cross_01"
KIND_DOUBLE_11 = "double_cross_11"

ALL_KINDS = (
    KIND_NO_SF,
    KIND_SINGLE,
    KIND_DOUBLE_00,
    KIND_DOUBLE_10,
    KIND_DOUBLE_01,
    KIND_DOUBLE_11,
)

# Data draws per instance before giving up.
_MAX_TRIES = 200000

_CROSS_OF_KIND = {
    KIND_DOUBLE_00: (0, 0),
    KIND_DOUBLE_10: (1, 0),
    KIND_DOUBLE_01: (0, 1),
    KIND_DOUBLE_11: (1, 1),
}


@dataclass(frozen=True)
class CaseInstance:
    kind: str
    x: np.ndarray
    sf: SFPattern
    e: np.ndarray
    types: LineTypes


def _no_saturated_lines(x: np.ndarray) -> bool:
    # An all-ones line carries no evidence of being clear.
    return not (x.all(axis=0).any() or x.all(axis=1).any())


def _impostor_margin_ok(x: np.ndarray, e: np.ndarray, col_types: np.ndarray,
                        true_rows: tuple[int, ...], eligible: np.ndarray) -> bool:
    """Every true failure row must beat every other candidate row strictly.

    Rows are scored by their noiseless matching penalty against the column
    classes, position by position: columns whose class is 1 expect a stored
    1 (reading r1), class 0 expects a stored 0 (reading r0); ambiguous
    columns carry no preference.  A mismatch costs (r0 - r1)^2 unless the
    cell actually reads the sneak-path level, which costs (r0' - r1)^2 -- a
    factor 81 smaller at the default levels, and the unit of the penalties.
    ``eligible`` marks the rows the localization step may pick from.  With
    equal penalties the lower index would win, so ties are rejected too.
    """
    profile = col_types == COMPLETE
    det = col_types != INCOMPLETE
    mismatch = x.astype(bool)[:, det] != profile[det][None, :]
    small = mismatch & profile[det][None, :] & e.astype(bool)[:, det]
    pen = np.where(mismatch, np.where(small, 1, 81), 0).sum(axis=1)
    worst_true = pen[list(true_rows)].max()
    others = eligible.copy()
    others[list(true_rows)] = False
    if not others.any():
        return True
    return bool(pen[others].min() > worst_true)


def _single_sf_row_premises(x, e, support_cells, row_types, col_types, i: int) -> bool:
    """Single-failure premises on the rows; the columns' are those of the transpose."""
    row_sup = support_cells.any(axis=1)
    # The failure must leave traces on both axes, else it is invisible.
    if not row_sup[i]:
        return False
    # Every supported non-failure line must close at least one sneak path.
    row_sup[i] = False
    if not np.all(row_types[row_sup] == COMPLETE):
        return False
    return _impostor_margin_ok(x, e, col_types, (i,), row_types == NON_SP)


def _single_sf_premises(x: np.ndarray, sf: SFPattern, e: np.ndarray) -> bool:
    (i, j) = sf.pairs[0]
    sup = sp_supports(x, sf).cells
    # Line classes as the vanishing-noise pipeline sees them: its second
    # classification pass only weighs crossings with lines that hold
    # sneak-path cells, so a line whose only plain-HRS crossing sits on a
    # sneak-path-free (e.g. failure) line still looks fully affected.  The
    # literal class crosses with merely *supported* lines; the two views
    # coincide asymptotically and on every instance this module emits.
    view = line_classes(x, e, e.any(axis=1), e.any(axis=0))
    rt, ct = view.row_types, view.col_types
    return (_single_sf_row_premises(x, e, sup, rt, ct, i)
            and _single_sf_row_premises(x.T, e.T, sup.T, ct, rt, j))


def _double_sf_row_premises(x, e, support_counts, row_types, col_types, rows, cross) -> bool:
    """Double-failure premises on the rows; the columns' are those of the transpose.

    ``cross[k]`` is the bit where failed row ``rows[k]`` crosses the other
    failure's column.
    """
    others = np.ones(x.shape[0], dtype=bool)
    others[list(rows)] = False
    # Non-failure lines: support count 1 <=> partially affected, 2 <=> fully.
    expect = np.where(support_counts == 0, NON_SP,
                      np.where(support_counts == 1, INCOMPLETE, COMPLETE))
    if not np.all(row_types[others] == expect[others]):
        return False
    # Failure lines: crossing bit 1 <=> fully affected, 0 <=> clear.
    if any(row_types[r] != (COMPLETE if bit else NON_SP) for r, bit in zip(rows, cross)):
        return False
    return _impostor_margin_ok(x, e, col_types, rows, row_types != INCOMPLETE)


def _double_sf_premises(x: np.ndarray, sf: SFPattern, e: np.ndarray, cross) -> bool:
    (i, j), (ip, jp) = sf.pairs
    if (int(x[i, jp]), int(x[ip, j])) != cross:
        return False
    sup = sp_supports(x, sf)
    # The noiseless view, as in _single_sf_premises.
    view = line_classes(x, e, e.any(axis=1), e.any(axis=0))
    rt, ct = view.row_types, view.col_types
    # The pattern is only declared double if some line is partially affected.
    if not (np.any(rt == INCOMPLETE) or np.any(ct == INCOMPLETE)):
        return False
    # Row i crosses column j' at cross[0], row i' column j at cross[1].
    if not (_double_sf_row_premises(x, e, sup.row_counts, rt, ct, (i, ip), cross)
            and _double_sf_row_premises(x.T, e.T, sup.col_counts, ct, rt, (j, jp), cross[::-1])):
        return False
    if cross == (1, 1):
        # The swapped pairing must contradict at least one plain-HRS cell.
        contr = compute_sp_indicators(x, SFPattern(((i, jp), (ip, j)))).astype(bool) & (e == 0)
        contr[[i, ip], :] = False
        contr[:, [j, jp]] = False
        if not contr.any():
            return False
    return True


def make_case_instance(kind: str, n: int, q: float, rng: np.random.Generator) -> CaseInstance:
    """Sample one instance of the requested kind satisfying every premise."""
    if kind not in ALL_KINDS:
        raise ValueError(f"unknown instance kind {kind!r}; known: {ALL_KINDS}")
    for _ in range(_MAX_TRIES):
        x = sample_data(n, q, rng)
        if not _no_saturated_lines(x):
            continue
        if kind == KIND_NO_SF:
            sf = SFPattern(())
        else:
            try:
                sf = place_sfs(x, 1 if kind == KIND_SINGLE else 2, rng)
            except ValueError:
                continue
            if len(sf) == 2:
                # Canonical order: lower row index first.
                pairs = tuple(sorted(sf.pairs))
                sf = SFPattern(pairs)
        e = compute_sp_indicators(x, sf)
        if kind == KIND_SINGLE and not _single_sf_premises(x, sf, e):
            continue
        if kind in _CROSS_OF_KIND and not _double_sf_premises(x, sf, e, _CROSS_OF_KIND[kind]):
            continue
        types = classify_line_types(x, e, sf)
        return CaseInstance(kind=kind, x=x, sf=sf, e=e, types=types)
    raise RuntimeError(f"no valid {kind!r} instance found in {_MAX_TRIES} tries (n={n}, q={q})")


def make_case_library(
    sizes=(16, 32, 64), per_case: int = 34, q: float = 0.5, seed: int = 7
) -> list[CaseInstance]:
    """Instances of every kind at every size; >= 600 at the defaults."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    library = []
    for n in sizes:
        for kind in ALL_KINDS:
            for _ in range(per_case):
                library.append(make_case_instance(kind, n, q, rng))
    return library
