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


def _line_penalties(x: np.ndarray, e: np.ndarray, types_across: np.ndarray, axis: int):
    """Noiseless matching penalty of every line against the class profile.

    A line is scored position-by-position against the orthogonal classes:
    positions whose class is 1 expect a stored 1 (reading r1), class 0
    expects a stored 0 (reading r0); ambiguous positions carry no
    preference.  A mismatch costs (r0 - r1)^2 unless the cell actually
    reads the sneak-path level, which costs (r0' - r1)^2 -- a factor 81
    smaller at the default levels.  Returned in units of the smaller cost.
    """
    profile = types_across == COMPLETE
    det = types_across != INCOMPLETE
    bits = (x if axis == 0 else x.T).astype(bool)[:, det]
    sp = (e if axis == 0 else e.T).astype(bool)[:, det]
    mismatch = bits != profile[det][None, :]
    small = mismatch & profile[det][None, :] & sp
    return np.where(mismatch, np.where(small, 1, 81), 0).sum(axis=1)


def _impostor_margin_ok(
    x: np.ndarray,
    e: np.ndarray,
    types_along: np.ndarray,
    types_across: np.ndarray,
    true_lines: tuple[int, ...],
    axis: int,
    eligible: np.ndarray,
) -> bool:
    """Every true failure line must beat every other candidate line strictly.

    ``eligible`` marks the lines the localization step may pick from.  With
    equal penalties the lower index would win, so ties are rejected too.
    """
    pen = _line_penalties(x, e, types_across, axis)
    worst_true = pen[list(true_lines)].max()
    others = eligible.copy()
    others[list(true_lines)] = False
    if not others.any():
        return True
    return bool(pen[others].min() > worst_true)


def _single_sf_premises(x: np.ndarray, sf: SFPattern, e: np.ndarray) -> bool:
    (i, j) = sf.pairs[0]
    sup = sp_supports(x, sf)
    # The failure must leave traces on both axes, else it is invisible.
    if sup.row_counts[i] == 0 or sup.col_counts[j] == 0:
        return False
    # Line classes as the vanishing-noise pipeline sees them: its second
    # classification pass only weighs crossings with lines that hold
    # sneak-path cells, so a line whose only plain-HRS crossing sits on a
    # sneak-path-free (e.g. failure) line still looks fully affected.  The
    # literal class crosses with merely *supported* lines; the two views
    # coincide asymptotically and on every instance this module emits.
    view = line_classes(x, e, e.any(axis=1), e.any(axis=0))
    rt, ct = view.row_types, view.col_types
    # Every supported non-failure line must close at least one sneak path.
    row_sup = sup.cells.any(axis=1)
    col_sup = sup.cells.any(axis=0)
    if not np.all(rt[row_sup & (np.arange(x.shape[0]) != i)] == COMPLETE):
        return False
    if not np.all(ct[col_sup & (np.arange(x.shape[0]) != j)] == COMPLETE):
        return False
    if not _impostor_margin_ok(x, e, rt, ct, (i,), 0, rt == NON_SP):
        return False
    return _impostor_margin_ok(x, e, ct, rt, (j,), 1, ct == NON_SP)


def _double_sf_premises(x: np.ndarray, sf: SFPattern, e: np.ndarray, cross) -> bool:
    (i, j), (ip, jp) = sf.pairs
    if (int(x[i, jp]), int(x[ip, j])) != cross:
        return False
    sup = sp_supports(x, sf)
    n = x.shape[0]
    # The noiseless view, as in _single_sf_premises.
    view = line_classes(x, e, e.any(axis=1), e.any(axis=0))
    rt, ct = view.row_types, view.col_types
    others_r = np.ones(n, dtype=bool)
    others_r[[i, ip]] = False
    others_c = np.ones(n, dtype=bool)
    others_c[[j, jp]] = False
    # Non-failure lines: support count 1 <=> partially affected, 2 <=> fully.
    expect_r = np.where(sup.row_counts == 0, NON_SP, np.where(sup.row_counts == 1, INCOMPLETE, COMPLETE))
    expect_c = np.where(sup.col_counts == 0, NON_SP, np.where(sup.col_counts == 1, INCOMPLETE, COMPLETE))
    if not np.all(rt[others_r] == expect_r[others_r]):
        return False
    if not np.all(ct[others_c] == expect_c[others_c]):
        return False
    # Failure lines: crossing bit 1 <=> fully affected, 0 <=> clear.
    for line_t, bit in (
        (rt[i], cross[0]),
        (ct[jp], cross[0]),
        (rt[ip], cross[1]),
        (ct[j], cross[1]),
    ):
        if line_t != (COMPLETE if bit else NON_SP):
            return False
    # The pattern is only declared double if some line is partially affected.
    if not (np.any(rt == INCOMPLETE) or np.any(ct == INCOMPLETE)):
        return False
    if not _impostor_margin_ok(x, e, rt, ct, (i, ip), 0, rt != INCOMPLETE):
        return False
    if not _impostor_margin_ok(x, e, ct, rt, (j, jp), 1, ct != INCOMPLETE):
        return False
    if cross == (1, 1):
        # The swapped pairing must contradict at least one plain-HRS cell.
        implied = np.outer(x[:, jp], x[i, :]) | np.outer(x[:, j], x[ip, :])
        contr = (x == 0) & (e == 0) & (implied == 1)
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
