"""Ground-truth combinatorics of sneak-path structure.

Given the stored bits and the active selector failures, every row and column
falls into one of three classes:

* ``0.0``  no sneak-path cell in the line,
* ``0.5``  the line has sneak-path cells but some critical cell reads plain
  HRS (an "incomplete" line; only possible with two failures),
* ``1.0``  the line has sneak-path cells and every critical cell reads LRS
  or the degraded sneak-path level (a "complete" line).

A *support* is a stored 1 inside a failure's row or column (excluding the
failed cell itself); a *critical cell* sits at the crossing of a supported
row and a supported column.  These classes drive the detector, and their
occurrence probabilities have closed forms that the Monte Carlo estimators
here are checked against.

This module is the oracle side of the project: nothing in it looks at noisy
readouts, only at the true bits and failure locations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SFPattern, _sp_cells

NON_SP = 0.0
INCOMPLETE = 0.5
COMPLETE = 1.0


@dataclass(frozen=True)
class SupportSummary:
    """Support cells and their per-line counts.

    ``row_counts[m]`` / ``col_counts[n]`` count support cells lying in the
    line; failed cells themselves never count.
    """

    cells: np.ndarray        # (N, N) bool, support cells
    row_counts: np.ndarray   # (N,) int
    col_counts: np.ndarray   # (N,) int


@dataclass(frozen=True)
class LineTypes:
    """Per-row and per-column classes over {0, 0.5, 1}."""

    row_types: np.ndarray
    col_types: np.ndarray


@dataclass(frozen=True)
class CorrespondenceReport:
    """Outcome of checking crossing bits against line classes."""

    cross_bits: tuple[int, int]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _support_cells(x: np.ndarray, pairs) -> np.ndarray:
    """Support cells of bit arrays of shape (..., N, N) under failures ``pairs``.

    Failures never share a line, so no failure's lines pass through another
    failure's cell, and clearing each failed cell as it is met is exact.
    """
    b = x.astype(bool)
    cells = np.zeros_like(b)
    for (i, j) in pairs:
        cells[..., i, :] |= b[..., i, :]
        cells[..., :, j] |= b[..., :, j]
        cells[..., i, j] = False
    return cells


def sp_supports(x: np.ndarray, sf: SFPattern) -> SupportSummary:
    """Locate all support cells of ``x`` under the failure pattern ``sf``."""
    sf.validate_against(x)
    cells = _support_cells(x, sf.pairs)
    return SupportSummary(
        cells=cells,
        row_counts=cells.sum(axis=1).astype(int),
        col_counts=cells.sum(axis=0).astype(int),
    )


def line_classes(
    x: np.ndarray, e: np.ndarray, cross_rows: np.ndarray, cross_cols: np.ndarray
) -> LineTypes:
    """Classes of every row and column of arrays of shape (..., N, N).

    A line with sneak-path cells is partially affected when it holds a
    plain-HRS cell (x = 0, e = 0) on a crossing line and fully affected
    otherwise.  ``cross_rows`` (..., N) and ``cross_cols`` (..., N) mark the
    crossing lines: the supported lines for the literal class of
    :func:`classify_line_types`, the lines holding sneak-path cells for the
    view of the vanishing-noise detector (see :mod:`sneakpath.instances`).
    """
    plain_hrs = ~np.logical_or(x, e)
    partial_rows = (plain_hrs & cross_cols[..., None, :]).any(axis=-1)
    partial_cols = (plain_hrs & cross_rows[..., :, None]).any(axis=-2)
    return LineTypes(
        row_types=np.where(e.any(axis=-1), np.where(partial_rows, INCOMPLETE, COMPLETE), NON_SP),
        col_types=np.where(e.any(axis=-2), np.where(partial_cols, INCOMPLETE, COMPLETE), NON_SP),
    )


def classify_line_types(x: np.ndarray, e: np.ndarray, sf: SFPattern) -> LineTypes:
    """Classify every row and column of a realized array (ground truth).

    The crossing lines are the supported ones, so a line's plain-HRS cells
    count where they are critical.  A line with a sneak-path cell always
    holds a support itself, so its own side of the critical mask adds
    nothing.
    """
    cells = sp_supports(x, sf).cells
    return line_classes(x, e, cells.any(axis=1), cells.any(axis=0))


def verify_intersection_correspondence(
    x: np.ndarray, sf: SFPattern, types: LineTypes
) -> CorrespondenceReport:
    """Check the deterministic links between crossing bits and line classes.

    For failures at (i, j) and (i', j'): a crossing bit x[i, j'] of 0 forces
    row i and column j' to be class 0, and a complete class on either of
    those lines forces the crossing bit to be 1.  Requires exactly two
    failures.
    """
    if len(sf) != 2:
        raise ValueError("correspondence check applies to double-failure instances only")
    (i, j), (ip, jp) = sf.pairs
    violations: list[str] = []
    checks = [
        (i, jp, "row", i, "col", jp),
        (ip, j, "row", ip, "col", j),
    ]
    cross_bits = (int(x[i, jp]), int(x[ip, j]))
    for (r, c, _, row_idx, _, col_idx) in checks:
        bit = int(x[r, c])
        rt = float(types.row_types[row_idx])
        ct = float(types.col_types[col_idx])
        if bit == 0:
            if rt != NON_SP:
                violations.append(f"x[{r},{c}]=0 but row {row_idx} has class {rt}")
            if ct != NON_SP:
                violations.append(f"x[{r},{c}]=0 but col {col_idx} has class {ct}")
        if rt == COMPLETE and bit != 1:
            violations.append(f"row {row_idx} complete but x[{r},{c}]={bit}")
        if ct == COMPLETE and bit != 1:
            violations.append(f"col {col_idx} complete but x[{r},{c}]={bit}")
    return CorrespondenceReport(cross_bits=cross_bits, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Closed-form event probabilities.
#
# Each entry maps an event name to (probability function of (q, n), exact?).
# The inexact entries are lower bounds and are tested one-sidedly.
# ---------------------------------------------------------------------------

def _p_single_supported_complete(q: float, n: int) -> float:
    return 1.0 - (1.0 - (1.0 - q) * q) ** (n - 1)


def _p_double_supported_complete(q: float, n: int) -> float:
    return 1.0 - (q + (1.0 - q) ** 3) ** (n - 2)


def _p_complete_is_double_supported(q: float, n: int) -> float:
    return 1.0 - 2.0 * (1.0 - q * (1.0 - q) ** 2) ** (n - 2) / q**2


def _p_single_supported_incomplete(q: float, n: int) -> float:
    return 1.0 - 2.0 * (1.0 - q * (1.0 - q) ** 2) ** (n - 2)


def _p_cross_one_line_complete(q: float, n: int) -> float:
    return 1.0 - (q + (1.0 - q) ** 2) ** (n - 2)


def _p_lines_nonsp_cross_zero(q: float, n: int) -> float:
    return 1.0 - q * (q + (1.0 - q) ** 2) ** (2 * n - 4) / (1.0 - q)


EVENT_FORMS: dict[str, tuple] = {
    # single failure: a supported non-failure line is complete
    "single_sf_supported_line_complete": (_p_single_supported_complete, True),
    # double failure: a doubly-supported non-failure line is complete
    "double_sf_double_supported_complete": (_p_double_supported_complete, True),
    # double failure: a complete non-failure line is doubly supported (bound)
    "double_sf_complete_double_supported": (_p_complete_is_double_supported, False),
    # double failure: a singly-supported non-failure line is incomplete (bound)
    "double_sf_single_supported_incomplete": (_p_single_supported_incomplete, False),
    # double failure: crossing bit 1 makes the failure line complete
    "double_sf_cross_one_line_complete": (_p_cross_one_line_complete, True),
    # double failure: both failure lines class 0 makes the crossing bit 0 (bound)
    "double_sf_lines_nonsp_cross_zero": (_p_lines_nonsp_cross_zero, False),
}


def event_probability(event: str, q: float, n: int) -> float:
    """Closed-form probability (or lower bound) of a structural event."""
    if event not in EVENT_FORMS:
        raise KeyError(f"unknown event {event!r}; known: {sorted(EVENT_FORMS)}")
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie in (0, 1), got {q}")
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    fn, _ = EVENT_FORMS[event]
    return float(fn(q, n))


def event_is_lower_bound(event: str) -> bool:
    if event not in EVENT_FORMS:
        raise KeyError(f"unknown event {event!r}")
    return not EVENT_FORMS[event][1]


# ---------------------------------------------------------------------------
# Batched Monte Carlo estimation of the events above.
#
# Failures sit at fixed cells ((0,0) alone, or (0,0) and (1,1)) with their
# bits forced to 1; everything else is i.i.d. Bernoulli(q).  That is exactly
# the probability space the closed forms live in, and fixing the locations
# costs no generality because the cell labels are exchangeable.  Each trial
# contributes at most one sample, taken from designated line index 2, so the
# samples are independent Bernoulli draws.
# ---------------------------------------------------------------------------

_DESIGNATED_ROW = 2
# Arrays drawn per batch.
_EVENT_CHUNK = 20000


@dataclass(frozen=True)
class EventEstimate:
    """Monte Carlo estimate of one structural event frequency."""

    event: str
    n: int
    q: float
    trials: int
    samples: int
    successes: int
    predicted: float
    is_lower_bound: bool

    @property
    def frequency(self) -> float:
        return self.successes / self.samples if self.samples else math.nan

    @property
    def stderr(self) -> float:
        """Binomial standard error under the predicted probability."""
        if self.samples == 0:
            return math.nan
        p = min(max(self.predicted, 0.0), 1.0)
        return math.sqrt(p * (1.0 - p) / self.samples)

    @property
    def z(self) -> float:
        se = self.stderr
        if not se:
            return 0.0 if self.frequency == self.predicted else math.inf
        return (self.frequency - self.predicted) / se

    def within(self, n_se: float = 3.0) -> bool:
        """Two-sided check for exact forms, one-sided for lower bounds."""
        if math.isnan(self.z):
            return False
        if self.is_lower_bound:
            return self.z >= -n_se
        return abs(self.z) <= n_se


def _event_masks(event: str, bits: np.ndarray, row_types: np.ndarray, col_types: np.ndarray):
    """Condition and success masks over a batch, per event definition."""
    m = _DESIGNATED_ROW
    rt = row_types[:, m]
    if event == "single_sf_supported_line_complete":
        cond = bits[:, m, 0] == 1
        succ = rt == COMPLETE
    elif event == "double_sf_double_supported_complete":
        cond = (bits[:, m, 0] == 1) & (bits[:, m, 1] == 1)
        succ = rt == COMPLETE
    elif event == "double_sf_complete_double_supported":
        cond = rt == COMPLETE
        succ = (bits[:, m, 0] == 1) & (bits[:, m, 1] == 1)
    elif event == "double_sf_single_supported_incomplete":
        cond = (bits[:, m, 0].astype(int) + bits[:, m, 1]) == 1
        succ = rt == INCOMPLETE
    elif event == "double_sf_cross_one_line_complete":
        cond = bits[:, 0, 1] == 1
        succ = row_types[:, 0] == COMPLETE
    elif event == "double_sf_lines_nonsp_cross_zero":
        cond = (row_types[:, 0] == NON_SP) & (col_types[:, 1] == NON_SP)
        succ = bits[:, 0, 1] == 0
    else:
        raise KeyError(f"unknown event {event!r}")
    return cond, succ


def estimate_event_frequency(event: str, n: int, q: float, trials: int, seed: int) -> EventEstimate:
    """Estimate one event frequency with ``trials`` independent arrays."""
    predicted = event_probability(event, q, n)
    single = event == "single_sf_supported_line_complete"
    sf_cells = [(0, 0)] if single else [(0, 0), (1, 1)]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    samples = 0
    successes = 0
    done = 0
    while done < trials:
        b = min(_EVENT_CHUNK, trials - done)
        bits = (rng.random((b, n, n)) < q).astype(np.uint8)
        for (i, j) in sf_cells:
            bits[:, i, j] = 1
        ones = bits.astype(bool)
        e = _sp_cells(ones, sf_cells)
        sup = _support_cells(ones, sf_cells)
        types = line_classes(ones, e, sup.any(axis=-1), sup.any(axis=-2))
        cond, succ = _event_masks(event, bits, types.row_types, types.col_types)
        samples += int(cond.sum())
        successes += int((cond & succ).sum())
        done += b
    return EventEstimate(
        event=event,
        n=n,
        q=q,
        trials=trials,
        samples=samples,
        successes=successes,
        predicted=predicted,
        is_lower_bound=event_is_lower_bound(event),
    )


def verify_event_frequencies(
    n: int, q: float, trials: int, seed: int
) -> list[EventEstimate]:
    """Run all structural-event Monte Carlo checks with one seed."""
    out = []
    for k, event in enumerate(sorted(EVENT_FORMS)):
        out.append(estimate_event_frequency(event, n, q, trials, seed + k))
    return out
