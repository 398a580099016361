"""Ground-truth combinatorics of sneak-path structure.

Given the stored bits and the active selector failures, every row and column
falls into one of three classes:

* ``NON_SP`` (0.0)  no sneak-path cell in the line,
* ``INCOMPLETE`` (0.5)  the line has sneak-path cells but some critical cell
  reads plain HRS (only possible with two failures),
* ``COMPLETE`` (1.0)  the line has sneak-path cells and every critical cell
  reads LRS or the degraded sneak-path level.

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
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .channel import SFPattern

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
    b = np.asarray(x, dtype=bool)
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
    return LineTypes(row_types=_line_class(e.any(axis=-1), partial_rows),
                     col_types=_line_class(e.any(axis=-2), partial_cols))


def _line_class(has_sp: np.ndarray, is_partial: np.ndarray) -> np.ndarray:
    """Class of lines that hold sneak-path cells or not, partial or not.

    The one class rule: the ground truth here, the detector's estimate and
    the instance screen all map their evidence to classes through it.
    """
    return np.where(has_sp, np.where(is_partial, INCOMPLETE, COMPLETE), NON_SP)


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
    for (r, c) in ((i, jp), (ip, j)):
        bit = int(x[r, c])
        rt = float(types.row_types[r])
        ct = float(types.col_types[c])
        if bit == 0:
            if rt != NON_SP:
                violations.append(f"x[{r},{c}]=0 but row {r} has class {rt}")
            if ct != NON_SP:
                violations.append(f"x[{r},{c}]=0 but col {c} has class {ct}")
        if rt == COMPLETE and bit != 1:
            violations.append(f"row {r} complete but x[{r},{c}]={bit}")
        if ct == COMPLETE and bit != 1:
            violations.append(f"col {c} complete but x[{r},{c}]={bit}")
    return CorrespondenceReport(cross_bits=(int(x[i, jp]), int(x[ip, j])),
                                violations=tuple(violations))


# ---------------------------------------------------------------------------
# Structural events and their Monte Carlo estimation.
#
# Failures sit at fixed cells ((0,0) alone, or (0,0) and (1,1)) with their
# bits forced to 1; everything else is i.i.d. Bernoulli(q).  That is exactly
# the probability space the closed forms live in, and fixing the locations
# costs no generality because the cell labels are exchangeable.  Each trial
# contributes at most one sample, taken from one designated line (index 2,
# or a failure line), so the samples are independent Bernoulli draws.
# ---------------------------------------------------------------------------

_SINGLE = ((0, 0),)
_DOUBLE = ((0, 0), (1, 1))
_M = 2  # designated non-failure row
# Cells drawn per batch (whole arrays, at least one).  The Generator fills
# doubles in order, so the batch size leaves the counts as they are.
_EVENT_CELLS = 1 << 20


@dataclass(frozen=True)
class EventForm:
    """One structural event: its closed form and how to sample it.

    ``probability(q, n)`` is the closed form, exact or (``exact`` False) a
    lower bound that is tested one-sidedly.  ``failures`` fixes the failed
    cells, and ``masks(bits, row, col)`` maps a batch of (B, N, N) boolean
    bits to the condition and success masks of the event, one entry per
    array; ``row(m)`` and ``col(n)`` give the (B,) classes of row m and
    column n, computed only for the lines the event reads.
    """

    probability: Callable[[float, int], float]
    exact: bool
    failures: tuple[tuple[int, int], ...]
    masks: Callable


EVENT_FORMS: dict[str, EventForm] = {
    # single failure: a supported non-failure line is complete
    "single_sf_supported_line_complete": EventForm(
        lambda q, n: 1.0 - (1.0 - (1.0 - q) * q) ** (n - 1), True, _SINGLE,
        lambda b, row, col: (b[:, _M, 0], row(_M) == COMPLETE)),
    # double failure: a doubly-supported non-failure line is complete
    "double_sf_double_supported_complete": EventForm(
        lambda q, n: 1.0 - (q + (1.0 - q) ** 3) ** (n - 2), True, _DOUBLE,
        lambda b, row, col: (b[:, _M, 0] & b[:, _M, 1], row(_M) == COMPLETE)),
    # double failure: a complete non-failure line is doubly supported (bound)
    "double_sf_complete_double_supported": EventForm(
        lambda q, n: 1.0 - 2.0 * (1.0 - q * (1.0 - q) ** 2) ** (n - 2) / q**2, False, _DOUBLE,
        lambda b, row, col: (row(_M) == COMPLETE, b[:, _M, 0] & b[:, _M, 1])),
    # double failure: a singly-supported non-failure line is incomplete (bound)
    "double_sf_single_supported_incomplete": EventForm(
        lambda q, n: 1.0 - 2.0 * (1.0 - q * (1.0 - q) ** 2) ** (n - 2), False, _DOUBLE,
        lambda b, row, col: (b[:, _M, 0] ^ b[:, _M, 1], row(_M) == INCOMPLETE)),
    # double failure: crossing bit 1 makes the failure line complete
    "double_sf_cross_one_line_complete": EventForm(
        lambda q, n: 1.0 - (q + (1.0 - q) ** 2) ** (n - 2), True, _DOUBLE,
        lambda b, row, col: (b[:, 0, 1], row(0) == COMPLETE)),
    # double failure: both failure lines class 0 makes the crossing bit 0 (bound)
    "double_sf_lines_nonsp_cross_zero": EventForm(
        lambda q, n: 1.0 - q * (q + (1.0 - q) ** 2) ** (2 * n - 4) / (1.0 - q), False, _DOUBLE,
        lambda b, row, col: ((row(0) == NON_SP) & (col(1) == NON_SP), ~b[:, 0, 1])),
}


def _row_class(b: np.ndarray, pairs, m: int) -> np.ndarray:
    """Class of row ``m`` of every array in a (B, N, N) bool batch, as
    :func:`classify_line_types` gives it, reading O(N) cells per array.

    The crossing columns are the 1s of the failure rows off the failed
    cells, plus each failure column holding a 1 off its failure row.  A
    column's class is the row class of the transposed batch under the
    transposed failures.
    """
    row = b[:, m, :]
    sp = np.zeros_like(row)
    cross = np.zeros_like(row)
    for (i, j) in pairs:
        sp |= b[:, m, j, None] & b[:, i, :]
        cross |= b[:, i, :]
        cross[:, j] = b[:, :i, j].any(axis=-1) | b[:, i + 1:, j].any(axis=-1)
    sp &= ~row
    return _line_class(sp.any(axis=-1), (cross & ~row & ~sp).any(axis=-1))


def event_probability(event: str, q: float, n: int) -> float:
    """Closed-form probability (or lower bound) of a structural event."""
    if event not in EVENT_FORMS:
        raise KeyError(f"unknown event {event!r}; known: {sorted(EVENT_FORMS)}")
    _check_channel(n, q)
    return float(EVENT_FORMS[event].probability(q, n))


def _check_channel(n: int, q: float) -> None:
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie in (0, 1), got {q}")
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")


def check_event_settings(n: int, q: float, trials: int, seed: int) -> None:
    """Raise ValueError unless the event checks can run with these settings."""
    _check_channel(n, q)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


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

    @property
    def shortfall(self) -> float:
        """Standard errors by which the estimate misses its form.

        |z| for an exact form; only a shortfall below a lower bound counts.
        """
        return max(0.0, -self.z) if self.is_lower_bound else abs(self.z)

    def within(self, n_se: float = 3.0) -> bool:
        """Two-sided check for exact forms, one-sided for lower bounds."""
        return not math.isnan(self.z) and self.shortfall <= n_se


def estimate_event_frequency(event: str, n: int, q: float, trials: int, seed: int) -> EventEstimate:
    """Estimate one event frequency with ``trials`` independent arrays.

    Raises ValueError unless :func:`check_event_settings` accepts the settings.
    """
    check_event_settings(n, q, trials, seed)
    predicted = event_probability(event, q, n)
    form = EVENT_FORMS[event]
    flipped = tuple((j, i) for (i, j) in form.failures)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    samples = 0
    successes = 0
    done = 0
    while done < trials:
        b = min(max(1, _EVENT_CELLS // (n * n)), trials - done)
        ones = rng.random((b, n, n)) < q
        for (i, j) in form.failures:
            ones[:, i, j] = True
        cond, succ = form.masks(ones, partial(_row_class, ones, form.failures),
                                partial(_row_class, ones.transpose(0, 2, 1), flipped))
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
        is_lower_bound=not form.exact,
    )


def verify_event_frequencies(
    n: int, q: float, trials: int, seed: int
) -> list[EventEstimate]:
    """Run all structural-event Monte Carlo checks with one seed."""
    out = []
    for k, event in enumerate(sorted(EVENT_FORMS)):
        out.append(estimate_event_frequency(event, n, q, trials, seed + k))
    return out
