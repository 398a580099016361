"""Monte Carlo experiment runner.

Sweeps noise levels, generates independent channel uses, runs the selected
detectors on the same instances, and accumulates integer error counters.
Each trial owns a random substream keyed by (seed, sigma index, trial
index), and all statistics are derived from integer counters after the
sweep, so results are bit-identical regardless of how many worker
processes execute the trials.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from .baseline import detect_baseline, optimal_threshold
from .bounds import REFERENCE_SF_DIST, SFCountDistribution, asymptotic_bound, ber_lower_bound
from .channel import ChannelParams, SFPattern, sample_instance
from .detector import detect_array, detect_non_sf

DETECTOR_PROPOSED = "proposed"
DETECTOR_BASELINE = "baseline"
DETECTOR_ORACLE = "oracle"  # genie: told the true failure rows and columns
DETECTORS = (DETECTOR_PROPOSED, DETECTOR_BASELINE, DETECTOR_ORACLE)

DEFAULT_SIGMAS = tuple(float(s) for s in range(30, 421, 30))

CSV_FIELDS = (
    "sigma", "N", "q", "p0", "p1", "p2", "detector", "trials", "bits",
    "bit_errors", "ber", "sf_loc_trials", "sf_loc_errors", "sf_loc_err_rate",
    "sfrc_bits", "sfrc_errors", "sfrc_ber", "bound_finite",
    "bound_asymptotic", "seed", "elapsed_ms",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; defaults follow the reference experiments."""

    n: int = 128
    q: float = 0.5
    sigma_list: tuple[float, ...] = DEFAULT_SIGMAS
    sf_dist: SFCountDistribution = REFERENCE_SF_DIST
    trials: int = 1000
    detectors: tuple[str, ...] = (DETECTOR_PROPOSED, DETECTOR_BASELINE)
    seed: int = 2024
    out: str | None = None
    workers: int = 1
    r0: float = 1000.0
    r1: float = 100.0
    rs: float = 250.0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.n < 2:
            raise ValueError(f"array dimension must be at least 2, got {self.n}")
        if not self.sigma_list:
            raise ValueError("sigma list is empty")
        for sigma in self.sigma_list:
            self.params_at(sigma)  # the channel checks every setting
        labels = self.detectors
        if not labels or set(labels) - set(DETECTORS) or len(set(labels)) != len(labels):
            raise ValueError(f"detectors must be distinct labels from {DETECTORS}, got {labels}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    def params_at(self, sigma: float) -> ChannelParams:
        return ChannelParams(self.r0, self.r1, self.rs, sigma, self.q)


@dataclass(frozen=True)
class ExperimentRecord:
    """Aggregated counters for one (sigma, detector) cell of a sweep."""

    sigma: float
    n: int
    q: float
    sf_dist: SFCountDistribution
    detector: str
    trials: int
    bits: int
    bit_errors: int
    sf_loc_trials: int
    sf_loc_errors: int
    sfrc_bits: int
    sfrc_errors: int
    bound_finite: float
    bound_asymptotic: float
    seed: int
    elapsed_ms: float

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits if self.bits else float("nan")

    @property
    def sf_loc_err_rate(self) -> float:
        return self.sf_loc_errors / self.sf_loc_trials if self.sf_loc_trials else float("nan")

    @property
    def sfrc_ber(self) -> float:
        return self.sfrc_errors / self.sfrc_bits if self.sfrc_bits else float("nan")


@dataclass(frozen=True)
class SFDiagnostics:
    """Per-trial failure diagnostics against the generation truth."""

    loc_error: bool | None
    sfrc_bits: int
    sfrc_errors: int


def sf_diagnostics(
    x: np.ndarray,
    sf: SFPattern,
    x_hat: np.ndarray,
    declared_locations: tuple[tuple[int, int], ...] | None,
) -> SFDiagnostics:
    """Score one detection against the true failure pattern.

    Localization is correct only when the declared locations equal the true
    ones as sets (an empty declaration matches an empty truth).  The
    row/column bit errors are counted over the union of the *true* failure
    rows and columns, whatever the detector declared there.  Detectors that
    do not declare failures pass None and are not scored on localization.
    """
    loc_error = None
    if declared_locations is not None:
        loc_error = set(declared_locations) != set(sf.pairs)
    if len(sf) == 0:
        return SFDiagnostics(loc_error=loc_error, sfrc_bits=0, sfrc_errors=0)
    mask = np.zeros(x.shape, dtype=bool)
    for (i, j) in sf.pairs:
        mask[i, :] = True
        mask[:, j] = True
    return SFDiagnostics(
        loc_error=loc_error,
        sfrc_bits=int(mask.sum()),
        sfrc_errors=int((x_hat[mask] != x[mask]).sum()),
    )


# Integer counters kept per detector, in ExperimentRecord field order.
_COUNTERS = ("bits", "bit_errors", "sf_loc_trials", "sf_loc_errors", "sfrc_bits", "sfrc_errors")


def _run_chunk(cfg: ExperimentConfig, sigma_index: int, start: int, stop: int,
               threshold: float | None):
    """Run trials [start, stop) at one noise level; returns counter vectors.

    ``threshold`` is the baseline's threshold at this noise level, chosen
    once per sigma by :func:`run_experiment` (None when the baseline is off).
    """
    sigma = cfg.sigma_list[sigma_index]
    params = cfg.params_at(sigma)
    p = cfg.sf_dist.as_tuple()
    counters = {d: np.zeros(len(_COUNTERS), dtype=np.int64) for d in cfg.detectors}
    for t in range(start, stop):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(sigma_index, t)))
        x, sf, _, y = sample_instance(cfg.n, params, p, rng)
        for d in cfg.detectors:
            if d == DETECTOR_PROPOSED:
                result = detect_array(y, params, cfg.sf_dist)
                x_hat = result.x_hat
                declared = result.hypothesis.locations
            elif d == DETECTOR_ORACLE:
                x_hat = detect_non_sf(y, sf.pairs, x, params)
                declared = sf.pairs
            else:
                x_hat = detect_baseline(y, threshold)
                declared = None
            diag = sf_diagnostics(x, sf, x_hat, declared)
            counters[d] += (x.size, int((x_hat != x).sum()), diag.loc_error is not None,
                            bool(diag.loc_error), diag.sfrc_bits, diag.sfrc_errors)
    return counters


def _chunk_ranges(trials: int, workers: int):
    chunk = max(1, -(-trials // (workers * 4)))
    return [(a, min(a + chunk, trials)) for a in range(0, trials, chunk)]


# The sweep's worker processes, each with its pipe, kept for the life of
# the process that forked them: (that process's id, [(process, pipe), ...]).
_kept = None


def _serve(conn) -> None:
    """Worker loop: run each ``(fn, args)`` received, send back how it went."""
    import signal
    # An interrupt is for the caller, which then stops the workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            fn, args = conn.recv()
        except EOFError:  # the parent is gone
            return
        try:
            outcome = True, fn(*args)
        except Exception as err:
            import traceback
            outcome = False, (err, traceback.format_exc())
        conn.send(outcome)


def _workers(count: int):
    """The kept ``count`` workers, forked on first use.

    Kept workers of another count, or with one dead, are stopped first.  The
    workers start no thread here or in the parent, so a later fork of this
    process, by this module or any other, copies no running thread.  A
    process forked from the owner does not use or stop the owner's workers.
    """
    global _kept
    if _kept is not None and _kept[0] == os.getpid():
        workers = _kept[1]
        if len(workers) == count and all(p.is_alive() for p, _ in workers):
            return workers
        _drop_pool()
    # Imported here, as loading it costs every run that starts no worker.
    import multiprocessing
    ctx = multiprocessing.get_context()
    workers = []
    for _ in range(count):
        conn, child = ctx.Pipe()
        # Daemonic, so multiprocessing stops it when this interpreter exits.
        p = ctx.Process(target=_serve, args=(child,), daemon=True)
        p.start()
        child.close()
        workers.append((p, conn))
    _kept = os.getpid(), workers
    return workers


def _drop_pool() -> None:
    """Stop the kept workers, if this process forked them, and forget them."""
    global _kept
    if _kept is not None and _kept[0] == os.getpid():
        for p, conn in _kept[1]:
            p.terminate()
            p.join()
            conn.close()
    _kept = None


def _run_on(workers, tasks) -> list:
    """Run ``(fn, args)`` tasks on the workers; the results in task order.

    Each worker holds two tasks and gets the next when it sends back one,
    so it neither waits for this process between tasks nor is woken for
    each: a worker woken per task can be placed on the waker's CPU, beside
    the other worker, until the scheduler moves it.  A task's exception is
    raised here, caused by the worker's traceback, and a worker that dies
    raises ``BrokenProcessPool``; either way, and on an interrupt, the
    workers are stopped first, so the next call forks fresh ones.
    """
    from multiprocessing.connection import wait
    results = [None] * len(tasks)
    todo = iter(enumerate(tasks))
    sent = {conn: [] for _, conn in workers}  # pipe -> its tasks' indices, oldest first

    def hand_next(conn):
        task = next(todo, None)
        if task is not None:
            sent[conn].append(task[0])
            conn.send(task[1])

    failed = None
    try:
        for _ in range(2):
            for conn in sent:
                hand_next(conn)
        while failed is None and any(sent.values()):
            for conn in wait([c for c, q in sent.items() if q]):
                ok, value = conn.recv()
                if not ok:
                    failed = value
                    break
                results[sent[conn].pop(0)] = value
                hand_next(conn)
    except (EOFError, OSError) as err:  # a pipe to a dead worker
        _drop_pool()
        from concurrent.futures.process import BrokenProcessPool
        raise BrokenProcessPool("a sweep worker died") from err
    except BaseException:
        _drop_pool()
        raise
    if failed is not None:
        _drop_pool()
        err, trace = failed
        raise err from RuntimeError(f"in a sweep worker:\n{trace}")
    return results


def run_experiment(cfg: ExperimentConfig, timer=time.perf_counter) -> list[ExperimentRecord]:
    """Run the full sweep; one record per (sigma, detector).

    All detectors see the same generated instances at a given sigma.  With
    ``workers`` > 1 the chunks run on worker processes forked by the first
    such call and kept for later ones, one set per process and worker
    count, so a later call pays no fork, join or cold start.  The saving is
    per call: it tells where one process makes many short parallel calls,
    as the benchmark's one-sigma steps do, and not in one long sweep, which
    forks once either way.  One sigma of 100 arrays at N = 128 with both
    detectors read medians of 72-84 ms on kept workers against 113-125 ms
    forking per call (about 39 ms less in the median pair) and 123-162 ms on
    one worker (six alternating runs of 20-30 calls, shared 2-core Xeon).
    The workers run no thread, nor does this process for them, so a later
    fork of this process copies no running thread.  They see the modules as
    they were when forked: a later monkeypatch in this process does not
    reach them.  A worker that dies fails the sweep with
    ``BrokenProcessPool``, and a chunk's exception is raised here; either
    way the workers are stopped and the next call forks fresh ones.  Calls
    from several threads at once are not supported.  The ``timer`` is
    injectable so tests can pin the elapsed column.
    """
    records: list[ExperimentRecord] = []
    ranges = _chunk_ranges(cfg.trials, cfg.workers)
    workers = _workers(cfg.workers) if cfg.workers > 1 and len(ranges) > 1 else None
    for sigma_index, sigma in enumerate(cfg.sigma_list):
        t_start = timer()
        params = cfg.params_at(sigma)
        threshold = (optimal_threshold(params, cfg.sf_dist)
                     if DETECTOR_BASELINE in cfg.detectors else None)
        if workers is None:
            results = [_run_chunk(cfg, sigma_index, a, b, threshold) for a, b in ranges]
        else:
            results = _run_on(workers, [(_run_chunk, (cfg, sigma_index, a, b, threshold))
                                        for a, b in ranges])
        elapsed_ms = (timer() - t_start) * 1000.0
        fin = ber_lower_bound(cfg.n, cfg.sf_dist, params)
        asym = asymptotic_bound(cfg.sf_dist, params)
        for d in cfg.detectors:
            # Plain ints: rates of np.int64 counts are np.float64, whose
            # repr() is not a plain number and would reach the CSV.
            counts = sum(r[d] for r in results).tolist()
            records.append(ExperimentRecord(
                sigma=sigma, n=cfg.n, q=cfg.q, sf_dist=cfg.sf_dist, detector=d,
                trials=cfg.trials, **dict(zip(_COUNTERS, counts)),
                bound_finite=fin, bound_asymptotic=asym, seed=cfg.seed,
                elapsed_ms=elapsed_ms,
            ))
    return records


# ---------------------------------------------------------------------------
# CSV persistence.  Numbers are written in full-precision decimal (shortest
# round-trip repr for floats), one row per (sigma, detector).
# ---------------------------------------------------------------------------

def write_csv(path: str, header: tuple[str, ...], rows) -> None:
    """Write a header and rows as CSV; floats as ``repr(float(v))``, else ``str``."""
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as err:
        raise OSError(f"cannot write {path!r}: {err}") from err


def write_results(records: list[ExperimentRecord], path: str) -> None:
    """Write records as CSV with the fixed header; bit-exact given counters."""
    write_csv(path, CSV_FIELDS, (
        (r.sigma, r.n, r.q, r.sf_dist.p0, r.sf_dist.p1, r.sf_dist.p2, r.detector, r.trials,
         r.bits, r.bit_errors, r.ber, r.sf_loc_trials, r.sf_loc_errors, r.sf_loc_err_rate,
         r.sfrc_bits, r.sfrc_errors, r.sfrc_ber, r.bound_finite, r.bound_asymptotic,
         r.seed, r.elapsed_ms)
        for r in records))

