"""The benchmark's workloads: inputs made from a seed, timed loops, output checks.

Every workload is a closed loop in one process: the next array (or the next
sweep step) starts only when the previous one is done.  The sweeps hand
work to ``harness.run_experiment``, whose own pool runs the chunks when
``workers`` > 1.  Why each workload exists is recorded in README.md.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
import statistics
import time

import numpy as np

from sneakpath import channel, detector, harness, instances, structure
from sneakpath.bounds import SFCountDistribution

import spans

PRIOR_A = SFCountDistribution(0.5, 0.4, 0.1)
# The gated paces are nearest-rank 90th percentiles over at least
# MIN_SAMPLES samples, so at least 10 samples lie beyond each.  A sample
# therefore has to be short: a sweep step is one run_experiment call at one
# sigma, a library sample one block of decodes, a lemma sample one event
# estimate.
MIN_SAMPLES = 100
TAIL = 0.9
# detect_array calls timed as one block after each sweep step: with
# MIN_SAMPLES steps, 1200 calls leave 12 beyond the nearest-rank 99th
# percentile.
DETECT_BLOCK = 12
# Criterion 2's seed.  within(3.0) uses a normal approximation, and for the
# two exact events whose probability lies within 2e-4 of 1 a miss is a
# Poisson tail of about 1% per estimate, so a seed taken from --seed would
# fail about 2% of runs of a correct program.  README.md, "Checks", gives
# the measurement.
LEMMA_SEED = 555
LEMMA_N, LEMMA_Q, LEMMA_TRIALS = 32, 0.5, 5_000
LIBRARY_SIGMA = 1e-6


class Checks:
    """Counts checked operations and keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(what)
        return ok


@dataclasses.dataclass
class Outcome:
    """What one run measured, before it is formatted."""

    metrics: dict = dataclasses.field(default_factory=dict)   # name -> (value, unit)
    samples: dict = dataclasses.field(default_factory=dict)   # name -> sample count
    quality: dict = dataclasses.field(default_factory=dict)   # name -> (value, unit) or None
    counters: dict = dataclasses.field(default_factory=dict)  # integer decision counters
    layers: dict = dataclasses.field(default_factory=dict)    # per-layer name -> (value, unit) or None
    timings: dict = dataclasses.field(default_factory=dict)   # series -> summary()


def sub_seed(*keys: int) -> int:
    """A 63-bit seed derived from the benchmark seed and a stream key."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1, np.uint64)[0] >> 1)


def well_formed(res, n: int) -> bool:
    """detect_array output has the documented shape, alphabet and locations."""
    locs = res.hypothesis.locations
    want = {detector.PATTERN_NONE: 0, detector.PATTERN_SINGLE: 1, detector.PATTERN_DOUBLE: 2}
    return (res.x_hat.shape == (n, n) and res.x_hat.dtype == np.uint8
            and int(res.x_hat.max(initial=0)) <= 1
            and len(locs) == want.get(res.hypothesis.kind, -1)
            and all(0 <= i < n and 0 <= j < n for i, j in locs))


class Decoded:
    """Per-array detection counters against the generation truth."""

    def __init__(self):
        self.confusion = [[0] * 3 for _ in range(3)]   # [true count][declared kind]
        self.bits = 0
        self.bit_errors = 0
        self.loc_errors = 0

    def add(self, res, x, true_pairs) -> None:
        self.confusion[len(true_pairs)][spans.KINDS.index(res.hypothesis.kind)] += 1
        self.bits += x.size
        self.bit_errors += int((res.x_hat != x).sum())
        self.loc_errors += int(set(res.hypothesis.locations) != set(true_pairs))

    def as_dict(self) -> dict:
        return {"confusion": self.confusion, "bits": self.bits,
                "bit_errors": self.bit_errors, "loc_errors": self.loc_errors}


def timed_detect(y, params, latencies: list, checks: Checks):
    t = time.perf_counter()
    res = detector.detect_array(y, params)
    latencies.append(time.perf_counter() - t)
    return res if checks.expect(well_formed(res, y.shape[0]), "malformed detect_array output") else None


@contextlib.contextmanager
def timed_calls(module, attr: str, walls: list):
    """Append the wall time of every call of ``module.attr`` made in the block."""
    original = getattr(module, attr)

    def timed(*args, **kwargs):
        t = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            walls.append(time.perf_counter() - t)
    setattr(module, attr, timed)
    try:
        yield
    finally:
        setattr(module, attr, original)


def nearest_rank(values, q: float) -> float:
    """The nearest-rank q-quantile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summary(values, q: float) -> dict:
    """Sample count, median and q-quantile of a timing series, and how many
    samples lie beyond the quantile."""
    tail = nearest_rank(values, q)
    return {"n": len(values), "p50": statistics.median(values), f"p{round(q * 100)}": tail,
            "beyond": sum(v > tail for v in values)}


def timing_metrics(out: Outcome, blocks: list, parts: dict) -> None:
    """The gated timings of a run (README.md, "Timings").

    ``blocks`` holds the detect_array call times of each block of calls.
    ``parts`` maps each timed part of a round to (arrays per round, arrays
    per sample, wall time of each sample).  The gated figures are 90th
    percentiles over blocks and samples: ``detect_ms_p50`` over the
    blocks' median call times, and ``arrays_per_s`` for a round whose every
    part runs at its 90th-percentile pace.  ``detect_ms_p99`` is taken
    over every call.
    """
    calls = [t for b in blocks for t in b]
    block_p50 = [statistics.median(b) for b in blocks]
    out.metrics["detect_ms_p50"] = (nearest_rank(block_p50, TAIL) * 1e3, "ms")
    out.metrics["detect_ms_p99"] = (nearest_rank(calls, 0.99) * 1e3, "ms")
    round_s = sum(per_round * nearest_rank(walls, TAIL) / per_sample
                  for per_round, per_sample, walls in parts.values())
    out.metrics["arrays_per_s"] = (sum(p[0] for p in parts.values()) / round_s, "1/s")
    out.samples.update(detect_ms_p50=len(blocks), detect_ms_p99=len(calls),
                       arrays_per_s=sum(len(p[2]) for p in parts.values()))
    out.timings.update(detect_block_p50_s=summary(block_p50, TAIL),
                       detect_call_s=summary(calls, 0.99),
                       **{f"{name}_s": summary(p[2], TAIL) for name, p in parts.items()})


@dataclasses.dataclass(frozen=True)
class Sweep:
    """run_experiment steps, one sigma at a time on fresh seeds."""

    n: int
    sigmas: tuple[float, ...]
    detectors: tuple[str, ...]
    workers: int
    trials: int   # per sigma per run_experiment call

    def setup(self, seed: int) -> harness.ExperimentConfig:
        return harness.ExperimentConfig(
            n=self.n, q=0.5, sigma_list=self.sigmas, sf_dist=PRIOR_A, trials=self.trials,
            detectors=self.detectors, seed=seed, workers=self.workers)

    @staticmethod
    def same_inputs(a, b) -> bool:
        return a == b

    def _check_records(self, cfg, recs, checks: Checks) -> None:
        bits = cfg.trials * cfg.n * cfg.n
        checks.expect(len(recs) == len(cfg.sigma_list) * len(cfg.detectors),
                      f"run_experiment returned {len(recs)} records")
        for r in recs:
            loc_trials = cfg.trials if r.detector == harness.DETECTOR_PROPOSED else 0
            checks.expect(
                r.bits == bits and 0 <= r.bit_errors <= r.bits
                and r.sf_loc_trials == loc_trials and 0 <= r.sf_loc_errors <= r.sf_loc_trials
                and 0 <= r.sfrc_errors <= r.sfrc_bits,
                f"inconsistent counters at sigma={r.sigma} detector={r.detector}")
        for sigma in cfg.sigma_list:
            # Every detector decodes the same arrays, so the truth-only count agrees.
            checks.expect(len({r.sfrc_bits for r in recs if r.sigma == sigma}) == 1,
                          f"detectors saw different arrays at sigma={sigma}")

    @staticmethod
    def _record_counters(recs) -> list:
        return [[r.sigma, r.detector, r.bits, r.bit_errors, r.sf_loc_trials, r.sf_loc_errors,
                 r.sfrc_bits, r.sfrc_errors] for r in recs]

    def _run(self, cfg, sigmas, seed_keys, workers, checks):
        """One run_experiment call; returns its wall time and records."""
        cfg_r = dataclasses.replace(cfg, sigma_list=sigmas, seed=sub_seed(*seed_keys),
                                    workers=workers)
        t = time.perf_counter()
        recs = harness.run_experiment(cfg_r)
        wall = time.perf_counter() - t
        self._check_records(cfg_r, recs, checks)
        return wall, recs

    def _detect_inputs(self, cfg, seed):
        """Endless stream of fresh arrays cycling through the sweep's sigmas."""
        rng = np.random.default_rng(sub_seed(seed, 2))
        params = [cfg.params_at(s) for s in cfg.sigma_list]
        prior = cfg.sf_dist.as_tuple()
        for prm in itertools.cycle(params):
            x, sf, _, y = channel.sample_instance(cfg.n, prm, prior, rng)
            yield prm, x, sf, y

    def _quality(self, out: Outcome, recs) -> None:
        def total(det, field):
            return sum(getattr(r, field) for r in recs if r.detector == det)
        prop, base = harness.DETECTOR_PROPOSED, harness.DETECTOR_BASELINE
        out.quality["ber"] = (total(prop, "bit_errors") / total(prop, "bits"), "ratio")
        out.quality["sf_loc_err_rate"] = (
            total(prop, "sf_loc_errors") / total(prop, "sf_loc_trials"), "ratio")
        out.quality["ber_vs_baseline"] = (
            (total(prop, "bit_errors") / total(base, "bit_errors"), "ratio")
            if base in self.detectors else None)
        out.samples["ber"] = total(prop, "bits")
        out.samples["sf_loc_err_rate"] = total(prop, "sf_loc_trials")

    def measure(self, cfg, seed, seconds, checks: Checks) -> Outcome:
        """Alternate sweep steps with DETECT_BLOCK timed detect_array calls.

        Step ``k`` is one run_experiment call at the next sigma in turn, on
        a seed derived from ``(seed, k)``.  Interleaving spreads both kinds
        of sample over the whole run, so a slow spell on the shared machine
        lands on both metrics instead of one phase.  Decision counters cover
        the first step at each sigma and the calls after the first
        MIN_SAMPLES steps, which do not depend on how many steps fit in the
        time.
        """
        out = Outcome()
        deadline = time.perf_counter() + seconds
        inputs = self._detect_inputs(cfg, seed)
        blocks, dec, walls, first = [], Decoded(), [], []
        sigmas = cfg.sigma_list
        while len(walls) < MIN_SAMPLES or time.perf_counter() < deadline:
            k = len(walls)
            wall, recs = self._run(cfg, (sigmas[k % len(sigmas)],), (seed, 1, k),
                                   self.workers, checks)
            walls.append(wall)
            if k < len(sigmas):
                first += recs
            blocks.append([])
            for _ in range(DETECT_BLOCK):
                prm, x, sf, y = next(inputs)
                res = timed_detect(y, prm, blocks[-1], checks)
                if res is not None and k < MIN_SAMPLES:
                    dec.add(res, x, sf.pairs)
        timing_metrics(out, blocks, {"sweep_step": (cfg.trials, cfg.trials, walls)})
        self._quality(out, first)
        out.counters = {"sweep_first": self._record_counters(first), "detect": dec.as_dict()}
        return out

    def trace(self, cfg, seed, seconds, checks: Checks, tracer: spans.Tracer) -> Outcome:
        """Cycles of one untraced round over every sigma at the workload's
        pool size (when it uses one), one at workers=1 and one traced at
        workers=1, all on the same seed.  Alternating keeps a slow spell
        from landing on one mode.
        """
        out = Outcome()
        modes = ([self.workers] if self.workers > 1 else []) + [1, "traced"]
        walls = {m: [] for m in modes}
        deadline = time.perf_counter() + seconds
        r = 0
        while r < 2 or time.perf_counter() < deadline:
            counters = []
            for mode in modes:
                traced = mode == "traced"
                with tracer.active(r) if traced else contextlib.nullcontext():
                    wall, recs = self._run(cfg, cfg.sigma_list, (seed, 1, r),
                                           1 if traced else mode, checks)
                walls[mode].append(wall)
                counters.append(self._record_counters(recs))
            checks.expect(all(c == counters[0] for c in counters),
                          f"round {r} counters differ across worker counts or under tracing")
            if r == 0:
                out.counters = {"sweep_round0": counters[0]}
            r += 1
        arrays = cfg.trials * len(cfg.sigma_list)
        # The modes alternate, so total times compare like with like.
        rate = {m: arrays * len(w) / sum(w) for m, w in walls.items()}
        out.layers = spans.layer_metrics(tracer, r, len(cfg.sigma_list))
        out.layers["harness.scaling_efficiency"] = (
            (rate[self.workers] / (self.workers * rate[1]), "ratio") if self.workers > 1 else None)
        out.layers["harness.tracing_overhead"] = (rate[1] / rate["traced"] - 1.0, "ratio")
        out.samples["traced_rounds"] = r
        out.timings = {f"round_s_{m}": w for m, w in walls.items()}
        return out


class OracleChecks:
    """Noiseless decode of the constructed-instance library plus the lemma check."""

    @staticmethod
    def setup(seed: int):
        """The case library, interleaved so that every run of ``len(groups)``
        consecutive arrays holds one array of each (size, kind): then every
        timed block of the library has the same mix."""
        groups: dict = {}
        for inst in instances.make_case_library(q=0.5, seed=sub_seed(seed, 3)):
            groups.setdefault((inst.x.shape[0], inst.kind), []).append(inst)
        return [g[j] for j in range(min(map(len, groups.values()))) for g in groups.values()]

    @staticmethod
    def same_inputs(a, b) -> bool:
        return len(a) == len(b) and all(
            u.kind == v.kind and u.sf == v.sf and np.array_equal(u.x, v.x) for u, v in zip(a, b))

    @staticmethod
    def block_size(library) -> int:
        """Arrays per library block: one of each (size, kind)."""
        return len({(inst.x.shape[0], inst.kind) for inst in library})

    def _decode(self, library, rng, checks, tracer=None):
        """One pass over the library in blocks.  Returns the call times of
        each block, the wall time of each block, and the decision counters.
        """
        params = channel.ChannelParams(sigma=LIBRARY_SIGMA)
        size = self.block_size(library)
        dec, blocks, walls = Decoded(), [], []
        for start in range(0, len(library), size):
            block = library[start:start + size]
            blocks.append([])
            t0 = time.perf_counter()
            for inst in block:
                y = channel.sample_readout(inst.x, inst.e, params, rng)
                if tracer is not None:
                    tracer.start_array(len(inst.sf))
                res = timed_detect(y, params, blocks[-1], checks)
                exact = res is not None and bool(np.array_equal(res.x_hat, inst.x)) and (
                    set(res.hypothesis.locations) == set(inst.sf.pairs))
                checks.expect(exact, f"library instance {inst.kind} N={inst.x.shape[0]} not recovered")
                if res is not None:
                    dec.add(res, inst.x, inst.sf.pairs)
            walls.append(time.perf_counter() - t0)
        return blocks, walls, dec

    @staticmethod
    def _lemma(checks, walls: list):
        """One lemma check; appends the wall time of each event estimate."""
        with timed_calls(structure, "estimate_event_frequency", walls):
            estimates = structure.verify_event_frequencies(LEMMA_N, LEMMA_Q, LEMMA_TRIALS,
                                                           LEMMA_SEED)
        for e in estimates:
            checks.expect(e.within(3.0), f"lemma {e.event}: z={e.z:+.2f} outside 3 sigma")
        return [[e.event, e.trials, e.samples, e.successes] for e in estimates]

    def _round(self, library, seed, r, checks, tracer=None):
        """One library decode, then one lemma check; returns the decode,
        the lemma estimate times and counts, and the round's wall time."""
        t = time.perf_counter()
        decoded = self._decode(library, np.random.default_rng(sub_seed(seed, 4, r)), checks, tracer)
        lemma_s = []
        lemma = self._lemma(checks, lemma_s)
        return decoded, lemma_s, lemma, time.perf_counter() - t

    def measure(self, library, seed, seconds, checks: Checks) -> Outcome:
        """Rounds until ``seconds`` have passed and there are MIN_SAMPLES
        library blocks and lemma estimates; every round must repeat round
        0's lemma counts."""
        out = Outcome()
        blocks, lib_s, lemma_s, first = [], [], [], None
        deadline = time.perf_counter() + seconds
        r = 0
        while (len(lemma_s) < MIN_SAMPLES or len(lib_s) < MIN_SAMPLES
               or time.perf_counter() < deadline):
            (b, p, dec), walls, lemma, _ = self._round(library, seed, r, checks)
            blocks += b
            lib_s += p
            lemma_s += walls
            if first is None:
                first = (dec, lemma)
            else:
                checks.expect(lemma == first[1], "lemma estimates differ between rounds")
            r += 1
        dec, lemma = first
        block = self.block_size(library)
        timing_metrics(out, blocks, {
            "library_block": (len(library), block, lib_s),
            "lemma_estimate": (LEMMA_TRIALS * len(lemma), LEMMA_TRIALS, lemma_s)})
        out.quality["library_arrays_per_s"] = (block / nearest_rank(lib_s, TAIL), "1/s")
        out.quality["lemma_arrays_per_s"] = (LEMMA_TRIALS / nearest_rank(lemma_s, TAIL), "1/s")
        out.quality["ber"] = (dec.bit_errors / dec.bits, "ratio")
        out.quality["sf_loc_err_rate"] = (dec.loc_errors / len(library), "ratio")
        out.quality["ber_vs_baseline"] = None
        out.samples.update(library_arrays_per_s=len(lib_s), lemma_arrays_per_s=len(lemma_s),
                           ber=dec.bits, sf_loc_err_rate=len(library))
        out.counters = {"library_round0": dec.as_dict(), "lemma": lemma}
        return out

    def trace(self, library, seed, seconds, checks: Checks, tracer: spans.Tracer) -> Outcome:
        """Alternate untraced and traced rounds on the same seed.

        ``tracer`` already holds the spans of the library construction.
        """
        out = Outcome()
        walls = {"plain": [], "traced": []}
        deadline = time.perf_counter() + seconds
        r = 0
        while r < 2 or time.perf_counter() < deadline:
            plain, _, _, a = self._round(library, seed, r, checks)
            with tracer.active(r):
                traced, _, lemma, b = self._round(library, seed, r, checks, tracer)
            checks.expect(plain[2].as_dict() == traced[2].as_dict(),
                          f"round {r} library decisions differ under tracing")
            walls["plain"].append(a)
            walls["traced"].append(b)
            if r == 0:
                out.counters = {"library_round0": traced[2].as_dict(), "lemma": lemma}
            r += 1
        out.layers = spans.layer_metrics(tracer, r, 1)
        out.layers["harness.scaling_efficiency"] = None
        out.layers["harness.tracing_overhead"] = (sum(walls["traced"]) / sum(walls["plain"]) - 1.0,
                                                  "ratio")
        out.samples["traced_rounds"] = r
        out.timings = {f"round_s_{m}": w for m, w in walls.items()}
        return out


WORKLOADS = {
    "paper-sweep": Sweep(n=128, sigmas=(150.0, 250.0, 350.0),
                         detectors=(harness.DETECTOR_PROPOSED, harness.DETECTOR_BASELINE),
                         workers=2, trials=100),
    "large-lownoise": Sweep(n=256, sigmas=(30.0, 60.0, 100.0),
                            detectors=(harness.DETECTOR_PROPOSED,), workers=1, trials=10),
    "oracle-checks": OracleChecks(),
}
