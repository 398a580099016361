"""Acceptance gate: one test per contract criterion, with PASS/FAIL lines.

Run as ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The heavy Monte Carlo runs are shared through module-scoped
fixtures; every statistical assertion uses frozen seeds and the stated
trial counts and tolerances.

One assertion is expected to fail and is kept strict on purpose rather
than loosened to force green: the widening-ratio clause (criterion 7,
second clause).  No detector can beat the genie floor (criterion 6), and
the genie's own baseline/genie BER ratio falls from ~1.34 at sigma=150 to
~1.03 at sigma=350 on the same arrays, so the baseline/detector ratio
cannot be larger at sigma=350 than at sigma=150 for any detector that gets
close to the floor at sigma=150.  The criterion 7b report prints the
genie's ratios next to the detector's.
"""

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from oracle_sp import brute_force_sp_cells
from sneakpath import (
    ChannelParams,
    SFCountDistribution,
    compute_sp_indicators,
    detect_array,
    detect_baseline,
    detect_non_sf,
    q_function,
    sample_data,
    sample_instance,
    sample_readout,
    thresholds,
)
from sneakpath.baseline import optimal_threshold
from sneakpath.bounds import ber_lower_bound
from sneakpath.channel import InfeasibleSFError, place_sfs
from sneakpath.detector import (
    _cell_terms,
    _exponent_fields,
    _log_mix,
    refine_uncertain_pairs,
    uncertain_pair_llr,
)
from sneakpath.harness import ExperimentConfig, run_experiment, write_results
from sneakpath.instances import make_case_library
from sneakpath.structure import verify_event_frequencies

pytestmark = pytest.mark.acceptance

PA = (0.5, 0.4, 0.1)
PB = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
TRIALS = 10_000
WORKERS = 2


def report(num: str, desc: str, ok: bool, detail: str = ""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared heavy runs.
# ---------------------------------------------------------------------------

def _loc_error_rate(n, sigma, trials, seed):
    cfg = ExperimentConfig(n=n, sigma_list=(sigma,), sf_dist=SFCountDistribution(*PA),
                           trials=trials, detectors=("proposed",), seed=seed,
                           workers=WORKERS)
    rec = run_experiment(cfg)[0]
    return rec.sf_loc_errors, rec.sf_loc_trials


@pytest.fixture(scope="module")
def localization_runs():
    t0 = time.perf_counter()
    runs = {
        (64, 200.0): _loc_error_rate(64, 200.0, TRIALS, seed=501),
        (256, 200.0): _loc_error_rate(256, 200.0, TRIALS, seed=502),
        (128, 30.0): _loc_error_rate(128, 30.0, TRIALS, seed=503),
        (128, 60.0): _loc_error_rate(128, 60.0, TRIALS, seed=504),
        (128, 100.0): _loc_error_rate(128, 100.0, TRIALS, seed=505),
    }
    return runs, time.perf_counter() - t0


def _paired_chunk(args):
    n, sigma, dist, seed, start, stop, with_oracle = args
    params = ChannelParams(sigma=sigma)
    p = SFCountDistribution(*dist)
    thr = optimal_threshold(params, p)
    rows = []
    for t in range(start, stop):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
        x, sf, _, y = sample_instance(n, params, dist, rng)
        prop = int((detect_array(y, params).x_hat != x).sum())
        base = int((detect_baseline(y, thr) != x).sum())
        orac = int((detect_non_sf(y, sf.pairs, x, params) != x).sum()) if with_oracle else -1
        rows.append((prop, base, orac))
    return rows


def _collect_paired(n, sigma, dist, seed, trials, with_oracle):
    """Per-array error counts for detector/baseline/genie on shared arrays."""
    edges = np.linspace(0, trials, WORKERS * 4 + 1).astype(int)
    jobs = [(n, sigma, dist, seed, int(a), int(b), with_oracle)
            for a, b in zip(edges[:-1], edges[1:]) if a < b]
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        chunks = list(pool.map(_paired_chunk, jobs))
    rows = np.array([r for c in chunks for r in c], dtype=float)
    return rows[:, 0], rows[:, 1], rows[:, 2]


@pytest.fixture(scope="module")
def comparison_runs():
    t0 = time.perf_counter()
    runs = {}
    for tag, dist in (("pa", PA), ("pb", PB)):
        for k, sigma in enumerate((150.0, 250.0, 350.0)):
            runs[(tag, sigma)] = _collect_paired(
                128, sigma, dist, seed=600 + 10 * k + (0 if tag == "pa" else 1),
                trials=TRIALS, with_oracle=(tag == "pa"))
    return runs, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Criteria.
# ---------------------------------------------------------------------------

def test_criterion_1_indicator_matches_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(401)
    mismatches = 0
    sizes = list(range(4, 13))
    qs = (0.3, 0.5, 0.7)
    for i in range(10_000):
        n = sizes[i % len(sizes)]
        q = qs[(i // len(sizes)) % len(qs)]
        k = i % 3
        while True:
            x = sample_data(n, q, rng)
            try:
                sf = place_sfs(x, k, rng)
                break
            except InfeasibleSFError:
                continue
        got = compute_sp_indicators(x, sf)
        want = np.array(brute_force_sp_cells(x.tolist(), list(sf.pairs)), dtype=np.uint8)
        mismatches += int((got != want).sum())
    elapsed = time.perf_counter() - t0
    report("1", "indicator computation matches brute-force enumeration on 10^4 instances",
           mismatches == 0 and elapsed < 10.0,
           f"mismatches={mismatches}, elapsed={elapsed:.1f}s")


def test_criterion_2_structural_event_frequencies():
    t0 = time.perf_counter()
    estimates = verify_event_frequencies(32, 0.5, 100_000, seed=555)
    elapsed = time.perf_counter() - t0
    bad = [f"{e.event}: z={e.z:+.2f}" for e in estimates if not e.within(3.0)]
    detail = "; ".join(f"{e.event} z={e.z:+.2f}" for e in estimates)
    report("2", "closed-form event probabilities verified at N=32, 10^5 trials each",
           not bad and elapsed < 120.0, f"elapsed={elapsed:.0f}s; {detail}")


def test_criterion_3_threshold_exactness():
    params = ChannelParams(r0=1000.0, r1=100.0, rs=250.0, sigma=30.0, q=0.5)
    gamma, gamma_prime = thresholds(params)
    ok = (abs(gamma - 550.0) < 1e-9 and abs(gamma_prime - 150.0) < 1e-9
          and abs(float(q_function(0.0)) - 0.5) < 1e-12)
    report("3", "thresholds equal (550, 150) and Q(0) = 1/2 at stated tolerances",
           ok, f"gamma={gamma!r}, gamma_prime={gamma_prime!r}")


def test_criterion_4_noiseless_exact_recovery():
    t0 = time.perf_counter()
    library = make_case_library(sizes=(16, 32, 64), per_case=34, q=0.5, seed=7)
    params = ChannelParams(sigma=1e-6)
    rng = np.random.default_rng(402)
    failures = 0
    for inst in library:
        y = sample_readout(inst.x, inst.e, params, rng)
        res = detect_array(y, params)
        if (res.x_hat != inst.x).any() or set(res.hypothesis.locations) != set(inst.sf.pairs):
            failures += 1
    elapsed = time.perf_counter() - t0
    report("4", f"zero bit errors on all {len(library)} constructed instances at sigma=1e-6",
           len(library) >= 600 and failures == 0,
           f"failures={failures}, elapsed={elapsed:.0f}s")


def test_criterion_5a_localization_improves_with_size(localization_runs):
    runs, elapsed = localization_runs
    e64, t64 = runs[(64, 200.0)]
    e256, t256 = runs[(256, 200.0)]
    p64, p256 = e64 / t64, e256 / t256
    se = np.sqrt(p64 * (1 - p64) / t64 + p256 * (1 - p256) / t256)
    z = (p64 - p256) / se if se else np.inf
    report("5a", "location-error rate at N=256 below N=64 (sigma=200, 95% one-sided)",
           p256 < p64 and z > 1.645 and elapsed < 600.0,
           f"N=64: {p64:.4f}, N=256: {p256:.4f}, z={z:.1f}, sweep elapsed={elapsed:.0f}s")


def test_criterion_5b_localization_error_budget(localization_runs):
    # The sigma=100 point is the hard one: the per-line presence test
    # false-alarms at ~4e-4 there, so the line classes alone miscount the
    # failures in a few percent of arrays; the detector's array-level MAP
    # step-down has to undo that.
    runs, _ = localization_runs
    rates = {s: runs[(128, s)][0] / runs[(128, s)][1] for s in (30.0, 60.0, 100.0)}
    detail = ", ".join(f"sigma={s:g}: {r:.4f}" for s, r in rates.items())
    report("5b", "location-error rate < 1e-2 at N=128 for all sigma <= 100",
           all(r < 1e-2 for r in rates.values()), detail)


def test_criterion_6_bound_attainment(comparison_runs):
    runs, elapsed = comparison_runs
    bits = 128 * 128
    checks = []
    ok = True
    for sigma in (150.0, 250.0, 350.0):
        prop, _, orac = runs[("pa", sigma)]
        bound = ber_lower_bound(128, SFCountDistribution(*PA), ChannelParams(sigma=sigma))
        prop_ber = prop.mean() / bits
        orac_ber = orac.mean() / bits
        orac_se = (orac / bits).std(ddof=1) / np.sqrt(len(orac))
        in_band = bound <= prop_ber <= 2.0 * bound
        genie_match = abs(orac_ber - bound) <= 3.0 * orac_se
        ok &= in_band and genie_match
        checks.append(f"sigma={sigma:g}: detector={prop_ber:.5f} in [{bound:.5f}, {2*bound:.5f}]"
                      f" {'yes' if in_band else 'NO'}, genie={orac_ber:.5f} within 3se"
                      f"({3*orac_se:.5f}) {'yes' if genie_match else 'NO'}")
    report("6", "detector BER sits in [bound, 2*bound] and genie matches the bound",
           ok and elapsed < 1800.0, "; ".join(checks) + f"; elapsed={elapsed:.0f}s")


def test_criterion_7a_beats_baseline(comparison_runs):
    runs, _ = comparison_runs
    checks = []
    ok = True
    for tag in ("pa", "pb"):
        for sigma in (150.0, 250.0, 350.0):
            prop, base, _ = runs[(tag, sigma)]
            diff = prop - base
            z = diff.mean() / (diff.std(ddof=1) / np.sqrt(len(diff)))
            good = diff.mean() < 0 and z < -1.645
            ok &= good
            checks.append(f"{tag}/sigma={sigma:g}: z={z:+.1f}")
    report("7a", "detector BER below baseline at every sigma >= 150 (95% paired)",
           ok, "; ".join(checks))


def test_criterion_7b_gap_ratio_widens(comparison_runs):
    # Strict per the contract. Expected to fail: no detector beats the genie
    # floor, so baseline/genie caps baseline/detector at each sigma, and on
    # the pa arrays that ceiling (printed below) is ~1.03 at sigma=350 while
    # the detector's ratio at sigma=150 is ~1.33; the ratio shrinks as noise
    # grows.
    runs, _ = comparison_runs
    checks = []
    ok = True
    for tag in ("pa", "pb"):
        ratios = {}
        for sigma in (150.0, 350.0):
            prop, base, _ = runs[(tag, sigma)]
            ratios[sigma] = base.mean() / prop.mean()
        ok &= ratios[350.0] > ratios[150.0]
        checks.append(f"{tag}: ratio@150={ratios[150.0]:.3f}, ratio@350={ratios[350.0]:.3f}")
    ceiling = {}
    for sigma in (150.0, 350.0):
        _, base, orac = runs[("pa", sigma)]
        ceiling[sigma] = base.mean() / orac.mean()
    checks.append(f"pa genie ceiling baseline/genie: @150={ceiling[150.0]:.3f}, "
                  f"@350={ceiling[350.0]:.3f}")
    report("7b", "baseline/detector BER ratio larger at sigma=350 than at sigma=150",
           ok, "; ".join(checks))


def test_criterion_8_determinism(tmp_path):
    base = dict(n=32, sigma_list=(80.0, 200.0), trials=60, seed=808,
                sf_dist=SFCountDistribution(*PA))
    paths = []
    for i, workers in enumerate((1, 1, 2)):
        cfg = ExperimentConfig(workers=workers, **base)
        path = tmp_path / f"run{i}.csv"
        write_results(run_experiment(cfg, timer=lambda: 0.0), str(path))
        paths.append(path.read_bytes())
    report("8", "identical config and seed give byte-identical CSV across runs and workers",
           paths[0] == paths[1] == paths[2],
           f"{len(paths[0])} bytes")


def test_criterion_9_numerical_robustness():
    worst = 0.0
    ok = True
    for sigma in (1e-6, 1e-3, 1.0, 30.0, 400.0):
        params = ChannelParams(sigma=sigma)
        ks = np.linspace(-1000.0, 1000.0, 2001)
        for level in (params.r1, params.r0, params.r0_prime):
            y = level + ks * sigma
            fields = _exponent_fields(y, params)
            surfaces = [
                *_cell_terms(fields, params.q),
                _log_mix(fields, 0.5, 0.25, 0.25),
            ]
            for s in surfaces:
                ok &= bool(np.all(np.isfinite(s)))
                worst = max(worst, float(np.max(np.abs(s))))
        ymat = params.r1 + np.outer(np.linspace(-1000, 1000, 8), np.ones(8)) * sigma
        row_llr = uncertain_pair_llr(ymat, (0, 1), (0.0, 1.0), params)
        col_llr = uncertain_pair_llr(ymat.T, (0, 1), (1.0, 0.0), params)
        from sneakpath.detector import SPTypeEstimate
        est = SPTypeEstimate(
            row_types=np.array([0, 1, 0.5, 0.5, 0, 0, 0, 0.5]),
            col_types=np.array([1, 0, 0.5, 0.5, 0, 0, 0.5, 0]),
            presence_llr_rows=np.zeros(8), presence_llr_cols=np.zeros(8),
            completeness_llr_rows=np.zeros(8), completeness_llr_cols=np.zeros(8),
            sneak_llr=np.zeros((8, 8)))
        l2r, l2c = refine_uncertain_pairs(ymat, est, (0, 1), (0, 1), row_llr, col_llr, params)
        ok &= bool(np.all(np.isfinite(row_llr)) and np.all(np.isfinite(col_llr)))
        ok &= bool(np.all(np.isfinite(l2r)) and np.all(np.isfinite(l2c)))
    report("9", "all LLR surfaces finite for |y - level|/sigma up to 1e3",
           ok, f"largest magnitude {worst:.3g}")
