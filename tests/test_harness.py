import concurrent.futures
import csv
import hashlib
import os
import platform
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from sneakpath import ChannelParams, SFCountDistribution, SFPattern, cli, harness
from sneakpath.baseline import optimal_threshold
from sneakpath.cli import main as cli_main
from sneakpath.harness import (
    CSV_FIELDS,
    DETECTOR_ORACLE,
    ExperimentConfig,
    _run_chunk,
    run_experiment,
    sf_diagnostics,
    write_results,
)

PA = SFCountDistribution(0.5, 0.4, 0.1)


def fixed_timer():
    return 0.0


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def config_of(*argv):
    """The ExperimentConfig that ``sneakpath simulate <argv>`` would run."""
    return cli._config(cli._build_parser().parse_args(["simulate", *argv]))


# Two texts per setting key, each different from the default and each other.
SETTING_TEXTS = {
    "n": ("16", "32"), "q": ("0.4", "0.3"), "sigma": ("30,60", "90"),
    "sf_dist": ("0.2,0.3,0.5", "1,0,0"), "trials": ("7", "8"),
    "detector": ("oracle, baseline", "proposed"), "seed": ("9", "10"),
    "out": ("a.csv", "b.csv"), "workers": ("2", "3"), "r0": ("900", "2000"),
    "r1": ("90", "50"), "rs": ("300", "400"),
}


class TestConfig:
    def test_defaults_are_reference_parameters(self):
        cfg = ExperimentConfig()
        assert (cfg.r0, cfg.r1, cfg.rs, cfg.q, cfg.n) == (1000.0, 100.0, 250.0, 0.5, 128)
        assert cfg.sf_dist == PA
        assert cfg.sigma_list[0] == 30.0 and cfg.sigma_list[-1] == 420.0

    def test_no_settings_give_defaults(self):
        assert config_of() == ExperimentConfig()

    def test_settings_table_covers_every_field(self):
        assert {field for field, _, _ in cli.SETTINGS.values()} == {
            f.name for f in fields(ExperimentConfig)}
        assert set(SETTING_TEXTS) == set(cli.SETTINGS)

    @pytest.mark.parametrize("key", sorted(SETTING_TEXTS))
    def test_flag_and_file_line_agree(self, tmp_path, key):
        flag = "--" + key.replace("_", "-")
        first, second = SETTING_TEXTS[key]
        path = tmp_path / "run.cfg"
        path.write_text(f"{key}={first}\n")
        from_flag = config_of(flag, first)
        assert from_flag == config_of("--config", str(path)) != ExperimentConfig()
        overridden = config_of("--config", str(path), flag, second)
        assert overridden == config_of(flag, second) != from_flag

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment line\ntrials=50\nsigma=30,60 # inline comment\nq=0.4\n")
        cfg = config_of("--config", str(path), "--trials", "75", "--seed", "9")
        assert cfg.trials == 75
        assert cfg.q == 0.4
        assert cfg.sigma_list == (30.0, 60.0)
        assert cfg.seed == 9

    def test_unnormalized_distribution_rejected(self):
        with pytest.raises(ValueError):
            config_of("--sf-dist", "0.5,0.4,0.2")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        for line in ("bogus=1", "oracle_sf=1"):
            path.write_text(line + "\n")
            with pytest.raises(ValueError, match="unknown key"):
                config_of("--config", str(path))

    def test_detector_list(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("detector=oracle, baseline\n")
        assert config_of("--config", str(path)).detectors == ("oracle", "baseline")
        assert config_of("--detector", "both").detectors == ("proposed", "baseline")

    def test_malformed_values_rejected(self):
        for flag, text in (("--sigma", "30,abc"), ("--sf-dist", "0.5,0.5"),
                           ("--detector", "magic"), ("--detector", "proposed,proposed")):
            with pytest.raises(ValueError):
                config_of(flag, text)

    def test_invalid_config_rejected_before_running(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(sigma_list=())
        with pytest.raises(ValueError):
            ExperimentConfig(detectors=("magic",))
        with pytest.raises(ValueError, match="distinct"):
            ExperimentConfig(detectors=("proposed", "proposed"))
        for bad in (dict(sigma_list=(float("nan"),)), dict(sigma_list=(100.0, float("inf"))),
                    dict(sigma_list=(-5.0,)), dict(q=1.5), dict(rs=float("nan")), dict(seed=-1)):
            with pytest.raises(ValueError):
                ExperimentConfig(**bad)


class TestDiagnostics:
    def test_exact_match(self, demo_x):
        sf = SFPattern(((0, 3),))
        d = sf_diagnostics(demo_x, sf, demo_x.copy(), ((0, 3),))
        assert d.loc_error is False
        assert d.sfrc_bits == 7 and d.sfrc_errors == 0

    def test_missed_declaration(self, demo_x):
        sf = SFPattern(((0, 3),))
        x_hat = demo_x.copy()
        x_hat[0, 0] = 1  # one bit inside the failure row
        d = sf_diagnostics(demo_x, sf, x_hat, ())
        assert d.loc_error is True
        assert d.sfrc_errors == 1

    def test_no_declaration_not_scored(self, demo_x):
        d = sf_diagnostics(demo_x, SFPattern(()), demo_x.copy(), None)
        assert d.loc_error is None
        assert d.sfrc_bits == 0

    def test_empty_truth_matches_empty_declaration(self, demo_x):
        d = sf_diagnostics(demo_x, SFPattern(()), demo_x.copy(), ())
        assert d.loc_error is False


class TestRunExperiment:
    def test_noiseless_no_failures_is_error_free(self):
        cfg = ExperimentConfig(n=16, sigma_list=(1e-6,), trials=1,
                               sf_dist=SFCountDistribution(1.0, 0.0, 0.0),
                               detectors=("proposed",), seed=1)
        rec = run_experiment(cfg, timer=fixed_timer)[0]
        assert rec.bit_errors == 0 and rec.ber == 0.0
        assert rec.sf_loc_errors == 0

    def test_records_per_sigma_and_detector(self):
        cfg = ExperimentConfig(n=16, sigma_list=(50.0, 150.0), trials=5, seed=2)
        recs = run_experiment(cfg, timer=fixed_timer)
        assert [(r.sigma, r.detector) for r in recs] == [
            (50.0, "proposed"), (50.0, "baseline"),
            (150.0, "proposed"), (150.0, "baseline")]
        for r in recs:
            assert r.bits == 5 * 16 * 16
            assert r.ber == r.bit_errors / r.bits

    def test_chunk_merging_is_exact(self):
        cfg = ExperimentConfig(n=16, sigma_list=(100.0,), trials=13, seed=3)
        threshold = optimal_threshold(cfg.params_at(100.0), cfg.sf_dist)
        whole = _run_chunk(cfg, 0, 0, 13, threshold)
        parts = [_run_chunk(cfg, 0, a, b, threshold) for a, b in ((0, 4), (4, 9), (9, 13))]
        for d in whole:
            assert np.array_equal(whole[d], sum(part[d] for part in parts))

    def test_threshold_chosen_once_per_sigma(self, monkeypatch):
        calls = []

        def counting(params, p):
            calls.append(params.sigma)
            return optimal_threshold(params, p)
        monkeypatch.setattr(harness, "optimal_threshold", counting)
        cfg = ExperimentConfig(n=16, sigma_list=(50.0, 150.0), trials=13, seed=5)
        assert len(harness._chunk_ranges(cfg.trials, cfg.workers)) > 1
        run_experiment(cfg, timer=fixed_timer)
        assert calls == [50.0, 150.0]
        calls.clear()
        run_experiment(ExperimentConfig(n=16, sigma_list=(50.0,), trials=3, seed=5,
                                        detectors=("proposed",)), timer=fixed_timer)
        assert calls == []

    def test_one_pool_per_sweep(self, monkeypatch):
        pools = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)
        # run_experiment imports the pool class when it starts a pool.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        cfg = ExperimentConfig(n=16, sigma_list=(50.0, 150.0, 250.0), trials=8, seed=5,
                               workers=2, detectors=("proposed",))
        recs = run_experiment(cfg, timer=fixed_timer)
        assert len(pools) == 1
        assert [r.sigma for r in recs] == [50.0, 150.0, 250.0]

    def test_oracle_mode(self):
        cfg = ExperimentConfig(n=16, sigma_list=(100.0,), trials=20, seed=4,
                               detectors=("oracle",))
        rec = run_experiment(cfg, timer=fixed_timer)[0]
        assert rec.detector == DETECTOR_ORACLE
        assert rec.sf_loc_errors == 0
        assert rec.sfrc_errors == 0

    def test_bounds_columns_recomputed(self):
        cfg = ExperimentConfig(n=16, sigma_list=(80.0,), trials=2, seed=5)
        rec = run_experiment(cfg, timer=fixed_timer)[0]
        from sneakpath import asymptotic_bound, ber_lower_bound
        params = ChannelParams(sigma=80.0)
        assert rec.bound_finite == pytest.approx(ber_lower_bound(16, PA, params), rel=1e-12)
        assert rec.bound_asymptotic == pytest.approx(asymptotic_bound(PA, params), rel=1e-12)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds")
    @pytest.mark.parametrize("n, detectors, max_faults", [
        (256, "proposed", 10.0), (128, "proposed,baseline", 2.0)])
    def test_sweep_arrays_stay_on_the_heap(self, n, detectors, max_faults):
        # Each array's N^2 temporaries reuse heap pages freed by the array
        # before, instead of being mapped or trimmed and faulted in again.
        # A fresh interpreter, so that no earlier test has moved glibc's
        # thresholds.
        src = Path(__file__).resolve().parent.parent / "src"
        probe = ("import resource, sys; sys.path.insert(0, sys.argv[1]); "
                 "from sneakpath import ExperimentConfig, run_experiment; "
                 "cfg = ExperimentConfig(n=int(sys.argv[2]), sigma_list=(60.0,), trials=20, "
                 "detectors=tuple(sys.argv[3].split(',')), workers=1); "
                 "run_experiment(cfg); before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
                 "run_experiment(cfg); "
                 "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / cfg.trials)")
        done = subprocess.run([sys.executable, "-c", probe, str(src), str(n), detectors],
                              capture_output=True, text=True, check=True, timeout=300)
        assert float(done.stdout) < max_faults


# SHA-256 of the CSV written by TestPersistence.test_csv_bytes_pinned.  It
# pins every counter and the number formatting, which tests that only
# compare runs with each other cannot: a counter that reaches the records
# as a NumPy scalar would be written as "np.float64(...)".
PINNED_CSV_SHA256 = "56c2827f7389d57afc44c791092213c073618f7e2d6f626f6e5a3b13886f2845"


class TestPersistence:
    def test_header_exact(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results([], str(path))
        assert path.read_text() == (
            "sigma,N,q,p0,p1,p2,detector,trials,bits,bit_errors,ber,"
            "sf_loc_trials,sf_loc_errors,sf_loc_err_rate,sfrc_bits,sfrc_errors,"
            "sfrc_ber,bound_finite,bound_asymptotic,seed,elapsed_ms\n")

    def test_csv_bytes_pinned(self, tmp_path):
        cfg = ExperimentConfig(n=16, sigma_list=(80.0, 200.0), trials=20, seed=41)
        recs = run_experiment(cfg, timer=fixed_timer)
        recs += run_experiment(replace(cfg, detectors=("oracle", "baseline")), timer=fixed_timer)
        path = tmp_path / "out.csv"
        write_results(recs, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CSV_SHA256

    def test_unwritable_path_raises_with_context(self):
        with pytest.raises(OSError, match="no/such/dir"):
            write_results([], "no/such/dir/out.csv")

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        cfg1 = ExperimentConfig(n=16, sigma_list=(80.0, 160.0), trials=24, seed=7, workers=1)
        cfg2 = ExperimentConfig(n=16, sigma_list=(80.0, 160.0), trials=24, seed=7, workers=2)
        paths = [tmp_path / f"out{i}.csv" for i in range(3)]
        write_results(run_experiment(cfg1, timer=fixed_timer), str(paths[0]))
        write_results(run_experiment(cfg1, timer=fixed_timer), str(paths[1]))
        write_results(run_experiment(cfg2, timer=fixed_timer), str(paths[2]))
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]


class TestCLI:
    def test_simulate_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = cli_main([
            "simulate", "--n", "16", "--sigma", "80", "--trials", "5",
            "--detector", "both", "--seed", "11", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert {r["detector"] for r in rows} == {"proposed", "baseline"}
        assert "wrote 2 records" in capsys.readouterr().out

    def test_simulate_with_config_file(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        out = tmp_path / "sim.csv"
        cfgfile.write_text(f"n=16\nsigma=90\ntrials=4\ndetector=proposed\nout={out}\n")
        assert cli_main(["simulate", "--config", str(cfgfile), "--trials", "3"]) == 0
        rows = read_csv(out)
        assert int(rows[0]["trials"]) == 3

    def test_simulate_oracle_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert cli_main(["simulate", "--n", "16", "--sigma", "80", "--trials", "5",
                         "--detector", "oracle", "--seed", "11", "--out", str(out)]) == 0
        (row,) = read_csv(out)
        assert row["detector"] == DETECTOR_ORACLE
        assert int(row["sf_loc_trials"]) == 5 and int(row["sf_loc_errors"]) == 0
        assert "wrote 1 records" in capsys.readouterr().out

    def test_simulate_rejects_bad_distribution(self, capsys):
        code = cli_main(["simulate", "--sf-dist", "0.5,0.4,0.2", "--out", "x.csv"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_flag_parse_error_names_the_flag(self, tmp_path, capsys):
        assert cli_main(["simulate", "--n", "abc", "--out", str(tmp_path / "x.csv")]) == 2
        assert "error: --n: invalid literal for int()" in capsys.readouterr().err

    def test_file_parse_error_names_file_line_and_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"trials=4\nn=abc\nout={tmp_path / 'x.csv'}\n")
        assert cli_main(["simulate", "--config", str(cfgfile)]) == 2
        assert f"error: {cfgfile}:2: n: invalid literal for int()" in capsys.readouterr().err

    def test_flag_range_error_names_the_flag(self, tmp_path, capsys):
        assert cli_main(["simulate", "--q", "1.5", "--out", str(tmp_path / "x.csv")]) == 2
        assert "error: --q: q must lie in (0, 1), got 1.5" in capsys.readouterr().err

    def test_file_range_error_names_file_line_and_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"n=16\ntrials=0\nout={tmp_path / 'x.csv'}\n")
        assert cli_main(["simulate", "--config", str(cfgfile)]) == 2
        assert f"error: {cfgfile}:2: trials: trials must be at least 1, got 0" in capsys.readouterr().err

    def test_joint_range_error_names_no_setting(self, tmp_path, capsys):
        # r0 = 500 and rs = 120 each pass with the other at its default.
        assert cli_main(["simulate", "--r0", "500", "--rs", "120", "--out", str(tmp_path / "x.csv")]) == 2
        assert "error: need r0' = 1/(1/r0 + 1/rs) > r1" in capsys.readouterr().err

    def test_file_key_set_twice_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        out = tmp_path / "sim.csv"
        cfgfile.write_text(f"n=16\nsigma=90\ntrials=2\nn=32\nout={out}\n")
        assert cli_main(["simulate", "--config", str(cfgfile)]) == 2
        assert f"error: {cfgfile}:4: n is set twice" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_rejects_nan_sigma(self, tmp_path, capsys):
        code = cli_main(["simulate", "--detector", "baseline", "--sigma", "nan",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_bounds_subcommand(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert cli_main(["bounds", "--n", "64", "--sigma", "30,60", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("sigma,N,q,p0,p1,p2,gamma,gamma_prime,bound_finite")
        assert len(lines) == 3

    def test_bounds_rejects_nan_prior(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        code = cli_main(["bounds", "--sf-dist", "nan,0.5,0.5", "--sigma", "150", "--out", str(out)])
        assert code == 2
        assert "error: --sf-dist: failure-count prior must be 3 finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rs", ["200", "50"])
    def test_bounds_rejects_sneak_level_not_above_r1(self, tmp_path, capsys, rs):
        out = tmp_path / "bounds.csv"
        code = cli_main(["bounds", "--r0", "200", "--r1", "100", "--rs", rs, "--out", str(out)])
        assert code == 2
        assert "r0'" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_lemmas_subcommand(self, tmp_path, capsys):
        out = tmp_path / "events.csv"
        assert cli_main(["verify-lemmas", "--n", "12", "--q", "0.5",
                         "--trials", "4000", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 7  # header + six events
        assert "worst |z|" in capsys.readouterr().out

    def test_verify_lemmas_parse_error_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "events.csv"
        assert cli_main(["verify-lemmas", "--n", "abc", "--out", str(out)]) == 2
        assert "error: --n: invalid literal for int()" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_verify_lemmas_rejects_no_trials(self, tmp_path, capsys, trials):
        out = tmp_path / "events.csv"
        code = cli_main(["verify-lemmas", "--n", "12", "--trials", trials, "--out", str(out)])
        assert code == 2
        assert "error: --trials: trials must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_lemmas_rejects_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "events.csv"
        code = cli_main(["verify-lemmas", "--n", "12", "--trials", "10", "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert "error: --seed: seed must be nonnegative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_lemmas_range_error_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "events.csv"
        assert cli_main(["verify-lemmas", "--q", "1.5", "--out", str(out)]) == 2
        assert "error: --q: q must lie in (0, 1), got 1.5" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_lemmas_two_range_errors_name_the_one_reported(self, tmp_path, capsys):
        # q is checked before n, and the error names the setting it reports.
        out = tmp_path / "events.csv"
        assert cli_main(["verify-lemmas", "--n", "2", "--q", "1.5", "--out", str(out)]) == 2
        assert "error: --q: q must lie in (0, 1), got 1.5" in capsys.readouterr().err
        assert not out.exists()
