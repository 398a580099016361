"""Small noise sweep: detector vs single-threshold baseline vs the bounds.

A desk-scale version of the headline experiment (use the CLI for the full
10^4-trial runs).  Writes ber_sweep.csv and prints a table.
"""

from sneakpath import SFCountDistribution
from sneakpath.harness import ExperimentConfig, run_experiment, write_results

cfg = ExperimentConfig(
    n=128,
    sigma_list=(60.0, 150.0, 250.0, 350.0),
    sf_dist=SFCountDistribution(0.5, 0.4, 0.1),
    trials=400,
    detectors=("proposed", "baseline"),
    seed=2024,
    workers=2,
)

records = run_experiment(cfg)
write_results(records, "ber_sweep.csv")

print(f"N={cfg.n}, q={cfg.q}, {cfg.trials} arrays per noise level\n")
print(f"{'sigma':>6} {'detector':>9} {'BER':>10} {'bound':>10} {'loc err':>8} {'line BER':>9}")
for r in records:
    loc = f"{r.sf_loc_err_rate:.4f}" if r.sf_loc_trials else "-"
    print(f"{r.sigma:6.0f} {r.detector:>9} {r.ber:10.5f} {r.bound_finite:10.5f} "
          f"{loc:>8} {r.sfrc_ber:9.5f}")
print("\nwrote ber_sweep.csv")
print('genie-aided floor: add "oracle" to detectors (or `sneakpath simulate --detector oracle`)')
