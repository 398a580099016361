"""Command-line front end: simulate sweeps, tabulate bounds, verify structure.

Subcommands::

    sneakpath simulate --n 128 --q 0.5 --sigma 150,250,350 \
        --sf-dist 0.5,0.4,0.1 --trials 10000 --detector proposed,baseline \
        --seed 2024 --out results.csv [--config run.cfg]
    sneakpath bounds --n 128 --q 0.5 --sigma 30,60,90 \
        --sf-dist 0.5,0.4,0.1 --out bounds.csv
    sneakpath verify-lemmas --n 32 --q 0.5 --trials 100000 --out events.csv

``--detector`` takes a comma-separated list of ``proposed``, ``baseline``
and ``oracle`` (the genie, told the true failure rows and columns);
``both`` means ``proposed,baseline``.  Config files are flat ``key=value``
text (UTF-8, ``#`` comments) with the flag names as keys (``sf_dist`` for
``--sf-dist``); explicit flags override file values.
"""

from __future__ import annotations

import argparse
import sys

from . import bounds as bounds_mod
from . import harness, structure


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sneakpath", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    # Channel settings shared by simulate and bounds; unset flags are None,
    # so ExperimentConfig supplies the reference defaults.
    channel = argparse.ArgumentParser(add_help=False)
    channel.add_argument("--n", type=int, help="array dimension")
    channel.add_argument("--q", type=float, help="probability of a stored 1")
    channel.add_argument("--sigma", type=str, help="comma-separated noise levels")
    channel.add_argument("--sf-dist", type=str, help="p0,p1,p2 failure-count prior")
    channel.add_argument("--r0", type=float)
    channel.add_argument("--r1", type=float)
    channel.add_argument("--rs", type=float)

    sim = sub.add_parser("simulate", parents=[channel], help="run Monte Carlo detection sweeps")
    sim.add_argument("--trials", type=int, help="arrays per noise level")
    sim.add_argument("--detector", type=str,
                     help="comma-separated proposed, baseline, oracle; or both")
    sim.add_argument("--seed", type=int, help="master seed (64-bit)")
    sim.add_argument("--out", type=str, help="output CSV path")
    sim.add_argument("--config", type=str, help="key=value config file")
    sim.add_argument("--workers", type=int, help="worker processes")

    bnd = sub.add_parser("bounds", parents=[channel],
                         help="tabulate analytic thresholds and BER bounds")
    bnd.add_argument("--out", type=str, required=True)

    ver = sub.add_parser("verify-lemmas", help="Monte Carlo checks of the structural event probabilities")
    ver.add_argument("--n", type=int, default=32)
    ver.add_argument("--q", type=float, default=0.5)
    ver.add_argument("--trials", type=int, default=100000)
    ver.add_argument("--seed", type=int, default=2024)
    ver.add_argument("--out", type=str, required=True)
    return parser


def _settings(args) -> dict:
    """The parsed flags that are sweep settings, keyed as in ``harness.SETTINGS``."""
    return {k: v for k, v in vars(args).items() if k in harness.SETTINGS}


def _cmd_simulate(args) -> int:
    file_values = harness.load_config_file(args.config) if args.config else None
    cfg = harness.build_config(file_values, **_settings(args))
    if cfg.out is None:
        raise ValueError("an output path is required (--out or out= in the config file)")
    records = harness.run_experiment(cfg)
    harness.write_results(records, cfg.out)
    for r in records:
        print(f"sigma={r.sigma:g} detector={r.detector} ber={r.ber:.6g} "
              f"sf_loc_err_rate={r.sf_loc_err_rate:.6g} bound={r.bound_finite:.6g}")
    print(f"wrote {len(records)} records to {cfg.out}")
    return 0


def _cmd_bounds(args) -> int:
    cfg = harness.build_config(**_settings(args))
    p = cfg.sf_dist
    rows = []
    for sigma in cfg.sigma_list:
        params = cfg.params_at(sigma)
        gamma, gamma_prime = bounds_mod.thresholds(params)
        rows.append((sigma, cfg.n, cfg.q, p.p0, p.p1, p.p2, gamma, gamma_prime,
                     bounds_mod.ber_lower_bound(cfg.n, p, params),
                     bounds_mod.asymptotic_bound(p, params),
                     bounds_mod.genie_error_symmetric(cfg.n, p, params)))
    harness.write_csv(args.out, ("sigma", "N", "q", "p0", "p1", "p2", "gamma", "gamma_prime",
                                 "bound_finite", "bound_asymptotic", "genie_symmetric_error"), rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_verify_lemmas(args) -> int:
    estimates = structure.verify_event_frequencies(args.n, args.q, args.trials, args.seed)
    rows = []
    worst = 0.0
    for est in estimates:
        ok = est.within(3.0)
        worst = max(worst, est.shortfall)
        rows.append((est.event, est.n, est.q, est.trials, est.samples, est.successes,
                     est.frequency, est.predicted, est.stderr, est.z,
                     int(est.is_lower_bound), int(ok)))
        print(f"{est.event}: freq={est.frequency:.6f} predicted={est.predicted:.6f} "
              f"z={est.z:+.2f} {'ok' if ok else 'VIOLATION'}")
    harness.write_csv(args.out, ("event", "n", "q", "trials", "samples", "successes", "frequency",
                                 "predicted", "stderr", "z", "lower_bound", "ok"), rows)
    print(f"wrote {len(estimates)} events to {args.out} (worst |z|={worst:.2f})")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        return _cmd_verify_lemmas(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
