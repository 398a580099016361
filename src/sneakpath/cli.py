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
text (UTF-8, ``#`` comments) whose keys are the :data:`SETTINGS` keys, the
flag names with ``_`` for ``-`` (``sf_dist`` for ``--sf-dist``); each key at
most once, and explicit flags override file values.  A value that does not
parse, or is out of range on its own (it raises the same error with every
other setting at its default), is reported with its flag, or its file, line
and key.  A joint error, such as r0' <= r1 from ``--r0`` and ``--rs``
together, names no setting.  ``verify-lemmas`` names the flag of a bad
setting by the same rule.
"""

from __future__ import annotations

import argparse
import sys

from . import bounds as bounds_mod
from . import harness, structure


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(s) for s in text.split(",") if s.strip())


def _sf_dist(text: str) -> bounds_mod.SFCountDistribution:
    ps = _floats(text)
    if len(ps) != 3:
        raise ValueError(f"needs 3 values, got {text!r}")
    return bounds_mod.SFCountDistribution(*ps)


def _detectors(text: str) -> tuple[str, ...]:
    if text == "both":
        return (harness.DETECTOR_PROPOSED, harness.DETECTOR_BASELINE)
    return tuple(s.strip() for s in text.split(","))


# Sweep settings: config-file key (the flag is "--" + key, "_" written "-")
# -> ExperimentConfig field, parser of the setting's text, flag help.
# Unset settings take the ExperimentConfig defaults, which check every value.
SETTINGS = {
    "n": ("n", int, "array dimension"),
    "q": ("q", float, "probability of a stored 1"),
    "sigma": ("sigma_list", _floats, "comma-separated noise levels"),
    "sf_dist": ("sf_dist", _sf_dist, "p0,p1,p2 failure-count prior"),
    "r0": ("r0", float, "high-resistance level (ohms)"),
    "r1": ("r1", float, "low-resistance level (ohms)"),
    "rs": ("rs", float, "sneak-path parallel resistance (ohms)"),
    "trials": ("trials", int, "arrays per noise level"),
    "detector": ("detectors", _detectors, "comma-separated proposed, baseline, oracle; or both"),
    "seed": ("seed", int, "master seed (64-bit)"),
    "out": ("out", str, "output CSV path"),
    "workers": ("workers", int, "worker processes"),
}
_CHANNEL_KEYS = ("n", "q", "sigma", "sf_dist", "r0", "r1", "rs")  # simulate and bounds
_LEMMA_DEFAULTS = {"n": "32", "q": "0.5", "trials": "100000", "seed": "2024"}  # verify-lemmas


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sneakpath", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run Monte Carlo detection sweeps")
    bnd = sub.add_parser("bounds", help="tabulate analytic thresholds and BER bounds")
    for cmd, keys in ((sim, SETTINGS), (bnd, _CHANNEL_KEYS)):
        for key in keys:
            cmd.add_argument(_flag(key), help=SETTINGS[key][2])
    sim.add_argument("--config", help="key=value config file")
    bnd.add_argument("--out", required=True)

    ver = sub.add_parser("verify-lemmas", help="Monte Carlo checks of the structural event probabilities")
    for key, default in _LEMMA_DEFAULTS.items():
        ver.add_argument(_flag(key), default=default)
    ver.add_argument("--out", required=True)
    return parser


def _read_config(path: str) -> dict:
    """Key -> (text, ``path:line: key``) of a flat key=value file (UTF-8, # comments)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        raise OSError(f"cannot read config {path!r}: {err}") from err
    texts = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, text = (part.strip() for part in line.partition("="))
        if not eq:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key not in SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in texts:
            raise ValueError(f"{path}:{lineno}: {key} is set twice")
        texts[key] = (text, f"{path}:{lineno}: {key}")
    return texts


def _config(args) -> harness.ExperimentConfig:
    """The sweep settings of parsed arguments: config-file values, flags over them."""
    texts = _read_config(args.config) if getattr(args, "config", None) else {}
    texts.update((key, (text, _flag(key))) for key in SETTINGS
                 if (text := getattr(args, key, None)) is not None)
    fields = {SETTINGS[key][0]: _parse(key, text, where) for key, (text, where) in texts.items()}
    where = {SETTINGS[key][0]: place for key, (_, place) in texts.items()}
    return _checked(harness.ExperimentConfig, fields, where, {})


def _checked(build, values: dict, where: dict, defaults: dict):
    """``build(**values)``; its ValueError names ``where[key]`` if setting ``key``
    raises it alone, with the rest at ``defaults`` (or at ``build``'s own)."""
    try:
        return build(**values)
    except ValueError as err:
        for key, value in values.items():
            try:
                build(**{**defaults, key: value})
            except ValueError as alone:
                if str(alone) == str(err):
                    raise ValueError(f"{where[key]}: {err}") from err
        raise


def _parse(key: str, text: str, where: str):
    """The value of setting ``key`` from its text; errors start with ``where``."""
    try:
        return SETTINGS[key][1](text)
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from err


def _cmd_simulate(args) -> int:
    cfg = _config(args)
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
    cfg = _config(args)
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


def _lemma_settings(args) -> dict:
    """The verify-lemmas settings; a range error names the flag of its setting."""
    values = {key: _parse(key, getattr(args, key), _flag(key)) for key in _LEMMA_DEFAULTS}
    defaults = {key: SETTINGS[key][1](text) for key, text in _LEMMA_DEFAULTS.items()}
    _checked(structure.check_event_settings, values, {key: _flag(key) for key in values}, defaults)
    return values


def _cmd_verify_lemmas(args) -> int:
    estimates = structure.verify_event_frequencies(**_lemma_settings(args))
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
