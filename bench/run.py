"""sneakpath benchmark: one workload, measured for a fixed time, outputs checked.

    python3 bench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/`` next
to this directory, never from an installed copy.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics, and the spans are written to
``.bench_out/``.  The lines before it give the machine block, sample
counts, timing summaries, the decision fingerprint and the quality
figures.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import sneakpath; print(time.perf_counter() - t)")


def declared(kind: str) -> dict[str, str | None]:
    """Names in one list of BENCHMARK.json, in file order, with their units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m.get("unit") for m in json.load(fh)[kind]}


def machine_block(seed: int) -> dict:
    """Hardware and software the numbers were taken on (read-only probes)."""
    import numpy
    import scipy
    info = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": None, "l2": None, "l3": None,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "loadavg_1m": os.getloadavg()[0], "seed": seed}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                      if ln.startswith("model name")), None)
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if f"l{level}" in info:
            info[f"l{level}"] = size
    return info


def import_seconds(src: Path) -> float:
    """Time of ``import sneakpath`` in a fresh interpreter, as a user pays it."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def fingerprint(counters: dict) -> str:
    blob = json.dumps(counters, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=declared("workloads"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sneakpath
    except ImportError as err:
        print(f"bench: cannot import sneakpath from {src}: {err}", file=sys.stderr)
        return 2
    if Path(sneakpath.__file__).resolve().parent != (src / "sneakpath").resolve():
        print(f"bench: sneakpath resolved to {sneakpath.__file__}, not {src}", file=sys.stderr)
        return 2
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    checks = workloads.Checks()
    if args.trace:
        tracer = spans.Tracer()
        with tracer.active(0):
            inputs = wl.setup(args.seed)
        out = wl.trace(inputs, args.seed, args.seconds, checks, tracer)
        setup_samples = 1
    else:
        setups, inputs = [], None
        for _ in range(SETUP_REPEATS):
            imported = import_seconds(src)
            t = time.perf_counter()
            built = wl.setup(args.seed)
            setups.append(imported + time.perf_counter() - t)
            if inputs is None:
                inputs = built
            else:
                checks.expect(wl.same_inputs(inputs, built), "set-up is not reproducible")
        out = wl.measure(inputs, args.seed, args.seconds, checks)
        out.metrics["setup_s"] = (statistics.median(setups), "s")
        out.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        out.timings["setup_s"] = {"n": len(setups), "p50": statistics.median(setups),
                                  "all": setups}
        setup_samples = len(setups)

    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine_block(args.seed),
        "fingerprint": fingerprint(out.counters),
        "failed_share": checks.failed / max(checks.attempted, 1),
        "failures": checks.messages,
        "samples": {**out.samples, "setup_s": setup_samples},
        "quality": {k: (None if v is None else {"value": v[0], "unit": v[1]})
                    for k, v in out.quality.items()},
        "counters": out.counters,
        "timings": out.timings,
    }
    if args.trace:
        stem = f"{args.workload}-seed{args.seed}"
        tracer.write(OUT_DIR / f"{stem}-spans.csv")
        units = declared("per_layer")
        metrics = {}
        for name, got in out.layers.items():
            unit = units.get(name, "count")
            if got is not None and got[1] != unit:
                raise RuntimeError(f"{name} measured in {got[1]}, declared in {unit}")
            if name in units:
                metrics[name] = {"value": 0.0 if got is None else got[0], "unit": unit}
            print(f"{name:40s} {'not exercised' if got is None else f'{got[0]:.6g}':>14s} {unit}"
                  f"{'' if name in units else '  (count, no better direction)'}")
        if set(units) - set(metrics):
            raise RuntimeError(f"not measured: {sorted(set(units) - set(metrics))}")
        # Counts that have no better direction stay out of BENCHMARK.json.
        detail["counts"] = {n: None if v is None else v[0]
                            for n, v in out.layers.items() if n not in units}
        detail["not_exercised"] = [n for n, v in out.layers.items() if v is None]
        detail["spans"] = {"file": str(Path(".bench_out") / f"{stem}-spans.csv"),
                           "count": len(tracer.spans)}
    else:
        units = declared("end_to_end")
        if units != {k: u for k, (_, u) in out.metrics.items()}:
            raise RuntimeError(f"measured {sorted(out.metrics)}, declared {units}")
        metrics = {k: {"value": out.metrics[k][0], "unit": u} for k, u in units.items()}
        for name, m in metrics.items():
            print(f"{name:24s} {m['value']:14.6g} {m['unit']}")
        for name, q in sorted(out.quality.items()):
            print(f"{name:24s} {'not exercised' if q is None else f'{q[0]:.6g}':>14s}"
                  f"{'' if q is None else ' ' + q[1]}")
    print(f"fingerprint {detail['fingerprint']}  failed {checks.failed}/{checks.attempted}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
