"""eblab benchmark: run one workload through ``eblab.cli.main`` and report.

Usage (from the repository root):

    python3 bench/run.py --workload pairs --seed 0 --seconds 30 --trace 0

The workload's CLI calls (units) run round-robin in one process and one
thread until ``--seconds`` have passed and every unit has run
``MIN_ROUNDS`` times.  Each call's time is scaled to reference machine
speed by a probe measured right after it (probes.py).  Every output is
checked (workloads.py).  The last line of
stdout is one JSON object: ``correct``, ``attempted`` and ``failed``
cells, and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  The line before it
records machine and build information.  See README.md for every metric.
"""

from __future__ import annotations

import os

# the plain single-threaded baseline: BLAS threads are pinned before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from probes import speed_factor
from tracer import Tracer
from workloads import WORKLOADS, failed_cells

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_BASE = ROOT / ".bench_out"

MIN_ROUNDS = 2
SETUP_SAMPLES = 7
SETUP_CODE = "import sys, time; sys.path.insert(0, sys.argv[1]); import eblab.cli; print(time.monotonic())"

END_TO_END_UNITS = {"wall_s": "s", "cells_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "mixtures.calls": "count",
    "mixtures.points": "count",
    "mixtures.points_per_call": "points/call",
    "mixtures.self_s": "s",
    "quadrature.integrals": "count",
    "quadrature.panels": "count",
    "quadrature.panels_per_integral": "panels/integral",
    "quadrature.self_s": "s",
    "metrics.reports": "count",
    "metrics.integrand_s": "s",
    "metrics.self_s": "s",
    "metrics.form_mismatch": "count",
    "families.instances": "count",
    "families.integrand_s": "s",
    "families.self_s": "s",
    "hermite.tables": "count",
    "hermite.self_s": "s",
    "orthopoly.recurrences": "count",
    "orthopoly.degree_sum": "count",
    "orthopoly.self_s": "s",
    "npmle.solves": "count",
    "npmle.observations": "count",
    "npmle.iterations": "count",
    "npmle.not_converged": "count",
    "npmle.self_s": "s",
    "reports.bytes": "bytes",
    "reports.self_s": "s",
    "cli.cells": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def measure_setup():
    """Median time from a fresh interpreter's start until ``import eblab.cli`` returns.

    Returns the median of the samples scaled to reference machine speed,
    and the raw samples.
    """
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        raw.append(float(done.stdout.split()[-1]) - start)
        scaled.append(raw[-1] * speed_factor("interp"))
    return statistics.median(scaled), raw


def _blas_threads():
    """Thread count of every OpenBLAS library loaded into this process."""
    try:
        maps = pathlib.Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                out[pathlib.Path(path).name] = getter()
                break
    return out


def machine_info():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def _call(cli, argv):
    """Run one CLI call; returns (exit code or None on an exception, seconds)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # an uncaught error fails the call's cells, not the run
            code = None
            sink.write(f"{type(exc).__name__}: {exc}\n")
        elapsed = time.perf_counter() - start
    if code != 0:
        print(f"bench: eblab {' '.join(argv)} -> {code}: {sink.getvalue()[-500:]}", file=sys.stderr)
    return code, elapsed


def _ratio(num, den):
    return num / den if den else 0.0


def _layer_metrics(sums):
    """Per-layer metrics from the per-round sums of span results."""
    out = {name: float(sums.get(name, 0.0)) for name in PER_LAYER_UNITS}
    out["quadrature.panels"] = sums.get("quadrature.nodes", 0.0) / 15.0
    out["quadrature.panels_per_integral"] = _ratio(out["quadrature.panels"],
                                                   out["quadrature.integrals"])
    out["mixtures.points_per_call"] = _ratio(out["mixtures.points"], out["mixtures.calls"])
    return out


def _failed_cells(unit, code, stem, hashes, references):
    """Cells of one call that failed: a nonzero exit, changed output bytes, or a check."""
    if code != 0:
        return unit.cells
    csv_bytes = stem.with_suffix(".csv").read_bytes()
    digest = hashlib.sha256(csv_bytes + stem.with_suffix(".json").read_bytes()).hexdigest()
    if hashes.setdefault(unit.name, digest) != digest:
        print(f"bench: {unit.name} output bytes changed between rounds", file=sys.stderr)
        return unit.cells
    bad = failed_cells(unit, csv_bytes.decode(), references.get(unit.key))
    if bad:
        print(f"bench: {unit.name}: {bad} cells failed their checks", file=sys.stderr)
    return bad


def run_workload(units, seconds, trace, out_dir, references):
    """Call the units round-robin; returns (metrics, raw wall, attempted, failed, rounds)."""
    import eblab.cli as cli

    tracer = Tracer() if trace else None
    # per unit: (raw seconds, seconds scaled to reference machine speed)
    walls = {u.name: [] for u in units}
    traced_walls = {u.name: [] for u in units}
    layers = {u.name: [] for u in units}
    hashes = {}
    attempted = failed = 0
    calls = 0
    min_calls = (2 * MIN_ROUNDS if trace else MIN_ROUNDS) * len(units)
    start = time.perf_counter()
    # one unit at a time, round-robin, so a run ends close to `seconds`
    while calls < min_calls or time.perf_counter() - start < seconds:
        unit = units[calls % len(units)]
        traced = trace and (calls // len(units)) % 2 == 1
        calls += 1
        stem = out_dir / unit.name
        argv = ["--out", str(stem), *unit.argv]
        if traced:
            with tracer:
                code, elapsed = _call(cli, argv)
            layers[unit.name].append(tracer.collect())
        else:
            code, elapsed = _call(cli, argv)
        factor = speed_factor(unit.probe)
        (traced_walls if traced else walls)[unit.name].append((elapsed, elapsed * factor))
        attempted += unit.cells
        failed += _failed_cells(unit, code, stem, hashes, references)

    def pass_time(samples, column):
        return sum(statistics.median(s[column] for s in samples[u.name]) for u in units)

    wall = pass_time(walls, 1)
    if not trace:
        metrics = {
            "wall_s": wall,
            "cells_per_s": sum(u.cells for u in units) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        keys = set().union(*(d.keys() for rows in layers.values() for d in rows))
        sums = {k: sum(statistics.median(d.get(k, 0.0) for d in layers[u.name]) for u in units)
                for k in keys}
        metrics = _layer_metrics(sums)
        metrics["trace.overhead_s"] = pass_time(traced_walls, 1) - wall
    return metrics, pass_time(walls, 0), attempted, failed, calls / len(units)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eblab" / "cli.py").is_file():
        print(f"bench: no eblab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("bench: --seed must be nonnegative", file=sys.stderr)
        return 2

    setup_s, setup_samples = measure_setup()
    units = WORKLOADS[args.workload](args.seed)
    references = json.loads((BENCH_DIR / "reference.json").read_text())
    out_dir = OUT_BASE / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, raw_wall, attempted, failed, rounds = run_workload(
            units, args.seconds, args.trace, out_dir, references
        )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_BASE.rmdir()
    if not args.trace:
        metrics["setup_s"] = setup_s
        units_of = END_TO_END_UNITS
    else:
        units_of = PER_LAYER_UNITS

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "units": len(units),
        "failed_frac": failed / attempted,
        "wall_raw_s": raw_wall,
        "setup_raw_s": setup_samples,
        "machine": machine_info(),
    }
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units_of.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
