"""Regenerate bench/reference.json: CSV outputs at the default and hold-out seeds.

Usage (from the repository root):

    python3 bench/make_reference.py

Run it only when the program's outputs are meant to change; the benchmark
compares every run at these seeds against the stored values.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run  # pins BLAS threads before numpy loads, like a benchmark run

sys.path.insert(0, str(run.SRC))

import eblab.cli as cli  # noqa: E402
from workloads import DEFAULT_SEED, HOLDOUT_SEED, WORKLOADS  # noqa: E402


def main():
    reference = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for make_units in WORKLOADS.values():
            for seed in (DEFAULT_SEED, HOLDOUT_SEED):
                for unit in make_units(seed):
                    stem = f"{tmp}/{unit.name}"
                    code, _ = run._call(cli, ["--out", stem, *unit.argv])
                    if code != 0:
                        raise SystemExit(f"{unit.key} exited with {code}")
                    with open(f"{stem}.csv") as fh:
                        reference[unit.key] = fh.read()
    path = run.BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} reference outputs to {path}")


if __name__ == "__main__":
    main()
