"""The benchmark's workloads and the checks applied to their outputs.

A workload is a list of ``Unit``s: one CLI invocation each, with the
number of rows (cells) it must produce and the checks its rows must pass.
Inputs depend only on the workload seed.  See README.md for why each
workload exists and which layers it exercises.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 0
HOLDOUT_SEED = 101

PAIR_GENERATOR = "k_atom:k=5,m=1"
PAIR_COUNT = 100

NPMLE_PRIORS = 24
NPMLE_N_VALUES = "200,800,3200"
NPMLE_TOL = 1e-6  # the CLI's default --tol; the certificate bounds suboptimality by it
_NPMLE_DESIGN_SEED = 20261017

CLIP_RHOS = "0.01,0.05,0.2"
BERNSTEIN_K = (2, 40)

# the package's own FormMismatch tolerance
REFERENCE_REL_TOL = 1e-7
# delta_stat and hellinger_sq are each integrated to 1e-9 relative
SANDWICH_SLACK = 1e-9


@dataclass
class Unit:
    """One CLI call: global flags and subcommand, without ``--out``."""

    name: str
    argv: list
    cells: int
    row_checks: list = field(default_factory=list)
    reference: str = "values"  # "values": every column; "loglik": npmle fits
    probe: str = "interp"  # the machine-speed probe doing the same kind of work (probes.py)

    @property
    def key(self):
        return " ".join(self.argv)


def _sandwich(row):
    """delta <= eps^2 <= 2 delta for the pair sweep."""
    delta, eps_sq = float(row["delta"]), float(row["eps_sq"])
    slack = 1.0 + SANDWICH_SLACK
    return delta <= eps_sq * slack and eps_sq <= 2.0 * delta * slack


def _certified(row):
    return float(row["cert"]) <= 1.0 + NPMLE_TOL


def _within_bound(row):
    return row["within_bound"] == "1"


def _lb_ok(row):
    return row["lb_ok"] == "1"


def pairs(seed):
    return [
        Unit(
            "regratio-pairs",
            ["--seed", str(seed), "--threads", "1", "regratio", "--pairs", PAIR_GENERATOR,
             "--count", str(PAIR_COUNT)],
            cells=PAIR_COUNT,
            row_checks=[_sandwich],
        )
    ]


def npmle_design_priors():
    """Fixed two_point:m=2 draws: atoms uniform on [-2, 2], split in [0.05, 0.95]."""
    priors = []
    for i in range(NPMLE_PRIORS):
        rng = np.random.default_rng([_NPMLE_DESIGN_SEED, i])
        atoms = rng.uniform(-2.0, 2.0, size=2)
        split = rng.uniform(0.05, 0.95)
        priors.append({"atoms": atoms.tolist(), "weights": [split, 1.0 - split]})
    return priors


def npmle(seed):
    units = []
    for i, prior in enumerate(npmle_design_priors()):
        units.append(
            Unit(
                f"npmle-{i}",
                ["--seed", str(seed * NPMLE_PRIORS + i), "--threads", "1", "npmle",
                 "--prior", json.dumps(prior), "--n-values", NPMLE_N_VALUES, "--n-seeds", "1"],
                cells=len(NPMLE_N_VALUES.split(",")),
                row_checks=[_certified],
                reference="loglik",
                probe="array",
            )
        )
    return units


def constructions(seed):
    k_min, k_max = BERNSTEIN_K
    return [
        Unit("lowerbound", ["--threads", "1", "lowerbound", "--m-min", "2", "--m-max", "12"],
             cells=11),
        Unit("moment", ["--threads", "1", "moment", "--p", "3", "--b-values", "4,8,16,32"],
             cells=4, row_checks=[_lb_ok]),
        Unit("clipped", ["--threads", "1", "regratio", "--p", "2", "--b", "8", "--rhos", CLIP_RHOS],
             cells=len(CLIP_RHOS.split(",")) + 1),
        Unit(
            "bernstein",
            ["--seed", str(seed), "--threads", "1", "bernstein", "--prior", PAIR_GENERATOR,
             "--k-min", str(k_min), "--k-max", str(k_max)],
            cells=k_max - k_min + 1,
            row_checks=[_within_bound],
        ),
    ]


WORKLOADS = {"pairs": pairs, "npmle": npmle, "constructions": constructions}


def _parse_rows(csv_text):
    return list(csv.DictReader(io.StringIO(csv_text)))


def _close(a, b):
    a, b = float(a), float(b)
    return a == b or abs(a - b) <= REFERENCE_REL_TOL * max(abs(a), abs(b))


def _matches(unit, row, ref):
    if unit.reference == "loglik":
        return abs(float(row["loglik"]) - float(ref["loglik"])) <= NPMLE_TOL
    return row.keys() == ref.keys() and all(_close(row[c], ref[c]) for c in row)


def failed_cells(unit, csv_text, reference_csv=None):
    """Number of the unit's cells whose row is missing or fails a check."""
    rows = _parse_rows(csv_text)
    if len(rows) != unit.cells:
        return unit.cells
    refs = _parse_rows(reference_csv) if reference_csv is not None else None
    if refs is not None and len(refs) != len(rows):
        return unit.cells
    failed = 0
    for i, row in enumerate(rows):
        ok = all(check(row) for check in unit.row_checks)
        if ok and refs is not None:
            ok = _matches(unit, row, refs[i])
        failed += not ok
    return failed
