"""Deterministic experiment reports: CSV tables with JSON sidecars.

Every run is described by an ``ExperimentSpec`` (name, parameters, seed)
and produces an ``ExperimentReport`` whose rows are plain dicts sharing a
single column set.  Serialization is fully deterministic: floats print
as %.17g (round-trip exact for doubles) and lines end with LF.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "UnknownExperiment",
    "InvalidParameter",
    "ExperimentSpec",
    "ExperimentReport",
    "format_value",
    "output_paths",
]


class UnknownExperiment(ValueError):
    """Raised for an experiment name with no registered runner."""


class InvalidParameter(ValueError):
    """Raised when experiment parameters fail validation."""


def format_value(value) -> str:
    """Render a cell: floats as %.17g, bools as 0/1, rest via str."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def output_paths(out_path) -> tuple:
    """The paths <out>.csv and <out>.json that a report written to ``out_path`` takes.

    A trailing .csv or .json of ``out_path`` is dropped first; any other
    suffix stays part of the stem, so ``run.v2`` gives ``run.v2.csv``.
    A stem that names a device or FIFO, such as /dev/null, or that has no
    file name, such as ".", raises ``ValueError``.
    """
    out = pathlib.Path(out_path)
    if out.suffix in (".csv", ".json"):
        out = out.with_suffix("")
    if out.is_char_device() or out.is_block_device() or out.is_fifo():
        raise ValueError(f"{str(out)!r} is a device or FIFO, not a file stem")
    return tuple(out.with_name(out.name + suffix) for suffix in (".csv", ".json"))


@dataclass
class ExperimentSpec:
    """Echoable description of a run; everything needed to reproduce it."""

    name: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def to_json_dict(self) -> dict:
        return {"name": self.name, "params": self.params, "seed": self.seed}


@dataclass
class ExperimentReport:
    """Rows plus metadata; knows how to write itself out."""

    spec: ExperimentSpec
    columns: list
    rows: list
    summary: dict = field(default_factory=dict)

    def csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(format_value(row[c]) for c in self.columns))
        return "\n".join(lines) + "\n"

    def json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "columns": list(self.columns),
            "row_count": len(self.rows),
            "summary": self.summary,
        }

    def write(self, out_path) -> tuple:
        """Write the two files of ``output_paths(out_path)`` and return their paths."""
        csv_path, json_path = output_paths(out_path)
        with open(csv_path, "w", newline="") as fh:
            fh.write(self.csv_text())
        with open(json_path, "w", newline="") as fh:
            json.dump(self.json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return csv_path, json_path
