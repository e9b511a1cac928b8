"""Evaluation report documents: per-scene rows plus aggregate means.

A report serializes two ways: a machine-readable CSV and an aligned text
table whose normalized-error columns are printed as percentages.  Aggregate
rows are plain means over the present (non-missing) rows, grouped overall
and per object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import __version__

XYZ_COLUMNS = (
    "mae",
    "mad",
    "max_dst",
    "chamfer",
    "mae_over_mad",
    "mae_over_maxdst",
    "chamfer_over_mad",
    "chamfer_over_maxdst",
    "r_squared",
    "k",
)
SEG_COLUMNS = ("iou", "precision", "recall")

# columns shown as percentages in the text table
_PERCENT_COLUMNS = {
    "mae_over_mad",
    "mae_over_maxdst",
    "chamfer_over_mad",
    "chamfer_over_maxdst",
    "iou",
    "precision",
    "recall",
}

NOTES = "normalized columns are per-scene ratios; aggregates average those ratios"


@dataclass(frozen=True)
class ReportDocument:
    """Rows keyed by (seed, object) plus per-group aggregate means."""

    mode: str
    columns: tuple
    rows: list
    aggregates: dict

    @classmethod
    def build(cls, mode: str, columns, rows: list) -> "ReportDocument":
        """Assemble a document, deriving aggregates from the rows.

        Rows are dicts with "seed", "object" and either one value per column
        or "missing", the reason code of an absent row.  Aggregates are numpy
        means over present rows, computed overall and per object label.
        """
        present = [r for r in rows if not r.get("missing")]
        groups = {"overall": present}
        for r in present:
            groups.setdefault(r["object"], []).append(r)
        aggregates = {}
        for name, grp in groups.items():
            if not grp:
                continue
            aggregates[name] = {
                col: float(np.mean(np.array([r[col] for r in grp], dtype=np.float64)))
                for col in columns
            }
        return cls(mode, tuple(columns), list(rows), aggregates)

    def to_csv(self) -> str:
        header = ["seed", "object", "missing", *self.columns]
        lines = [",".join(header)]
        for r in self.rows:
            if r.get("missing"):
                cells = [str(r["seed"]), r["object"], r["missing"]] + [""] * len(self.columns)
            else:
                cells = [str(r["seed"]), r["object"], "false"] + [
                    repr(float(r[c])) for c in self.columns
                ]
            lines.append(",".join(cells))
        for name, agg in self.aggregates.items():
            cells = ["mean", name, "false"] + [repr(agg[c]) for c in self.columns]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        def fmt(col: str, value: float) -> str:
            if col in _PERCENT_COLUMNS:
                return f"{100.0 * value:.2f}%"
            return f"{value:.4g}"

        header = ["seed", "object", *self.columns]
        table = [header]
        for r in self.rows:
            if r.get("missing"):
                table.append([str(r["seed"]), r["object"]] + [r["missing"]] * len(self.columns))
            else:
                table.append(
                    [str(r["seed"]), r["object"]] + [fmt(c, r[c]) for c in self.columns]
                )
        table.append([""] * len(header))
        for name, agg in self.aggregates.items():
            table.append(["mean", name] + [fmt(c, agg[c]) for c in self.columns])
        widths = [max(len(row[i]) for row in table) for i in range(len(header))]
        lines = [
            f"# mode: {self.mode} | tool: vesselxyz {__version__}",
            f"# {NOTES}",
        ]
        for row in table:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip())
        return "\n".join(lines) + "\n"
