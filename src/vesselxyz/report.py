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

# columns shown as percentages in the text table: the ratios and every segmentation score
_PERCENT_COLUMNS = {col for col in XYZ_COLUMNS if "_over_" in col} | set(SEG_COLUMNS)

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
        groups = {"overall": present} if present else {}
        for r in present:
            groups.setdefault(r["object"], []).append(r)
        aggregates = {
            name: {col: float(np.mean(np.array([r[col] for r in grp], dtype=np.float64)))
                   for col in columns}
            for name, grp in groups.items()
        }
        return cls(mode, tuple(columns), list(rows), aggregates)

    def _table(self) -> list:
        """(seed, object, missing, cells) per row and then per mean.

        ``missing`` is "false" on a present row, and a cell is the column's
        value as a float, or None on an absent row.
        """
        rows = [(str(r["seed"]), r["object"], r.get("missing") or "false",
                 [None if r.get("missing") else float(r[col]) for col in self.columns])
                for r in self.rows]
        return rows + [("mean", name, "false", [agg[col] for col in self.columns])
                       for name, agg in self.aggregates.items()]

    def to_csv(self) -> str:
        lines = [("seed", "object", "missing", *self.columns)] + [
            (seed, obj, missing, *("" if v is None else repr(v) for v in cells))
            for seed, obj, missing, cells in self._table()
        ]
        return "".join(",".join(line) + "\n" for line in lines)

    def to_text(self) -> str:
        def fmt(col: str, value: float) -> str:
            return f"{100.0 * value:.2f}%" if col in _PERCENT_COLUMNS else f"{value:.4g}"

        table = [["seed", "object", *self.columns]] + [
            [seed, obj, *(missing if v is None else fmt(c, v) for c, v in zip(self.columns, cells))]
            for seed, obj, missing, cells in self._table()
        ]
        table.insert(1 + len(self.rows), [""] * len(table[0]))  # between the rows and the means
        widths = [max(map(len, column)) for column in zip(*table)]
        lines = [f"# mode: {self.mode} | tool: vesselxyz {__version__}", f"# {NOTES}"]
        lines += ["  ".join(c.rjust(w) for c, w in zip(row, widths)).rstrip() for row in table]
        return "\n".join(lines) + "\n"
