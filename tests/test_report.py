"""Report document assembly, aggregates, and serialization."""

import numpy as np

from vesselxyz import __version__
from vesselxyz.report import SEG_COLUMNS, XYZ_COLUMNS, ReportDocument


def _xyz_row(seed, obj, value):
    row = {"seed": seed, "object": obj}
    row.update({c: value for c in XYZ_COLUMNS})
    return row


class TestReportDocument:
    def test_aggregates_are_row_means(self):
        rows = [
            _xyz_row(1, "vessel", 0.25),
            _xyz_row(1, "content", 0.5),
            _xyz_row(2, "vessel", 0.125),
            {"seed": 2, "object": "content", "missing": "no-file"},
        ]
        doc = ReportDocument.build("vessel-scale", XYZ_COLUMNS, rows)
        expected_overall = float(np.mean(np.array([0.25, 0.5, 0.125])))
        for col in XYZ_COLUMNS:
            assert abs(doc.aggregates["overall"][col] - expected_overall) <= 1e-12
        assert abs(doc.aggregates["vessel"]["mae"] - np.mean([0.25, 0.125])) <= 1e-12
        assert doc.aggregates["content"]["mae"] == 0.5  # missing row excluded

    def test_csv_round_trip_values(self):
        rows = [_xyz_row(7, "vessel", 0.1234567890123),
                {"seed": 7, "object": "content", "missing": "unscorable"}]
        doc = ReportDocument.build("content-scale", XYZ_COLUMNS, rows)
        lines = doc.to_csv().strip().splitlines()
        header = lines[0].split(",")
        first = dict(zip(header, lines[1].split(",")))
        assert float(first["mae"]) == 0.1234567890123  # repr-exact floats
        absent = dict(zip(header, lines[2].split(",")))
        assert absent["missing"] == "unscorable" and absent["mae"] == ""

    def test_text_table_percent_columns(self):
        rows = [{"seed": 3, "object": "vessel", "iou": 0.5, "precision": 0.75, "recall": 1.0}]
        doc = ReportDocument.build("segmentation", SEG_COLUMNS, rows)
        text = doc.to_text()
        assert "50.00%" in text and "75.00%" in text and "100.00%" in text
        assert f"# mode: segmentation | tool: vesselxyz {__version__}" in text
