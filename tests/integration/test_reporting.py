"""Bench reporting/calibration helpers."""

from repro.bench.reporting import format_table, human_size


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table("Title", ["col-a", "b"], [["x", 1.5], ["longer", 123.456]])
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert lines[1] == "=" * 5
        assert "col-a" in lines[2]
        # All data lines align to the same width.
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1

    def test_float_formatting(self):
        text = format_table("T", ["v"], [[0.00012345], [12.3456], [1234.5]])
        assert "0.0001" in text
        assert "12.35" in text
        assert "1234.5" in text

    def test_empty_rows(self):
        text = format_table("Empty", ["a"], [])
        assert "Empty" in text


class TestHumanSize:
    def test_bytes(self):
        assert human_size(17) == "17B"

    def test_kilobytes(self):
        assert human_size(10 * 1024) == "10KB"

    def test_megabytes(self):
        assert human_size(3 * 1024 * 1024) == "3MB"


class TestCalibration:
    def test_calibration_runs_and_reports(self):
        # Keep it cheap: calibration itself uses fixed workloads; just
        # validate the row structure on the two fast cases by reusing the
        # private helpers.
        from repro.bench.calibration import _row

        row = _row("compress", "w", seconds=0.5, n_bytes=1024, shipped=110.0)
        assert row["suggested_factor"] > 0
        assert row["python_ns_per_byte"] == 0.5e9 / 1024

    def test_full_calibration_run(self):
        from repro.bench.calibration import CALIBRATION
        from repro.bench.reporting import render

        rows = CALIBRATION.rows(seed=7)
        assert {r["case"] for r in rows} == {"sift", "compress", "pattern", "bow"}
        for row in rows:
            assert row["python_seconds"] > 0
            assert row["suggested_factor"] > 0
        text = render(CALIBRATION, rows)
        assert "shipped factor" in text
