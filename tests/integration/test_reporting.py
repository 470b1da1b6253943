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
        # The model's side, without timing anything: each case sweeps its
        # Fig. 5 inputs, one of them the reference its coefficient was
        # scaled at, and every input is charged a positive cost.
        from repro.apps.registry import DEFLATE_SECONDS_PER_BYTE, compress_case_study
        from repro.bench.calibration import _sweeps

        sweeps = list(_sweeps(seed=7))
        assert [name for name, _, _ in sweeps] == ["sift", "compress", "pattern", "bow"]
        for _, case, inputs in sweeps:
            assert [ref for _, _, ref in inputs].count(True) == 1
            assert all(case.native_cost(value) > 0 for _, value, _ in inputs)
        assert compress_case_study().native_cost(b"x" * 1024) == 1024 * DEFLATE_SECONDS_PER_BYTE

    def test_full_calibration_run(self):
        from repro.bench.calibration import CALIBRATION
        from repro.bench.reporting import render

        # Every case, at its two smallest sweep inputs, timed once.
        rows = CALIBRATION.rows(repeats=1, points=2, seed=7)
        assert [r["case"] for r in rows] == [
            "sift", "sift", "compress", "compress", "pattern", "pattern", "bow", "bow"]
        for row in rows:
            assert row["host_s"] > 0 and row["model_s"] > 0
            assert row["slowdown"] == row["host_s"] / row["model_s"]
        text = render(CALIBRATION, rows)
        assert "host/model" in text
