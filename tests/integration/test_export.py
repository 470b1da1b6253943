"""CSV export of experiment rows."""

import csv
import io

from repro.bench import EXPERIMENTS
from repro.bench.export import rows_to_csv, write_csv


class TestCsvExport:
    def test_fig5_rows_with_derived_columns(self):
        rows = EXPERIMENTS["fig5d"].rows(word_counts=[1000], trials=1)
        text = rows_to_csv(rows)
        parsed = list(csv.reader(io.StringIO(text)))
        header, data = parsed[0], parsed[1:]
        assert "label" in header
        assert "speedup" in header          # derived column exported
        assert "init_relative" in header
        assert len(data) == 1
        assert data[0][header.index("label")] == "1000w"

    def test_table1_dict_columns_flattened(self):
        rows = EXPERIMENTS["table1"].rows(sizes=[1024], trials=1)
        text = rows_to_csv(rows)
        assert "tag_gen=" in text           # dict cells become k=v lists

    def test_empty_rows(self):
        assert rows_to_csv([]) == ""

    def test_write_csv_creates_directories(self, tmp_path):
        rows = EXPERIMENTS["a4"].rows(flood=20, honest=2)
        out = write_csv(rows, tmp_path / "nested" / "a4.csv")
        assert out.exists()
        content = out.read_text()
        assert "policy" in content

    def test_cli_csv_flag(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        assert main(["e9", "--quick", "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "e9.csv").exists()
        assert "incremental" in capsys.readouterr().out
