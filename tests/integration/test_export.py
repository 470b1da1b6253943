"""CSV export of experiment rows."""

import csv
import io
import json

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


class TestJsonDocument:
    def test_all_writes_one_document_with_every_experiment(self, tmp_path, monkeypatch):
        from repro.bench import __main__ as cli

        monkeypatch.setattr(
            cli, "EXPERIMENTS", {name: EXPERIMENTS[name] for name in ("a4", "a6")}
        )
        path = tmp_path / "out" / "rows.json"
        assert cli.main(["all", "--quick", "--json", str(path)]) == 0
        document = json.loads(path.read_text())
        assert set(document) == {"provenance", "experiments"}
        assert set(document["provenance"]) == {
            "git_commit", "git_dirty", "python", "numpy", "quick"}
        assert document["provenance"]["quick"] is True
        assert list(document["experiments"]) == ["a4", "a6"]
        assert [row["policy"] for row in document["experiments"]["a4"]] == [
            "no quota", "quota: 32 entries/app"]

    def test_one_experiment_writes_the_same_document_shape(self, tmp_path):
        from repro.bench.__main__ import main

        path = tmp_path / "a4.json"
        assert main(["a4", "--json", str(path)]) == 0
        document = json.loads(path.read_text())
        assert list(document["experiments"]) == ["a4"]
        assert document["provenance"]["quick"] is False

    def test_nothing_is_written_unasked(self, tmp_path, monkeypatch):
        from repro.bench.__main__ import main

        monkeypatch.chdir(tmp_path)
        assert main(["migrate", "--quick"]) == 0
        assert not list(tmp_path.iterdir())
