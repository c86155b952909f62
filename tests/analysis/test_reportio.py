"""Table-serialisation tests."""

import json

from repro.analysis import Table
from repro.analysis.reportio import SCHEMA_VERSION, save_table, table_to_dict


class TestTableSerialisation:
    def make_table(self):
        t = Table("demo", ["a", "b"])
        t.add_row("x", 1.5)
        t.add_row("y", 2)
        t.add_note("a note")
        return t

    def test_round_trip_on_disk(self, tmp_path):
        t = self.make_table()
        path = save_table(t, tmp_path / "t.json")
        assert json.loads(path.read_text()) == {
            "schema": SCHEMA_VERSION,
            "title": "demo",
            "headers": ["a", "b"],
            "rows": [["x", 1.5], ["y", 2]],
            "notes": ["a note"],
        }

    def test_experiment_table_serialises(self):
        from repro.analysis import table1_config

        data = json.loads(json.dumps(table_to_dict(table1_config())))
        assert "Table 1" in data["title"]
        assert data["schema"] == SCHEMA_VERSION
