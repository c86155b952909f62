"""Table-serialisation tests."""

import json

import pytest

from repro.analysis import Table
from repro.analysis.reportio import (
    load_table,
    save_table,
    table_from_dict,
    table_to_dict,
)


class TestTableSerialisation:
    def make_table(self):
        t = Table("demo", ["a", "b"])
        t.add_row("x", 1.5)
        t.add_row("y", 2)
        t.add_note("a note")
        return t

    def test_round_trip_in_memory(self):
        t = self.make_table()
        back = table_from_dict(table_to_dict(t))
        assert back.title == t.title
        assert back.headers == t.headers
        assert back.rows == t.rows
        assert back.notes == t.notes

    def test_round_trip_on_disk(self, tmp_path):
        t = self.make_table()
        path = save_table(t, tmp_path / "t.json")
        back = load_table(path)
        assert back.render() == t.render()

    def test_schema_checked(self):
        with pytest.raises(ValueError, match="schema"):
            table_from_dict({"schema": 99, "title": "x", "headers": [], "rows": []})

    def test_experiment_table_serialises(self):
        from repro.analysis import table1_config

        data = table_to_dict(table1_config())
        json.dumps(data)
        back = table_from_dict(data)
        assert "Table 1" in back.title
