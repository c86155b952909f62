"""Result-serialisation tests."""

import json

import pytest

from repro.analysis import Table, run_spmv
from repro.analysis.reportio import (
    load_table,
    run_result_to_dict,
    save_run,
    save_table,
    table_from_dict,
    table_to_dict,
)
from repro.workloads import random_csr, random_dense_vector


@pytest.fixture(scope="module")
def run():
    matrix = random_csr((24, 24), 0.5, seed=400)
    v = random_dense_vector(24, seed=401)
    return run_spmv(matrix, v, accel="hht")


class TestRunSerialisation:
    def test_dict_fields(self, run):
        data = run_result_to_dict(run.result)
        assert data["cycles"] == run.cycles
        assert data["instructions"] == run.result.instructions
        assert "vector_fp" in data["class_cycles"]
        assert data["port_requests"]["hht"] > 0

    def test_json_round_trip(self, run, tmp_path):
        path = save_run(run.result, tmp_path / "run.json")
        data = json.loads(path.read_text())
        assert data["cycles"] == run.cycles
        assert data["schema"] == 1

    def test_values_are_plain_types(self, run):
        data = run_result_to_dict(run.result)
        json.dumps(data)  # must not raise


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
