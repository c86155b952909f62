"""Table serialisation to and from JSON.

Experiment campaigns want machine-readable artifacts alongside the
printable tables; this module flattens :class:`Table` objects into
plain JSON documents (and reads them back for longitudinal
comparisons).  A run serialises itself: see
:meth:`~repro.system.soc.RunSummary.to_json_dict`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .tables import Table

SCHEMA_VERSION = 1


def table_to_dict(table: Table) -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "title": table.title,
        "headers": list(table.headers),
        "rows": [list(row) for row in table.rows],
        "notes": list(table.notes),
    }


def table_from_dict(data: dict[str, Any]) -> Table:
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported table schema {data.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    table = Table(data["title"], list(data["headers"]))
    for row in data["rows"]:
        table.add_row(*row)
    for note in data.get("notes", []):
        table.add_note(note)
    return table


def save_table(table: Table, path: str | Path) -> Path:
    """Write a table as JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(table_to_dict(table), indent=2))
    return path


def load_table(path: str | Path) -> Table:
    return table_from_dict(json.loads(Path(path).read_text()))

