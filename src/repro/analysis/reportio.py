"""Table serialisation to JSON.

Experiment campaigns want machine-readable artifacts alongside the
printable tables; this module flattens :class:`Table` objects into
plain JSON documents (``repro compare --out`` writes them for CI to
read).  A run serialises itself: see
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


def save_table(table: Table, path: str | Path) -> Path:
    """Write a table as JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(table_to_dict(table), indent=2))
    return path

