"""CSV and JSON text for every file the package writes.

One cell rule for all of them (experiment report and summary, batch metrics,
spectrum profiles): ``None`` is an empty cell, a float is its shortest
round-trip ``repr`` (numpy scalars included), anything else is ``str``. Lines
end in ``\\n``, where ``csv.writer`` would end them in ``\\r\\n``.
"""

from __future__ import annotations

import json


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def csv_text(columns, rows) -> str:
    """Header line plus one line per row mapping; missing columns are empty."""
    lines = [",".join(columns)]
    lines += [",".join(_cell(row.get(col)) for col in columns) for row in rows]
    return "\n".join(lines) + "\n"


def json_text(obj) -> str:
    """``obj`` as every JSON file the package writes: sorted keys, two-space indents, a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
