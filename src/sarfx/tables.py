"""CSV text for every table the package writes.

One cell rule for all of them (experiment report and summary, batch metrics,
spectrum profiles): ``None`` is an empty cell, a float is its shortest
round-trip ``repr`` (numpy scalars included), anything else is ``str``. Lines
end in ``\\n``, where ``csv.writer`` would end them in ``\\r\\n``.
"""

from __future__ import annotations


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
