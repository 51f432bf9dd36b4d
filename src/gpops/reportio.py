"""Deterministic JSON/CSV writers for reports.

Numbers are written in Python's shortest round-trip form (``repr`` of the
float), so every serialized value parses back to the exact double; with
insertion-ordered keys this makes outputs byte-identical across runs with
equal inputs.  Non-finite numbers are refused.
"""

from __future__ import annotations

import json
import math

from .errors import ParameterError

__all__ = ["format_number", "dumps_json", "csv_lines"]


def format_number(x) -> str:
    if isinstance(x, bool):
        raise ParameterError("booleans are not numbers here")
    if isinstance(x, int):
        return str(x)
    x = float(x)
    if not math.isfinite(x):
        raise ParameterError(f"cannot serialize non-finite number {x!r}")
    return repr(x)


def dumps_json(obj) -> str:
    """Serialize to indented JSON with insertion-ordered keys and round-trip floats."""
    try:
        return json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"cannot serialize report: {exc}") from exc


def csv_lines(header, rows) -> str:
    """CSV text with numbers in round-trip form and '\\n' endings."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append("true" if cell else "false")
            elif isinstance(cell, (int, float)):
                cells.append(format_number(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
