"""Serialisation helpers: turn experiment results into JSON/CSV-friendly data.

Experiment results are dataclasses holding NumPy scalars and arrays; these
helpers convert them into plain Python containers so they can be dumped with
``json`` or written as CSV without custom encoders.
"""

from __future__ import annotations

import dataclasses
import io
import json
from typing import Any, Mapping, Sequence

import numpy as np

#: Types returned as they are. Exact types only: ``np.float64`` subclasses
#: ``float`` but is converted, and ``IntEnum`` or ``str`` subclasses take
#: the general checks below.
_PLAIN = frozenset({str, int, float, bool, type(None)})


def to_jsonable(value: Any) -> Any:
    """Recursively convert ``value`` into JSON-serialisable Python objects.

    Handles dataclasses, NumPy scalars and arrays, mappings, and sequences.
    Plain values and exact ``dict``/``list``/``tuple`` containers, which
    make up most of a payload, skip the general checks; the result is the
    same either way.
    """
    kind = type(value)
    if kind in _PLAIN:
        return value
    if kind is dict:
        return {
            (k if type(k) is str else str(k)): (v if type(v) in _PLAIN else to_jsonable(v))
            for k, v in value.items()
        }
    if kind is list or kind is tuple:
        return [v if type(v) in _PLAIN else to_jsonable(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: to_jsonable(getattr(value, field.name)) for field in dataclasses.fields(value)}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [v if type(v) in _PLAIN else to_jsonable(v) for v in value.tolist()]
    if isinstance(value, Mapping):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def dumps(value: Any, *, indent: int = 2) -> str:
    """JSON-encode any library object via :func:`to_jsonable`."""
    return json.dumps(to_jsonable(value), indent=indent, sort_keys=False)


def csv_line(record: Mapping[str, Any], columns: Sequence[str]) -> str:
    """Render one dict record as a CSV row (no trailing newline).

    The single escaping implementation shared by :func:`rows_to_csv` and the
    store's streaming export: ``None`` renders empty, and cells containing a
    comma or quote are quoted with ``""`` doubling.
    """
    cells = []
    for col in columns:
        value = to_jsonable(record.get(col, ""))
        text = "" if value is None else str(value)
        if "," in text or '"' in text:
            text = '"' + text.replace('"', '""') + '"'
        cells.append(text)
    return ",".join(cells)


def rows_to_csv(records: Sequence[Mapping[str, Any]], *, columns: Sequence[str] | None = None) -> str:
    """Render dict records as CSV text (header + rows)."""
    if not records:
        return ""
    cols = list(columns) if columns is not None else list(records[0].keys())
    buffer = io.StringIO()
    buffer.write(",".join(cols) + "\n")
    for record in records:
        buffer.write(csv_line(record, cols) + "\n")
    return buffer.getvalue()


__all__ = ["to_jsonable", "dumps", "csv_line", "rows_to_csv"]
