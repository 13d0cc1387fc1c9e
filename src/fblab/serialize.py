"""JSON/CSV emission helpers shared by the reports and the CLI.

``json`` walks each result itself: dicts, lists, tuples and scalars are
its own, and the ``default`` hook converts the three types fblab adds.
Exact rationals serialize as {"num": ..., "den": ...} decimal digit
strings of arbitrary length, dataclasses as their fields in declaration
order, and sets as sorted lists; floats use the shortest round-trip
decimal.  Mapping keys must be str or int.  JSON key order is
construction order, so re-reading and re-serializing a file is
byte-identical.  CSV uses RFC-4180 CRLF line endings and fixed header
strings.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from fractions import Fraction


def _default(value):
    """Convert one value ``json`` does not know; ``json`` then walks the result."""
    if isinstance(value, Fraction):
        return {"num": str(value.numerator), "den": str(value.denominator)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"cannot encode {type(value).__name__} for JSON output")


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False, default=_default) + "\n"


def dumps_line(obj) -> str:
    """Compact single-line JSON, for JSON-lines dumps."""
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False, default=_default) + "\n"


SWEEP_HEADER = ["n", "p", "pe", "exponent"]
BOUNDS_HEADER = ["p", "n", "f_fb", "e2", "e3", "upper", "lower"]


def csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)  # default dialect: RFC-4180 CRLF
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
