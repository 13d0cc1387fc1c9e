"""JSON/CSV emission helpers shared by the reports and the CLI.

Dicts, lists, tuples and scalars are JSON's own; ``_default`` writes exact
rationals as {"num": ..., "den": ...} digit strings, dataclasses as their
fields in declaration order, and sets as sorted lists.  Floats use the
shortest round-trip decimal; key order is construction order, so re-reading
and re-serializing a file is byte-identical.  JSON lines come from ``json``'s
C encoder; CSV uses CRLF line endings (RFC 4180).

Indented JSON is byte for byte that of ``json.dumps(indent=2)``, and comes from
``json``'s own encoder except for tables, lists of plain dicts with str keys,
such as the 8,435 per-state rows of ``verify-theorem2 --p 1/5 --n 36 --detail``
(2.7 MB).  ``dumps`` walks plain dicts with str keys to reach the tables and
writes each with one row template per key tuple and the text of each value
object once, memoised by identity: 17–19 ms on that report, against 143–161 ms
for ``json.dumps``.  Tables whose rows hold tables gain less: the 268 rows of
``octopus --p 1/10 --depth 30`` take 3.5–3.9 ms, against 5.4–5.6 ms for
``json.dumps`` and 2.9–3.3 ms for the earlier walker that wrote each scalar
itself (best of 10 or more, Python 3.11.7, a shared 2-core machine).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from fractions import Fraction


def _default(value):
    """Convert one value JSON does not know; the encoder then walks the result."""
    if isinstance(value, Fraction):
        return {"num": str(value.numerator), "den": str(value.denominator)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"cannot encode {type(value).__name__} for JSON output")


_ENCODER = json.JSONEncoder(indent=2, ensure_ascii=False, default=_default)
_quote = json.encoder.encode_basestring


def dumps(obj) -> str:
    """The text of ``json.dumps(obj, indent=2, ensure_ascii=False, default=_default) + "\\n"``."""
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(o, pad: str, out: list[str]) -> None:
    """Append the text of o, whose depth's newline and indent is pad; raise ``json``'s
    TypeError.  A list or tuple of plain ints (a state or a query set, thousands of each
    in a report) is written directly, and anything that is not a table or a plain dict
    with str keys by ``json``, re-indented to pad (``json`` escapes newlines in strings,
    so each one it writes starts a line).  ``dumps`` joins the pieces once, so no table
    is copied into the text of the dict that holds it."""
    inner = pad + "  "
    if type(o) is dict and o and all(type(k) is str for k in o):
        sep = "{"
        for k, v in o.items():
            out.append(f"{sep}{inner}{_quote(k)}: ")
            _write(v, inner, out)
            sep = ","
        out.append(pad + "}")
    elif type(o) in (list, tuple) and o and all(type(x) is int for x in o):
        out.append(f"[{inner}{(',' + inner).join(map(str, o))}{pad}]")
    elif not _rows(o, pad, out):
        out.append(_ENCODER.encode(o).replace("\n", pad))


def _rows(rows, pad: str, out: list[str]) -> bool:
    """Append the text of a table (a list or tuple of plain dicts with str keys) at pad
    and return True, else append nothing and return False.  A key tuple's %-template is
    built once, and the text of each value once per object, memoised by its id: the rows
    hold every value until the call returns, so no id is reused within it."""
    if type(rows) not in (list, tuple) or not rows or any(type(r) is not dict for r in rows):
        return False
    inner, mark, templates, memo = pad + "  ", len(out), {}, {}
    cell_pad, sep, comma = inner + "  ", "[" + inner, "," + inner

    def cell(v) -> str:
        if (text := memo.get(id(v))) is None:
            part: list[str] = []
            _write(v, cell_pad, part)
            text = memo[id(v)] = "".join(part)
        return text

    for row in rows:
        if (template := templates.get(keys := tuple(row))) is None:
            if not all(type(k) is str for k in keys):
                del out[mark:]  # json writes the whole list, keys 1, 1.0 and True apart
                return False
            heads = [_quote(k).replace("%", "%%") + ": %s" for k in keys]
            template = f"{{{cell_pad}{(',' + cell_pad).join(heads)}{inner}}}" if keys else "{}"
            templates[keys] = template
        out += sep, template % tuple(map(cell, row.values()))
        sep = comma
    out.append(pad + "]")
    return True


def dumps_line(obj) -> str:
    """Compact single-line JSON, for JSON-lines dumps."""
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False, default=_default) + "\n"


def csv_text(rows: list[dict]) -> str:
    """CSV of dict rows under the first row's keys as the header."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))  # default dialect: RFC-4180 CRLF
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
