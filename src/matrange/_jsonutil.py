"""Deterministic JSON emission.

Reports must be byte-identical for identical inputs, and numbers must carry
17 significant digits so doubles round-trip exactly.  The stock json module
emits shortest-repr floats, so we do our own (small) emitter.
"""

import math


def format_float(x: float) -> str:
    if isinstance(x, bool):
        raise TypeError("bool is not a float")
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float in JSON output: %r" % x)
    if x == 0.0:
        return "0"
    s = format(float(x), ".17g")
    return s


def dumps(obj) -> str:
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


class _Rows(list):
    """The list complex_rows returns, which _emit writes a row at a time."""


def complex_rows(m) -> list:
    """A complex matrix as its rows of [re, im] pairs, the encoding of every
    matrix in a report."""
    return _Rows([[re, im] for re, im in zip(rr, ri)]
                 for rr, ri in zip(m.real.tolist(), m.imag.tolist()))


def _emit_rows(rows: _Rows, out: list) -> None:
    """format_float's output for every entry, with one %-format per row:
    %.17g is the format format_float uses, and adding 0.0 turns -0.0 into
    the 0.0 that %.17g writes as "0"."""
    out.append("[")
    for i, row in enumerate(rows):
        flat = tuple(x + 0.0 for pair in row for x in pair)
        if not all(map(math.isfinite, flat)):
            for x in flat:
                format_float(x)  # raises on the first non-finite entry
        if i:
            out.append(",")
        out.append("[" + ",".join(["[%.17g,%.17g]"] * len(row)) % flat + "]")
    out.append("]")


def _emit(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif type(obj) is _Rows:
        _emit_rows(obj, out)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        # insertion order is the schema order; never sorted
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(",")
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings")
            out.append(_escape(key))
            out.append(":")
            _emit(val, out)
        out.append("}")
    else:
        raise TypeError("cannot serialize %r" % type(obj))


_ESCAPES = {
    '"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
    "\b": "\\b", "\f": "\\f",
}


def _escape(s: str) -> str:
    parts = ['"']
    for ch in s:
        if ch in _ESCAPES:
            parts.append(_ESCAPES[ch])
        elif ord(ch) < 0x20:
            parts.append("\\u%04x" % ord(ch))
        else:
            parts.append(ch)
    parts.append('"')
    return "".join(parts)
