"""Canonical JSON forms for every object kind.

Rationals travel as strings in lowest terms ("1/3", "2"); JSON numbers
appear only for genuinely integer-valued objects (sign matrices and the
two 0/1 triangle kinds).  Field order is fixed, so serialize -> parse ->
serialize is byte-identical.

Those three integer kinds have one line format: the document head
(_head), then the text of each row.  dumps writes one object with it,
and _rows_documents the CLI's enumerate stream, from the enumeration
walk's blocks of row texts (each row's text made once per stream,
_RowTexts): each block's completions are joined into text once, every
prefix's block is one join under the head, and a write holds at least
enumeration._CHUNK_LINES lines.

The matrix and triangle kinds, rational points included, are core types.
A decomposition and a certificate are polytope's, and polytope is
imported only where one is written or built, so a command that reads and
writes the other kinds never loads the hull layer (polytope and lp).
"""

from __future__ import annotations

import json
import reprlib
import sys
from fractions import Fraction
from typing import Iterator

from .core import (BooleanTriangle, MagogTriangle, RationalMatrixPoint, RationalTrianglePoint, SignMatrix,
                   ValidationFailure, as_fraction)
from .enumeration import _CHUNK_LINES


def _rat(v: Fraction) -> str:
    """The rational's text.  A numerator or denominator longer than the
    interpreter's digit limit for int -> str raises ValidationFailure: the
    limit is process-wide, so it is left as it is, and an answer that
    cannot be printed is refused."""
    try:
        return str(v)
    except ValueError:
        raise ValidationFailure(
            f"the answer holds a number of more than {sys.get_int_max_str_digits()} digits, "
            "past the interpreter's limit for printing integers") from None


def to_document(obj) -> dict:
    """Canonical dict form, ready for json.dumps."""
    if isinstance(obj, SignMatrix):
        return {"kind": "matrix", "n": obj.n, "entries": [list(r) for r in obj.entries]}
    if isinstance(obj, RationalMatrixPoint):
        return {"kind": "matrix", "n": obj.n, "entries": [[_rat(v) for v in r] for r in obj.entries]}
    if isinstance(obj, MagogTriangle):
        return {"kind": "magog-triangle", "n": obj.n, "rows": [list(r) for r in obj.rows]}
    if isinstance(obj, BooleanTriangle):
        return {"kind": "boolean-triangle", "n": obj.n, "rows": [list(r) for r in obj.rows]}
    if isinstance(obj, RationalTrianglePoint):
        return {"kind": "rational-triangle", "n": obj.n, "rows": [[_rat(v) for v in r] for r in obj.rows]}
    # a caller that holds a decomposition or a certificate has loaded polytope
    from .polytope import ConvexDecomposition, NotInHull
    if isinstance(obj, ConvexDecomposition):
        return {"terms": [{"weight": _rat(w), "vertex": to_document(v)} for w, v in obj.terms]}
    if isinstance(obj, NotInHull):
        return {
            "kind": "not-in-hull",
            "coefficients": [_rat(c) for c in obj.coefficients],
            "offset": _rat(obj.offset),
        }
    raise ValidationFailure(f"cannot serialize {type(obj).__name__}")


_ENCODER = json.JSONEncoder(separators=(",", ":"))

# the document kind and rows field (also the attribute holding the rows) of
# the kinds whose text is joined from the text of each row
_ROWS_FIELD = {
    SignMatrix: ("matrix", "entries"),
    MagogTriangle: ("magog-triangle", "rows"),
    BooleanTriangle: ("boolean-triangle", "rows"),
}


def _head(cls, n: int) -> str:
    """The text of a document of the _ROWS_FIELD kind ``cls`` and order n up
    to its first row; the rows' texts follow, joined by commas, then "]}"."""
    kind, key = _ROWS_FIELD[cls]
    return f'{{"kind":"{kind}","n":{_ENCODER.encode(n)},"{key}":['


class _RowTexts(dict):
    """row -> the JSON text of a row of a rows field, each made once, on
    its first lookup."""

    def __missing__(self, row) -> str:
        text = self[row] = _ENCODER.encode(row)
        return text


def _rows_documents(cls, n: int, blocks) -> Iterator[str]:
    """The documents of the _ROWS_FIELD kind ``cls`` and order n whose rows
    have the texts of each path of ``blocks``, enumeration._walk's (prefix,
    block) pairs, a line each, in texts of at least _CHUNK_LINES lines
    (the last one may hold fewer).

    A block's completions are joined into text once, on its first prefix,
    and every prefix writes its block with one str.join under the head.
    The texts are kept by the block's id beside the block itself, which so
    lives, and keeps its id, as long as they do."""
    head = _head(cls, n)
    tail = "]}\n"
    joined: dict = {}
    out: list = []
    lines = 0
    for prefix, block in blocks:
        entry = joined.get(id(block))
        if entry is None:
            entry = joined[id(block)] = (block, list(map(",".join, block)))
        texts = entry[1]
        # a comma between the prefix and the completions, unless either is empty
        lead = head + ",".join(prefix) + ("," if prefix and block[0] else "")
        out.append(lead + (tail + lead).join(texts) + tail)
        lines += len(texts)
        if lines >= _CHUNK_LINES:
            yield "".join(out)
            out.clear()
            lines = 0
    if out:
        yield "".join(out)


def dumps(obj) -> str:
    """Compact JSON text of to_document(obj), its fields in the same order."""
    cls = type(obj)
    if cls not in _ROWS_FIELD:
        return _ENCODER.encode(to_document(obj))
    # the rows' texts, joined, from one encoder call without its outer brackets
    rows = _ENCODER.encode(getattr(obj, _ROWS_FIELD[cls][1]))[1:-1]
    return _head(cls, obj.n) + rows + "]}"


class DocumentError(ValueError):
    """Input that is not JSON, or JSON of no document kind above."""


def _field(doc, key: str):
    if not isinstance(doc, dict):
        raise DocumentError(f"expected a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise DocumentError(f"document has no {key!r} field")
    return doc[key]


def _list(doc, key: str) -> list:
    value = _field(doc, key)
    if not isinstance(value, list):
        raise DocumentError(f"{key!r} must be a list")
    return value


def _scalar(v):
    """An integer or a rational string, passed on unchanged; booleans are
    not integers here."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise DocumentError(f"{reprlib.repr(v)} is neither an integer nor a rational string")
    if isinstance(v, str):
        try:
            as_fraction(v)
        except ValidationFailure:
            raise DocumentError(f"{reprlib.repr(v)} is not a rational") from None
    return v


def _order(doc) -> int:
    n = _field(doc, "n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DocumentError(f"order {reprlib.repr(n)} is not a positive integer")
    return n


# rows field, row count and length of row i (from 0) for a stated order n
_SHAPES = {
    "matrix": ("entries", lambda n: n, lambda n, i: n),
    "magog-triangle": ("rows", lambda n: n, lambda n, i: i + 1),
    "boolean-triangle": ("rows", lambda n: n - 1, lambda n, i: i + 1),
    "rational-triangle": ("rows", lambda n: n - 1, lambda n, i: i + 1),
}


def _rows(doc, kind: str) -> tuple[int, list]:
    """The stated order and the rows of a document of one of the _SHAPES,
    which must have the shape that order gives."""
    key, count, length = _SHAPES[kind]
    n = _order(doc)
    rows = _list(doc, key)
    if not all(isinstance(r, list) for r in rows):
        raise DocumentError(f"{key!r} must be a list of lists")
    if len(rows) != count(n) or any(len(r) != length(n, i) for i, r in enumerate(rows)):
        raise DocumentError(f"{key!r} do not have the shape of a {kind} of order {n}")
    return n, [[_scalar(v) for v in row] for row in rows]


def from_document(doc: dict):
    """Inverse of to_document.  Integer payloads come back as the typed
    integer objects; any string entry, a matrix entry outside {-1,0,1} or a
    boolean-triangle entry outside {0,1} promotes the whole object to its
    rational form.  A document of no known shape, a magog triangle with an
    entry that is not an integer, or terms that make no ConvexDecomposition
    raise DocumentError."""
    if not isinstance(doc, dict):
        raise DocumentError(f"expected a JSON object, got {type(doc).__name__}")
    if "terms" in doc:
        from .polytope import ConvexDecomposition, NotInHull
        terms = tuple(
            (as_fraction(_scalar(_field(t, "weight"))), from_document(_field(t, "vertex")))
            for t in _list(doc, "terms")
        )
        if any(isinstance(v, (ConvexDecomposition, NotInHull)) for _, v in terms):
            raise DocumentError("a term's vertex must be a matrix or triangle document")
        try:
            return ConvexDecomposition(terms)
        except ValidationFailure as exc:
            raise DocumentError(str(exc)) from None
    kind = doc.get("kind")
    if kind == "matrix":
        rows = _rows(doc, kind)[1]
        if all(isinstance(v, int) and v in (-1, 0, 1) for row in rows for v in row):
            return SignMatrix.from_rows(rows)
        return RationalMatrixPoint.from_rows(rows)
    if kind == "magog-triangle":
        rows = _rows(doc, kind)[1]
        if not all(isinstance(v, int) for row in rows for v in row):
            raise DocumentError("magog-triangle entries must be integers")
        return MagogTriangle.from_rows(rows)
    if kind == "boolean-triangle":
        n, rows = _rows(doc, kind)
        if all(isinstance(v, int) and v in (0, 1) for row in rows for v in row):
            return BooleanTriangle.from_rows(n, rows)
        return RationalTrianglePoint.from_rows(n, rows)
    if kind == "rational-triangle":
        return RationalTrianglePoint.from_rows(*_rows(doc, kind))
    if kind == "not-in-hull":
        from .polytope import NotInHull
        return NotInHull(
            coefficients=tuple(as_fraction(_scalar(c)) for c in _list(doc, "coefficients")),
            offset=as_fraction(_scalar(_field(doc, "offset"))),
        )
    raise DocumentError(f"unrecognized document kind {reprlib.repr(kind)}")


def _parse(load, source):
    """JSON parsed by load.  Syntax errors, undecodable bytes, nesting past
    the recursion limit and integers past the digit limit raise
    DocumentError; both limits are process-wide, so they are left as they
    are."""
    try:
        return load(source)
    except UnicodeDecodeError as exc:
        raise DocumentError(f"input is not UTF-8: {exc}") from None
    except (RecursionError, ValueError) as exc:
        raise DocumentError(str(exc)) from None


def loads(text: str):
    return from_document(_parse(json.loads, text))


def load_path(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return from_document(_parse(json.load, fh))
