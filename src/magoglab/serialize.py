"""Canonical JSON forms for every object kind.

Rationals travel as strings in lowest terms ("1/3", "2"); JSON numbers
appear only for genuinely integer-valued objects (sign matrices and the
two 0/1 triangle kinds).  Field order is fixed, so serialize -> parse ->
serialize is byte-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .core import BooleanTriangle, MagogTriangle, SignMatrix
from .polytope import ConvexDecomposition, NotInHull, RationalMatrixPoint, RationalTrianglePoint, as_fraction


def _rat(v: Fraction) -> str:
    return str(v)


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
    if isinstance(obj, ConvexDecomposition):
        return {"terms": [{"weight": _rat(w), "vertex": to_document(v)} for w, v in obj.terms]}
    if isinstance(obj, NotInHull):
        return {
            "kind": "not-in-hull",
            "coefficients": [_rat(c) for c in obj.coefficients],
            "offset": _rat(obj.offset),
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    return json.dumps(to_document(obj), separators=(",", ":"))


class DocumentError(ValueError):
    """Well-formed JSON that is not a document of any kind above."""


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
        raise DocumentError(f"{v!r} is neither an integer nor a rational string")
    if isinstance(v, str):
        try:
            Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise DocumentError(f"{v!r} is not a rational") from None
    return v


def _order(doc) -> int:
    n = _field(doc, "n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DocumentError(f"order {n!r} is not a positive integer")
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


def _entries_integral(rows) -> bool:
    return all(isinstance(v, int) for row in rows for v in row)


def from_document(doc: dict):
    """Inverse of to_document.  Integer payloads come back as the typed
    integer objects; any string entry promotes the whole object to its
    rational form.  A document of no known shape raises DocumentError."""
    if not isinstance(doc, dict):
        raise DocumentError(f"expected a JSON object, got {type(doc).__name__}")
    if "terms" in doc:
        terms = tuple(
            (as_fraction(_scalar(_field(t, "weight"))), from_document(_field(t, "vertex")))
            for t in _list(doc, "terms")
        )
        return ConvexDecomposition(terms)
    kind = doc.get("kind")
    if kind == "matrix":
        rows = _rows(doc, kind)[1]
        if _entries_integral(rows):
            return SignMatrix.from_rows(rows)
        return RationalMatrixPoint.from_rows(rows)
    if kind == "magog-triangle":
        return MagogTriangle.from_rows(_rows(doc, kind)[1])
    if kind == "boolean-triangle":
        return BooleanTriangle.from_rows(*_rows(doc, kind))
    if kind == "rational-triangle":
        return RationalTrianglePoint.from_rows(*_rows(doc, kind))
    if kind == "not-in-hull":
        return NotInHull(
            coefficients=tuple(as_fraction(_scalar(c)) for c in _list(doc, "coefficients")),
            offset=as_fraction(_scalar(_field(doc, "offset"))),
        )
    raise DocumentError(f"unrecognized document kind {kind!r}")


def loads(text: str):
    return from_document(json.loads(text))


def load_path(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise DocumentError(f"input is not UTF-8: {exc}") from None
    return from_document(doc)
