"""Independent oracles for the benchmark's jobs.

Nothing here imports magoglab.  Counts come from closed formulas, object
validity from the definitions (routed through the column-position triangle
where the program uses prefix inequalities), and every certificate the
program prints is re-checked with exact rationals.  Each ``check_*``
function takes a job's ``expect`` dict and what the job printed, and
returns a list of problems; an empty list means the job is correct.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from fractions import Fraction

# gapless (magog and ASM) counts; the README lists them, nothing else pins them
GAPLESS = {1: 1, 2: 2, 3: 6, 4: 26, 5: 162, 6: 1450}

STAT_START = {"neg-ones": 0, "inv": 0, "posinv": 0,
              "first-row-one": 1, "first-col-one": 1, "last-row-one": 1}


def product_formula(n: int) -> int:
    """prod_{j<n} (3j+1)! / (n+j)!: magog matrices, ASMs, boolean triangles."""
    num = den = 1
    for j in range(n):
        num *= math.factorial(3 * j + 1)
        den *= math.factorial(n + j)
    return num // den


def expected_count(kind: str, n: int) -> int:
    if kind == "square-sign":
        return 2 ** (n * (n - 1) // 2)
    if kind == "gapless":
        return GAPLESS[n]
    return product_formula(n)


# ---------------------------------------------------------------------------
# sign matrices and triangles


def column_positions(rows):
    """Per row i, the columns (1-based) whose prefix sum through row i is
    one; None when a column prefix leaves {0, 1}."""
    pref = [0] * len(rows)
    out = []
    for row in rows:
        pref = [a + b for a, b in zip(pref, row)]
        if min(pref) < 0 or max(pref) > 1:
            return None
        out.append(tuple(j for j, v in enumerate(pref, start=1) if v))
    return tuple(out)


def is_square_sign(rows) -> bool:
    n = len(rows)
    if any(len(r) != n or any(v not in (-1, 0, 1) for v in r) for r in rows):
        return False
    for row in rows:
        s = 0
        for v in row:
            s += v
            if s < 0:
                return False
        if s != 1:
            return False
    pos = column_positions(rows)
    return pos is not None and len(pos[-1]) == n


def triangle_is_magog(tri, n: int) -> bool:
    """Rows strictly increasing in 1..n, bottom row 1..n, and the diagonal
    step bound t[i+1][k+1] <= t[i][k] + 1."""
    if len(tri) != n or any(len(r) != i + 1 for i, r in enumerate(tri)):
        return False
    for row in tri:
        if any(not 1 <= v <= n for v in row) or any(a >= b for a, b in zip(row, row[1:])):
            return False
    if tuple(tri[-1]) != tuple(range(1, n + 1)):
        return False
    return all(tri[i + 1][k + 1] <= tri[i][k] + 1 for i in range(n - 1) for k in range(i + 1))


def triangle_is_monotone(tri) -> bool:
    """Consecutive rows interlace: t[i+1][k] <= t[i][k] <= t[i+1][k+1]."""
    return all(tri[i + 1][k] <= tri[i][k] <= tri[i + 1][k + 1]
               for i in range(len(tri) - 1) for k in range(i + 1))


def classify(rows) -> dict:
    """The (square_sign, magog, asm) flags, decided on the position triangle."""
    if not is_square_sign(rows):
        return {"square_sign": False, "magog": False, "asm": False}
    tri = column_positions(rows)
    return {"square_sign": True, "magog": triangle_is_magog(tri, len(rows)),
            "asm": triangle_is_monotone(tri)}


def triangle_to_matrix(tri, n: int):
    prev = [0] * n
    out = []
    for row in tri:
        ind = [0] * n
        for v in row:
            ind[v - 1] = 1
        out.append([ind[j] - prev[j] for j in range(n)])
        prev = ind
    return out


# ---------------------------------------------------------------------------
# boolean triangles and their hull


def btp_violations(n: int, rows) -> list:
    """Violated entry bounds and (i,j)-diagonal inequalities, in the
    order and naming the CLI reports them."""
    out = []
    for i, row in enumerate(rows, start=1):
        for k, v in enumerate(row):
            if v < 0:
                out.append(["lower-bound", [i, n - i + k]])
            if v > 1:
                out.append(["upper-bound", [i, n - i + k]])

    def entry(i, c):
        return rows[i - 1][c - (n - i)]

    for i in range(2, n):
        for j in range(1, i):
            c = n - j
            main = sum(entry(k, c) for k in range(j, i + 1))
            left = sum(entry(k, c - 1) for k in range(j + 1, i + 1))
            if main > 1 + left:
                out.append(["diagonal", [i, j]])
    return out


def is_boolean_triangle(n: int, rows) -> bool:
    return (len(rows) == n - 1 and all(len(r) == i + 1 for i, r in enumerate(rows))
            and all(v in (0, 1) for r in rows for v in r) and not btp_violations(n, rows))


# ---------------------------------------------------------------------------
# vertex lists, built without the program


def magog_matrices(n: int) -> list:
    """All magog matrices of order n, from every strictly increasing
    triangle with bottom row 1..n that passes the magog test."""
    tris = [()]
    for r in range(1, n + 1):
        nxt = []
        for t in tris:
            for row in itertools.combinations(range(1, n + 1), r):
                if t and any(row[k + 1] > t[-1][k] + 1 for k in range(r - 1)):
                    continue
                nxt.append(t + (row,))
        tris = nxt
    return [triangle_to_matrix(t, n) for t in tris if t[-1] == tuple(range(1, n + 1))]


def boolean_triangles(n: int) -> list:
    out = []
    cells = n * (n - 1) // 2
    for bits in range(2 ** cells):
        flat = [(bits >> (cells - 1 - b)) & 1 for b in range(cells)]
        rows, at = [], 0
        for i in range(1, n):
            rows.append(flat[at:at + i])
            at += i
        if not btp_violations(n, rows):
            out.append(rows)
    return out


# ---------------------------------------------------------------------------
# canonical stream order


def order_key(kind: str, doc) -> tuple:
    """Sort key of the canonical enumeration order for one streamed object."""
    if kind in ("magog-triangle", "boolean-triangle"):
        return tuple(v for r in doc["rows"] for v in r)
    if kind == "square-sign":
        return tuple(v for r in doc["entries"] for v in r)
    return tuple(v for r in column_positions(doc["entries"]) for v in r)


# ---------------------------------------------------------------------------
# exact re-checks of certificates


def _frac(v) -> Fraction:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"not an exact rational: {v!r}")
    return Fraction(v)


def _flat(rows):
    return [_frac(v) for r in rows for v in r]


def _vertex_rows(vdoc):
    return vdoc["entries"] if vdoc.get("kind") == "matrix" else vdoc["rows"]


def check_decomposition(doc, point_rows, vertex_ok) -> list:
    """Positive weights summing to one on distinct valid vertices whose
    weighted sum is exactly the point."""
    terms = doc.get("terms")
    if not terms:
        return ["no terms"]
    target = _flat(point_rows)
    acc = [Fraction(0)] * len(target)
    total = Fraction(0)
    seen = set()
    for t in terms:
        w = _frac(t["weight"])
        rows = _vertex_rows(t["vertex"])
        if w <= 0:
            return [f"weight {w} is not positive"]
        if not vertex_ok(t["vertex"]):
            return ["a term's vertex is not a vertex of the polytope"]
        key = json.dumps(rows)
        if key in seen:
            return ["repeated vertex"]
        seen.add(key)
        flat = _flat(rows)
        if len(flat) != len(target):
            return ["vertex shape differs from the point"]
        total += w
        acc = [a + w * x for a, x in zip(acc, flat)]
    if total != 1:
        return [f"weights sum to {total}"]
    if acc != target:
        return ["weighted vertices do not reproduce the point"]
    return []


def check_separation(doc, point_rows, vertices) -> list:
    """coefficients.x + offset is positive at the point and <= 0 on every
    vertex of the independently built list."""
    if doc.get("kind") != "not-in-hull":
        return ["expected a not-in-hull certificate"]
    coef = [_frac(c) for c in doc["coefficients"]]
    offset = _frac(doc["offset"])
    point = _flat(point_rows)
    if len(coef) != len(point):
        return ["certificate length differs from the point"]
    if sum((c * x for c, x in zip(coef, point)), offset) <= 0:
        return ["functional is not positive at the point"]
    nz = [(i, c) for i, c in enumerate(coef) if c]
    for v in vertices:
        flat = [x for r in v for x in r]
        if sum((c * flat[i] for i, c in nz), offset) > 0:
            return ["functional is positive on a vertex"]
    return []


# ---------------------------------------------------------------------------
# per-job checks: check(expect, out, ctx) -> problems


class Output:
    """What a job left: its exit code, the sha256 of its stdout, and the
    stdout itself, read back from the spool file."""

    def __init__(self, rc, digest, path):
        self.rc = rc
        self.digest = digest
        self.path = path

    def lines(self):
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                yield line[:-1] if line.endswith("\n") else line


class Context:
    """Checker-side state: the vertex lists built here, on first use, and
    the program's serializer for the loads->dumps round-trip test."""

    def __init__(self, loads, dumps):
        self._loads = loads
        self._dumps = dumps
        self._lists = {}

    def roundtrip(self, line):
        return self._dumps(self._loads(line))

    def magog(self, n):
        if ("magog", n) not in self._lists:
            self._lists["magog", n] = magog_matrices(n)
        return self._lists["magog", n]

    def boolean(self, n):
        if ("boolean", n) not in self._lists:
            self._lists["boolean", n] = boolean_triangles(n)
        return self._lists["boolean", n]


def _only_line(out):
    lines = list(out.lines())
    return lines[0] if len(lines) == 1 else None


def check_count(expect, out, ctx):
    line = _only_line(out)
    if out.rc != 0 or line is None or line != str(expect["value"]):
        return [f"rc={out.rc} output {line!r}, expected {expect['value']}"]
    return []


def check_stats(expect, out, ctx):
    lines = list(out.lines())
    if out.rc != 0:
        return [f"rc={out.rc}"]
    if expect["format"] == "json":
        doc = json.loads(lines[0]) if len(lines) == 1 else None
        want = {"kind": expect["kind"], "statistic": expect["stat"], "n": expect["n"],
                "start": expect["start"], "counts": expect["counts"]}
        return [] if doc == want else [f"json table {doc} != {want}"]
    want = [f"{expect['start'] + i},{c}" for i, c in enumerate(expect["counts"])]
    return [] if lines == want else [f"csv table {lines} != {want}"]


def check_tables(expect, out, ctx):
    lines = list(out.lines())
    if out.rc != 0 or not lines or lines[-1] != "table check: 0 mismatch(es)":
        return [f"rc={out.rc} last line {lines[-1:]}"]
    for table, want in expect["rows"].items():
        path = os.path.join(expect["out_dir"], f"{table}.csv")
        try:
            with open(path, encoding="utf-8") as fh:
                got = fh.read().splitlines()
        except OSError as exc:
            return [f"{table}: {exc}"]
        if sorted(got) != sorted(want):
            return [f"{table}: computed {sorted(got)} != golden {sorted(want)}"]
    return []


def check_theorems(expect, out, ctx):
    lines = list(out.lines())
    n_max = expect["n_max"]
    body, summary = lines[:-1], lines[-1] if lines else ""
    if out.rc != 0 or summary != f"theorem suite: all checks passed ({len(body)} checks)":
        return [f"rc={out.rc} summary {summary!r}"]
    seen = set()
    for line in body:
        head, _, tail = line.partition(": expected ")
        expected, _, computed = tail.partition(", computed ")
        if not head.startswith("[ok] n=") or expected != computed:
            return [f"bad check line {line!r}"]
        n = int(head[len("[ok] n="):].split()[0])
        seen.add(n)
        claim = head.split(" ", 2)[2]
        if claim == "catalan count of negative-one-free magog matrices" and computed != str(math.comb(2 * n, n) // (n + 1)):
            return [f"catalan({n}) printed as {computed}"]
        if claim == "square sign count is 2^C(n,2)" and computed != str(expected_count("square-sign", n)):
            return [f"square sign count({n}) printed as {computed}"]
    if seen != set(range(1, n_max + 1)):
        return [f"suite covered n={sorted(seen)}, expected 1..{n_max}"]
    return []


def check_conjectures(expect, out, ctx):
    lines = list(out.lines())
    want_values = expect["values"]
    checks = len(want_values) * 4
    if out.rc != 0 or len(lines) != checks + 1 or lines[-1] != f"conjecture suite: {checks}/{checks} agree":
        return [f"rc={out.rc} summary {lines[-1:]}"]
    for line, (n, value) in zip(lines, ((n, v) for n, vs in want_values.items() for v in vs)):
        if not line.startswith(f"[agrees] n={n} ") or not line.endswith(f"conjectured {value}, computed {value}"):
            return [f"line {line!r}, expected n={n} value {value}"]
    return []


def check_stream(expect, out, ctx):
    kind = expect["kind"]
    if out.rc != 0 or out.digest != expect["digest"]:
        return [f"rc={out.rc} digest {out.digest} differs from the pinned {expect['digest']}"]
    count = 0
    prev = None
    for line in out.lines():
        count += 1
        key = order_key(kind, json.loads(line))
        if prev is not None and not prev < key:
            return [f"line {count} breaks the canonical order"]
        prev = key
        if ctx.roundtrip(line) != line:
            return [f"line {count} does not survive loads->dumps"]
    if count != expect["lines"]:
        return [f"{count} lines, expected {expect['lines']}"]
    return []


def check_classify(expect, out, ctx):
    line = _only_line(out)
    got = json.loads(line) if line else None
    if out.rc != 0 or got != expect["flags"]:
        return [f"rc={out.rc} flags {got} != {expect['flags']}"]
    return []


def check_map(expect, out, ctx):
    line = _only_line(out)
    got = json.loads(line) if line else None
    if out.rc != 0 or got != expect["doc"]:
        return [f"rc={out.rc} mapped {got} != {expect['doc']}"]
    return []


def _hull_check(expect, out, vertex_ok, vertices):
    """Shared by tsscpp membership and the library LP call: rc 0 with a
    decomposition or rc 1 with a separating functional, each re-checked."""
    member = expect["member"]
    line = _only_line(out)
    if line is None or out.rc not in (0, 1) or (member is not None and out.rc != (0 if member else 1)):
        return [f"rc={out.rc}, expected member={member}"]
    doc = json.loads(line)
    if out.rc == 0:
        return check_decomposition(doc, expect["point"], vertex_ok)
    return check_separation(doc, expect["point"], vertices)


def check_tsscpp(expect, out, ctx):
    n = expect["n"]
    return _hull_check(expect, out, lambda v: v.get("kind") == "matrix" and classify(v["entries"])["magog"],
                       ctx.magog(n))


def check_lib_lp(expect, out, ctx):
    n = expect["n"]
    return _hull_check(expect, out, lambda v: v.get("kind") == "boolean-triangle" and is_boolean_triangle(n, v["rows"]),
                       ctx.boolean(n))


def check_btp_member(expect, out, ctx):
    line = _only_line(out)
    got = json.loads(line) if line else None
    if expect["member"]:
        want, rc = {"member": True}, 0
    else:
        want, rc = {"member": False, "violations": expect["violations"]}, 1
    if out.rc != rc or got != want:
        return [f"rc={out.rc} {got} != {want}"]
    return []


def check_decompose(expect, out, ctx):
    n = expect["n"]
    line = _only_line(out)
    if out.rc != 0 or line is None:
        return [f"rc={out.rc}"]
    return check_decomposition(json.loads(line), expect["point"],
                               lambda v: v.get("kind") == "boolean-triangle" and is_boolean_triangle(n, v["rows"]))


def check_split_step(expect, out, ctx):
    n = expect["n"]
    line = _only_line(out)
    if out.rc != 0 or line is None:
        return [f"rc={out.rc}"]
    doc = json.loads(line)
    up, down = _frac(doc["step_up"]), _frac(doc["step_down"])
    if up <= 0 or down <= 0:
        return ["split steps must be positive"]
    weights = [_frac(w) for w in doc["weights"]]
    if weights != [down / (up + down), up / (up + down)]:
        return [f"weights {weights} do not follow from the steps"]
    children = [c["rows"] for c in doc["children"]]
    for rows in children:
        if btp_violations(n, [[_frac(v) for v in r] for r in rows]):
            return ["a split child leaves the polytope"]
    mix = [weights[0] * a + weights[1] * b for a, b in zip(_flat(children[0]), _flat(children[1]))]
    if mix != _flat(expect["point"]):
        return ["split children do not average to the point"]
    return []


def check_ehrhart(expect, out, ctx):
    lines = list(out.lines())
    counts = expect["counts"]
    want = [f"{t},{c}" for t, c in enumerate(counts)]
    if out.rc != 0 or lines[:len(want)] != want:
        return [f"rc={out.rc} counts {lines[:len(want)]} != {want}"]
    interp = expect["interp"]
    rest = lines[len(want):]
    if interp is None:
        return [] if not rest else [f"unexpected output {rest}"]
    doc = json.loads(rest[0]) if len(rest) == 1 else {}
    if doc.get("coefficients") != interp["coefficients"] or doc.get("normalized_volume") != interp["volume"] \
            or doc.get("degree") != len(interp["coefficients"]) - 1:
        return [f"interpolation {doc} != {interp}"]
    return []


def check_facets(expect, out, ctx):
    line = _only_line(out)
    if out.rc != 0 or line != expect["line"]:
        return [f"rc={out.rc} {line!r} != {expect['line']!r}"]
    return []


CHECKS = {
    "count": check_count,
    "stats": check_stats,
    "tables": check_tables,
    "theorems": check_theorems,
    "conjectures": check_conjectures,
    "stream": check_stream,
    "classify": check_classify,
    "map": check_map,
    "tsscpp": check_tsscpp,
    "lib_lp": check_lib_lp,
    "btp_member": check_btp_member,
    "decompose": check_decompose,
    "split_step": check_split_step,
    "ehrhart": check_ehrhart,
    "facets": check_facets,
}


def corrupt(oracle: str, expect: dict):
    """A copy of ``expect`` with one deliberately wrong value, or None when
    no single wrong value is certain to be caught (a mix whose membership
    is not known in advance)."""
    bad = json.loads(json.dumps(expect))
    if oracle == "count":
        bad["value"] += 1
    elif oracle == "stats":
        bad["counts"][0] += 1
    elif oracle == "tables":
        next(iter(bad["rows"].values())).append("99,bogus,0")
    elif oracle == "theorems":
        bad["n_max"] += 1
    elif oracle == "conjectures":
        next(iter(bad["values"].values()))[0] += 1
    elif oracle == "stream":
        bad["digest"] = "0" * 64
    elif oracle == "classify":
        bad["flags"]["magog"] = not bad["flags"]["magog"]
    elif oracle == "map":
        bad["doc"]["n"] += 1
    elif oracle in ("tsscpp", "lib_lp", "btp_member"):
        if bad["member"] is None:
            return None
        bad["member"] = not bad["member"]
    elif oracle in ("decompose", "split_step"):
        bad["point"][0][0] = str(Fraction(bad["point"][0][0]) + Fraction(1, 7))
    elif oracle == "ehrhart":
        bad["counts"][-1] += 1
    elif oracle == "facets":
        bad["line"] += "?"
    else:
        return None
    return bad
