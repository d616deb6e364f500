"""Command-line front end.

Exit codes: 0 success, 1 a ValidationFailure (bad argument or object,
point outside a polytope, work above CEILINGS) or a failed check, 2 an
OSError or DocumentError (I/O or parse error), 3 internal error (any other
exception, a stray ValueError included).  The CLI refuses work above that
one table before it writes to stdout, and MAGOGLAB_CEILING_OVERRIDE=1
lifts it; library functions have no ceilings.

Only the commands that compute a hull load the hull layer (polytope, and
lp beneath it): polytope, ehrhart and the table check when it is asked
for table 7, 8 or 9.  They import polytope when they run, so enumerate,
stats, map, classify and the other suites never compile it, which is
about a fifth of their process's time where Python writes no bytecode
cache.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from fractions import Fraction

from . import enumeration, golden, serialize
from .core import (BooleanTriangle, MagogTriangle, SignMatrix, ValidationFailure, classify,
                   magog_triangle_to_matrix, matrix_to_magog_triangle)
from .enumeration import CeilingExceeded

# each flag is the library's name with hyphens for underscores
KIND_FLAGS = {kind.replace("_", "-"): kind for kind in enumeration.KINDS}
STAT_FLAGS = {stat.replace("_", "-"): stat for stat in enumeration.STATISTICS}


# The largest n, n_max and tmax each command accepts: about the most that
# finishes in a minute and 1 GiB on 2 cores.  A stream's entry is that of its
# kind, else the "enumerate" one: at n=8 the magog-family and boolean streams
# write 10.9M lines and square-sign 268M, gapless 9.1M at n=9.  Commands sized
# by their input file and the tables suite (bounded by its golden data) have none.
# tsscpp membership at n=9: mixes of 1-40 magog matrices, their twins pushed
# off the hull and outside points that pass every known inequality take at
# most 1.7 s; the centre point (every entry 1/n), on no proper face, takes
# 17 s, and 135 s at n=10.  The mixes alone would allow n=12 (at most 18.6 s,
# 145 MiB); a 40-mix took up to 85 s at n=13.
# stats at n=14 takes 6-13 s and check --suite conjectures --n-max 14
# takes 20-23 s, each within 28 MiB: a table is one forward pass holding two
# layers of the row graph, so memory stays small, but the graph's edges
# grow about 3.6 times per order, so time keeps both at 14.  btp ehrhart
# at n=6 counts dilates only up to t=9; a larger tmax adds the integer
# extension, written as it is made: --tmax 1000000 takes about 2 s within
# 22 MiB.  --interpolate holds the samples and checks each against the
# polynomial: --tmax 500000 --interpolate takes 2.4 s and 196 MiB.
CEILINGS = {
    "enumerate": {"n": 7},
    "enumerate --kind gapless": {"n": 8},
    "enumerate --count": {"n": 14},
    "stats": {"n": 14},
    "polytope membership --polytope tsscpp": {"n": 9},
    "polytope certify": {"n": 6},
    "polytope facets": {"n": 300},
    "ehrhart --polytope btp": {"n": 6, "tmax": 500000},
    "ehrhart --polytope tsscpp3": {"tmax": 32},
    "check --suite theorems": {"n_max": 11},
    "check --suite conjectures": {"n_max": 14},
}


def _check_ceiling(command: str, **values: int) -> None:
    """Raise CeilingExceeded when a value lies above the command's CEILINGS
    entry, unless MAGOGLAB_CEILING_OVERRIDE=1 (read nowhere else)."""
    limits = CEILINGS[command]
    if os.environ.get("MAGOGLAB_CEILING_OVERRIDE", "") in ("", "0") and any(
            values[key] > limit for key, limit in limits.items()):
        accepted = ", ".join(f"{key} <= {limit}" for key, limit in limits.items())
        raise CeilingExceeded(f"{command} accepts {accepted}; MAGOGLAB_CEILING_OVERRIDE=1 lifts the ceiling")


def _emit(text: str):
    sys.stdout.write(text + "\n")


def _cmd_enumerate(args) -> int:
    kind = KIND_FLAGS[args.kind]
    if args.count:
        _check_ceiling("enumerate --count", n=args.n)
        _emit(str(enumeration.count(kind, args.n)))
        return 0
    command = f"enumerate --kind {args.kind}"
    _check_ceiling(command if command in CEILINGS else "enumerate", n=args.n)
    # each object's rows as their texts, made once per row the stream holds
    # and read once per edge of the walk, in blocks that serialize joins once
    # per state and writes a chunk at a time
    cls, blocks = enumeration._stream(kind, args.n, serialize._RowTexts().__getitem__)
    write = sys.stdout.write
    for text in serialize._rows_documents(cls, args.n, blocks):
        write(text)
    return 0


def _cmd_stats(args) -> int:
    kind = "magog_matrix" if args.kind == "magog" else "asm"
    stat = STAT_FLAGS[args.stat]
    _check_ceiling("stats", n=args.n)
    table = enumeration.distribution(kind, stat, args.n)
    if args.format == "csv":
        for value, count in table.items():
            _emit(f"{value},{count}")
    else:
        _emit(json.dumps({
            "kind": args.kind,
            "statistic": args.stat,
            "n": table.n,
            "start": table.start,
            "counts": list(table.counts),
        }, separators=(",", ":")))
    return 0


def _load(path, kinds, message):
    """The object of the document at ``path``, as loaded, when it is one of
    ``kinds``; ValidationFailure(message) otherwise."""
    obj = serialize.load_path(path)
    if not isinstance(obj, kinds):
        raise ValidationFailure(message)
    return obj


def _cmd_map(args) -> int:
    if args.source == "matrix":
        obj = _load(args.input, SignMatrix, "map --from matrix expects a matrix document with entries in {-1,0,1}")
        _emit(serialize.dumps(matrix_to_magog_triangle(obj)))
    else:
        obj = _load(args.input, MagogTriangle, "map --from triangle expects a magog-triangle document")
        _emit(serialize.dumps(magog_triangle_to_matrix(obj)))
    return 0


def _cmd_classify(args) -> int:
    c = classify(_load(args.input, SignMatrix, "classify expects a matrix document with entries in {-1,0,1}"))
    _emit(json.dumps(
        {"square_sign": c.square_sign, "magog": c.magog, "asm": c.asm},
        separators=(",", ":")))
    return 0


def _emit_violations(report) -> int:
    violations = [[cid, list(idx)] for cid, idx in report.violations]
    _emit(json.dumps({"member": False, "violations": violations}, separators=(",", ":")))
    return 1


def _cmd_polytope(args) -> int:
    from . import polytope
    if args.action in ("decompose", "facets") and args.polytope != "btp":
        raise ValidationFailure(f"polytope {args.action} supports only --polytope btp")
    if args.action in ("certify", "facets"):
        _check_ceiling(f"polytope {args.action}", n=args.n)
        if args.action == "certify":
            report = polytope.verify_vertex_certificates(args.n, args.polytope)
        else:
            report = polytope.btp_facet_audit(args.n)
        _emit(report.line())
        return 0 if report.passed else 1
    if args.input is None:
        raise ValidationFailure(f"{args.action} requires --input")
    # the library reads rational and integer points alike
    if args.polytope == "tsscpp":
        point = _load(args.input, (polytope.RationalMatrixPoint, SignMatrix), "expected a matrix-shaped document")
        _check_ceiling("polytope membership --polytope tsscpp", n=point.n)
        outcome = polytope.lp_membership(point, polytope.MagogVertices(point.n))
        _emit(serialize.dumps(outcome))
        return 0 if isinstance(outcome, polytope.ConvexDecomposition) else 1
    point = _load(args.input, (polytope.RationalTrianglePoint, BooleanTriangle),
                  "expected a rational-triangle or boolean-triangle document")
    if args.action == "decompose" and not args.step:
        # btp_decompose checks the point itself, and its refusal carries the report
        try:
            decomposition = polytope.btp_decompose(point)
        except ValidationFailure as exc:
            if exc.report is None:
                raise
            return _emit_violations(exc.report)
        _emit(serialize.dumps(decomposition))
        return 0
    report = polytope.btp_contains(point)
    if not report.valid:
        return _emit_violations(report)
    if args.action == "membership":
        _emit(json.dumps({"member": True}, separators=(",", ":")))
    else:
        step = polytope.btp_split(point)
        total = step.step_up + step.step_down
        _emit(json.dumps({
            "step_up": str(step.step_up),
            "step_down": str(step.step_down),
            "weights": [str(step.step_down / total), str(step.step_up / total)],
            "children": [
                serialize.to_document(polytope.RationalTrianglePoint(point.n, step.child_up)),
                serialize.to_document(polytope.RationalTrianglePoint(point.n, step.child_down)),
            ],
        }, separators=(",", ":")))
    return 0


def _cmd_ehrhart(args) -> int:
    """One "t,count" line per dilate t = 0..tmax, from one
    polytope._dilate_counts call (for a large btp tmax, closed and interior
    counts up to about C(n,2)/2, extended by reciprocity), which counts
    every dilate it needs before the first line is written.  The lines are
    written a chunk at a time (enumeration._CHUNK_LINES, as a stream's
    are) as the extension yields them, and the samples are held only for
    --interpolate, which fits the polynomial of the polytope's dimension
    through them."""
    from . import polytope
    # checking --tmax refuses before the first sample
    n, dimension = polytope.check_dilate(args.polytope, args.tmax, n=args.n)
    _check_ceiling(f"ehrhart --polytope {args.polytope}", n=n, tmax=args.tmax)
    if args.interpolate and args.tmax < dimension:
        raise ValidationFailure(f"--interpolate needs --tmax >= {dimension}, the dimension of the polytope")
    counts = enumerate(polytope._dilate_counts(args.polytope, args.tmax, n=n))
    samples = []
    while chunk := list(itertools.islice(counts, enumeration._CHUNK_LINES)):
        sys.stdout.write("".join(f"{t},{c}\n" for t, c in chunk))
        if args.interpolate:
            samples += chunk
    if args.interpolate:
        poly = polytope.ehrhart_interpolate(samples, degree=dimension)
        _emit(json.dumps({
            "degree": poly.degree,
            "coefficients": [str(c) for c in poly.coefficients],
            "normalized_volume": str(poly.normalized_volume()),
            "text": str(poly),
        }, separators=(",", ":")))
    return 0


# tables 1-6 by family, each with the statistics of its rows in order
_POSITIONAL = ("first_row_one", "first_col_one", "last_row_one")
_STAT_TABLES = {
    "magog_matrix": (("table1", ("neg_ones",)), ("table3", _POSITIONAL), ("table5", ("posinv", "inv"))),
    "asm": (("table2", ("neg_ones",)), ("table4", _POSITIONAL), ("table6", ("posinv", "inv"))),
}


def _golden_row(table: str, n: int, stat: str):
    """The golden counts of a statistic's row of tables 1-6; a table whose
    rows share one vector (tables 1, 2 and 4) holds it alone."""
    row = getattr(golden, table.upper())[n]
    return row[stat] if isinstance(row, dict) else row


def _table_rows(n_max: int, wanted: set | None = None):
    """Computed-vs-golden cell stream for the reproduction report, the
    rows of the wanted tables only: a family's bundle at each order asks
    for just the statistics of its wanted tables."""
    def want(*tables):
        return wanted is None or any(t in wanted for t in tables)

    for n in range(3, n_max + 1):
        if n not in golden.TABLE1:
            continue
        for kind, tables in _STAT_TABLES.items():
            tables = [(table, stats) for table, stats in tables if want(table)]
            if not tables:
                continue
            bundle = enumeration.distribution_bundle(kind, n, [s for _, stats in tables for s in stats])
            for table, stats in tables:
                for stat in stats:
                    yield (table, n, stat, bundle[stat].counts, _golden_row(table, n, stat))
    if not want("table7", "table8", "table9"):
        return
    from . import polytope
    hulls = (("table7", "magog_matrix", golden.TABLE7_DIMENSION, golden.TABLE7_VERTICES),
             ("table8", "asm", golden.TABLE8_DIMENSION, golden.TABLE8_VERTICES),
             ("table9", "boolean_triangle", golden.TABLE9_DIMENSION, golden.TABLE9_VERTICES))
    for n in range(2, min(n_max, 5) + 1):
        for table, kind, dimension, vertices in hulls:
            if want(table):
                yield (table, n, "dimension", polytope.hull_dimension(kind, n), dimension[n])
                yield (table, n, "vertices", enumeration.count(kind, n), vertices[n])
        if want("table9") and n in golden.TABLE9_FACETS:
            yield ("table9", n, "facets", polytope.btp_facet_audit(n).certified, golden.TABLE9_FACETS[n])
    dilates = (("table9", "btp", (2, 3, 4), golden.TABLE9_EHRHART, golden.TABLE9_VOLUME),
               ("table7", "tsscpp", (3,), golden.TABLE7_EHRHART, golden.TABLE7_VOLUME))
    for table, name, orders, polynomials, volumes in dilates:
        for n in orders:
            if n > n_max or not want(table):
                continue
            _, dimension = polytope.check_dilate(name, 0, n)
            poly = polytope.ehrhart_interpolate(enumerate(polytope._dilate_counts(name, dimension, n=n)))
            yield (table, n, "ehrhart", poly.coefficients, polynomials[n])
            if n in volumes:
                yield (table, n, "volume", poly.normalized_volume(), Fraction(volumes[n]))


def _cmd_check(args) -> int:
    if args.suite == "theorems":
        _check_ceiling("check --suite theorems", n_max=args.n_max)
        report = enumeration.theorem_suite(args.n_max)
        for line in report.lines():
            _emit(line)
        return 0 if report.passed else 1
    if args.suite == "conjectures":
        _check_ceiling("check --suite conjectures", n_max=args.n_max)
        report = enumeration.conjecture_suite(args.n_max)
        for check in report.checks:
            mark = "agrees" if check.passed else "DISAGREES"
            _emit(f"[{mark}] n={check.n} {check.claim}: conjectured {check.expected}, computed {check.computed}")
        _emit(f"conjecture suite: {sum(c.passed for c in report.checks)}/{len(report.checks)} agree")
        return 0
    # tables
    if args.n_max < 2:
        raise ValidationFailure("n_max must be at least 2")
    wanted = None
    if args.tables and args.tables != "all":
        wanted = {t.strip() for t in args.tables.split(",")}
        unknown = wanted - {f"table{i}" for i in range(1, 10)}
        if unknown:
            raise ValidationFailure(f"unknown table selector(s): {sorted(unknown)}")
    mismatches = 0
    out_rows: dict[str, list[str]] = {}
    for table, n, label, computed, expected in _table_rows(args.n_max, wanted):
        ok = computed == expected
        if not ok:
            mismatches += 1
        _emit(f"{table} n={n} {label}: {'ok' if ok else f'MISMATCH computed={computed} golden={expected}'}")
        cells = ",".join(map(str, computed)) if isinstance(computed, tuple) else str(computed)
        out_rows.setdefault(table, []).append(f"{n},{label},{cells}")
    not_computed = ("f-vector interior entries", "diameter", "starred volumes",
                    "tsscpp ehrhart for n>=4", "btp ehrhart for n>=5")
    for item in not_computed:
        _emit(f"not computed: {item}")
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for table, lines in sorted(out_rows.items()):
            with open(os.path.join(args.out_dir, f"{table}.csv"), "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
    _emit(f"table check: {mismatches} mismatch(es)")
    return 0 if mismatches == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every
    later main() in the process."""
    parser = argparse.ArgumentParser(prog="magoglab",
                                     description="exact toolkit for magog matrices and their polytopes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream a family or count it")
    p.add_argument("--kind", required=True, choices=sorted(KIND_FLAGS))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--count", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("stats", help="statistic distribution over a family")
    p.add_argument("--kind", required=True, choices=("magog", "asm"))
    p.add_argument("--stat", required=True, choices=sorted(STAT_FLAGS))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("map", help="apply the matrix/triangle bijection")
    p.add_argument("--from", dest="source", required=True, choices=("matrix", "triangle"))
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("classify", help="square-sign / magog / asm membership flags")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("polytope", help="membership, decomposition, certificates, facets")
    p.add_argument("action", choices=("membership", "decompose", "certify", "facets"))
    p.add_argument("--polytope", choices=("btp", "tsscpp"), default="btp")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--input")
    p.add_argument("--step", action="store_true",
                   help="emit one splitting step instead of the full decomposition")
    p.set_defaults(func=_cmd_polytope)

    p = sub.add_parser("ehrhart", help="lattice point counts in dilates")
    p.add_argument("--polytope", required=True, choices=("btp", "tsscpp3"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--tmax", required=True, type=int)
    p.add_argument("--interpolate", action="store_true")
    p.set_defaults(func=_cmd_ehrhart)

    p = sub.add_parser("check", help="verification suites and golden tables")
    p.add_argument("--suite", required=True, choices=("theorems", "conjectures", "tables"))
    p.add_argument("--n-max", dest="n_max", required=True, type=int)
    p.add_argument("--tables", default="all",
                   help="comma-separated table selectors (table1..table9), or 'all'")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, serialize.DocumentError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except ValidationFailure as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:
        # every check of a caller's argument raises ValidationFailure, so
        # anything else (a ValueError or TypeError included) is a bug
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
