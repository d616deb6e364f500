"""Seeded job lists for the four workloads.

A job list is the batch one worker process runs; run.py runs the same
list in several fresh processes (passes).  No command line repeats within
a list, so a cache kept between jobs in one process cannot hide work.
``count`` and ``ehrhart`` are fixed catalogues of commands, which the
seed only orders (and picks output formats for); ``stream`` draws its
input objects from the seed, and ``membership`` its cheap ones.  Each list
holds at least 100 jobs, so p90 has ten samples beyond it.

Each job is a dict: ``cls`` (its share of the mix), ``oracle`` (a key of
oracle.CHECKS), ``expect`` (what the oracle compares against), and either
``argv`` for ``magoglab.cli.main`` or ``call`` for a library function.
``input`` is a document the runner writes to ``{run}/in/<id>.json``
before the run.  In argv and expectations ``{in}`` stands for that file
and ``{run}`` for the run directory.
Nothing here imports magoglab; golden values come in as a module.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

import oracle

KINDS = ("magog-matrix", "magog-triangle", "asm", "boolean-triangle", "gapless", "square-sign")
STATS = ("neg-ones", "inv", "posinv", "first-row-one", "first-col-one", "last-row-one")

# sha256 of `enumerate --kind K --n N` stdout at the commit that introduced
# the benchmark; stdout is byte-stable by contract
STREAM_DIGESTS = {
    ("magog-matrix", 3): "9f58e5fce231551dbd7e0fc7297e0f41ecc355e9a9bf2222a4c57ad3758a158d",
    ("magog-matrix", 4): "2629648b9ed703661f56eef3fe1cfcbab7c10db202497631e6468f36cac805e0",
    ("magog-matrix", 5): "ac6df25b10ebc2bcfe90ab568f34bc662946b47c42486122eee9c5592e98a399",
    ("magog-matrix", 6): "68d8d27c4ecdbe65eb25284f4dd3f73e7cc872c8baa7ee13585fcf6faa630f2e",
    ("magog-triangle", 3): "c61739f6048bfd40c9bf8835dfd27c329c1c0e33ae8ef60bd29b7955add222ad",
    ("magog-triangle", 4): "60f14f9beaf91074e7b5e1a1bac63db90741f43f4bb31160ab3341facdd74576",
    ("magog-triangle", 5): "60d723edf707900525526a604bce222162fed6c663f03957a208427e276b0d35",
    ("magog-triangle", 6): "afd5a9ca41671326f267f21620eba192f44b1713a4a0f9ec4a73091c792db194",
    ("asm", 3): "07b3297b29d8936a71b22b3f6bcb9fdddb35e5349660991769ccdf12859c4080",
    ("asm", 4): "c649cc5773b2ac54a045b039d48b1674b0714ddefeeeddae441b589de9fbad27",
    ("asm", 5): "ecf9794d0651dd685404007e6495967e737ab91325ceb4d32f875e7026e18d06",
    ("asm", 6): "6d67ba8268a7be345cebc83aaf57b2563f90ab14bc000e50805d2be425b4fafa",
    ("boolean-triangle", 3): "6825a040753db9334304c2e1d071fc057f3c26ee885db00d6ef50f7390961727",
    ("boolean-triangle", 4): "d6cb740533feaf0831d572d5e07ab9c52f04c91fd3dd2f1da0adf5b1378cd89c",
    ("boolean-triangle", 5): "65aa80737c593b2d766e7959415b8d9bab1d971920684afd9116cb9015dfb731",
    ("boolean-triangle", 6): "82aad50e4ff61ac97ade09365fdfa5218bc3f7f8f7c2e9b2ba2fd8c3dc40b59d",
    ("gapless", 3): "0dde06d1f9d9f22d1da3cf06d4454f0b50e6ac7e582abf5e3f3c0a6ecce7f172",
    ("gapless", 4): "8adf5accd5bdbfdb6ca0c85e839e2987fc1130bf2d617ba07a879ed5c3581e77",
    ("gapless", 5): "cfc64d6888c5d5c2d770b3fffef3abe551d087e89bead414dc5e0191d02a641d",
    ("gapless", 6): "336540dedb75cdf37931da465b32910d06252483e28a3397733b89ae7df9d7f5",
    ("square-sign", 3): "65ebd6733ed33ee41613468c5d4a81537161e1003025aca86a8dcee0e00e0324",
    ("square-sign", 4): "eb856a09581c8834917d52cb21a5462821809d729592c986ab665e85672ef868",
    ("square-sign", 5): "c562d83db7c4f0bfadc8ff7918e7eb69713a6d10e17f839b0638a75daad92d92",
    ("square-sign", 6): "8866e7267742b5e3641a8d18f33d05fc1f5c29564f105c14ad26a660a6c5f5e2",
}

OUTSIDE_BUT_PASSING_4 = [
    ["1/2", 0, "1/2", 0],
    [0, "1/2", 0, "1/2"],
    ["1/2", 0, 0, "1/2"],
    [0, "1/2", "1/2", 0],
]


def _rat(v: Fraction):
    return v.numerator if v.denominator == 1 else str(v)


# ---------------------------------------------------------------------------
# golden expectations


def stat_counts(golden, kind: str, stat: str, n: int) -> list:
    key = stat.replace("-", "_")
    if stat == "neg-ones":
        table = golden.TABLE1 if kind == "magog" else golden.TABLE2
        return list(table[n])
    if stat in ("inv", "posinv"):
        table = golden.TABLE5 if kind == "magog" else golden.TABLE6
        return list(table[n][key])
    return list(golden.TABLE3[n][key] if kind == "magog" else golden.TABLE4[n])


def _cells(v) -> str:
    return ",".join(str(x) for x in v) if isinstance(v, tuple) else str(v)


def table_csv(golden, table: str, n_max: int) -> list:
    """The rows `check --suite tables --out-dir` should write for one table."""
    rows = []
    stat_tables = {"table1": ("magog", ("neg-ones",)), "table2": ("asm", ("neg-ones",)),
                   "table3": ("magog", ("first-row-one", "first-col-one", "last-row-one")),
                   "table4": ("asm", ("first-row-one", "first-col-one", "last-row-one")),
                   "table5": ("magog", ("posinv", "inv")), "table6": ("asm", ("posinv", "inv"))}
    if table in stat_tables:
        kind, stats = stat_tables[table]
        for n in range(3, n_max + 1):
            if n in golden.TABLE1:
                for s in stats:
                    rows.append((n, s.replace("-", "_"), tuple(stat_counts(golden, kind, s, n))))
        return [f"{n},{label},{_cells(v)}" for n, label, v in rows]
    num = table[-1]
    dims = getattr(golden, f"TABLE{num}_DIMENSION")
    verts = getattr(golden, f"TABLE{num}_VERTICES")
    for n in range(2, min(n_max, 5) + 1):
        rows += [(n, "dimension", dims[n]), (n, "vertices", verts[n])]
        if table == "table9" and n in golden.TABLE9_FACETS:
            rows.append((n, "facets", golden.TABLE9_FACETS[n]))
    if table == "table9":
        for n in (2, 3, 4):
            if n <= n_max:
                rows.append((n, "ehrhart", golden.TABLE9_EHRHART[n]))
                if n in golden.TABLE9_VOLUME:
                    rows.append((n, "volume", Fraction(golden.TABLE9_VOLUME[n])))
    if table == "table7" and n_max >= 3:
        rows += [(3, "ehrhart", golden.TABLE7_EHRHART[3]), (3, "volume", Fraction(golden.TABLE7_VOLUME[3]))]
    return [f"{n},{label},{_cells(v)}" for n, label, v in rows]


def conjecture_values(golden, n: int) -> list:
    """The four conjectured counts, cross-checked against table 5."""
    b = n * (n - 1) // 2
    values = [b, 2 * math.comb(n - 1, 2) + 4 * math.comb(n - 1, 3) + 3 * math.comb(n - 1, 4),
              n * (n - 2), 2 ** n - n - 1]
    t5 = golden.TABLE5[n]
    if values != [t5["posinv"][1], t5["posinv"][2], t5["posinv"][b - 2], t5["inv"][b - 1]]:
        raise ValueError(f"conjecture formulas disagree with golden table 5 at n={n}")
    return values


def ehrhart_expect(golden, polytope: str, n: int, tmax: int, interpolate: bool) -> dict:
    coeffs = golden.TABLE7_EHRHART[3] if polytope == "tsscpp3" else golden.TABLE9_EHRHART[n]
    counts = []
    for t in range(tmax + 1):
        value = sum(c * t ** k for k, c in enumerate(coeffs))
        if value.denominator != 1:
            raise ValueError("golden Ehrhart polynomial is not integral")
        counts.append(int(value))
    interp = None
    if interpolate:
        degree = len(coeffs) - 1
        interp = {"coefficients": [str(c) for c in coeffs],
                  "volume": str(coeffs[-1] * math.factorial(degree))}
    return {"counts": counts, "interp": interp}


# ---------------------------------------------------------------------------
# random objects, by randomized depth-first search


def _random_triangle(rng, n, bounds):
    rows: list = []

    def fill_row(r):
        if r > n:
            return True
        row: list = []

        def fill(k, low):
            if k > r:
                rows.append(tuple(row))
                if fill_row(r + 1):
                    return True
                rows.pop()
                return False
            lo, hi = bounds(rows, r, k, low)
            values = list(range(lo, hi + 1))
            rng.shuffle(values)
            for v in values:
                row.append(v)
                if fill(k + 1, v + 1):
                    return True
                row.pop()
            return False

        return fill(1, 1)

    fill_row(1)
    return tuple(rows)


def _magog_bounds(n):
    def bounds(rows, r, k, low):
        hi = n - (r - k)
        if rows and k >= 2:
            hi = min(hi, rows[-1][k - 2] + 1)
        return low, hi
    return bounds


def _monotone_bounds(n):
    def bounds(rows, r, k, low):
        lo, hi = low, n - (r - k)
        if rows:
            if k <= r - 1:
                hi = min(hi, rows[-1][k - 1])
            if k >= 2:
                lo = max(lo, rows[-1][k - 2])
        return lo, hi
    return bounds


def random_magog_triangle(rng, n):
    return _random_triangle(rng, n, _magog_bounds(n))


def random_asm(rng, n):
    return oracle.triangle_to_matrix(_random_triangle(rng, n, _monotone_bounds(n)), n)


def random_non_magog(rng, n):
    """A square sign matrix that is not magog, by rejection."""
    while True:
        rows = _random_square_sign(rng, n)
        if not oracle.classify(rows)["magog"]:
            return rows


def _random_square_sign(rng, n):
    colpref = [0] * n
    rows: list = []

    def row_dfs(i, j, row, rsum):
        if j == n:
            if rsum != 1:
                return False
            rows.append(list(row))
            if i == n or row_dfs(i + 1, 0, [], 0):
                return True
            rows.pop()
            return False
        values = [-1, 0, 1]
        rng.shuffle(values)
        for a in values:
            q, r, rem = colpref[j] + a, rsum + a, n - j - 1
            if not 0 <= q <= 1 or (i == n and q != 1) or r < 0 or r - rem > 1 or r + rem < 1:
                continue
            colpref[j] = q
            row.append(a)
            if row_dfs(i, j + 1, row, r):
                return True
            row.pop()
            colpref[j] = q - a
        return False

    row_dfs(1, 0, [], 0)
    return rows


def random_combination(rng, vertices, k):
    """Exact convex combination of k distinct random vertices, weights 1..9."""
    pick = rng.sample(vertices, k)
    weights = [rng.randint(1, 9) for _ in pick]
    total = sum(weights)
    return [[_rat(sum(Fraction(w, total) * v[i][j] for w, v in zip(weights, pick)))
             for j in range(len(pick[0][i]))] for i in range(len(pick[0]))]


def _fractions(rows):
    return [[Fraction(v) for v in r] for r in rows]


def btp_non_member(rng, n, vertices):
    """A combination of boolean triangles and one 0/1 array that breaks a
    diagonal inequality, kept only when the mix itself leaves the hull."""
    cells = n * (n - 1) // 2
    while True:
        flat = [rng.randint(0, 1) for _ in range(cells)]
        bad = [flat[i * (i - 1) // 2:i * (i + 1) // 2] for i in range(1, n)]
        pick = [bad] + rng.sample(vertices, rng.randint(1, 3))
        point = random_combination(rng, pick, len(pick))
        violations = oracle.btp_violations(n, _fractions(point))
        if violations:
            return point, violations


# ---------------------------------------------------------------------------
# workloads


def _cli(cls, argv, oracle_name, expect, **extra):
    return {"cls": cls, "argv": argv, "oracle": oracle_name, "expect": expect, **extra}


def build_count(rng, golden):
    """enumerate --count for all six kinds at n=1..6, stats for both kinds
    and all six statistics at n=3..6, table checks at n-max 3..6 and the
    theorem and conjecture suites.  The n=7 counts (7-8 s each) are left
    out: one of them would outlast a whole pass."""
    jobs = []
    for kind in KINDS:
        for n in range(1, 7):
            value = oracle.expected_count(kind, n)
            if kind != "square-sign" and kind != "gapless" and value != golden.TOTALS[n]:
                raise ValueError(f"product formula disagrees with golden totals at n={n}")
            jobs.append(_cli("count", ["enumerate", "--kind", kind, "--n", str(n), "--count"],
                             "count", {"value": value}))
    for kind in ("magog", "asm"):
        for stat in STATS:
            for n in range(3, 7):
                fmt = rng.choice(("csv", "json"))
                jobs.append(_cli("stats", ["stats", "--kind", kind, "--stat", stat, "--n", str(n), "--format", fmt],
                                 "stats", {"format": fmt, "kind": kind, "stat": stat, "n": n,
                                           "start": oracle.STAT_START[stat],
                                           "counts": stat_counts(golden, kind, stat, n)}))
    magog_side, asm_side = ["table1", "table3", "table5"], ["table2", "table4", "table6"]
    for n_max in (3, 4):
        for tables in [[t] for t in sorted(magog_side + asm_side)] + [magog_side, asm_side, sorted(magog_side + asm_side)]:
            jobs.append(_tables_job(tables, n_max, golden))
    for n_max in (5, 6):
        jobs += [_tables_job(magog_side, n_max, golden), _tables_job(asm_side, n_max, golden)]
    for n_max in range(2, 7):
        jobs.append(_cli("suite", ["check", "--suite", "theorems", "--n-max", str(n_max)],
                         "theorems", {"n_max": n_max}))
    for n_max in range(3, 7):
        jobs.append(_cli("suite", ["check", "--suite", "conjectures", "--n-max", str(n_max)],
                         "conjectures", {"values": {str(n): conjecture_values(golden, n) for n in range(3, n_max + 1)}}))
    rng.shuffle(jobs)
    return jobs


def _tables_job(tables, n_max, golden):
    out_dir = "{run}/tables/" + "-".join(tables) + f"-{n_max}"
    return _cli("tables", ["check", "--suite", "tables", "--tables", ",".join(tables), "--n-max", str(n_max),
                      "--out-dir", out_dir], "tables",
                {"out_dir": out_dir, "rows": {t: table_csv(golden, t, n_max) for t in tables}})


# with the 24 streams, 100 jobs: the streams at n=5 and n=6 are the ten
# largest, so p90 falls among the n=5 streams and p50 among the small jobs
SMALL_STREAM_JOBS = 76


def build_stream(rng, golden):
    jobs = []
    for kind in KINDS:
        for n in range(3, 7):
            jobs.append(_cli("stream", ["enumerate", "--kind", kind, "--n", str(n)], "stream",
                             {"kind": kind, "n": n, "lines": oracle.expected_count(kind, n),
                              "digest": STREAM_DIGESTS[(kind, n)]}))
    seen = set()

    def fresh(make, n):
        while True:
            obj = make(n)
            key = repr(obj)
            if key not in seen:
                seen.add(key)
                return obj

    makers = (lambda n: oracle.triangle_to_matrix(random_magog_triangle(rng, n), n),
              lambda n: random_asm(rng, n), lambda n: random_non_magog(rng, n))
    for i in range(SMALL_STREAM_JOBS):
        n = 5 + i // 3 % 4
        if i % 3 == 0:
            rows = fresh(makers[i // 12 % 3], n)
            jobs.append(_cli("classify", ["classify", "--input", "{in}"], "classify",
                             {"flags": oracle.classify(rows)}, input={"kind": "matrix", "n": n, "entries": rows}))
        elif i % 3 == 1:
            tri = fresh(lambda n: random_magog_triangle(rng, n), n)
            jobs.append(_cli("map", ["map", "--from", "triangle", "--input", "{in}"], "map",
                             {"doc": {"kind": "matrix", "n": n, "entries": oracle.triangle_to_matrix(tri, n)}},
                             input={"kind": "magog-triangle", "n": n, "rows": [list(r) for r in tri]}))
        else:
            tri = fresh(lambda n: random_magog_triangle(rng, n), n)
            jobs.append(_cli("map", ["map", "--from", "matrix", "--input", "{in}"], "map",
                             {"doc": {"kind": "magog-triangle", "n": n, "rows": [list(r) for r in tri]}},
                             input={"kind": "matrix", "n": n, "entries": oracle.triangle_to_matrix(tri, n)}))
    rng.shuffle(jobs)
    return jobs


@functools.lru_cache(maxsize=None)
def _vertex_lists():
    return ({n: oracle.magog_matrices(n) for n in (4, 5)},
            {n: oracle.boolean_triangles(n) for n in (5, 6)})


def build_membership(rng, golden):
    """132 jobs: p50 falls in the middle of the 57 tsscpp jobs at n=4 and
    p90 among the 16 at n=5.  LP time over random inputs has a
    long tail (one tsscpp member at n=5 took 0.13 s, another 1.7 s), so
    points drawn afresh for every seed moved a run's totals by a third.
    The LP-heavy jobs (tsscpp at n=4 and 5, library LPs at n=6,
    decompositions) therefore come from one fixed catalogue, drawn once
    from its own seed, and ``rng`` draws the cheap ones (btp membership,
    split steps, library LPs at n=5) and the order.  An n=6 decomposition
    has at most four vertices: with five it took 0.2-5.5 s."""
    magog, boolean = _vertex_lists()
    cat = random.Random("membership:catalogue")

    def tsscpp(n, point, member):
        return _cli(f"tsscpp{n}", ["polytope", "membership", "--polytope", "tsscpp", "--input", "{in}"], "tsscpp",
                    {"n": n, "point": point, "member": member}, input={"kind": "matrix", "n": n, "entries": point})

    def member(n, k):
        return tsscpp(n, random_combination(cat, magog[n], k), True)

    def non_member(n):
        return tsscpp(n, random_non_magog(cat, n), False)

    def mix(n):
        return tsscpp(n, random_combination(cat, [cat.choice(magog[n]), random_non_magog(cat, n)], 2), None)

    def btp(cls, argv, oracle_name, n, point, expect):
        return _cli(cls, argv, oracle_name, expect, input={"kind": "rational-triangle", "n": n, "rows": point})

    jobs = [tsscpp(4, OUTSIDE_BUT_PASSING_4, False)]
    for r in range(14):
        jobs += [member(4, 1 + 2 * r % 5), member(4, 1 + (2 * r + 1) % 5), non_member(4), mix(4)]
    jobs += [member(5, k) for k in (1, 1, 2, 2, 3, 5)]
    jobs += [non_member(5) for _ in range(7)] + [mix(5) for _ in range(3)]
    jobs += [_lib_lp("lp6", 6, random_combination(cat, boolean[6], 1), True) for _ in range(3)]
    for n, sizes in ((5, (2, 3, 3, 4, 4, 5)), (6, (2, 2, 3, 3, 3, 4))):
        for k in sizes:
            point = random_combination(cat, boolean[n], k)
            jobs.append(btp("decompose", ["polytope", "decompose", "--input", "{in}"], "decompose",
                            n, point, {"n": n, "point": point}))
    for n in (5, 6):
        for _ in range(4):
            point = random_combination(rng, boolean[n], 2)
            jobs.append(btp("decompose", ["polytope", "decompose", "--step", "--input", "{in}"], "split_step",
                            n, point, {"n": n, "point": point}))
        for _ in range(7):
            jobs.append(btp("btp", ["polytope", "membership", "--polytope", "btp", "--input", "{in}"], "btp_member",
                            n, random_combination(rng, boolean[n], rng.randint(1, 5)), {"member": True}))
            point, violations = btp_non_member(rng, n, boolean[n])
            jobs.append(btp("btp", ["polytope", "membership", "--polytope", "btp", "--input", "{in}"], "btp_member",
                            n, point, {"member": False, "violations": violations}))
    for _ in range(4):
        jobs += [_lib_lp("lp5", 5, random_combination(rng, boolean[5], rng.randint(1, 5)), True),
                 _lib_lp("lp5", 5, btp_non_member(rng, 5, boolean[5])[0], False)]
    rng.shuffle(jobs)
    return jobs


def _lib_lp(cls, n, point, member):
    return {"cls": cls, "call": "lp_membership", "oracle": "lib_lp",
            "expect": {"n": n, "point": point, "member": member}}


def build_ehrhart(rng, golden):
    """btp dilates at n=2..4 (with and without interpolation) and at n=5
    up to t=7, tsscpp3 dilates up to t=5, facet audits at n=2..14 and the
    polytope tables.  Left out for time: btp n=5 at t=8 (3.8 s), tsscpp3
    at t=6 (3.8 s) and table 7 above n-max 2 (1-2 s each)."""
    jobs = []

    def ehrhart(cls, polytope, n, tmax, interpolate):
        argv = ["ehrhart", "--polytope", polytope, "--tmax", str(tmax)]
        if polytope == "btp":
            argv += ["--n", str(n)]
        if interpolate:
            argv.append("--interpolate")
        jobs.append(_cli(cls, argv, "ehrhart", ehrhart_expect(golden, polytope, n, tmax, interpolate)))

    for n in (2, 3, 4):
        degree = len(golden.TABLE9_EHRHART[n]) - 1
        for tmax in range(11):
            ehrhart("btp-small", "btp", n, tmax, False)
            if tmax >= degree:
                ehrhart("btp-small", "btp", n, tmax, True)
    for tmax in range(8):
        ehrhart("btp5", "btp", 5, tmax, False)
    for tmax in range(6):
        ehrhart("tsscpp3", "tsscpp3", 3, tmax, tmax == 5)
    ehrhart("tsscpp3", "tsscpp3", 3, 4, True)
    for n in range(2, 15):
        k = (n - 1) * (3 * n - 2) // 2
        jobs.append(_cli("facets", ["polytope", "facets", "--n", str(n)], "facets",
                         {"line": f"btp(n={n}): {k}/{k} facets certified irredundant"}))
    for tables in (["table7"], ["table7", "table8"], ["table7", "table9"], ["table7", "table8", "table9"]):
        jobs.append(_tables_job(tables, 2, golden))
    for n_max in (2, 3, 4, 5):
        for tables in (("table8", "table9"), ("table8",), ("table9",)):
            jobs.append(_tables_job(list(tables), n_max, golden))
    rng.shuffle(jobs)
    return jobs


BUILDERS = {"count": build_count, "stream": build_stream, "membership": build_membership, "ehrhart": build_ehrhart}


def build(workload: str, seed: int, golden) -> list:
    """The seeded job list; each job gets an ``id``."""
    jobs = BUILDERS[workload](random.Random(f"{workload}:{seed}"), golden)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs
