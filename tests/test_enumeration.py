import functools
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magoglab import (
    BooleanTriangle,
    MagogTriangle,
    Permutation,
    SignMatrix,
    boundary_count,
    classify,
    conjecture_suite,
    count,
    distribution,
    distribution_bundle,
    enumerate_objects,
    inversion_stats,
    is_132_avoiding,
    magog_triangle_to_matrix,
    matrix_to_magog_triangle,
    product_formula,
    theorem_suite,
    validate_asm,
    validate_boolean_triangle,
    validate_magog,
    validate_square_sign,
)
from magoglab import golden, serialize
from magoglab.core import _triangle_to_matrix_rows, _trusted
from magoglab.enumeration import (KINDS, STATISTICS, _ROW_RULES, _boolean_row_moves, _iter_132_avoiders,
                                  _next_rows)


def brute_force_boolean_triangles(n):
    """Independent oracle: filter all 2^C(n,2) bit patterns through a
    direct transcription of the (i,j)-inequalities."""
    shape = [i for i in range(1, n)]
    cells = sum(shape)
    found = []
    for bits in itertools.product((0, 1), repeat=cells):
        rows = []
        k = 0
        for w in shape:
            rows.append(bits[k:k + w])
            k += w
        def entry(i, c):  # b_{i,c}; row i holds columns n-i..n-1
            return rows[i - 1][c - (n - i)]
        ok = True
        for i in range(2, n):
            for j in range(1, i):
                lhs = 1 + sum(entry(k2, n - j - 1) for k2 in range(j + 1, i + 1))
                rhs = sum(entry(k2, n - j) for k2 in range(j, i + 1))
                if lhs < rhs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(tuple(rows))
    return found


def test_counts_match_product_formula():
    for n in range(1, 7):
        expected = product_formula(n)
        assert count("magog_matrix", n) == expected
        assert count("magog_triangle", n) == expected
        assert count("asm", n) == expected
        assert count("boolean_triangle", n) == expected


def test_product_formula_values():
    assert [product_formula(n) for n in range(1, 8)] == [1, 2, 7, 42, 429, 7436, 218348]


def test_square_sign_count_is_power_of_two():
    for n in range(1, 12):
        assert count("square_sign", n) == 2 ** math.comb(n, 2)


def test_enumerate_magog_3_matches_the_eight(family):
    eight = [
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
        ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
        ((0, 1, 0), (1, -1, 1), (0, 1, 0)),
        ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
        ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
        ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
        ((0, 0, 1), (1, 1, -1), (0, 0, 1)),
    ]
    magog3 = {m.entries for m in family("magog_matrix", 3)}
    assert magog3 == set(eight) - {eight[6]}
    asm3 = {m.entries for m in family("asm", 3)}
    assert asm3 == set(eight) - {eight[7]}
    sq3 = {m.entries for m in family("square_sign", 3)}
    assert sq3 == set(eight)


def test_boolean_triangles_against_brute_force(family):
    for n in (2, 3, 4):
        oracle = {t for t in brute_force_boolean_triangles(n)}
        mine = {b.rows for b in family("boolean_triangle", n)}
        assert mine == oracle


def test_enumeration_is_deterministic():
    for kind in ("magog_matrix", "asm", "boolean_triangle", "square_sign"):
        a = [repr(o) for o in enumerate_objects(kind, 4)]
        b = [repr(o) for o in enumerate_objects(kind, 4)]
        assert a == b


# per kind: its objects rebuilt from plain int tuples through the public,
# checking constructor of their class, and the validators they pass
STREAM_CHECKS = {
    "magog_triangle": (lambda t: MagogTriangle.from_rows(t.rows),
                       (lambda t: validate_magog(magog_triangle_to_matrix(t)),)),
    "magog_matrix": (lambda m: SignMatrix.from_rows(m.entries), (validate_magog,)),
    "square_sign": (lambda m: SignMatrix.from_rows(m.entries), (validate_square_sign,)),
    "asm": (lambda m: SignMatrix.from_rows(m.entries), (validate_asm,)),
    "boolean_triangle": (lambda b: BooleanTriangle.from_rows(b.n, b.rows), (validate_boolean_triangle,)),
    "gapless": (lambda m: SignMatrix.from_rows(m.entries), (validate_magog, validate_asm)),
}


def test_enumeration_yields_valid_typed_objects(family):
    """Streams build their objects without the constructor's checks
    (core._trusted): every streamed object at n <= 6 must equal its twin
    built through them, and pass its kind's validators."""
    assert sorted(STREAM_CHECKS) == sorted(KINDS)
    for kind, (twin_of, validators) in STREAM_CHECKS.items():
        for n in range(1, 7):
            for obj in family(kind, n):
                twin = twin_of(obj)
                assert twin == obj and hash(twin) == hash(obj), (kind, obj)
                # the serializer tells int rows from bool rows, which compare equal
                assert serialize.dumps(twin) == serialize.dumps(obj), (kind, obj)
                assert all(validate(obj).valid for validate in validators), (kind, obj)


def test_triangle_lex_order(family):
    tris = [t.rows for t in family("magog_triangle", 4)]
    flat = [tuple(v for row in t for v in row) for t in tris]
    assert flat == sorted(flat)


def test_square_sign_row_major_lex_order(family):
    mats = [tuple(v for row in m.entries for v in row) for m in family("square_sign", 4)]
    assert mats == sorted(mats)


def test_round_trip_exhaustive_through_n5(family):
    for n in range(1, 6):
        for t in family("magog_triangle", n):
            assert matrix_to_magog_triangle(magog_triangle_to_matrix(t)) == t
        for m in family("magog_matrix", n):
            t = matrix_to_magog_triangle(m)
            # the map builds its triangle unchecked; the constructor agrees
            assert MagogTriangle.from_rows(t.rows) == t
            assert magog_triangle_to_matrix(t) == m


TRIANGLE_KINDS = ("magog_triangle", "magog_matrix", "asm", "gapless")


def test_count_matches_stream_length(family):
    for kind in TRIANGLE_KINDS + ("boolean_triangle",):
        for n in range(1, 7):
            assert count(kind, n) == len(family(kind, n))
        assert count(kind, 7) == sum(1 for _ in enumerate_objects(kind, 7))
    for n in range(1, 7):
        assert count("square_sign", n) == len(family("square_sign", n))


def test_path_count_matches_product_formula_through_12():
    for n in range(1, 13):
        expected = product_formula(n)
        for kind in ("magog_triangle", "magog_matrix", "asm"):
            assert count(kind, n) == expected
        if n <= 10:  # the cell-state count takes about 4 s at n=12
            assert count("boolean_triangle", n) == expected


def test_triangle_streams_match_classified_square_sign(family):
    # classify shares no window bounds with the row-transition rule
    for n in range(1, 6):
        flags = [(m.entries, classify(m)) for m in family("square_sign", n)]
        magog = {e for e, c in flags if c.magog}
        asm = {e for e, c in flags if c.asm}
        assert {m.entries for m in family("magog_matrix", n)} == magog
        assert {m.entries for m in family("asm", n)} == asm
        assert {m.entries for m in family("gapless", n)} == magog & asm


def test_distribution_table1_row4():
    table = distribution("magog_matrix", "neg_ones", 4)
    assert table.start == 0
    assert table.counts == (14, 21, 7)


def test_distribution_posinv_row4():
    table = distribution("magog_matrix", "posinv", 4)
    assert table.counts == (1, 6, 10, 13, 8, 3, 1)


def test_distribution_first_col_row4():
    table = distribution("magog_matrix", "first_col_one", 4)
    assert table.start == 1
    assert table.counts == (1, 13, 21, 7)


def test_distribution_totals_match_counts(family):
    for kind in ("magog_matrix", "asm"):
        for n in (3, 4, 5):
            bundle = distribution_bundle(kind, n)
            for table in bundle.values():
                assert table.total() == len(family(kind, n))


def test_asm_positional_symmetry():
    for n in (3, 4, 5):
        bundle = distribution_bundle("asm", n)
        assert bundle["first_row_one"].counts == bundle["last_row_one"].counts
        assert bundle["first_row_one"].counts == bundle["first_col_one"].counts


def test_boundary_counts():
    assert boundary_count(4, 1, 1) == 1
    assert boundary_count(4, 4, 1) == 7
    assert boundary_count(4, 1, 2) == 7


def test_boundary_count_is_the_enumerated_count():
    from magoglab import enumeration

    for n in range(1, 6):
        ones = {}
        for rows in enumeration._raw_rows("magog_matrix", n):
            for i, row in enumerate(rows, 1):
                for j, v in enumerate(row, 1):
                    if v == 1:
                        ones[i, j] = ones.get((i, j), 0) + 1
        assert {(i, j): boundary_count(n, i, j) for i in range(1, n + 1) for j in range(1, n + 1)} == {
            (i, j): ones.get((i, j), 0) for i in range(1, n + 1) for j in range(1, n + 1)}


def enumerated_tally(kind, n):
    """Independent oracle for distribution_bundle: every object's
    statistics worked out from its entries, one object at a time."""
    from magoglab import enumeration
    from magoglab.core import _inv, _neg_count
    values = {
        "neg_ones": _neg_count,
        "inv": _inv,
        "posinv": lambda rows: _inv(rows) - _neg_count(rows),
        "first_row_one": lambda rows: rows[0].index(1) + 1,
        "first_col_one": lambda rows: [row[0] for row in rows].index(1) + 1,
        "last_row_one": lambda rows: rows[-1].index(1) + 1,
    }
    tally = {s: {} for s in values}
    for rows in enumeration._raw_rows(kind, n):
        for s, value in values.items():
            v = value(rows)
            tally[s][v] = tally[s].get(v, 0) + 1
    return tally


def test_bundle_equals_the_enumerated_tally():
    for kind in ("magog_matrix", "asm", "square_sign"):
        for n in range(1, 7):
            bundle = distribution_bundle(kind, n)
            assert list(bundle) == list(STATISTICS)
            for s, tally in enumerated_tally(kind, n).items():
                assert dict(bundle[s].items()) == {v: tally.get(v, 0) for v in range(min(tally), max(tally) + 1)}


def test_tables_and_counts_enumerate_nothing(monkeypatch):
    from magoglab import core, enumeration

    def refuse(*args):
        raise AssertionError("enumerated")

    def avoiders_only(real):
        # the theorem suite's independent check lists and walks the
        # 132-avoiding permutations; no family of objects is walked, and no
        # table lists its row graph
        def call(depth, start, moves, emit=None):
            if getattr(moves(1), "func", None) is not enumeration._avoider_moves:
                refuse()
            return real(depth, start, moves, emit)
        return call

    for name in ("_stream", "_raw_rows"):
        monkeypatch.setattr(enumeration, name, refuse)
    for name in ("_walk", "_listing"):
        monkeypatch.setattr(enumeration, name, avoiders_only(getattr(enumeration, name)))
    for name in ("_inv", "_neg_count"):
        monkeypatch.setattr(core, name, refuse)
    for kind in ("magog_matrix", "asm", "square_sign"):
        bundle = distribution_bundle(kind, 6)
        assert list(bundle) == list(STATISTICS)
        assert all(table.total() == count(kind, 6) for table in bundle.values())
    assert bundle["neg_ones"].counts == (720, 4800, 10880, 10572, 4756, 964, 76)
    assert theorem_suite(6).passed and conjecture_suite(6).passed
    assert boundary_count(6, 3, 4) > 0
    for kind in enumeration.KINDS:
        assert count(kind, 6) > 0


def test_a_bundle_lists_the_moves_of_each_state_once(monkeypatch):
    from magoglab import enumeration

    listed = enumeration._listing(6, (), enumeration._row_moves(6, "magog"))
    states = sorted(q for here in listed[:-1] for q in here)
    listings = []
    real = enumeration._row_bounds
    monkeypatch.setattr(enumeration, "_row_bounds", lambda n, prev, rule: listings.append(prev) or real(n, prev, rule))
    # one forward pass reads each state's window once, for every kind of statistic
    for call in (lambda: distribution_bundle("magog_matrix", 6, ("inv",)),
                 lambda: distribution_bundle("magog_matrix", 6),
                 lambda: boundary_count(6, 3, 4)):
        listings.clear()
        call()
        assert sorted(listings) == states


def test_a_table_holds_two_layers_not_the_row_graph():
    import tracemalloc

    tracemalloc.start()
    try:
        table = distribution_bundle("magog_matrix", 10, ("inv",))["inv"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.total() == product_formula(10)
    # the order-10 row graph has 58785 edges, and holding them all takes about 8 MiB
    assert peak < 2 * 2 ** 20


def test_a_tally_that_loses_paths_is_an_internal_error(monkeypatch):
    from magoglab import enumeration

    unpack = enumeration._unpack

    def drop_largest(packed, w):
        # as a carry does, the decoded tally counts fewer paths than reach the end
        tally = unpack(packed, w)
        del tally[max(tally)]
        return tally

    monkeypatch.setattr(enumeration, "_unpack", drop_largest)
    for stats in (("inv",), ("first_col_one",), STATISTICS):
        with pytest.raises(RuntimeError, match="paths"):
            distribution_bundle("magog_matrix", 5, stats)
    with pytest.raises(RuntimeError, match="paths"):
        boundary_count(5, 2, 3)


def test_a_stream_maps_each_edge_of_its_rule_once():
    from magoglab import enumeration

    listed = enumeration._listing(*enumeration._rule("magog_matrix", 6))
    edges = sum(len(out) for here in listed[:-1] for out in here.values())
    mapped = []
    texts = list(enumeration._raw_rows("magog_matrix", 6, lambda row: mapped.append(row) or str(row)))
    assert texts == [tuple(map(str, rows)) for rows in enumeration._raw_rows("magog_matrix", 6)]
    assert len(mapped) == edges < len(texts)


_tally_of = functools.cache(enumerated_tally)


@settings(max_examples=3, deadline=None, derandomize=True)
@given(st.permutations(STATISTICS))
def test_every_set_of_statistics_equals_the_enumerated_tally(order):
    # every nonempty subset, asked for in the drawn order
    for kind in ("magog_matrix", "asm", "square_sign"):
        for n in range(1, 7):
            tallies = _tally_of(kind, n)
            for size in range(1, len(order) + 1):
                for stats in itertools.combinations(order, size):
                    bundle = distribution_bundle(kind, n, stats)
                    assert tuple(bundle) == stats
                    for s in stats:
                        tally = tallies[s]
                        assert dict(bundle[s].items()) == {v: tally.get(v, 0) for v in range(min(tally), max(tally) + 1)}


def test_packed_polynomials_keep_wide_coefficients_and_empty_slots():
    from magoglab.enumeration import _unpack

    # slots 1, 3 and 4 are empty, and two coefficients pass 2^64
    poly = {0: 2 ** 64 + 3, 2: 1, 5: 2 ** 70 - 1}
    w = 72
    packed = sum(c << w * v for v, c in poly.items())
    assert _unpack(packed, w) == poly
    # an edge of value d shifts its source by w*d, and a state sums what reaches it
    assert _unpack((packed << w * 3) + packed, w) == {0: 2 ** 64 + 3, 2: 1, 3: 2 ** 64 + 3, 5: 2 ** 70, 8: 2 ** 70 - 1}
    assert _unpack(packed + packed, w) == {v: 2 * c for v, c in poly.items()}
    # one bit short, a slot carries into the next and the decoded total falls
    short = sum(c << 69 * v for v, c in poly.items())
    assert sum(_unpack(short, 69).values()) < sum(poly.values())


def test_a_negative_edge_value_is_an_internal_error(monkeypatch, capsys):
    from magoglab import enumeration
    from magoglab.cli import main

    # a rule with no window leaves the sign window: at n=4 its edge from row
    # (1, 2) to (2, 3, 4) adds -1 inversions
    monkeypatch.setitem(enumeration._ROW_RULES, "magog_matrix", "free")
    for stat in ("inv", "posinv"):
        with pytest.raises(RuntimeError, match="inversions"):
            distribution_bundle("magog_matrix", 4, (stat,))
    assert main(["stats", "--kind", "magog", "--stat", "inv", "--n", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("internal error: RuntimeError")


def test_no_block_of_a_stream_holds_more_than_a_chunk_of_lines():
    from magoglab import enumeration

    for kind in KINDS:
        for n in range(1, 7):
            _, blocks = enumeration._stream(kind, n)
            blocks = list(blocks)
            sizes = [len(block) for _, block in blocks]
            assert 0 < min(sizes) and max(sizes) <= enumeration._CHUNK_LINES
            assert sum(sizes) == count(kind, n)
            if n == 6:
                # a state's block is one list, handed over by every prefix reaching it
                assert len({id(block) for _, block in blocks}) < len(blocks)


def test_boundary_counts_read_off_the_positional_tables():
    for n in range(1, 6):
        bundle = distribution_bundle("magog_matrix", n)
        first_row, first_col, last_row = (bundle[s] for s in ("first_row_one", "first_col_one", "last_row_one"))
        for j in range(1, n + 1):
            assert boundary_count(n, 1, j) == first_row.get(j)
            assert boundary_count(n, j, 1) == first_col.get(j)
            assert boundary_count(n, n, j) == last_row.get(j)
        for table in (first_row, first_col, last_row):
            assert table.get(table.start - 1) == 0
            assert table.get(table.start + len(table.counts)) == 0


def test_boundary_count_at_every_position_against_enumeration(family):
    for n in range(1, 6):
        mats = [m.entries for m in family("magog_matrix", n)]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert boundary_count(n, i, j) == sum(1 for rows in mats if rows[i - 1][j - 1] == 1)


def test_square_sign_neg_ones_table():
    from magoglab import max_negative_ones_bound
    for n in range(1, 6):
        table = distribution_bundle("square_sign", n, ("neg_ones",))["neg_ones"]
        assert table.total() == 2 ** (n * (n - 1) // 2)
        assert table.items()[-1][0] == max_negative_ones_bound(n)


@pytest.mark.parametrize("kind", ["boolean_triangle", "magog_triangle"])
def test_distribution_bundle_rejects_kinds_without_tables(kind):
    with pytest.raises(ValueError):
        distribution_bundle(kind, 3)


def test_gapless_counts_bounded_and_stable(family):
    values = [count("gapless", n) for n in range(1, 7)]
    assert values == [1, 2, 6, 26, 162, 1450]
    for n in range(1, 7):
        assert values[n - 1] == len(family("gapless", n))
        assert values[n - 1] <= min(product_formula(n), product_formula(n))
        assert values[n - 1] <= count("magog_matrix", n)
    assert count("gapless", 7) == 18626 == sum(1 for _ in enumerate_objects("gapless", 7))


def test_round_trip_samples_at_larger_orders():
    import itertools as it
    for n, stride in ((6, 311), (7, 9973)):
        sample = it.islice(enumerate_objects("magog_triangle", n), 0, None, stride)
        for t in sample:
            assert matrix_to_magog_triangle(magog_triangle_to_matrix(t)) == t


def test_theorem_suite_minimum_order():
    assert theorem_suite(2).passed


def test_negative_one_bound_over_square_sign(family):
    from magoglab import max_negative_ones_bound
    for n in range(1, 6):
        bound = max_negative_ones_bound(n)
        best = 0
        for m in family("square_sign", n):
            negs = sum(1 for row in m.entries for v in row if v == -1)
            assert negs <= bound
            best = max(best, negs)
        assert best == bound


def test_inversion_bound_and_uniqueness(family):
    for n in range(1, 6):
        top = n * (n - 1) // 2
        attainers = []
        for m in family("square_sign", n):
            s = inversion_stats(m)
            assert s.inv <= top
            if s.inv == top:
                attainers.append(m)
        assert attainers == [SignMatrix.antidiagonal(n)]


def test_psi_image_law(family):
    from magoglab import column_one_positions, validate_magog
    for m in family("square_sign", 4):
        rows = column_one_positions(m)
        try:
            MagogTriangle.from_rows(rows)
            triangle_ok = True
        except Exception:
            triangle_ok = False
        assert triangle_ok == validate_magog(m).valid


def test_132_avoider_walk_matches_the_permutation_filter():
    for n in range(9):
        perms = map(Permutation, itertools.permutations(range(1, n + 1)))
        assert list(_iter_132_avoiders(n)) == [p for p in perms if is_132_avoiding(p)]


def test_theorem_suite_small():
    report = theorem_suite(4)
    assert report.passed, [c.line() for c in report.failures()]


def test_conjecture_suite_small():
    report = conjecture_suite(5)
    assert all(c.passed for c in report.checks)


def test_conjecture_suite_through_11():
    report = conjecture_suite(11)
    assert len(report.checks) == 36
    assert report.passed, [c.line() for c in report.failures()]


def test_theorem_suite_through_8():
    report = theorem_suite(8)
    assert report.passed, [c.line() for c in report.failures()]


def test_distribution_rows_against_golden(family):
    for n in (3, 4, 5):
        bundle = distribution_bundle("magog_matrix", n)
        assert bundle["neg_ones"].counts == golden.TABLE1[n]
        assert bundle["inv"].counts == golden.TABLE5[n]["inv"]
        assert bundle["posinv"].counts == golden.TABLE5[n]["posinv"]
        for stat in ("first_row_one", "first_col_one", "last_row_one"):
            assert bundle[stat].counts == golden.TABLE3[n][stat]
        asm = distribution_bundle("asm", n)
        assert asm["neg_ones"].counts == golden.TABLE2[n]
        assert asm["inv"].counts == golden.TABLE6[n]["inv"]
        assert asm["posinv"].counts == golden.TABLE6[n]["posinv"]
        for stat in ("first_row_one", "first_col_one", "last_row_one"):
            assert asm[stat].counts == golden.TABLE4[n]


def cellwise_square_sign_rows(n, t=1):
    """The square-sign walk one entry at a time (row-major, entries
    increasing), kept as the oracle of the row-state walk: the bounds are
    those of _sign_moves, applied cell by cell through nested generators."""
    colpref = [0] * n
    rows = []

    def row_dfs(i, j, row, rsum, rest):
        # rest: sum of the column prefixes from column j rightwards
        if j == n:
            rows.append(tuple(row))
            yield from mat_dfs(i + 1)
            rows.pop()
            return
        q0 = colpref[j]
        right = rest - q0
        lo, hi = (t - q0, t - q0) if i == n else (-q0, t - q0)
        for a in range(lo, hi + 1):
            r = rsum + a
            # the columns right of j can still add -right .. (n-j-1)t - right
            if r < 0 or r - right > t or r + (n - j - 1) * t - right < t:
                continue
            colpref[j] = q0 + a
            row.append(a)
            yield from row_dfs(i, j + 1, row, r, right)
            row.pop()
        colpref[j] = q0

    def mat_dfs(i):
        if i > n:
            yield tuple(rows)
            return
        yield from row_dfs(i, 0, [], 0, (i - 1) * t)

    yield from mat_dfs(1)


@pytest.mark.parametrize("n, t", [(n, 1) for n in range(1, 7)] + [(3, t) for t in range(7)]
                         + [(4, t) for t in range(4)])
def test_square_sign_row_states_match_the_cellwise_walk(n, t):
    from magoglab.enumeration import _iter_square_sign_rows

    assert list(_iter_square_sign_rows(n, t)) == list(cellwise_square_sign_rows(n, t))


@pytest.mark.parametrize("rule", ["magog", "monotone", "gapless"])
def test_per_edge_matrix_rows_match_the_triangle_map(rule):
    from magoglab.core import _triangle_to_matrix_rows
    from magoglab.enumeration import _paths, _row_moves, _walk

    for n in range(1, 7):
        tris = list(_paths(_walk(n, (), _row_moves(n, rule))))
        mats = list(_paths(_walk(n, (), _row_moves(n, rule, matrix=True))))
        assert mats == [_triangle_to_matrix_rows(tri) for tri in tris]


def test_row_graph_counts_equal_the_edge_by_edge_path_sums():
    from magoglab.enumeration import _path_sums, _row_moves

    # count reads the path count of the bitmask pass; _path_sums pushes the
    # tuple rows of _next_rows edge by edge
    for kind, rule in _ROW_RULES.items():
        for n in range(1, 9):
            assert count(kind, n) == _path_sums(n, (), _row_moves(n, rule)), (kind, n)


def windowed_rows(n, prev, rule):
    """Independent oracle for _next_rows: every r-subset of 1..n, in lex
    order, kept when it passes the inequalities of its window, each read
    off the docstring of _row_bounds (1-based k, prev one entry shorter)."""
    r = len(prev) + 1
    p = (None,) + tuple(prev)  # p[k] is the k-th entry of prev
    out = []
    for v in itertools.combinations(range(1, n + 1), r):
        v = (None,) + v
        sign = all(v[k] <= p[k] for k in range(1, r))
        magog = all(v[k] <= p[k - 1] + 1 for k in range(2, r + 1))
        monotone = sign and all(p[k - 1] <= v[k] for k in range(2, r + 1))
        keep = {"sign": sign, "magog": magog, "monotone": monotone, "gapless": magog and monotone}[rule]
        if keep:
            out.append(v[1:])
    return tuple(out)


@pytest.mark.parametrize("rule", ["magog", "monotone", "sign", "gapless"])
def test_next_rows_are_the_subsets_that_pass_their_window(rule):
    for n in range(1, 8):
        for r in range(1, n + 1):
            for prev in itertools.combinations(range(1, n + 1), r - 1):
                assert _next_rows(n, prev, rule) == windowed_rows(n, prev, rule), (n, prev)


def test_boundary_values_read_the_edge_masks():
    from magoglab.enumeration import _BOUNDARY

    def mask(row):
        return sum(1 << v for v in row)

    # the edge (1, 3) -> (1, 2, 4) of order 4 at step 3
    first_row, first_col, last_row = (_BOUNDARY[s] for s in ("first_row_one", "first_col_one", "last_row_one"))
    assert first_row(4, 1, 0, mask((3,))) == 3
    assert first_row(4, 2, mask((3,)), mask((1, 3))) == 0
    assert first_col(4, 3, mask((2, 3)), mask((1, 2, 4))) == 3
    assert first_col(4, 3, mask((1, 3)), mask((1, 2, 4))) == 0
    # row n-1 misses only column 2 of 1..n, where the last matrix row's one sits
    assert last_row(4, 4, mask((1, 3, 4)), mask((1, 2, 3, 4))) == 2
    assert last_row(4, 3, mask((1, 3)), mask((1, 3, 4))) == 0


def draw_row_path(data, n, rule):
    """A path of the row graph of order n under ``rule``, drawn one row at a
    time by an index into _next_rows."""
    tri = ()
    for _ in range(n):
        options = _next_rows(n, tri[-1] if tri else (), rule)
        assert options  # no dead ends
        tri += (options[data.draw(st.integers(0, len(options) - 1))],)
    return tri


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 10), rule=st.sampled_from(["magog", "monotone", "sign", "gapless"]))
def test_random_row_graph_paths_are_objects_of_their_rule(data, n, rule):
    """Past the exhaustive orders (n <= 7): a path of the row graph drawn one
    row at a time, by an index into _next_rows, is an object of its rule's
    family."""
    tri = draw_row_path(data, n, rule)
    m = SignMatrix(n, _triangle_to_matrix_rows(tri))
    c = classify(m)
    assert c.square_sign
    if rule in ("magog", "gapless"):
        t = MagogTriangle(n, tri)
        assert magog_triangle_to_matrix(t) == m and matrix_to_magog_triangle(m) == t
        assert c.magog
    if rule in ("monotone", "gapless"):
        assert c.asm


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), kind=st.sampled_from(KINDS))
def test_serialize_round_trips_trusted_objects_of_random_paths(data, n, kind):
    """loads(dumps(obj)) == obj for an object built as the streams build
    theirs (core._trusted) from a random path of its kind's move rule: the
    loaded twin passed every check of the public constructor.  Matrix kinds
    are drawn on the row graph (square sign matrices under the sign window),
    boolean triangles a row at a time over floored column differences."""
    if kind == "boolean_triangle":
        rows, pref = (), (0,) * n
        for i in range(1, n):
            options = _boolean_row_moves(n, i)(pref)
            row, pref = options[data.draw(st.integers(0, len(options) - 1))]
            rows += (row,)
        obj = _trusted(BooleanTriangle, n, rows)
    else:
        tri = draw_row_path(data, n, _ROW_RULES[kind])
        obj = (_trusted(MagogTriangle, n, tri) if kind == "magog_triangle"
               else _trusted(SignMatrix, n, _triangle_to_matrix_rows(tri)))
    text = serialize.dumps(obj)
    assert serialize.loads(text) == obj
    assert serialize.dumps(serialize.loads(text)) == text
