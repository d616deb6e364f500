import itertools

import pytest

from magoglab import (
    BooleanTriangle,
    CeilingExceeded,
    MagogTriangle,
    SignMatrix,
    boundary_count,
    classify,
    conjecture_suite,
    count,
    distribution,
    distribution_bundle,
    enumerate_objects,
    inversion_stats,
    magog_triangle_to_matrix,
    matrix_to_magog_triangle,
    product_formula,
    theorem_suite,
    validate_boolean_triangle,
)
from magoglab import golden


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
    for n in range(1, 6):
        assert count("square_sign", n) == 2 ** (n * (n - 1) // 2)


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


def test_enumeration_yields_valid_typed_objects(family):
    for t in family("magog_triangle", 4):
        assert isinstance(t, MagogTriangle)
    for b in family("boolean_triangle", 4):
        assert isinstance(b, BooleanTriangle)
        assert validate_boolean_triangle(b).valid
    for m in family("magog_matrix", 4):
        assert isinstance(m, SignMatrix)
        assert classify(m).magog
    for m in family("asm", 4):
        assert classify(m).asm
    for m in family("gapless", 4):
        c = classify(m)
        assert c.magog and c.asm


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
            assert magog_triangle_to_matrix(matrix_to_magog_triangle(m)) == m


def test_ceiling_guard():
    with pytest.raises(CeilingExceeded):
        count("magog_matrix", 9)
    assert count("magog_matrix", 2, ceiling=9) == 2


TRIANGLE_KINDS = ("magog_triangle", "magog_matrix", "asm", "gapless")


def test_count_matches_stream_length(family):
    for kind in TRIANGLE_KINDS:
        for n in range(1, 7):
            assert count(kind, n) == len(family(kind, n))
        assert count(kind, 7) == sum(1 for _ in enumerate_objects(kind, 7))


def test_path_count_matches_product_formula_through_12():
    for n in range(1, 13):
        expected = product_formula(n)
        for kind in ("magog_triangle", "magog_matrix", "asm"):
            assert count(kind, n, ceiling=12) == expected


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


def test_bundle_computes_inv_once_per_object(monkeypatch):
    from magoglab import enumeration
    calls = []
    inv = enumeration._inv
    monkeypatch.setattr(enumeration, "_inv", lambda rows: calls.append(rows) or inv(rows))
    distribution_bundle("magog_matrix", 4)
    assert len(calls) == 42


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


def test_theorem_suite_small():
    report = theorem_suite(4)
    assert report.passed, [c.line() for c in report.failures()]


def test_conjecture_suite_small():
    report = conjecture_suite(5)
    assert all(c.passed for c in report.checks)


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
