import json
import os

import pytest

from magoglab import serialize
from magoglab.cli import main
from magoglab.core import BooleanTriangle, MagogTriangle, SignMatrix
from magoglab.polytope import RationalTrianglePoint


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_enumerate_count(capsys):
    code, out = run(capsys, "enumerate", "--kind", "magog-matrix", "--n", "3", "--count")
    assert code == 0
    assert out == "7\n"


def test_enumerate_stream_is_parseable(capsys):
    code, out = run(capsys, "enumerate", "--kind", "boolean-triangle", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    objs = [serialize.loads(line) for line in lines]
    assert all(isinstance(o, BooleanTriangle) for o in objs)


def test_stats_csv_row(capsys):
    code, out = run(capsys, "stats", "--kind", "magog", "--stat", "neg-ones", "--n", "4", "--format", "csv")
    assert code == 0
    assert out == "0,14\n1,21\n2,7\n"


def test_stats_json(capsys):
    code, out = run(capsys, "stats", "--kind", "asm", "--stat", "inv", "--n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == [1, 2, 3, 1]


def test_map_round_trip(tmp_path, capsys):
    m = SignMatrix.from_rows([[0, 0, 0, 1], [0, 1, 1, -1], [1, 0, 0, 0], [0, 0, 0, 1]])
    path = tmp_path / "m.json"
    path.write_text(serialize.dumps(m) + "\n", encoding="utf-8")
    code, out = run(capsys, "map", "--from", "matrix", "--input", str(path))
    assert code == 0
    tri = serialize.loads(out)
    assert isinstance(tri, MagogTriangle)
    back = tmp_path / "t.json"
    back.write_text(out, encoding="utf-8")
    code, out2 = run(capsys, "map", "--from", "triangle", "--input", str(back))
    assert code == 0
    assert serialize.loads(out2) == m


def test_classify_command(tmp_path, capsys):
    m = SignMatrix.from_rows([[0, 0, 1], [1, 1, -1], [0, 0, 1]])
    path = tmp_path / "m.json"
    path.write_text(serialize.dumps(m), encoding="utf-8")
    code, out = run(capsys, "classify", "--input", str(path))
    assert code == 0
    assert json.loads(out) == {"square_sign": True, "magog": True, "asm": False}


def test_membership_exit_codes(tmp_path, capsys):
    bad = {"kind": "matrix", "n": 3,
           "entries": [["1/2", "0", "1/2"], ["1/2", "0", "1/2"], ["0", "1", "0"]]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    code, out = run(capsys, "polytope", "membership", "--polytope", "tsscpp", "--n", "3",
                    "--input", str(path))
    assert code == 1
    assert json.loads(out)["kind"] == "not-in-hull"

    good = {"kind": "matrix", "n": 3, "entries": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    path.write_text(json.dumps(good), encoding="utf-8")
    code, out = run(capsys, "polytope", "membership", "--polytope", "tsscpp", "--n", "3",
                    "--input", str(path))
    assert code == 0


def test_btp_membership_and_decompose(tmp_path, capsys):
    point = RationalTrianglePoint.from_rows(3, [["1/2"], ["1/2", "1/2"]])
    path = tmp_path / "t.json"
    path.write_text(serialize.dumps(point), encoding="utf-8")
    code, out = run(capsys, "polytope", "membership", "--polytope", "btp", "--n", "3",
                    "--input", str(path))
    assert code == 0
    code, out = run(capsys, "polytope", "decompose", "--input", str(path))
    assert code == 0
    dec = serialize.loads(out)
    assert sum(w for w, _ in dec.terms) == 1

    outside = RationalTrianglePoint.from_rows(4, [[1], [1, 1], [1, 0, 1]])
    path.write_text(serialize.dumps(outside), encoding="utf-8")
    code, out = run(capsys, "polytope", "membership", "--polytope", "btp", "--n", "4",
                    "--input", str(path))
    assert code == 1
    assert json.loads(out)["violations"] == [["diagonal", [3, 1]]]


def test_missing_input_file_is_io_error(capsys):
    code, _ = run(capsys, "classify", "--input", "/nonexistent/nope.json")
    assert code == 2


def test_matrix_point_fed_to_btp_is_domain_error_not_internal(tmp_path, capsys):
    bad = {"kind": "matrix", "n": 3,
           "entries": [["1/2", "0", "1/2"], ["1/2", "0", "1/2"], ["0", "1", "0"]]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    code, _ = run(capsys, "polytope", "membership", "--polytope", "btp", "--n", "3",
                  "--input", str(path))
    assert code == 1


def test_decompose_step_reports_worked_example(tmp_path, capsys):
    doc = {"kind": "rational-triangle", "n": 6, "rows": [
        ["1/2"], ["4/5", "0"], ["1/10", "1/5", "1"], ["1", "9/10", "1", "1/2"],
        ["1/10", "1/10", "1/10", "1/10", "1"]]}
    path = tmp_path / "e.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, "polytope", "decompose", "--input", str(path), "--step")
    assert code == 0
    step = json.loads(out)
    assert step["step_up"] == "1/5" and step["step_down"] == "1/10"
    assert step["weights"] == ["1/3", "2/3"]
    code, out = run(capsys, "polytope", "decompose", "--input", str(path))
    assert code == 0
    dec = serialize.loads(out)
    assert sum(w for w, _ in dec.terms) == 1


def test_certify_and_facets(capsys):
    code, out = run(capsys, "polytope", "certify", "--polytope", "btp", "--n", "3")
    assert code == 0 and "7/7" in out
    code, out = run(capsys, "polytope", "facets", "--n", "4")
    assert code == 0 and "15/15" in out


def test_ehrhart_command(capsys):
    code, out = run(capsys, "ehrhart", "--polytope", "btp", "--n", "3", "--tmax", "3", "--interpolate")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[:4] == ["0,1", "1,7", "2,23", "3,54"]
    doc = json.loads(lines[4])
    assert doc["coefficients"] == ["1", "8/3", "5/2", "5/6"]
    assert doc["normalized_volume"] == "5"


def test_ehrhart_interpolate_uses_the_dimension(capsys):
    # below the dimension the fit would have the wrong degree: refuse
    code = main(["ehrhart", "--polytope", "tsscpp3", "--tmax", "3", "--interpolate"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    # above it, the samples past t=3 are checked against the degree-3 fit
    code, out = run(capsys, "ehrhart", "--polytope", "btp", "--n", "3", "--tmax", "5", "--interpolate")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[4:6] == ["4,105", "5,181"]
    doc = json.loads(lines[6])
    assert doc["degree"] == 3
    assert doc["coefficients"] == ["1", "8/3", "5/2", "5/6"]


@pytest.mark.parametrize("n", ["0", "-1"])
def test_ehrhart_btp_rejects_nonpositive_order(capsys, n):
    code = main(["ehrhart", "--polytope", "btp", "--n", n, "--tmax", "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: order must be positive\n"


MALFORMED_DOCUMENTS = {
    "zero-denominator": {"kind": "matrix", "n": 2, "entries": [["1/0", 0], [0, 1]]},
    "no-entries": {"kind": "matrix", "n": 2},
    "top-level-array": [[1, 0], [0, 1]],
    "boolean-entries": {"kind": "matrix", "n": 2, "entries": [[True, False], [False, True]]},
    "matrix-order-above-rows": {"kind": "matrix", "n": 5, "entries": [[1]]},
    "matrix-short-row": {"kind": "matrix", "n": 2, "entries": [[1, 0], [0]]},
    "matrix-order-zero": {"kind": "matrix", "n": 0, "entries": []},
    "magog-triangle-order": {"kind": "magog-triangle", "n": 9, "rows": [[1]]},
    "boolean-triangle-order": {"kind": "boolean-triangle", "n": 4, "rows": [[0], [0, 1]]},
    "rational-triangle-row-length": {"kind": "rational-triangle", "n": 3, "rows": [["1/2"], ["0"]]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_DOCUMENTS))
@pytest.mark.parametrize("command", [["classify"], ["polytope", "membership", "--polytope", "tsscpp"]])
def test_malformed_documents_are_parse_errors(tmp_path, capsys, name, command):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(MALFORMED_DOCUMENTS[name]), encoding="utf-8")
    code = main(command + ["--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("input error:") and captured.err.count("\n") == 1


def test_input_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    code = main(["classify", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("input error:") and captured.err.count("\n") == 1


def test_check_theorems(capsys):
    code, out = run(capsys, "check", "--suite", "theorems", "--n-max", "3")
    assert code == 0
    assert "all checks passed" in out


def test_check_conjectures(capsys):
    code, out = run(capsys, "check", "--suite", "conjectures", "--n-max", "4")
    assert code == 0
    assert "agree" in out


def test_check_tables_small(tmp_path, capsys):
    code, out = run(capsys, "check", "--suite", "tables", "--n-max", "3", "--out-dir", str(tmp_path))
    assert code == 0
    assert "0 mismatch(es)" in out
    assert (tmp_path / "table1.csv").exists()
    content = (tmp_path / "table1.csv").read_text(encoding="utf-8")
    assert content.splitlines()[0] == "3,neg_ones,5,2"


def test_check_tables_selector(capsys):
    code, out = run(capsys, "check", "--suite", "tables", "--n-max", "4", "--tables", "table5")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("table") and " n=" in ln]
    assert lines and all(ln.startswith("table5") for ln in lines)
    code, _ = run(capsys, "check", "--suite", "tables", "--n-max", "3", "--tables", "nope")
    assert code == 1


def test_serialization_round_trip_byte_identity():
    from fractions import Fraction as F

    from magoglab.polytope import ConvexDecomposition, NotInHull, RationalMatrixPoint

    objects = [
        SignMatrix.from_rows([[0, 1, 0], [1, -1, 1], [0, 1, 0]]),
        MagogTriangle.from_rows([[2], [1, 2]]),
        BooleanTriangle.from_rows(4, [[1], [0, 1], [1, 0, 0]]),
        RationalTrianglePoint.from_rows(3, [["1/2"], ["1/3", 1]]),
        RationalMatrixPoint.from_rows([["1/2", "1/2"], ["1/2", "1/2"]]),
        ConvexDecomposition((
            (F(1, 3), BooleanTriangle.from_rows(3, [[0], [0, 0]])),
            (F(2, 3), BooleanTriangle.from_rows(3, [[1], [0, 0]])),
        )),
        NotInHull(coefficients=(F(1), F(-7, 2)), offset=F(1)),
    ]
    for obj in objects:
        text = serialize.dumps(obj)
        again = serialize.dumps(serialize.loads(text))
        assert text == again


def test_cli_output_deterministic(capsys):
    _, out1 = run(capsys, "enumerate", "--kind", "asm", "--n", "4")
    _, out2 = run(capsys, "enumerate", "--kind", "asm", "--n", "4")
    assert out1 == out2


def test_ceiling_override_env(capsys, monkeypatch):
    code, _ = run(capsys, "enumerate", "--kind", "magog-matrix", "--n", "9", "--count")
    assert code == 1
    monkeypatch.setenv("MAGOGLAB_CEILING_OVERRIDE", "1")
    # still a big computation; just confirm the guard itself is lifted for
    # a small case routed through the same path
    code, out = run(capsys, "enumerate", "--kind", "magog-matrix", "--n", "3", "--count")
    assert code == 0 and out == "7\n"
