import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from magoglab import enumeration, golden, polytope, serialize
from magoglab.cli import CEILINGS, KIND_FLAGS, main
from magoglab.core import BooleanTriangle, MagogTriangle, SignMatrix, validate_magog
from magoglab.polytope import RationalTrianglePoint

from conftest import row_graph_matrices


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


@pytest.mark.parametrize("doc", [
    {"kind": "matrix", "n": 2, "entries": [[1, 0], [0, 1]]},
    {"kind": "rational-triangle", "n": 3, "rows": [["1/2"], ["1/3", "2/3"]]},
    {"kind": "boolean-triangle", "n": 3, "rows": [[0], [1, 0]]},
], ids=["matrix", "rational-triangle", "boolean-triangle"])
def test_map_from_triangle_refuses_other_documents(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["map", "--from", "triangle", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: map --from triangle expects a magog-triangle document\n"


def test_map_from_triangle_quotes_a_long_entry_in_short(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text('{"kind":"magog-triangle","n":1,"rows":[[' + "1" * 4000 + "]]}", encoding="utf-8")
    code = main(["map", "--from", "triangle", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: entry-range violated at (1,1): ") and len(captured.err) <= 200


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


def test_decompose_checks_the_hull_once(tmp_path, capsys, monkeypatch):
    # btp_decompose checks the point, and its refusal carries the violations
    def refuse(*args, **kwargs):
        raise AssertionError("decompose needs no second hull check")

    monkeypatch.setattr(polytope, "btp_contains", refuse)
    path = tmp_path / "t.json"
    path.write_text(serialize.dumps(RationalTrianglePoint.from_rows(4, [[1], [1, 1], [1, 0, 1]])), encoding="utf-8")
    code, out = run(capsys, "polytope", "decompose", "--input", str(path))
    assert code == 1
    assert out == '{"member":false,"violations":[["diagonal",[3,1]]]}\n'
    path.write_text(serialize.dumps(RationalTrianglePoint.from_rows(3, [["1/2"], ["1/2", "1/2"]])), encoding="utf-8")
    code, out = run(capsys, "polytope", "decompose", "--input", str(path))
    assert code == 0 and sum(w for w, _ in serialize.loads(out).terms) == 1


@pytest.mark.parametrize("command", [["polytope", "membership", "--polytope", "btp"], ["polytope", "decompose"]],
                         ids=["membership", "decompose"])
def test_btp_commands_take_only_rational_and_boolean_triangles(tmp_path, capsys, command):
    path = tmp_path / "t.json"
    magog_triangle = {"kind": "magog-triangle", "n": 3, "rows": [[1], [1, 2], [1, 2, 3]]}
    path.write_text(json.dumps(magog_triangle), encoding="utf-8")
    code = main(command + ["--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: expected a rational-triangle or boolean-triangle document\n"

    path.write_text(serialize.dumps(BooleanTriangle.from_rows(3, [[1], [1, 0]])), encoding="utf-8")
    code = main(command + ["--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""


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


@pytest.mark.parametrize("doc", [
    {"kind": "boolean-triangle", "n": 3, "rows": [[0], [0, 0]]},
    {"kind": "rational-triangle", "n": 3, "rows": [["1"], ["1", "0"]]},
], ids=["boolean-triangle", "integral-rational-triangle"])
def test_decompose_step_on_a_vertex_is_a_domain_error(tmp_path, capsys, doc):
    path = tmp_path / "v.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["polytope", "decompose", "--input", str(path), "--step"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: split requested on an integral point\n"


def test_decompose_past_the_digit_limit_is_a_domain_error(tmp_path, capsys):
    # each entry parses (under 4300 digits), but a weight of the answer has more
    a, b = 10 ** 1500 + 7, 10 ** 1400 + 3
    doc = {"kind": "rational-triangle", "n": 3, "rows": [[f"1/{a}"], [f"1/{b}", f"1/{a}"]]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["polytope", "decompose", "--input", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == (f"error: the answer holds a number of more than {sys.get_int_max_str_digits()} "
                            "digits, past the interpreter's limit for printing integers\n")
    for argv in (["membership", "--polytope", "btp"], ["decompose", "--step"]):
        assert run(capsys, "polytope", *argv, "--input", str(path))[0] == 0


def test_certify_and_facets(capsys):
    code, out = run(capsys, "polytope", "certify", "--polytope", "btp", "--n", "3")
    assert code == 0 and "7/7" in out
    code, out = run(capsys, "polytope", "facets", "--n", "4")
    assert code == 0 and "15/15" in out


@pytest.mark.parametrize("action", ["facets", "decompose"])
def test_btp_only_actions_refuse_the_tsscpp_polytope(tmp_path, capsys, action):
    path = tmp_path / "t.json"
    path.write_text(serialize.dumps(RationalTrianglePoint.from_rows(4, [["1/2"], ["1/2", "1/2"], [0, 0, 0]])),
                    encoding="utf-8")
    code = main(["polytope", action, "--polytope", "tsscpp", "--n", "4", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: polytope {action} supports only --polytope btp\n"


@pytest.mark.parametrize("exc", [TypeError, KeyError])
def test_unexpected_exceptions_are_internal_errors(capsys, monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc("broken")

    monkeypatch.setattr(enumeration, "count", broken)
    code = main(["enumerate", "--kind", "magog-matrix", "--n", "3", "--count"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith(f"internal error: {exc.__name__}:") and captured.err.count("\n") == 1


def test_ehrhart_command(capsys):
    code, out = run(capsys, "ehrhart", "--polytope", "btp", "--n", "3", "--tmax", "3", "--interpolate")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[:4] == ["0,1", "1,7", "2,23", "3,54"]
    doc = json.loads(lines[4])
    assert doc["coefficients"] == ["1", "8/3", "5/2", "5/6"]
    assert doc["normalized_volume"] == "5"


# the stdout of ehrhart --polytope btp --n 5 --tmax 10 --interpolate, byte
# for byte, as the edge-by-edge dilate count printed it
BTP5_INTERPOLATE_STDOUT = (
    "0,1\n1,429\n2,21159\n3,356079\n4,3235393\n5,19766919\n6,91604555\n7,346397420\n"
    "8,1120857903\n9,3206401947\n10,8300911333\n"
    '{"degree":10,"coefficients":["1","1943/252","703609/25200","564799/9072","17088191/181440",'
    '"217183/2160","1651621/21600","61709/1512","884033/60480","8992/2835","4496/14175"],'
    '"normalized_volume":"1150976","text":"(4496/14175)t^10 + (8992/2835)t^9 + (884033/60480)t^8 + '
    "(61709/1512)t^7 + (1651621/21600)t^6 + (217183/2160)t^5 + (17088191/181440)t^4 + "
    '(564799/9072)t^3 + (703609/25200)t^2 + (1943/252)t + 1"}\n'
)


def test_ehrhart_btp5_interpolate_stdout_is_pinned(capsys):
    code, out = run(capsys, "ehrhart", "--polytope", "btp", "--n", "5", "--tmax", "10", "--interpolate")
    assert code == 0
    assert out == BTP5_INTERPOLATE_STDOUT


def test_ehrhart_reports_a_failed_spare_value_as_an_internal_error(capsys, monkeypatch):
    # the series from closed and interior counts checks one value more than
    # the polynomial needs; an off count is a bug, so exit 3 and no count
    real = polytope.lattice_points_in_dilate

    def off_by_one(polytope_name, t, n=None, interior=False):
        return real(polytope_name, t, n, interior) + (interior and t == 3)

    monkeypatch.setattr(polytope, "lattice_points_in_dilate", off_by_one)
    code = main(["ehrhart", "--polytope", "btp", "--n", "4", "--tmax", "8"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("internal error: DecompositionError:") and captured.err.count("\n") == 1


def test_ehrhart_tsscpp3_reports_a_failed_spare_value_as_an_internal_error(capsys, monkeypatch):
    # the series from closed and strict-filter interior counts checks one
    # value more than the polynomial needs
    real = polytope._tsscpp_dilate_count

    def off_by_one(n, t, interior=False):
        return real(n, t, interior) + (interior and t == 2)

    monkeypatch.setattr(polytope, "_tsscpp_dilate_count", off_by_one)
    code = main(["ehrhart", "--polytope", "tsscpp3", "--tmax", "6"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("internal error: DecompositionError:") and captured.err.count("\n") == 1


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


@pytest.mark.parametrize("argv", [["--polytope", "tsscpp3", "--tmax", "-1"],
                                  ["--polytope", "btp", "--n", "3", "--tmax", "-2"],
                                  ["--polytope", "tsscpp3", "--tmax", "-1", "--interpolate"]])
def test_ehrhart_rejects_negative_tmax(capsys, argv):
    code = main(["ehrhart"] + argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: dilation factor must be nonnegative\n"


@pytest.mark.parametrize("argv", [["--polytope", "btp", "--n", "3", "--tmax", "500001"],
                                  ["--polytope", "tsscpp3", "--tmax", "500001"]])
def test_ehrhart_refuses_a_dilate_ceiling_before_any_sample(capsys, monkeypatch, argv):
    monkeypatch.delenv("MAGOGLAB_CEILING_OVERRIDE", raising=False)
    code = main(["ehrhart"] + argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and "MAGOGLAB_CEILING_OVERRIDE" in captured.err


# stdout sha256 of `enumerate --kind boolean-triangle --n k`, taken from the
# row-by-row backtracker that the cell-state walk replaced
BOOLEAN_STREAM_PINS = {
    1: "647ec116fa1c523133ecce391e88189d72a8b9f6a9a4409eaca6678b57e39403",
    2: "4404d0bb7a5f4d7cb8c32e64920e5890220889d6d64d863a5b2ad25b5c383158",
    3: "6825a040753db9334304c2e1d071fc057f3c26ee885db00d6ef50f7390961727",
    4: "d6cb740533feaf0831d572d5e07ab9c52f04c91fd3dd2f1da0adf5b1378cd89c",
    5: "65aa80737c593b2d766e7959415b8d9bab1d971920684afd9116cb9015dfb731",
    6: "82aad50e4ff61ac97ade09365fdfa5218bc3f7f8f7c2e9b2ba2fd8c3dc40b59d",
}


@pytest.mark.parametrize("n", sorted(BOOLEAN_STREAM_PINS))
def test_boolean_triangle_stream_is_pinned(capsys, n):
    code, out = run(capsys, "enumerate", "--kind", "boolean-triangle", "--n", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BOOLEAN_STREAM_PINS[n]


# stdout sha256 of `enumerate --kind K --n N` for the other kinds, taken from
# the cell-by-cell square-sign walk and the per-object triangle-to-matrix map
STREAM_PINS = {
    "magog-matrix": {
        1: "cd2d3d7335b8a846bfe5f79aba43e90581c42ff0da5fc0bcef765656889f35c1",
        2: "0942d242ac66dbf7ae4d5500082db45528fc9ebc0f6c397e204723cfbd2b1b11",
        3: "9f58e5fce231551dbd7e0fc7297e0f41ecc355e9a9bf2222a4c57ad3758a158d",
        4: "2629648b9ed703661f56eef3fe1cfcbab7c10db202497631e6468f36cac805e0",
        5: "ac6df25b10ebc2bcfe90ab568f34bc662946b47c42486122eee9c5592e98a399",
        6: "68d8d27c4ecdbe65eb25284f4dd3f73e7cc872c8baa7ee13585fcf6faa630f2e",
    },
    "magog-triangle": {
        1: "f0c0f5de67b2f3273852c9fca10401f7a667be3c2b8fa9065f1d3c741fdd3999",
        2: "ddd70029d4b4ac64c90628febbbc248becca8060d35c16e5f7eff21cd2638445",
        3: "c61739f6048bfd40c9bf8835dfd27c329c1c0e33ae8ef60bd29b7955add222ad",
        4: "60f14f9beaf91074e7b5e1a1bac63db90741f43f4bb31160ab3341facdd74576",
        5: "60d723edf707900525526a604bce222162fed6c663f03957a208427e276b0d35",
        6: "afd5a9ca41671326f267f21620eba192f44b1713a4a0f9ec4a73091c792db194",
    },
    "asm": {
        1: "cd2d3d7335b8a846bfe5f79aba43e90581c42ff0da5fc0bcef765656889f35c1",
        2: "0942d242ac66dbf7ae4d5500082db45528fc9ebc0f6c397e204723cfbd2b1b11",
        3: "07b3297b29d8936a71b22b3f6bcb9fdddb35e5349660991769ccdf12859c4080",
        4: "c649cc5773b2ac54a045b039d48b1674b0714ddefeeeddae441b589de9fbad27",
        5: "ecf9794d0651dd685404007e6495967e737ab91325ceb4d32f875e7026e18d06",
        6: "6d67ba8268a7be345cebc83aaf57b2563f90ab14bc000e50805d2be425b4fafa",
    },
    "gapless": {
        1: "cd2d3d7335b8a846bfe5f79aba43e90581c42ff0da5fc0bcef765656889f35c1",
        2: "0942d242ac66dbf7ae4d5500082db45528fc9ebc0f6c397e204723cfbd2b1b11",
        3: "0dde06d1f9d9f22d1da3cf06d4454f0b50e6ac7e582abf5e3f3c0a6ecce7f172",
        4: "8adf5accd5bdbfdb6ca0c85e839e2987fc1130bf2d617ba07a879ed5c3581e77",
        5: "cfc64d6888c5d5c2d770b3fffef3abe551d087e89bead414dc5e0191d02a641d",
        6: "336540dedb75cdf37931da465b32910d06252483e28a3397733b89ae7df9d7f5",
    },
    "square-sign": {
        1: "cd2d3d7335b8a846bfe5f79aba43e90581c42ff0da5fc0bcef765656889f35c1",
        2: "d13a209d24543a1e3e6dad9ce6afccfc4f642e09f99da20d524f9133cf49f432",
        3: "65ebd6733ed33ee41613468c5d4a81537161e1003025aca86a8dcee0e00e0324",
        4: "eb856a09581c8834917d52cb21a5462821809d729592c986ab665e85672ef868",
        5: "c562d83db7c4f0bfadc8ff7918e7eb69713a6d10e17f839b0638a75daad92d92",
        6: "8866e7267742b5e3641a8d18f33d05fc1f5c29564f105c14ad26a660a6c5f5e2",
    },
}


@pytest.mark.parametrize("kind, n", [(k, n) for k, pins in STREAM_PINS.items() for n in pins])
def test_stream_is_pinned(capsys, kind, n):
    code, out = run(capsys, "enumerate", "--kind", kind, "--n", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STREAM_PINS[kind][n]


# stdout sha256 of `enumerate --kind gapless --n 7` (18626 lines), taken from
# the walk that joined every line on its own; its blocks begin up to four
# steps down the row graph
GAPLESS_ORDER_7_PIN = "be8c040c507b49c9268d66db4885d93fb58c1b2fcaf06adf6c51d1d7ea60e810"


def test_gapless_stream_at_order_7_is_pinned_and_is_the_dumps_of_its_objects(capsys):
    code, out = run(capsys, "enumerate", "--kind", "gapless", "--n", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GAPLESS_ORDER_7_PIN
    lines = out.splitlines()
    assert len(lines) == 18626
    assert lines == [serialize.dumps(o) for o in enumeration.enumerate_objects("gapless", 7)]


@pytest.mark.parametrize("kind", sorted(KIND_FLAGS))
def test_a_stream_writes_at_least_a_chunk_of_lines_a_write(monkeypatch, kind):
    # blocks are buffered until a write holds at least a chunk of lines, so
    # a stream makes no more writes than chunks of that many lines would
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)
            return len(text)

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["enumerate", "--kind", kind, "--n", "6"]) == 0
    lines = [text.count("\n") for text in writes]
    assert sum(lines) == enumeration.count(KIND_FLAGS[kind], 6)
    assert all(k >= enumeration._CHUNK_LINES for k in lines[:-1]) and 0 < lines[-1]
    assert all(text.endswith("\n") for text in writes)
    assert len(writes) <= math.ceil(sum(lines) / enumeration._CHUNK_LINES)


@pytest.mark.parametrize("kind", sorted(KIND_FLAGS))
def test_stream_lines_are_the_dumps_of_the_streamed_objects(capsys, kind):
    # the CLI joins each block of lines from row texts made once per row of
    # the stream; the library builds each object, which the suite rebuilds
    # through its constructor, and dumps it
    for n in range(1, 7):
        code, out = run(capsys, "enumerate", "--kind", kind, "--n", str(n))
        assert code == 0
        assert out.splitlines() == [serialize.dumps(o) for o in enumeration.enumerate_objects(KIND_FLAGS[kind], n)]
        if (kind, n) == ("boolean-triangle", 1):
            # the walk of no steps
            assert out == '{"kind":"boolean-triangle","n":1,"rows":[]}\n'


# stdout sha256 of `polytope membership --polytope tsscpp`, each outcome
# checked against a Fraction simplex under the same pivot rules: the integer
# pivots must reach the same bases
MEMBERSHIP_PINS = {
    "n4-member": (
        {"kind": "matrix", "n": 4, "entries": [["0", "1/2", "1/3", "1/6"], ["1/2", "-1/6", "1/3", "1/3"],
                                               ["1/2", "1/2", "-1/6", "1/6"], ["0", "1/6", "1/2", "1/3"]]},
        0, "92345a23c6d59604a2225ffecd1cc496a8fdb99c7f02ed980189382049e78e47"),
    "n4-outside-passing": (
        {"kind": "matrix", "n": 4, "entries": [["1/2", "0", "1/2", "0"], ["0", "1/2", "0", "1/2"],
                                               ["1/2", "0", "0", "1/2"], ["0", "1/2", "1/2", "0"]]},
        1, "b4b547c2da1fca500ee8860ad8aec4d6bbd6974f0fd1bb4ae528a3df849bb4e5"),
    "n5-member": (
        {"kind": "matrix", "n": 5, "entries": [["0", "2/7", "0", "4/7", "1/7"], ["0", "0", "6/7", "-3/7", "4/7"],
                                               ["4/7", "1/7", "1/7", "2/7", "-1/7"],
                                               ["3/7", "4/7", "-1/7", "4/7", "-3/7"], ["0", "0", "1/7", "0", "6/7"]]},
        0, "ffec75ebbae18988e22cf2fb8440ac1981320383ba369ac5c9e061910e2f6be4"),
    "n5-nonmember": (
        {"kind": "matrix", "n": 5, "entries": [[0, 0, 1, 0, 0], [1, 0, 0, 0, 0], [0, 1, -1, 0, 1],
                                               [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]},
        1, "aee6c5cad9992ca9d8b07c80d119bceda9df1b694969cb5510d6ff9d517138c6"),
}


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_PINS))
def test_tsscpp_membership_output_is_pinned(tmp_path, capsys, name):
    doc, expected_code, digest = MEMBERSHIP_PINS[name]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, "polytope", "membership", "--polytope", "tsscpp", "--input", str(path))
    assert code == expected_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_order_7_membership_answers_are_checked_again(tmp_path, capsys):
    # a seeded mix of three order-7 magog matrices, and the same mix with a
    # zero of its first row pushed to -1/97 (no ASM row has a negative first
    # entry) and the unit sums kept; each answer is loaded and checked here
    n = 7
    rng = random.Random(20261022)
    dag, matrix = row_graph_matrices(n)
    chosen = [matrix(rng.randrange(dag.counts[-1])) for _ in range(3)]
    weights = [rng.randint(1, 9) for _ in chosen]
    rows = [[sum(Fraction(w, sum(weights)) * m.entries[i][j] for w, m in zip(weights, chosen)) for j in range(n)]
            for i in range(n)]
    e = Fraction(1, 97)
    j = rows[0].index(0)
    k = next(k for k, v in enumerate(rows[0]) if v > 0)
    off = [list(row) for row in rows]
    off[0][j], off[0][k], off[1][j], off[1][k] = off[0][j] - e, off[0][k] + e, off[1][j] + e, off[1][k] - e

    path = tmp_path / "p.json"
    outcomes = []
    for point_rows, expected_code in ((rows, 0), (off, 1)):
        path.write_text(json.dumps({"kind": "matrix", "n": n, "entries": [[str(v) for v in row] for row in point_rows]}),
                        encoding="utf-8")
        code, out = run(capsys, "polytope", "membership", "--polytope", "tsscpp", "--input", str(path))
        assert code == expected_code
        outcomes.append(serialize.loads(out))
    member, cert = outcomes
    assert member.reconstruct() == tuple(map(tuple, rows))
    assert all(validate_magog(vertex).valid for _, vertex in member.terms)
    point = polytope.RationalMatrixPoint.from_rows(off)
    assert cert.value_at(point) > 0
    scale = math.lcm(*(c.denominator for c in (*cert.coefficients, cert.offset)))
    y = [int(c * scale) for c in (*cert.coefficients, cert.offset)]
    assert polytope.MagogVertices(n)._max_value(y) <= 0


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
    "decomposition-without-terms": {"terms": []},
    "decomposition-vertex": {"terms": [{"weight": "1", "vertex": {"terms": [
        {"weight": "1", "vertex": {"kind": "matrix", "n": 1, "entries": [[1]]}}]}}]},
    "not-in-hull-vertex": {"terms": [{"weight": "1", "vertex": {
        "kind": "not-in-hull", "coefficients": ["1"], "offset": "0"}}]},
    "decomposition-weights-below-one": {"terms": [
        {"weight": "1/3", "vertex": {"kind": "matrix", "n": 1, "entries": [[1]]}}]},
    "decomposition-mixed-shapes": {"terms": [
        {"weight": "1/2", "vertex": {"kind": "matrix", "n": 2, "entries": [[1, 0], [0, 1]]}},
        {"weight": "1/2", "vertex": {"kind": "boolean-triangle", "n": 3, "rows": [[0], [0, 1]]}}]},
    "magog-triangle-rational-entry": {"kind": "magog-triangle", "n": 2, "rows": [["1/2"], [1, 2]]},
    "term-not-an-object": {"terms": [1]},
    "terms-not-a-list": {"terms": 5},
    "matrix-rows-not-lists": {"kind": "matrix", "n": 1, "entries": [1]},
    "unknown-kind": {"kind": "cube", "n": 2},
    "no-kind": {"n": 2},
}

# text that is not JSON, and texts past the parser's recursion limit and the
# interpreter's integer digit limit, which json.dumps could not write either
MALFORMED_TEXTS = {name: json.dumps(doc) for name, doc in MALFORMED_DOCUMENTS.items()} | {
    "truncated-json": '{"kind":',
    "deep-array": "[" * 100000 + "]" * 100000,
    "long-integer-entry": '{"kind":"matrix","n":1,"entries":[[' + "1" * 5000 + "]]}",
    "long-integer-order": '{"kind":"matrix","n":' + "1" * 5000 + ',"entries":[[1]]}',
    "long-rational-entry": '{"kind":"matrix","n":1,"entries":[["' + "1" * 5000 + '"]]}',
    "long-negative-order": '{"kind":"matrix","n":-' + "1" * 4000 + ',"entries":[[1]]}',
}


@pytest.mark.parametrize("name", sorted(MALFORMED_TEXTS))
@pytest.mark.parametrize("command", [["classify"], ["polytope", "membership", "--polytope", "tsscpp"],
                                     ["map", "--from", "matrix"]])
def test_malformed_documents_are_parse_errors(tmp_path, capsys, name, command):
    path = tmp_path / "doc.json"
    path.write_text(MALFORMED_TEXTS[name], encoding="utf-8")
    code = main(command + ["--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("input error:") and captured.err.count("\n") == 1
    # a rejected value is quoted in short
    assert len(captured.err.encode()) <= 200


def test_a_json_syntax_error_keeps_the_parser_message(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(MALFORMED_TEXTS["truncated-json"], encoding="utf-8")
    code = main(["classify", "--input", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "input error: Expecting value: line 1 column 9 (char 8)\n"


# every argument the library refuses, as the CLI reports it
ARGUMENT_ERRORS = {
    "enumerate --kind asm --n 0": "order must be positive",
    "enumerate --kind asm --n 0 --count": "order must be positive",
    "stats --kind magog --stat inv --n 0": "order must be positive",
    "polytope certify --polytope btp --n 0": "order must be positive",
    "ehrhart --polytope btp --n 0 --tmax 3": "order must be positive",
    "polytope facets --n 1": "order must be at least 2",
    "ehrhart --polytope btp --tmax 3": "btp requires the order n",
    "ehrhart --polytope tsscpp3 --n 4 --tmax 2": "tsscpp3 is fixed at order 3",
    "check --suite theorems --n-max 1": "n_max must be at least 2",
    "check --suite conjectures --n-max 2": "n_max must be at least 3",
    "polytope membership --polytope btp": "membership requires --input",
}


@pytest.mark.parametrize("argv", sorted(ARGUMENT_ERRORS))
def test_argument_errors_exit_1_on_one_line(capsys, argv):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {ARGUMENT_ERRORS[argv]}\n")


def test_a_stray_value_error_is_an_internal_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(enumeration, "count", broken)
    code = main(["enumerate", "--kind", "asm", "--n", "3", "--count"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", "internal error: ValueError: boom\n")


def test_exit_codes_reach_the_process(tmp_path):
    # python -m magoglab.cli ends in sys.exit(main()): each exit code is the
    # process's, stdout holds only results and stderr one line on failure
    src = os.path.dirname(os.path.dirname(os.path.abspath(enumeration.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "MAGOGLAB_CEILING_OVERRIDE"}
    env["PYTHONPATH"] = src
    path = tmp_path / "t.json"
    path.write_text(json.dumps(MALFORMED_DOCUMENTS["magog-triangle-rational-entry"]), encoding="utf-8")
    limit = CEILINGS["enumerate"]["n"]
    cases = [
        (["enumerate", "--kind", "magog-matrix", "--n", "4", "--count"], 0, "42\n", ""),
        (["enumerate", "--kind", "magog-matrix", "--n", str(limit + 1)], 1, "",
         f"error: enumerate accepts n <= {limit}; MAGOGLAB_CEILING_OVERRIDE=1 lifts the ceiling\n"),
        (["map", "--from", "triangle", "--input", str(path)], 2, "",
         "input error: magog-triangle entries must be integers\n"),
    ]
    for argv, code, out, err in cases:
        proc = subprocess.run([sys.executable, "-m", "magoglab.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err), argv


# integers outside {-1,0,1} make a rational matrix point, as the same
# entries written as strings do
WIDE_INTEGER_MATRIX = {"kind": "matrix", "n": 2, "entries": [[2, -1], [-1, 2]]}


def test_integer_matrix_outside_sign_entries_gets_a_membership_certificate(tmp_path, capsys):
    path = tmp_path / "p.json"
    outs = []
    for entries in (WIDE_INTEGER_MATRIX["entries"], [["2", "-1"], ["-1", "2"]]):
        path.write_text(json.dumps({"kind": "matrix", "n": 2, "entries": entries}), encoding="utf-8")
        code = main(["polytope", "membership", "--polytope", "tsscpp", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        assert isinstance(serialize.loads(captured.out), polytope.NotInHull)
        outs.append(captured.out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", [["classify"], ["map", "--from", "matrix"]], ids=["classify", "map"])
def test_integer_matrix_outside_sign_entries_is_refused_by_sign_matrix_commands(tmp_path, capsys, command):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(WIDE_INTEGER_MATRIX), encoding="utf-8")
    code = main(command + ["--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {' '.join(command)} expects a matrix document with entries in {{-1,0,1}}\n"


@pytest.mark.parametrize("command", [["polytope", "membership", "--polytope", "btp"], ["polytope", "decompose"]],
                         ids=["membership", "decompose"])
def test_boolean_triangle_outside_zero_one_is_a_rational_point(tmp_path, capsys, command):
    # integers outside {0,1} make a rational triangle point, as the same
    # entries written as strings do
    path = tmp_path / "t.json"
    outs = []
    for kind, rows in (("boolean-triangle", [[2], [0, 1]]), ("rational-triangle", [["2"], ["0", "1"]])):
        path.write_text(json.dumps({"kind": kind, "n": 3, "rows": rows}), encoding="utf-8")
        code = main(command + ["--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        outs.append(captured.out)
    assert outs == ['{"member":false,"violations":[["upper-bound",[1,2]],["diagonal",[2,1]]]}\n'] * 2


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


def test_check_tables_reports_a_mismatch(capsys, monkeypatch):
    monkeypatch.setitem(golden.TABLE1, 3, (5, 3))
    code, out = run(capsys, "check", "--suite", "tables", "--n-max", "3")
    assert code == 1
    mismatches = [ln for ln in out.splitlines() if "MISMATCH" in ln]
    assert mismatches == ["table1 n=3 neg_ones: MISMATCH computed=(5, 2) golden=(5, 3)"]
    assert out.splitlines()[-1] == "table check: 1 mismatch(es)"


@pytest.mark.parametrize("n_max", ["1", "0", "-3"])
def test_check_tables_rejects_n_max_below_two(capsys, n_max):
    code = main(["check", "--suite", "tables", "--n-max", n_max])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: n_max must be at least 2\n"


def test_check_tables_1_to_6_through_order_7(capsys):
    code, out = run(capsys, "check", "--suite", "tables", "--tables", "table1,table2,table3,table4,table5,table6",
                    "--n-max", "7")
    assert code == 0
    assert "0 mismatch(es)" in out
    assert any(ln.startswith("table1") and " n=7" in ln for ln in out.splitlines())


# sha256 of the stdout of check --suite tables --n-max 5: every line, the
# table 7-9 lines in their order included
TABLES_5_SHA256 = "0a205f3c9a737c63cc01ef2fda8ef6ee045d448d1e0662025dc0554ae8b6887f"


def test_check_tables_stdout_is_pinned(capsys):
    code, out = run(capsys, "check", "--suite", "tables", "--n-max", "5")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLES_5_SHA256


def test_check_tables_lists_no_hull_vertex(capsys, monkeypatch):
    # the facet engine behind the tsscpp dilates lists the 7 vertices of
    # order 3 by design, once per process; tables 7-9 list none
    polytope._magog_facets(3)

    def refuse(*args, **kwargs):
        raise AssertionError("listed")

    for name in ("enumerate_objects", "_stream", "_raw_rows"):
        monkeypatch.setattr(enumeration, name, refuse)
    monkeypatch.setattr(polytope, "_raw_rows", refuse)
    monkeypatch.setattr(polytope, "affine_dimension", refuse)
    code, out = run(capsys, "check", "--suite", "tables", "--n-max", "5")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLES_5_SHA256


def test_check_tables_computes_the_hull_rows(capsys, monkeypatch):
    monkeypatch.setitem(golden.TABLE8_DIMENSION, 5, 15)
    monkeypatch.setitem(golden.TABLE9_VERTICES, 5, 430)
    code, out = run(capsys, "check", "--suite", "tables", "--tables", "table8,table9", "--n-max", "5")
    assert code == 1
    assert [ln for ln in out.splitlines() if "MISMATCH" in ln] == [
        "table8 n=5 dimension: MISMATCH computed=16 golden=15",
        "table9 n=5 vertices: MISMATCH computed=429 golden=430",
    ]


def test_check_tables_selector(capsys):
    code, out = run(capsys, "check", "--suite", "tables", "--n-max", "4", "--tables", "table5")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("table") and " n=" in ln]
    assert lines and all(ln.startswith("table5") for ln in lines)
    code, _ = run(capsys, "check", "--suite", "tables", "--n-max", "3", "--tables", "nope")
    assert code == 1


_POSITIONAL = ("first_row_one", "first_col_one", "last_row_one")


@pytest.mark.parametrize("tables, asked", [
    ("table1", [("magog_matrix", 3, ("neg_ones",)), ("magog_matrix", 4, ("neg_ones",))]),
    ("table6,table3", [("magog_matrix", 3, _POSITIONAL), ("asm", 3, ("posinv", "inv")),
                       ("magog_matrix", 4, _POSITIONAL), ("asm", 4, ("posinv", "inv"))]),
    ("table2,table4", [("asm", 3, ("neg_ones",) + _POSITIONAL), ("asm", 4, ("neg_ones",) + _POSITIONAL)]),
])
def test_check_tables_asks_only_for_the_statistics_it_prints(tmp_path, capsys, monkeypatch, tables, asked):
    calls = []
    real = enumeration.distribution_bundle

    def recorded(kind, n, statistics=enumeration.STATISTICS):
        calls.append((kind, n, tuple(statistics)))
        return real(kind, n, statistics)

    monkeypatch.setattr(enumeration, "distribution_bundle", recorded)
    code, out = run(capsys, "check", "--suite", "tables", "--tables", tables, "--n-max", "4",
                    "--out-dir", str(tmp_path))
    assert code == 0 and calls == asked
    wanted = set(tables.split(","))
    rows = [ln.split()[0] for ln in out.splitlines() if " n=" in ln]
    assert rows and set(rows) == wanted
    assert {p.stem for p in tmp_path.iterdir()} == wanted


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


def test_dumps_is_the_compact_json_of_the_document():
    from fractions import Fraction as F

    from magoglab.polytope import ConvexDecomposition, NotInHull, RationalMatrixPoint

    def expected(obj):
        return json.dumps(serialize.to_document(obj), separators=(",", ":"))

    objects = [obj for kind in enumeration.KINDS for n in range(1, 6) for obj in enumeration.enumerate_objects(kind, n)]
    objects += [
        RationalTrianglePoint.from_rows(3, [["1/2"], ["1/3", 1]]),
        RationalMatrixPoint.from_rows([["1/2", "1/2"], ["1/2", "1/2"]]),
        ConvexDecomposition((
            (F(1, 3), SignMatrix.identity(2)),
            (F(2, 3), SignMatrix.antidiagonal(2)),
        )),
        NotInHull(coefficients=(F(1), F(-7, 2)), offset=F(1)),
        SignMatrix(2, ((1, 0), (0, 1))),
        BooleanTriangle(3, ((0,), (1, 0))),
    ]
    for obj in objects:
        assert serialize.dumps(obj) == expected(obj)


def test_cli_output_deterministic(capsys):
    _, out1 = run(capsys, "enumerate", "--kind", "asm", "--n", "4")
    _, out2 = run(capsys, "enumerate", "--kind", "asm", "--n", "4")
    assert out1 == out2


def _membership_argv(v, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(serialize.dumps(SignMatrix.identity(v["n"])), encoding="utf-8")
    return ["polytope", "membership", "--polytope", "tsscpp", "--input", path]


# a command one past each CEILINGS value, the entry's other values at their limits
CEILING_ARGV = {
    "enumerate": lambda v, _: ["enumerate", "--kind", "square-sign", "--n", v["n"]],
    "enumerate --kind gapless": lambda v, _: ["enumerate", "--kind", "gapless", "--n", v["n"]],
    "enumerate --count": lambda v, _: ["enumerate", "--kind", "magog-matrix", "--n", v["n"], "--count"],
    "stats": lambda v, _: ["stats", "--kind", "magog", "--stat", "inv", "--n", v["n"]],
    "polytope membership --polytope tsscpp": _membership_argv,
    "polytope certify": lambda v, _: ["polytope", "certify", "--polytope", "tsscpp", "--n", v["n"]],
    "polytope facets": lambda v, _: ["polytope", "facets", "--n", v["n"]],
    "ehrhart --polytope btp": lambda v, _: ["ehrhart", "--polytope", "btp", "--n", v["n"], "--tmax", v["tmax"]],
    "ehrhart --polytope tsscpp3": lambda v, _: ["ehrhart", "--polytope", "tsscpp3", "--tmax", v["tmax"]],
    "check --suite theorems": lambda v, _: ["check", "--suite", "theorems", "--n-max", v["n_max"]],
    "check --suite conjectures": lambda v, _: ["check", "--suite", "conjectures", "--n-max", v["n_max"]],
}


def _ceiling_id(entry):
    command, key = entry
    return "-".join(word.lstrip("-") for word in command.split()) + "-" + key


@pytest.mark.parametrize("entry", [(c, k) for c, limits in CEILINGS.items() for k in limits], ids=_ceiling_id)
def test_ceiling_guard(tmp_path, capsys, monkeypatch, entry):
    def refuse(*args, **kwargs):
        raise AssertionError("a refused command must not start its work")

    for module, name in ((enumeration, "enumerate_objects"), (enumeration, "_stream"), (enumeration, "count"),
                         (enumeration, "distribution"), (enumeration, "theorem_suite"),
                         (enumeration, "conjecture_suite"), (polytope, "verify_vertex_certificates"),
                         (polytope, "btp_facet_audit"), (polytope, "lattice_points_in_dilate"),
                         (polytope, "MagogVertices"), (polytope, "lp_membership")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.delenv("MAGOGLAB_CEILING_OVERRIDE", raising=False)
    command, key = entry
    values = dict(CEILINGS[command])
    values[key] += 1
    code = main([str(a) for a in CEILING_ARGV[command](values, tmp_path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "MAGOGLAB_CEILING_OVERRIDE" in captured.err


@pytest.mark.parametrize("kind", sorted(KIND_FLAGS))
def test_each_stream_has_the_ceiling_of_its_kind(capsys, monkeypatch, kind):
    monkeypatch.setattr(enumeration, "_stream", lambda kind, n, emit=None: (SignMatrix, iter(())))
    monkeypatch.delenv("MAGOGLAB_CEILING_OVERRIDE", raising=False)
    limit = CEILINGS.get(f"enumerate --kind {kind}", CEILINGS["enumerate"])["n"]
    assert limit == (8 if kind == "gapless" else 7)
    assert run(capsys, "enumerate", "--kind", kind, "--n", str(limit)) == (0, "")
    assert run(capsys, "enumerate", "--kind", kind, "--n", str(limit + 1)) == (1, "")


def test_ceiling_override_env(capsys, monkeypatch):
    monkeypatch.setenv("MAGOGLAB_CEILING_OVERRIDE", "1")
    code, out = run(capsys, "ehrhart", "--polytope", "btp", "--n", "7", "--tmax", "0")
    assert code == 0 and out == "0,1\n"


def test_conjecture_suite_through_11_from_the_cli(capsys):
    code, out = run(capsys, "check", "--suite", "conjectures", "--n-max", "11")
    assert code == 0
    assert out.splitlines()[-1] == "conjecture suite: 36/36 agree"


def test_square_sign_count_at_order_12(capsys):
    code, out = run(capsys, "enumerate", "--kind", "square-sign", "--n", "12", "--count")
    assert code == 0 and out == "73786976294838206464\n"


def test_tsscpp3_dilates_through_12(capsys):
    code, out = run(capsys, "ehrhart", "--polytope", "tsscpp3", "--tmax", "12")
    assert code == 0 and out.splitlines()[-1] == "12,4550"
