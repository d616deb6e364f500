"""The benchmark's tracer (perfbench/spans.py) wraps library functions by
name; a name it wraps that a refactor drops must fail here, not only in a
traced benchmark run."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_installs_and_restores_every_wrapped_name():
    spans = _spans()
    from magoglab import cli, polytope

    originals = (polytope.validate_magog, cli.matrix_to_magog_triangle)
    restore = spans.install(spans.Tracer())
    try:
        assert (polytope.validate_magog, cli.matrix_to_magog_triangle) != originals
    finally:
        restore()
    assert (polytope.validate_magog, cli.matrix_to_magog_triangle) == originals


def test_traced_stream_prints_the_untraced_stdout(capsys):
    # the stream bypasses the wrapped enumerate_objects and dumps
    spans = _spans()
    from magoglab import cli

    argv = ["enumerate", "--kind", "asm", "--n", "4"]
    assert cli.main(argv) == 0
    untraced = capsys.readouterr().out
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        code = tracer.run_job(0, "cli", lambda: cli.main(argv))
    finally:
        restore()
    assert code == 0 and capsys.readouterr().out == untraced
    assert untraced.count("\n") == 42


def test_traced_tsscpp_membership_runs(tmp_path, capsys):
    # the tracer takes len() of the columns solve_feasibility is given: the
    # identity's face holds the identity alone, as every prefix is 0 or 1
    spans = _spans()
    from magoglab import SignMatrix, cli, serialize

    path = tmp_path / "p.json"
    path.write_text(serialize.dumps(SignMatrix.identity(4)), encoding="utf-8")
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        code = tracer.run_job(0, "cli", lambda: cli.main(
            ["polytope", "membership", "--polytope", "tsscpp", "--input", str(path)]))
    finally:
        restore()
    assert code == 0 and capsys.readouterr().out.startswith('{"terms":')
    assert spans.layer_metrics(tracer)["lp.solve.columns"] == 1
    assert spans.layer_metrics(tracer)["polytope.lp_membership.calls"] == 1


def test_traced_library_membership_counts_the_listed_columns(family):
    # a vertex list reaches solve_feasibility as its kept ColumnPaths, one
    # column a vertex
    spans = _spans()
    from magoglab import ConvexDecomposition, RationalTrianglePoint, polytope

    vertices = family("boolean_triangle", 5)
    point = RationalTrianglePoint.from_rows(5, vertices[7].rows)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        outcome = tracer.run_job(0, "lib", lambda: polytope.lp_membership(point, vertices))
    finally:
        restore()
    assert isinstance(outcome, ConvexDecomposition)
    metrics = spans.layer_metrics(tracer)
    assert metrics["lp.solve.columns"] == 429
    assert metrics["polytope.lp_membership.calls"] == 1


def test_traced_tables_print_the_untraced_stdout(capsys):
    # the tracer wraps lattice_points_in_dilate and ehrhart_interpolate as
    # attributes of polytope, where the CLI reads them
    spans = _spans()
    from magoglab import cli

    argv = ["check", "--suite", "tables", "--n-max", "3", "--tables", "table7,table9"]
    assert cli.main(argv) == 0
    untraced = capsys.readouterr().out
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        code = tracer.run_job(0, "cli", lambda: cli.main(argv))
    finally:
        restore()
    assert code == 0 and capsys.readouterr().out == untraced
    assert spans.layer_metrics(tracer)["polytope.dilate.points"] > 0
