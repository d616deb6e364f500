"""The benchmark's tracer (perfbench/spans.py) wraps library functions by
name; a name it wraps that a refactor drops must fail here, not only in a
traced benchmark run."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_installs_and_restores_every_wrapped_name():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    from magoglab import cli, polytope

    originals = (polytope.validate_magog, cli.matrix_to_magog_triangle)
    restore = spans.install(spans.Tracer())
    try:
        assert (polytope.validate_magog, cli.matrix_to_magog_triangle) != originals
    finally:
        restore()
    assert (polytope.validate_magog, cli.matrix_to_magog_triangle) == originals
