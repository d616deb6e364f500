"""Spans around the calls the program's layers make into each other.

The benchmark replaces public functions at module boundaries with timing
wrappers, looked up where the caller looks them up: names bound by
``from .x import f`` are replaced in the importing module.  Generators are
timed over consumption, one slice per ``next``.  Spans stay in memory and
are written out when the run ends.  High-frequency leaves (stream slices
and ``serialize.dumps``) fold into one record per job and parent.

A span's self time is its busy time minus its direct children's.  Every
span belongs to the job that was running, so for each job the self times
of its recorded spans should sum to the job's duration on a clock taken
outside the tracer (worker.py compares the two).
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

# record fields
JOB, NAME, PARENT, START, END, BUSY, SELF, CALLS = range(8)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []  # frames: [name, group, start, child busy, record index or None if folded]
        self.folded: dict = {}
        self.counters: dict = {}
        self.errors: dict = {}
        self.job = None

    def add(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def under(self, name) -> bool:
        return any(f[0] == name for f in self.stack)

    def enter(self, name, group, fold=False):
        index = None
        if not fold:
            index = len(self.spans)
            self.spans.append(None)
        frame = [name, group, 0.0, 0.0, index]
        self.stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def leave(self, frame, failed=False):
        end = perf_counter()
        self.stack.pop()
        name, group, start, child, index = frame
        busy = end - start
        own = busy - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += busy
        if failed and (parent is None or parent[1] != group):
            self.errors[group] = self.errors.get(group, 0) + 1
        parent_index = parent[4] if parent is not None else None
        if index is None:
            key = (self.job, parent_index, name)
            rec = self.folded.get(key)
            if rec is None:
                self.folded[key] = [self.job, name, parent_index, start, end, busy, own, 1]
            else:
                rec[END] = end
                rec[BUSY] += busy
                rec[SELF] += own
                rec[CALLS] += 1
        else:
            self.spans[index] = [self.job, name, parent_index, start, end, busy, own, 1]

    def run_job(self, job_id, root, fn):
        """Run one job under a root span and return its result."""
        self.job = job_id
        frame = self.enter(root, root)
        failed = True
        try:
            result = fn()
            failed = False
        finally:
            self.leave(frame, failed=failed)
            self.job = None
        return result

    def records(self):
        return self.spans + list(self.folded.values())

    def write(self, path):
        """One JSON object per line; ``parent`` is the ``id`` of the enclosing span."""
        keys = ("job", "name", "parent", "start", "end", "busy", "self", "calls")
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.records()):
                fh.write(json.dumps({"id": i, **dict(zip(keys, rec))}) + "\n")


def _wrap(tracer, fn, name, group, on_result=None, fold=False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.stack:
            return fn(*args, **kwargs)
        frame = tracer.enter(name, group, fold)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.leave(frame, failed=True)
            raise
        tracer.leave(frame)
        if on_result is not None:
            on_result(tracer, result, args)
        return result
    return wrapper


def _wrap_stream(tracer, fn, name, group):
    def consume(it):
        while True:
            frame = tracer.enter(name, group, fold=True)
            try:
                obj = next(it)
            except StopIteration:
                tracer.leave(frame)
                return
            except BaseException:
                tracer.leave(frame, failed=True)
                raise
            tracer.leave(frame)
            tracer.add(name + ".objects")
            yield obj

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        return consume(it) if tracer.stack else it
    return wrapper


def install(tracer):
    """Replace the boundary functions; returns a callable that restores them."""
    from magoglab import cli, enumeration, polytope, serialize
    from magoglab.polytope import ConvexDecomposition
    from magoglab.lp import Infeasible

    def counted(key, measure):
        return lambda tr, result, args: tr.add(key, measure(result, args))

    def solve_done(tr, result, args):
        columns, rhs = args[0], args[1]
        tr.add("lp.solve.columns", len(columns))
        tr.add("lp.solve.rows", len(rhs))
        tr.add("lp.solve.infeasible", int(isinstance(result, Infeasible)))

    def membership_done(tr, result, args):
        if tr.under("polytope.dilate"):
            tr.add("polytope.dilate.lp_calls")
            tr.add("polytope.dilate.lp_members", int(isinstance(result, ConvexDecomposition)))

    plan = [
        (enumeration, "count", "enumeration.count", "enumeration", counted("enumeration.count.objects", lambda r, a: r)),
        (enumeration, "distribution", "enumeration.distribution", "enumeration", None),
        (enumeration, "distribution_bundle", "enumeration.distribution", "enumeration", None),
        (enumeration, "theorem_suite", "enumeration.suite", "enumeration", None),
        (enumeration, "conjecture_suite", "enumeration.suite", "enumeration", None),
        (serialize, "load_path", "serialize.load", "serialize", None),
        (serialize, "dumps", "serialize.dumps", "serialize", counted("serialize.dumps.bytes", lambda r, a: len(r))),
        (cli, "classify", "core", "core", None),
        (cli, "matrix_to_magog_triangle", "core", "core", None),
        (cli, "magog_triangle_to_matrix", "core", "core", None),
        (polytope, "validate_magog", "core", "core", None),
        (polytope, "solve_feasibility", "lp.solve", "lp", solve_done),
        (polytope, "lp_membership", "polytope.lp_membership", "polytope", membership_done),
        (polytope, "btp_decompose", "polytope.decompose", "polytope",
         counted("polytope.decompose.terms", lambda r, a: len(r.terms))),
        (polytope, "btp_split", "polytope.split", "polytope", None),
        (polytope, "btp_contains", "polytope.contains", "polytope", None),
        (polytope, "lattice_points_in_dilate", "polytope.dilate", "polytope",
         counted("polytope.dilate.points", lambda r, a: r)),
        (polytope, "check_necessary_inequalities", "polytope.necessary", "polytope",
         counted("polytope.necessary.passed", lambda r, a: int(r.valid))),
        (polytope, "affine_dimension", "polytope.geometry", "polytope", None),
        (polytope, "btp_facet_audit", "polytope.geometry", "polytope", None),
        (polytope, "ehrhart_interpolate", "polytope.geometry", "polytope", None),
    ]
    saved = []
    for module, attr, name, group, on_result in plan:
        fn = getattr(module, attr)
        saved.append((module, attr, fn))
        setattr(module, attr, _wrap(tracer, fn, name, group, on_result, fold=(name == "serialize.dumps")))
    fn = enumeration.enumerate_objects
    saved.append((enumeration, "enumerate_objects", fn))
    enumeration.enumerate_objects = _wrap_stream(tracer, fn, "enumeration.stream", "enumeration")

    def restore():
        for module, attr, fn in saved:
            setattr(module, attr, fn)
    return restore


def self_time_by_job(tracer) -> dict:
    """Sum of the SELF field over each job's records, folded ones included.
    A span entered but never left has no record and fails the sum."""
    sums: dict = {}
    for rec in tracer.records():
        if rec is None:
            raise RuntimeError("a span was entered and never left")
        sums[rec[JOB]] = sums.get(rec[JOB], 0.0) + rec[SELF]
    return sums


def layer_metrics(tracer) -> dict:
    """Per-layer figures from the recorded spans and counters."""
    calls: dict = {}
    busy: dict = {}
    own: dict = {}
    for rec in tracer.records():
        name = rec[NAME]
        calls[name] = calls.get(name, 0) + rec[CALLS]
        busy[name] = busy.get(name, 0.0) + rec[BUSY]
        own[name] = own.get(name, 0.0) + rec[SELF]
    c = tracer.counters

    def ratio(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    necessary_calls = calls.get("polytope.necessary", 0)
    m = {
        "enumeration.count.calls": calls.get("enumeration.count", 0),
        "enumeration.count.busy_s": busy.get("enumeration.count", 0.0),
        "enumeration.count.objects": c.get("enumeration.count.objects", 0),
        "enumeration.distribution.busy_s": busy.get("enumeration.distribution", 0.0),
        "enumeration.suite.busy_s": busy.get("enumeration.suite", 0.0),
        "enumeration.stream.busy_s": busy.get("enumeration.stream", 0.0),
        "enumeration.stream.objects": c.get("enumeration.stream.objects", 0),
        "serialize.load.calls": calls.get("serialize.load", 0),
        "serialize.load.busy_s": busy.get("serialize.load", 0.0),
        "serialize.dumps.calls": calls.get("serialize.dumps", 0),
        "serialize.dumps.busy_s": busy.get("serialize.dumps", 0.0),
        "serialize.dumps.bytes": c.get("serialize.dumps.bytes", 0),
        "core.calls": calls.get("core", 0),
        "core.busy_s": busy.get("core", 0.0),
        "lp.solve.calls": calls.get("lp.solve", 0),
        "lp.solve.busy_s": busy.get("lp.solve", 0.0),
        "lp.solve.columns": c.get("lp.solve.columns", 0),
        "lp.solve.rows": c.get("lp.solve.rows", 0),
        "lp.solve.infeasible": c.get("lp.solve.infeasible", 0),
        "polytope.lp_membership.calls": calls.get("polytope.lp_membership", 0),
        "polytope.lp_membership.busy_s": busy.get("polytope.lp_membership", 0.0),
        "polytope.lp_membership.self_s": own.get("polytope.lp_membership", 0.0),
        "polytope.decompose.calls": calls.get("polytope.decompose", 0),
        "polytope.decompose.busy_s": busy.get("polytope.decompose", 0.0),
        "polytope.decompose.terms": c.get("polytope.decompose.terms", 0),
        "polytope.split.calls": calls.get("polytope.split", 0),
        "polytope.contains.calls": calls.get("polytope.contains", 0),
        "polytope.contains.busy_s": busy.get("polytope.contains", 0.0),
        "polytope.dilate.busy_s": busy.get("polytope.dilate", 0.0),
        "polytope.dilate.self_s": own.get("polytope.dilate", 0.0),
        "polytope.dilate.points": c.get("polytope.dilate.points", 0),
        "polytope.necessary.calls": necessary_calls,
        "polytope.necessary.pass_frac": c.get("polytope.necessary.passed", 0) / necessary_calls if necessary_calls else 0.0,
        "polytope.dilate.lp_member_frac": ratio("polytope.dilate.lp_members", "polytope.dilate.lp_calls"),
        "polytope.geometry.busy_s": busy.get("polytope.geometry", 0.0),
        "cli.self_s": own.get("cli", 0.0),
    }
    for group in ("enumeration", "serialize", "core", "lp", "polytope", "cli"):
        m[f"{group}.errors"] = tracer.errors.get(group, 0)
    return m
