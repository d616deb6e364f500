"""One workload process: set up, say ``ready``, run the jobs, report.

Started by run.py in a fresh interpreter with MAGOGLAB_THREADS=1, so the
counting pool never forks.  Everything before ``ready`` is set-up time:
importing magoglab.cli and building what library jobs take as arguments.
Each job is one in-process call; its stdout goes through a streaming
digest into ``<out>/<id>``.  The worker only runs jobs: run.py checks the
outputs once the worker has exited, so the oracles' memory stays out of
this process's peak resident set.  Before each job and after the last it
times a fixed pure-Python loop (``reference_s``); run.py uses these
samples to take the machine's speed of the moment out of the job times.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import sys
from time import perf_counter


# a job whose span self times differ from its outside clock by more than
# this is reported; the gap is the root span's own enter/leave bookkeeping
SELF_TIME_SLACK_S = 1e-3
REFERENCE_LOOPS = 20_000


def reference_s() -> float:
    """Seconds for a fixed pure-Python loop, about 2 ms: one sample of how
    fast the machine runs Python at this moment."""
    t0 = perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - t0


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--run-dir")
    p.add_argument("--out")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args()


def setup(workload, root):
    """Import the program from the checkout and prepare library arguments."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import magoglab.cli
    from magoglab import enumeration

    if not os.path.abspath(magoglab.cli.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"magoglab imported from {magoglab.cli.__file__}, not from {src}")
    vertices = {}
    if workload == "membership":
        vertices = {n: list(enumeration.enumerate_objects("boolean_triangle", n)) for n in (5, 6)}
    return vertices


class Sink:
    """stdout stand-in: a streaming sha256 plus a spool file."""

    def __init__(self, fh):
        self.fh = fh
        self.hash = hashlib.sha256()

    def write(self, s):
        self.fh.write(s)
        self.hash.update(s.encode())
        return len(s)

    def flush(self):
        pass


def jobs(path):
    """The job file, one job per line, read as the run goes."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            yield json.loads(line)


def main():
    args = _args()
    vertices = setup(args.workload, args.root)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import spans
    from magoglab import cli, polytope, serialize

    dumps = serialize.dumps
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    os.makedirs(args.out)
    results = []
    refs = []
    for job in jobs(os.path.join(args.run_dir, "jobs.jsonl")):
        refs.append(reference_s())
        dur, rc, problem, digest = run_job(job, cli, polytope, dumps, vertices, tracer,
                                           os.path.join(args.out, str(job["id"])))
        results.append([job["id"], job["cls"], dur, rc, problem, digest])
    refs.append(reference_s())
    report = {"jobs": results, "reference_s": refs, "rss_kib": peak_rss_kib()}
    if tracer is not None:
        sums = spans.self_time_by_job(tracer)
        tracer.write(os.path.join(args.run_dir, "spans.jsonl"))
        report["layers"] = spans.layer_metrics(tracer)
        gaps = [(j[0], j[2], sums.get(j[0])) for j in results]
        report["self_time_max_gap_s"] = max((d - s for _, d, s in gaps if s is not None), default=None)
        report["self_time_mismatches"] = [g for g in gaps if g[2] is None or abs(g[1] - g[2]) > SELF_TIME_SLACK_S][:5]
        report["spans"] = len(tracer.records())
    with open(os.path.join(args.run_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


def peak_rss_kib():
    """High-water resident set of this process image.  ru_maxrss would also
    count the launching process, whose peak Linux carries across exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_job(job, cli, polytope, dumps, vertices, tracer, spool_path):
    """Run one job with stdout captured; returns (seconds, rc, problem, digest).
    ``problem`` says how a job that raised or exited went wrong, else None."""
    if "argv" in job:
        argv = job["argv"]
        root = "cli"

        def call():
            return cli.main(argv)
    else:
        point = polytope.RationalTrianglePoint.from_rows(job["n"], job["point"])
        verts = vertices[job["n"]]
        root = "job"

        def call():
            return polytope.lp_membership(point, verts)

    problem = None
    result = None
    err = io.StringIO()
    with open(spool_path, "w", encoding="utf-8") as spool:
        sink = Sink(spool)
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = sink, err
        try:
            t0 = perf_counter()
            try:
                result = call() if tracer is None else tracer.run_job(job["id"], root, call)
                dur = perf_counter() - t0
            except SystemExit as exc:
                dur = perf_counter() - t0
                problem = f"exited with {exc.code}: {err.getvalue().strip()[:200]}"
            except Exception as exc:  # a job that raises is a failed job, not a harness crash
                dur = perf_counter() - t0
                problem = f"raised {type(exc).__name__}: {exc}"
        finally:
            sys.stdout, sys.stderr = saved
        if problem is None and root == "job":
            sink.write(dumps(result) + "\n")
            result = 0 if isinstance(result, polytope.ConvexDecomposition) else 1
    rc = result if problem is None else None
    return dur, rc, problem, sink.hash.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
