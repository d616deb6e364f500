"""magoglab benchmark.

    python3 perfbench/run.py --workload count --seed 1 --seconds 15 --trace 0

Workloads (see jobs.py): ``count``, ``stream``, ``membership``, ``ehrhart``.
A job is one in-process call of ``magoglab.cli.main`` or of
``polytope.lp_membership``.  A pass runs the seeded job list as a closed
loop from one client in one fresh process (worker.py).  A run makes at
least three passes, and more until ``--seconds`` of job time have passed;
each job's time is the median of its passes, so a burst of load on the
machine during one pass does not move the figures.

The shared machine's speed for pure Python drifts by a third over tens of
seconds, more than any bound could allow.  So every time is taken against
a fixed reference loop (worker.reference_s), timed between the jobs of a
pass or just before a set-up spawn, and reported as seconds on a machine
that runs that loop in REFERENCE_S.  A job is scaled by the median of the
SCALE_WINDOW samples around it.  A change to the program does not touch
the loop; the unscaled figures are in the metadata line.

The worker only runs jobs and spools each one's stdout.  The oracles
(oracle.py) check the first pass's spools here, after the worker has
exited; every later pass must print the same bytes.  With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1``
one untraced and one traced pass run, and the last line carries the
per-layer metrics of the traced one, whose spans go to
``perfbench/_out/``.  The line before it is run metadata.  The exit code
is non-zero when any job fails its oracle, when an oracle accepts a
deliberately wrong expectation, or when the checkout holds no program to
run.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import jobs as joblists  # noqa: E402
import oracle  # noqa: E402
from worker import reference_s  # noqa: E402

MIN_PASSES = 3
MAX_PASSES = 12
# set-up samples: the passes' own spawns, topped up with set-up-only ones
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150
# the reference loop's time on a 2-core x86-64 VM (Python 3.11) at its median speed
REFERENCE_S = 0.002
SETUP_REFERENCES = 9
SCALE_WINDOW = 8


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(joblists.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_golden():
    """golden.py read straight from the checkout, without importing the package."""
    path = os.path.join(ROOT, "src", "magoglab", "golden.py")
    spec = importlib.util.spec_from_file_location("magoglab_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(jobs) -> str:
    return hashlib.sha256(json.dumps(jobs, sort_keys=True).encode()).hexdigest()


def mix(jobs) -> list:
    """Jobs per class: the proportions every seed keeps."""
    return sorted(collections.Counter(j["cls"] for j in jobs).items())


def calibrate() -> float:
    """A fixed pure-Python loop; recorded beside the numbers, never used to scale them."""
    t0 = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - t0


def commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def source_digest() -> str:
    src = os.path.join(ROOT, "src", "magoglab")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def scale(refs) -> float:
    """Factor from seconds measured while the reference loop took
    median(refs) to seconds at REFERENCE_S."""
    return REFERENCE_S / statistics.median(refs)


def local_scales(refs) -> list:
    """Per job, the scale of the reference samples around it; refs[i] was
    taken just before job i and refs[i + 1] just after."""
    lo = SCALE_WINDOW // 2 - 1
    return [scale(refs[max(0, i - lo): i - lo + SCALE_WINDOW]) for i in range(len(refs) - 1)]


def worker_env():
    env = dict(os.environ)
    env["MAGOGLAB_THREADS"] = "1"
    env.pop("MAGOGLAB_CEILING_OVERRIDE", None)
    return env


def spawn(workload, *extra):
    """Start a worker and wait for ``ready``; returns (process, seconds to
    ready, scale of the reference loop timed just before)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--root", ROOT, *extra]
    factor = scale([reference_s() for _ in range(SETUP_REFERENCES)])
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    if line.strip() != "ready":
        finish(proc)
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready, factor


def finish(proc):
    try:
        proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out")
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")


def run_pass(workload, run_dir, out, *extra):
    """One worker over the whole job list; returns (report, seconds to
    ready, set-up scale).  The report's ``scale`` has one factor per job."""
    proc, ready, factor = spawn(workload, "--run-dir", run_dir, "--out", os.path.join(run_dir, out), *extra)
    finish(proc)
    with open(os.path.join(run_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    report["scale"] = local_scales(report.pop("reference_s"))
    return report, ready, factor


def resolve(value, run_dir, job_id):
    """Put the run's paths in for ``{in}`` and ``{run}``."""
    if isinstance(value, str):
        return value.replace("{in}", f"{run_dir}/in/{job_id}.json").replace("{run}", run_dir)
    if isinstance(value, list):
        return [resolve(v, run_dir, job_id) for v in value]
    if isinstance(value, dict):
        return {k: resolve(v, run_dir, job_id) for k, v in value.items()}
    return value


def write_inputs(jobs, run_dir):
    """Input files, and the worker's job file: only what it needs to run
    each job, one job per line, so the expectations stay in this process."""
    os.makedirs(os.path.join(run_dir, "in"))
    with open(os.path.join(run_dir, "jobs.jsonl"), "w", encoding="utf-8") as jf:
        for job in jobs:
            if "input" in job:
                with open(os.path.join(run_dir, "in", f"{job['id']}.json"), "w", encoding="utf-8") as fh:
                    json.dump(job.pop("input"), fh)
            job["expect"] = resolve(job["expect"], run_dir, job["id"])
            line = {"id": job["id"], "cls": job["cls"]}
            if "argv" in job:
                line["argv"] = resolve(job["argv"], run_dir, job["id"])
            else:
                line.update(call=job["call"], n=job["expect"]["n"], point=job["expect"]["point"])
            jf.write(json.dumps(line) + "\n")


def check(jobs, results, out_dir):
    """Run each job's oracle on its spooled output.  Returns the problem per
    job id (None when correct) and, per oracle, whether it rejected one
    deliberately wrong expectation."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from magoglab import serialize

    ctx = oracle.Context(serialize.loads, serialize.dumps)
    problems = {}
    selfcheck = {}
    for (job_id, _, _, rc, problem, out_digest), job in zip(results, jobs):
        if problem is None:
            out = oracle.Output(rc, out_digest, os.path.join(out_dir, str(job_id)))
            checker = oracle.CHECKS[job["oracle"]]
            problem = _problem(checker, job["expect"], out, ctx)
            if problem is None and job["oracle"] not in selfcheck:
                bad = oracle.corrupt(job["oracle"], job["expect"])
                if bad is not None:
                    selfcheck[job["oracle"]] = "caught" if _problem(checker, bad, out, ctx) else "MISSED"
        problems[job_id] = problem
    return problems, selfcheck


def _problem(checker, expect, out, ctx):
    try:
        problems = checker(expect, out, ctx)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"output not understood: {type(exc).__name__}: {exc}"
    return problems[0] if problems else None


def job_times(passes, scaled):
    """Each job's median time over the passes, scaled to REFERENCE_S or not."""
    return [statistics.median(p["jobs"][i][2] * (p["scale"][i] if scaled else 1) for p in passes)
            for i in range(len(passes[0]["jobs"]))]


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "magoglab", "cli.py")):
        sys.stderr.write(f"no magoglab sources under {ROOT}/src; nothing to benchmark\n")
        return 2
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(), "commit": commit(),
            "source_digest": source_digest(),
            "env": {k: os.environ.get(k) for k in ("MAGOGLAB_THREADS", "MAGOGLAB_CEILING_OVERRIDE")},
            "worker_env": {"MAGOGLAB_THREADS": "1", "MAGOGLAB_CEILING_OVERRIDE": None},
            "calibration_s": [calibrate()]}

    golden = load_golden()
    t0 = perf_counter()
    jobs = joblists.build(args.workload, args.seed, golden)
    meta["input_gen_s"] = perf_counter() - t0
    meta["job_list_digest"] = digest(jobs)
    harness_ok = True
    if digest(joblists.build(args.workload, args.seed, golden)) != meta["job_list_digest"]:
        meta["job_list_repeatable"] = harness_ok = False
    if mix(joblists.build(args.workload, args.seed + 1, golden)) != mix(jobs):
        meta["mix_kept_across_seeds"] = harness_ok = False

    out_dir = os.path.join(HERE, "_out")
    run_dir = os.path.join(out_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        write_inputs(jobs, run_dir)
        passes, setup = [], []
        spent = 0.0
        while len(passes) < (1 if args.trace else MIN_PASSES) or (
                not args.trace and spent < args.seconds and len(passes) < MAX_PASSES):
            report, ready, factor = run_pass(args.workload, run_dir, f"out-{len(passes)}")
            if passes:
                shutil.rmtree(os.path.join(run_dir, f"out-{len(passes)}"))
            passes.append(report)
            setup.append((ready, factor))
            spent += sum(j[2] for j in report["jobs"])
        while len(setup) < SETUP_SAMPLES:
            proc, ready, factor = spawn(args.workload, "--setup-only")
            finish(proc)
            setup.append((ready, factor))
        traced = None
        if args.trace:
            traced, _, _ = run_pass(args.workload, run_dir, "out-traced", "--trace")
            shutil.copyfile(os.path.join(run_dir, "spans.jsonl"),
                            os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
        t0 = perf_counter()
        problems, selfcheck = check(jobs, passes[0]["jobs"], os.path.join(run_dir, "out-0"))
        meta["check_s"] = perf_counter() - t0
    except RuntimeError as exc:
        sys.stderr.write(f"benchmark harness failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    meta["calibration_s"].append(calibrate())

    first = passes[0]["jobs"]
    failed = {j[0] for j in first if problems[j[0]] is not None}
    # every pass, the traced one too, must end each job as the first did
    printed = {j[0]: j[3:] for j in first}
    differ = sorted({j[0] for p in passes[1:] + ([traced] if traced else []) for j in p["jobs"]
                     if j[3:] != printed[j[0]]})
    failed.update(differ)
    durations = job_times(passes, scaled=True)
    busy = sum(durations)
    p90 = percentile(durations, 90)
    missed = sorted(k for k, v in selfcheck.items() if v != "caught")
    raw = job_times(passes, scaled=False)
    meta.update({
        "jobs": len(first), "passes": len(passes), "pass_job_time_s": [sum(j[2] for j in p["jobs"]) for p in passes],
        "pass_scale": [statistics.median(p["scale"]) for p in passes],
        "fail_frac": len(failed) / len(first), "samples_beyond_p90": sum(d > p90 for d in durations),
        "mix": sorted(collections.Counter(j[1] for j in first).items()),
        "class_time_share": {c: sum(d for j, d in zip(first, durations) if j[1] == c) / busy
                             for c in sorted({j[1] for j in first})},
        "setup_samples_s": [ready for ready, _ in setup], "setup_scale": [factor for _, factor in setup],
        "unscaled": {"jobs_per_s": (len(first) - len(failed)) / sum(raw), "job_p50_s": statistics.median(raw),
                     "job_p90_s": percentile(raw, 90), "setup_s": statistics.median(ready for ready, _ in setup)},
        "oracle_selfcheck": selfcheck,
        "failures": [[j[0], j[1], problems[j[0]]] for j in first if problems[j[0]] is not None][:5],
        "output_differs_between_passes": differ[:5],
    })
    if traced is not None:
        meta.update({"spans": traced["spans"], "self_time_mismatches": traced["self_time_mismatches"],
                     "self_time_max_gap_s": traced["self_time_max_gap_s"]})
        harness_ok = harness_ok and not traced["self_time_mismatches"]
        # layer times on the scale of the traced pass's jobs
        factor = statistics.median(traced["scale"])
        metrics = {k: {"value": v * factor if k.endswith("_s") else v, "unit": _unit(k)}
                   for k, v in traced["layers"].items()}
        traced_busy = sum(job_times([traced], scaled=True))
        metrics["trace.overhead_frac"] = {"value": traced_busy / busy - 1, "unit": "frac"}
    else:
        metrics = {
            "jobs_per_s": {"value": (len(first) - len(failed)) / busy, "unit": "1/s"},
            "job_p50_s": {"value": statistics.median(durations), "unit": "s"},
            "job_p90_s": {"value": p90, "unit": "s"},
            "setup_s": {"value": statistics.median(ready * factor for ready, factor in setup), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(p["rss_kib"] for p in passes) / 1024, "unit": "MiB"},
        }
    n_failed = len(failed) + len(missed)
    correct = harness_ok and n_failed == 0
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": len(first), "failed": n_failed, "metrics": metrics}))
    return 0 if correct else 1


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
