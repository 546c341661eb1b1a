"""One benchmark process: set up, run the job list, check every report.

    python3 perfbench/worker.py --workload W --seed N --seconds S
        [--traced] [--setup-only] [--digests FILE]

The worker imports toricdeg from the checkout's `src/` (never from
anywhere else), generates the seeded job list, writes its input files, and
prints `READY` on standard output; `run.py` times set-up up to that line.
It then feeds the jobs back to back, in one thread, through the public
entry point `toricdeg.cli.main(argv)`, capturing each report in memory.
Only the calls into `cli.main` are timed.  After the last job it checks
every report and prints one JSON line with the results.  With `--traced`
the layers are wrapped in spans (see spans.py) for the job pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

import check
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_runs"


def import_toricdeg():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import toricdeg
    import toricdeg.cli

    if Path(toricdeg.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"toricdeg imported from {toricdeg.__file__}, not from {src}")
    return toricdeg


def write_inputs(jobs, workdir):
    """Write each job's input files and return its resolved argv."""
    workdir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, job in enumerate(jobs):
        paths = {}
        for name, obj in job.files.items():
            path = workdir / f"{i:04d}-{name}.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            paths[name] = str(path)
        argvs.append([a.format(**paths) if a.startswith("{") else a for a in job.argv])
    return argvs


def run_jobs(cli, argvs, tracer):
    """Closed loop, one client: each job starts when the previous ends."""
    results = []
    for i, argv in enumerate(argvs):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = i
        error = None
        code = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:        # an escaped exception fails the job
                error = f"{type(exc).__name__}: {exc}"
            end = perf_counter()
        results.append((start, end, code, out.getvalue(), error))
    return results


def load_reference(path, workload, seed):
    """Recorded digests for this workload, when the run uses their seed."""
    if not path:
        return {}
    ref = json.loads(Path(path).read_text(encoding="utf-8"))
    if ref["seed"] != seed:
        return {}
    return ref["digests"].get(workload, {})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--digests", default=str(HERE / "digests.json"))
    args = ap.parse_args(argv)

    toricdeg = import_toricdeg()
    jobs = gen.make_jobs(args.workload, args.seed, args.seconds, ROOT / "fixtures")
    workdir = RUN_DIR / f"work-{os.getpid()}"
    try:
        argvs = write_inputs(jobs, workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        tracer = None
        if args.traced:
            from spans import Tracer

            tracer = Tracer(toricdeg)
            tracer.install()
        try:
            results = run_jobs(toricdeg.cli, argvs, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = load_reference(args.digests, args.workload, args.seed)
    records = []
    for job, (start, end, code, text, error) in zip(jobs, results):
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        reason = check.check(job, code, text, error)
        if reason is None and job.id in reference and reference[job.id] != digest:
            reason = "report digest differs from the recorded reference"
        records.append({"id": job.id, "latency_s": end - start, "digest": digest,
                        "failure": reason})
    out = {
        "wall_s": results[-1][1] - results[0][0],
        "peak_rss_mb": peak_rss_mb,
        "jobs": records,
        "reference_checked": sum(1 for j in jobs if j.id in reference),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["spans"] = len(tracer.span_id)
        spans_path = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.bin"
        tracer.write(spans_path, [j.id for j in jobs])
        out["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
