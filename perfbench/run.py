"""toricdeg benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and builds nothing: the worker imports
toricdeg from `src/`.  With `--trace 0` it times set-up five times (four
set-up-only worker processes and the measured one, median reported) and
runs the job list once, untraced; the last line of standard output is the
JSON result with the end-to-end metrics.  With `--trace 1` it runs the job
list untraced and then, in a fresh process, traced, and reports the
per-layer metrics, the tracing overhead, and fails every job whose two
reports differ.  Each run also writes `.perfbench_runs/<workload>-seed<N>-
trace<T>.json` with the machine facts, per-job latencies and digests.

Workloads, metrics and their expected interactions are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from gen import WORKLOADS
from spans import layer_metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_runs"
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170


class WorkerError(RuntimeError):
    pass


def spawn(args, extra):
    """Run one worker; return (seconds until READY, parsed result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - start
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def machine_facts():
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def failures(result):
    return [j for j in result["jobs"] if j["failure"] is not None]


def end_to_end(args):
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        ready, _ = spawn(args, ["--setup-only"])
        setups.append(ready)
    ready, result = spawn(args, [])
    setups.append(ready)
    lat = [j["latency_s"] for j in result["jobs"]]
    metrics = {
        "wall_s": (result["wall_s"], "s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_p90_s": (statistics.quantiles(lat, n=10, method="inclusive")[8], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return result, metrics, {"setup_samples_s": setups}


def traced(args):
    _, plain = spawn(args, [])
    _, result = spawn(args, ["--traced"])
    units = dict(layer_metric_names())
    metrics = {name: (value, units[name]) for name, value in result["layers"].items()}
    metrics["trace.untraced_wall_s"] = (plain["wall_s"], "s")
    metrics["trace.traced_wall_s"] = (result["wall_s"], "s")
    metrics["trace.overhead_s"] = (result["wall_s"] - plain["wall_s"], "s")
    for mine, other in zip(result["jobs"], plain["jobs"]):
        if mine["failure"] is None and mine["digest"] != other["digest"]:
            mine["failure"] = "traced report differs from the untraced report"
    extra = {"untraced_failures": failures(plain), "spans": result["spans"],
             "spans_file": result["spans_file"]}
    return result, metrics, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    RUN_DIR.mkdir(exist_ok=True)
    facts = machine_facts()
    facts["loadavg_start"] = os.getloadavg()
    try:
        result, metrics, extra = (traced if args.trace else end_to_end)(args)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    facts["loadavg_end"] = os.getloadavg()

    failed = failures(result)
    attempted = len(result["jobs"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts,
        "jobs_attempted": attempted, "jobs_failed": len(failed),
        "fail_ratio": len(failed) / attempted,
        "latency_samples": attempted,
        "reference_digests_checked": result["reference_checked"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": failed, **extra,
        "jobs": result["jobs"],
    }
    out_path = RUN_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for job in failed:
        print(f"FAILED {job['id']}: {job['failure']}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {attempted} jobs, {len(failed)} failed, "
          f"load {facts['loadavg_start'][0]:.2f}->{facts['loadavg_end'][0]:.2f}, "
          f"details in {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
