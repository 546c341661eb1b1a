"""Self-test of the benchmark harness at a tiny size.

    python3 perfbench/selftest.py

For every workload, with the default seed and a one-block job list:
  1. `run.py --trace 0` and `--trace 1` print every metric named in
     BENCHMARK.json, by name and with its unit, and no failed job;
  2. a deliberately wrong reference digest is counted as a failed job, so
     the checker can fail;
  3. traced and untraced workers produce identical report digests, so the
     wrappers change no output byte.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 0
SECONDS = 1


def last_json(cmd):
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run(workload, trace):
    return last_json([sys.executable, str(HERE / "run.py"), "--workload", workload,
                      "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)])


def worker(workload, *extra):
    return last_json([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                      "--seed", str(SEED), "--seconds", str(SECONDS), *extra])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    ref_path = ROOT / ".perfbench_runs" / "selftest-digests.json"
    for w in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(w, trace)
            want = {m["name"]: m["unit"] for m in bench[key]}
            have = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{w} trace {trace}: result has exactly the four keys")
            expect(have == want, f"{w} trace {trace}: every {key} metric with its unit")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{w} trace {trace}: {result['attempted']} jobs, none failed")

        plain = worker(w)
        digests = {j["id"]: j["digest"] for j in plain["jobs"]}
        expect(plain["reference_checked"] == len(digests),
               f"{w}: every job checked against the recorded digests")
        wrong = dict(digests)
        victim = sorted(wrong)[-1]
        wrong[victim] = "0" * 64
        ref_path.parent.mkdir(exist_ok=True)
        ref_path.write_text(json.dumps({"seed": SEED, "digests": {w: wrong}}))
        bad = worker(w, "--digests", str(ref_path))
        failed = [j["id"] for j in bad["jobs"] if j["failure"]]
        expect(failed == [victim], f"{w}: a wrong reference digest fails exactly its job")

        traced = worker(w, "--traced")
        expect({j["id"]: j["digest"] for j in traced["jobs"]} == digests,
               f"{w}: traced and untraced report digests are identical")
    ref_path.unlink(missing_ok=True)

    print("self-test passed" if not problems else f"self-test FAILED: {len(problems)} checks")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
