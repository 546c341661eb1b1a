"""Record the reference report digests of the default seed.

    python3 perfbench/digests.py

Runs the worker once per workload with the default seed for the run length
in BENCHMARK.json and writes perfbench/digests.json: the SHA-256 of every
report, keyed by job id.  Reports are byte-stable, so from then on every run
with the default seed fails a job whose report bytes change.  Block contents
do not depend on the run length, so the reference also covers shorter runs.
Record it again only when a change of report bytes is intended.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0


def main():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    digests = {}
    for workload in ("semigroup", "equiv", "simplex", "lattice"):
        out = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", str(DEFAULT_SEED), "--seconds", str(seconds), "--digests", ""],
            cwd=ROOT, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        failed = [j for j in result["jobs"] if j["failure"]]
        if failed:
            raise SystemExit(f"{workload}: {len(failed)} jobs failed; not recording")
        digests[workload] = {j["id"]: j["digest"] for j in result["jobs"]}
    ref = {"seed": DEFAULT_SEED, "seconds": seconds, "digests": digests}
    (HERE / "digests.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(len(d) for d in digests.values())} digests")


if __name__ == "__main__":
    main()
