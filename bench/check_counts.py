"""Check that the traced run's counts repeat exactly for a fixed seed.

Usage, from the repository root:

    python3 bench/check_counts.py --workload decode-softmax --seeds 1,1,2

Runs `bench/run.py --trace 1` once per listed seed, one run at a time, and
compares every per-layer metric whose unit is a count, a byte count or a
ratio of counts. Runs with the same seed must agree exactly; runs with
different seeds must have had different inputs. Every run must have no
failed operation. Exit code 0 when all of this holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
EXACT_UNITS = {"count", "bytes", "ratio"}
NOT_COUNTS = {"trace_overhead_share"}  # a ratio of two times


def traced(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=False,
    )
    if out.returncode != 0:
        raise SystemExit(f"run.py exited with {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads(
        (BENCH_DIR / "out" / f"{workload}-seed{seed}-trace1.json").read_text()
    )
    counts = {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] in EXACT_UNITS and name not in NOT_COUNTS
    }
    return {"failed": result["failed"], "counts": counts,
            "inputs": record["details"]["inputs_sha256"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated, e.g. 1,1,2")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    runs = [(seed, traced(args.workload, seed)) for seed in seeds]
    ok = True
    for seed, run in runs:
        print(f"seed {seed}: failed={run['failed']} inputs={run['inputs'][:16]}")
        ok &= run["failed"] == 0
    for (s1, r1), (s2, r2) in zip(runs, runs[1:]):
        if s1 == s2:
            diff = {k: (v, r2["counts"][k]) for k, v in r1["counts"].items() if r2["counts"][k] != v}
            same_inputs = r1["inputs"] == r2["inputs"]
            print(f"seed {s1} twice: {len(r1['counts'])} counts, differing {diff or 'none'}, "
                  f"same inputs {same_inputs}")
            ok &= not diff and same_inputs
        else:
            changed = r1["inputs"] != r2["inputs"]
            print(f"seeds {s1} and {s2}: inputs differ {changed}")
            ok &= changed
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
