#!/usr/bin/env python3
"""Self-test of the repository benchmark (perfbench/run.py).

    python3 perfbench/selftest.py [--workloads hurricane,elk-half] [--seconds 1]

Checks, through the same command the benchmark is run with:
  1. a planted fingerprint mismatch is counted as a failure (correct is
     false, failed >= 1) and is not timed as a success;
  2. every workload in BENCHMARK.json, with --trace 0 and --trace 1, emits
     exactly the end-to-end / per-layer metrics BENCHMARK.json names for it,
     with their units, and passes all of its output checks.
Exits non-zero on the first failed check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace, seconds, extra=()):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace),
           *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()

    planted = run("hurricane", 0, args.seconds, ["--plant-mismatch"])
    expect(planted["failed"] >= 1 and planted["correct"] is False,
           f"planted mismatch counted as failed ({planted['failed']} of "
           f"{planted['attempted']})")

    for workload in args.workloads.split(","):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace, args.seconds)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            expect(got == want,
                   f"{workload} --trace {trace} emits the {len(want)} "
                   f"{key} metrics with their units")
            expect(result["correct"] is True and result["failed"] == 0,
                   f"{workload} --trace {trace} passes its output checks "
                   f"({result['attempted']} attempted)")


if __name__ == "__main__":
    main()
