#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
TRACLUS libraries from this source tree) into .bench_build/, runs one
workload, checks the result line, and prints it last:

    python3 perfbench/run.py --workload hurricane --seed 1 --seconds 15 --trace 0

--trace 0 prints the end-to-end metrics of untraced runs, --trace 1 the
per-layer metrics of one traced run (its spans go to .bench_trace/). The
last stdout line is always one JSON object with the keys correct,
attempted, failed and metrics; any build or run failure exits non-zero
without printing it. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
WORK_DIR = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_trace"
GOLDEN = ROOT / "tests" / "golden" / "hurricane_default.golden"
TARGET = "traclus_perfbench"
# BENCHMARK.json lists every workload but `elk`, the full Elk1993 corpus,
# which is kept for traced runs by hand (see perfbench/README.md).
WORKLOADS = ("hurricane", "elk-half", "hurricane-tune", "hurricane-outofcore",
             "elk")
# A run at the default thread count must end within 180 s; one set by hand (the
# 1-thread baseline column) may take longer.
RUN_TIMEOUT_S = 170
MANUAL_TIMEOUT_S = 1800


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def default_threads():
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:
        available = os.cpu_count() or 1
    return max(1, min(4, available))


def build(jobs):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not a TRACLUS source tree (no CMakeLists.txt/src)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", TARGET,
                  "-j", str(jobs)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout is reserved for the result.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    binary = BUILD_DIR / TARGET
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def expected_metrics(trace):
    """Names and units BENCHMARK.json promises for this mode, or None."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last output line is not JSON: {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("failed must be a whole number >= 0")
    for name, metric in result["metrics"].items():
        if not math.isfinite(metric["value"]):
            fail(f"metric {name} is not finite")
    want = expected_metrics(trace)
    if want is not None:
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
            fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
                 f"extra {extra}, wrong unit {wrong}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is the golden-pinned corpus")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: min(4, cores))")
    parser.add_argument("--plant-mismatch", action="store_true",
                        help="self-test: corrupt one expected fingerprint")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    threads = args.threads if args.threads is not None else default_threads()
    binary = build(default_threads())

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(threads), "--workdir", str(workdir),
           "--golden", str(GOLDEN)]
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        cmd += ["--trace-file", str(TRACE_DIR / f"{args.workload}-seed"
                                    f"{args.seed}-threads{threads}.json")]
    if args.plant_mismatch:
        cmd.append("--plant-mismatch")
    timeout = RUN_TIMEOUT_S if args.threads is None else MANUAL_TIMEOUT_S
    try:
        # subprocess.run kills and reaps the binary if it overruns.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode} and no result")
    result = check_result(lines[-1], args.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
