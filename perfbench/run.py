#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a source checkout.  The first call configures and
builds perfbench/ (a Release build of the mldcs libraries plus the benchmark binary)
into .bench_build/; later calls only re-check that build.  Build output goes
to stderr, so the binary's last stdout line stays the result object.  Full
reports (and, with --trace 1, every span) are written to .bench_out/.

--self-test runs every workload at a tiny size, traced and untraced, checks
that each run is correct and emits exactly the metrics BENCHMARK.json names
with their units, and checks that a run which corrupts one cached forwarding
set mid-run reports failures.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "mldcs_perfbench")
WORKLOADS = ["mobility_moderate", "quasi_static_broadcast", "batch_rebuild"]
# Hard limit for one benchmark invocation after the build.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (first call only) and build; True if it configured."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found next to perfbench/: not a source checkout")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "mldcs_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return len(steps) == 2


def run_binary(args, timeout=RUN_TIMEOUT_S):
    """Run the benchmark binary; return (exit code, stdout)."""
    cmd = [BINARY, *args, "--out-dir", OUT]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"benchmark timed out after {timeout} s", 1)
    return p.returncode, p.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        r = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return r if isinstance(r, dict) and set(r) == keys else None


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def check(label, args, expect_fail=False):
        code, out = run_binary(args)
        r = result_of(out)
        found = []
        if code != 0 or r is None:
            found.append(f"exit {code}, no result line")
        else:
            trace = args[args.index("--trace") + 1]
            got = {k: v.get("unit") for k, v in r["metrics"].items()}
            if got != want[trace]:
                found.append(f"metrics/units {sorted(got.items())} != "
                             f"{sorted(want[trace].items())}")
            if r["attempted"] < 1:
                found.append("no checked ops")
            if expect_fail and (r["failed"] == 0 or r["correct"]):
                found.append("corrupted slot went unnoticed")
            if not expect_fail and (r["failed"] != 0 or not r["correct"]):
                found.append(f"failed {r['failed']} of {r['attempted']} "
                             "checked ops")
        summary = "" if r is None else \
            f": attempted {r['attempted']}, failed {r['failed']}"
        print(f"{'FAIL' if found else 'ok':4s} {label}{summary}", flush=True)
        problems.extend(f"{label}: {p}" for p in found)

    tiny = ["--scale", "0.02", "--seconds", "1", "--seed", "7"]
    for w in WORKLOADS:
        for trace in ("0", "1"):
            check(f"{w} trace={trace}",
                  ["--workload", w, "--trace", trace, *tiny])
    for w in WORKLOADS[:2]:
        check(f"{w} corrupt-at=3",
              ["--workload", w, "--trace", "0", "--corrupt-at", "3", *tiny],
              expect_fail=True)
    for p in problems:
        print("problem:", p, file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()

    start = time.monotonic()
    configured = build()
    if a.self_test:
        return self_test()
    if None in (a.workload, a.seed, a.seconds, a.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    code, out = run_binary(
        ["--workload", a.workload, "--seed", str(a.seed), "--seconds",
         str(a.seconds), "--trace", a.trace],
        # A fresh build may take minutes; otherwise the build check counts
        # against the same limit as the run.
        timeout=RUN_TIMEOUT_S if configured
        else RUN_TIMEOUT_S - (time.monotonic() - start))
    if code != 0:
        fail(f"benchmark exited with {code}", code)
    if result_of(out) is None:
        fail("benchmark printed no result line", 1)
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
