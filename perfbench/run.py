#!/usr/bin/env python3
"""Build and run the ESG host-cost benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale full|tiny] [--expect-fingerprint HEX]

Run from the repository root.  Builds perfbench/ and the simulator
libraries it links under .bench_build/perfbench, runs one workload in its
own process, relays that process's report, and prints as the last line one
JSON object: correct, attempted, failed and the metrics BENCHMARK.json
lists, end-to-end ones with --trace 0 and per-layer ones with --trace 1.
A traced run also writes its host spans to
.bench_build/perfbench/spans/<workload>-seed<N>.json.

--scale tiny shrinks every workload to a few seconds (the self-test uses
it); --expect-fingerprint replaces the campaign integrity fingerprint the
run must reproduce.  Exits non-zero, without a result line, when the build
or the run fails, and non-zero after the result line when a check failed.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("campaign", "campaign_traced", "explore_sweep")
TINY = {
    "campaign": ["--files", "400"],
    "campaign_traced": ["--files", "200"],
    "explore_sweep": ["--schedules", "24"],
}
# A run must end within 180 s; the binary gets what the build check left.
RUN_LIMIT_S = 175


def build():
    """Configure and build incrementally; returns the binary path."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(BUILD), "-j",
              str(min(4, os.cpu_count() or 1))]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                return None
    return BUILD / "esg_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--scale", default="full", choices=("full", "tiny"))
    ap.add_argument("--expect-fingerprint")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.monotonic()
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    if args.scale == "tiny":
        cmd += TINY[args.workload]
    if args.expect_fingerprint:
        cmd += ["--expect-fingerprint", args.expect_fingerprint]
    budget = max(10.0, RUN_LIMIT_S - (time.monotonic() - started))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              stdin=subprocess.DEVNULL, timeout=budget)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {budget:.0f} s",
              file=sys.stderr)
        return 3

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        print(f"perfbench: no result (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 4
    sys.stdout.write("\n".join(lines[:-1]) + "\n")

    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in group:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"perfbench: metric {m['name']} [{m['unit']}] not "
                  f"reported as such: {got}", file=sys.stderr)
            return 5
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
