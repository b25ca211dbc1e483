#!/usr/bin/env python3
"""Build and run the PISCES 2 host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload pingpong --seed 1 --seconds 10 --trace 0

The first run configures and compiles the simulator from ../src together with
the benchmark program (CMake, RelWithDebInfo) under $CARGO_TARGET_DIR, default
`.bench_build`; later runs only rebuild what changed. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.

Each run also checks the committed simulated-tick fingerprint of seed
`seed % N` from fingerprints.json (N seeds per workload), so a change that
moves a simulated tick fails the run. After an intentional change to the
simulated behaviour, regenerate the file with

    python3 perfbench/run.py --regenerate-fingerprints
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
FINGERPRINTS = HERE / "fingerprints.json"
WORKLOADS = ["pingpong", "churn", "stencil", "lossy"]
FINGERPRINT_SEEDS = 32
RUN_TIMEOUT_S = 170


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    if not (ROOT / "src" / "core" / "runtime.cpp").is_file():
        sys.exit("perfbench: simulator sources not found under %s" % (ROOT / "src"))
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        steps.append(cmd)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout)
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))
    return out / "pisces_perfbench"


def committed_fingerprint(workload, seed):
    table = json.loads(FINGERPRINTS.read_text())[workload]
    slot = seed % len(table)
    return slot, table[str(slot)]


def regenerate(binary):
    table = {}
    for w in WORKLOADS:
        table[w] = {}
        for s in range(FINGERPRINT_SEEDS):
            res = subprocess.run(
                [str(binary), "--workload", w, "--seed", str(s), "--print-fingerprint"],
                stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
            if res.returncode != 0:
                sys.exit("perfbench: %s seed %d fails its correctness gate" % (w, s))
            table[w][str(s)] = res.stdout.strip().splitlines()[-1]
    FINGERPRINTS.write_text(json.dumps(table, indent=1) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--regenerate-fingerprints", action="store_true")
    args = ap.parse_args()

    binary = build()
    if args.regenerate_fingerprints:
        regenerate(binary)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    slot, expect = committed_fingerprint(args.workload, args.seed)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expect-seed", str(slot), "--expect", expect]
    if args.trace == 1:
        cmd += ["--spans", str(build_dir() / "spans" / ("%s.tsv" % args.workload))]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
