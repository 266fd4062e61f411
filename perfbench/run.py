#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first call configures and builds the
library and the benchmark from the checkout's sources (Release) under
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild incrementally.
The benchmark binary prints the host fingerprint, the run details and, as the
last line of standard output, the result object.  Workloads, metrics and the
traced run are described in perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dmc-graphite331-ckpt", "vgh-n2048-team")
# Knobs that would change what is measured without showing in the result.
REFUSED_ENV = ("MQC_PARTITION", "MQC_INNER_THREADS", "MQC_TOPOLOGY", "MQC_SHARDS",
               "MQC_FAULT_INJECT", "MQC_VERBOSE")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build; all tool output goes to stderr."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=log, stderr=log)
        if cfg.returncode != 0:
            return False
    jobs = str(max(1, os.cpu_count() or 1))
    done = subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                          stdout=log, stderr=log)
    return done.returncode == 0


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    for knob in REFUSED_ENV:
        if knob in os.environ:
            print(f"run.py: refusing to run with {knob} set in the environment", file=sys.stderr)
            return 3

    out_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(out_dir):
        out_dir = os.path.join(ROOT, out_dir)
    build_dir = os.path.join(out_dir, "perfbench")
    # Keep the compiler's and the benchmark's temporary files in the checkout.
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["TMPDIR"] = tmp_dir
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(out_dir, "perfbench-run"), "--commit", commit_id()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
