#!/usr/bin/env python3
"""End-to-end coupled-run benchmark (see perfbench/README.md).

Builds the harness from the repository's sources, runs one workload and
relays its report. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload fig4_sim --seed 1 --seconds 30 --trace 0

Run it from the repository root. Build products go to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); rank logs and
trace files go to .bench_out/<workload>/.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("fig4_sim", "stream_shm", "buddy_tcp")
HERE = os.path.dirname(os.path.abspath(__file__))
HARNESS_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the harness; build output goes to stderr."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "core", "system.hpp")):
        sys.exit("perfbench: framework sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench_harness")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        harness = build(os.path.join(build_root, "perfbench"))
    except subprocess.CalledProcessError as err:
        sys.exit(f"perfbench: build failed ({err})")

    out_dir = os.path.join(".bench_out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    # The cold set-up is timed from here: the harness process's start.
    cmd += ["--t0", repr(time.monotonic())]
    # Own process group, so a timeout also ends the ranks the harness forked.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"perfbench: harness exceeded {HARNESS_TIMEOUT_S} s")
    sys.stdout.write(stdout)
    if proc.returncode != 0:
        sys.exit(f"perfbench: harness exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: harness printed no result line")


if __name__ == "__main__":
    main()
