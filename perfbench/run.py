#!/usr/bin/env python3
"""Builds the end-to-end benchmark driver from source and runs one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload fs_launch_storm --seed 1 \
        --seconds 10 --trace 0

The first call configures and builds the simulator library plus the
driver (CMake, Release) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls only
re-check the build.  Everything the driver prints goes to standard
output; its last line is the JSON result.  The exit status is the
driver's: nonzero when a check failed or the build did not succeed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["gpu_compute", "fs_launch_storm", "fleet_serve", "record_replay"]
RUN_TIMEOUT_S = 170


def jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures once, then builds incrementally.  Returns the driver path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no simulator sources under %s/src\n" % ROOT)
        return None
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    rc = subprocess.run(
        ["cmake", "--build", bdir, "-j", str(jobs())],
        stdout=sys.stderr,
        stderr=sys.stderr,
    ).returncode
    exe = os.path.join(bdir, "perfbench_driver")
    return exe if rc == 0 and os.path.isfile(exe) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--clients", type=int, default=None,
                    help="fleet_serve connections (default 4)")
    ap.add_argument("--inject", default=None,
                    choices=["corrupt-readback", "flip-log"],
                    help="self-test: make checks fail on purpose")
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    work = os.path.join(bdir, "run")
    os.makedirs(work, exist_ok=True)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           # Relative, so the Unix socket path stays short.
           "--work-dir", os.path.relpath(work, ROOT)]
    if args.clients is not None:
        cmd += ["--clients", str(args.clients)]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: driver timed out\n")
        return 1
    out = proc.stdout.decode(errors="replace")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        valid = False
    if not valid:
        # A crash or a malformed result: show what there was, but never
        # let it pass for a result line.
        sys.stderr.write(out)
        sys.stderr.write("perfbench: driver exited %d without a result\n"
                         % proc.returncode)
        return proc.returncode or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
