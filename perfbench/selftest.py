#!/usr/bin/env python3
"""Self-tests for the end-to-end benchmark.

Run from the root of the repository (takes about two minutes):

    python3 perfbench/selftest.py

Checks that
  * a seeded corrupt readback makes every workload fail its run: exit
    status 1, "correct": false, failed > 0 and ok_frac below 1;
  * a replay log with one flipped byte counts as failed chains, not a
    crash;
  * two runs at the same seed print the same simulated-statistics digest;
  * the traced run prints every per-layer metric of BENCHMARK.json, in
    order and with its unit, and its layer shares add up to 1;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits nonzero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["gpu_compute", "fs_launch_storm", "fleet_serve", "record_replay"]

failures = []


def run(args, cwd=ROOT, env=None):
    p = subprocess.run([sys.executable, RUN] + args, cwd=cwd, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       timeout=600)
    out = p.stdout.decode().rstrip("\n").split("\n")
    result = None
    if out and out[-1].startswith("{"):
        result = json.loads(out[-1])
    return p.returncode, out, result


def check(cond, what):
    print("%s  %s" % ("ok  " if cond else "FAIL", what), flush=True)
    if not cond:
        failures.append(what)


def digest(out):
    return [line for line in out if line.startswith("digest ")]


def main():
    for wl in WORKLOADS:
        rc, out, res = run(["--workload", wl, "--seed", "3", "--seconds", "2",
                            "--trace", "0", "--inject", "corrupt-readback"])
        check(rc == 1 and res is not None and not res["correct"]
              and res["failed"] > 0
              and res["metrics"]["ok_frac"]["value"] < 1,
              "%s: corrupt readback fails the run (rc=%d)" % (wl, rc))

    rc, out, res = run(["--workload", "record_replay", "--seed", "3",
                        "--seconds", "2", "--trace", "0",
                        "--inject", "flip-log"])
    check(rc == 1 and res is not None and res["failed"] > 0,
          "record_replay: flipped log byte counts as failed (rc=%d)" % rc)

    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    want = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    for wl in WORKLOADS:
        # A traced run needs one untraced and one traced round: a
        # gpu_compute round is 18 kernel runs, a record_replay round one
        # batch, each about a second or more.
        secs = "4" if wl in ("gpu_compute", "record_replay") else "1"
        rc1, out1, _ = run(["--workload", wl, "--seed", "9", "--seconds",
                            "1", "--trace", "0"])
        rc2, out2, res = run(["--workload", wl, "--seed", "9", "--seconds",
                              secs, "--trace", "1"])
        check(rc1 == 0 and rc2 == 0 and digest(out1)
              and digest(out1) == digest(out2),
              "%s: same seed, same digest" % wl)
        got = [(k, v["unit"]) for k, v in res["metrics"].items()]
        check(got == want, "%s: traced run prints the per-layer set" % wl)
        shares = sum(v["value"] for k, v in res["metrics"].items()
                     if k.startswith("share."))
        check(abs(shares - 1) < 1e-6,
              "%s: layer shares sum to 1 (%.9f)" % (wl, shares))

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    bare = os.path.join(base, "perfbench-selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "fs_launch_storm", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       timeout=170)
    check(p.returncode != 0 and not p.stdout.strip(),
          "bare directory: nonzero exit, no result (rc=%d)" % p.returncode)
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
