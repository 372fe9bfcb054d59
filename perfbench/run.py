#!/usr/bin/env python3
"""Sensor benchmark: records/s, per-record latency and retained bytes per call.

Run from the root of a checkout:

    python3 perfbench/run.py --workload call-churn --seed 1 --seconds 30 --trace 0

Builds perfbench/sensor_bench.exe from the checkout's sources (into
.bench_build/), writes the workload's capture and alert oracle for the seed,
then replays the capture through the sensor.  The last line of standard
output is the result object; the line before it lists the run's facts
(seed, record mix, GC settings, OCaml version, nproc, commit, digests).
Exits non-zero when the build fails or the sensor's output is wrong.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time

WORKLOADS = ("call-churn", "media-steady", "hostile-prevent")
BUILD_DIR = os.path.join(".bench_build", "dune")
OUT_DIR = os.path.join(".bench_build", "perfbench")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "sensor_bench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def commit():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            )
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
        )
        for path in sorted(paths):
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def run(cmd, timeout, **kw):
    try:
        return subprocess.run(cmd, timeout=timeout, **kw).returncode
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    except OSError as e:
        fail("cannot run %s: %s" % (cmd[0], e))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a vids checkout (dune-project and lib/ not found)")
    os.makedirs(OUT_DIR, exist_ok=True)
    rc = run(
        ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR), "--profile", "release",
         "--cache=disabled", "./perfbench/sensor_bench.exe"],
        timeout=880, stdout=sys.stderr,
    )
    if rc != 0 or not os.path.isfile(EXE):
        fail("build failed")
    # Everything after the build shares one budget, so a run ends within
    # three minutes of its build.
    deadline = time.monotonic() + 170
    common = ["--workload", a.workload, "--seed", str(a.seed), "--dir", OUT_DIR]
    if run([EXE, "gen"] + common, timeout=60) != 0:
        fail("workload generation failed")
    rc = run(
        [EXE, "run"] + common
        + ["--seconds", str(a.seconds), "--trace", str(a.trace),
           "--nproc", str(len(os.sched_getaffinity(0))), "--commit", commit()],
        timeout=max(1.0, deadline - time.monotonic()),
    )
    sys.exit(rc)


if __name__ == "__main__":
    main()
