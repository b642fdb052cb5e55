#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark described in RATIONALE.md.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_sql --seed 1 --seconds 25 --trace 0

--workload is serve_sql, batch_sql, xplat_etl, or `all` (each in turn).
Every run configures and builds the library and the benchmark from
source (CMake, Release) into the build directory, $CARGO_TARGET_DIR when
set, else .bench_build; after the first run this rebuilds only what
changed. Each run
prints one line per metric and, last, a one-line JSON result; the exit
code is non-zero on a build failure, a wrong result or a reconciliation
mismatch.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

WORKLOADS = ["serve_sql", "batch_sql", "xplat_etl"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(source_dir, build_dir):
    """Configures and builds the benchmark target; False on failure."""
    os.makedirs(build_dir, exist_ok=True)
    # Serializes concurrent runs sharing one build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        steps = [["cmake", "-S", source_dir, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"]]
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                log(f"build step failed: {e}")
                return False
            if done.returncode != 0:
                log(f"build step failed: {' '.join(cmd)}")
                return False
    return True


def run_one(binary, build_dir, workload, args):
    work_dir = os.path.join(build_dir, f"work-{os.getpid()}-{workload}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S}s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        log(f"{workload} exited with code {done.returncode}")
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(source_dir, build_dir):
        return 1
    binary = os.path.join(build_dir, "perfbench")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        status = run_one(binary, build_dir, workload, args) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
