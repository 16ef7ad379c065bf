#!/usr/bin/env python3
"""Builds and runs the groupfel end-to-end benchmark.

    python3 perfbench/run.py --workload round_mlp --seed 1 --seconds 25 \
        --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (the groupfel libraries from src/ plus the groupfel_perf binary,
Release) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later calls only rebuild what changed. The binary's output is passed
through: its last stdout line is the JSON result. `--workload all` runs
every workload, each in its own process. Exits non-zero if the build
fails, the binary fails a check, or it overruns its time limit.
Other arguments (--toy) go to the binary unchanged; see
perfbench/README.md for the workloads and metrics.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
        return proc.returncode == 0
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return False


def build():
    """Configures (once) and builds groupfel_perf; returns its path or None."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", bdir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    compile_ = ["cmake", "--build", bdir, "--target", "groupfel_perf",
                "-j", jobs]
    with open(os.path.join(os.path.dirname(bdir), ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for attempt in range(2):
            if attempt == 1:  # stale tree from another checkout: start over
                shutil.rmtree(bdir, ignore_errors=True)
                os.makedirs(bdir, exist_ok=True)
            configured = os.path.exists(os.path.join(bdir, "CMakeCache.txt"))
            if (configured or run_quiet(configure, BUILD_TIMEOUT_S)) and \
                    run_quiet(compile_, BUILD_TIMEOUT_S):
                return os.path.join(bdir, "groupfel_perf")
            if not configured:
                break  # a fresh configure failed: retrying will not help
    return None


def run_binary(binary, workload, args, rest):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd + rest, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"groupfel_perf exceeded {RUN_TIMEOUT_S} s")
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' to run "
                             "each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, rest = parser.parse_known_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    workloads = [args.workload]
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    status = 0
    for workload in workloads:
        status = run_binary(binary, workload, args, rest) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
