#!/usr/bin/env python3
"""Run one workload of the LEAPS benchmark.

    python3 leapsbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Builds the benchmark package (leapsbench/CMakeLists.txt, which compiles the
repository's src/ with it) into $CARGO_TARGET_DIR/leapsbench, default
.bench_build/leapsbench, then runs the leaps_bench binary from the
repository root. It prints its metrics and, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics. The exit status is the binary's: 0 when every correctness
gate passed, non-zero otherwise. Build output goes to standard error.

Workloads (see leapsbench/README.md): train_putty20k, serve_fleet,
serve_churn.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_putty20k", "serve_fleet", "serve_churn")
BUILD_JOBS = "4"
# A run must end within 180 s; stop a hung one before that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "leapsbench"


def run_quiet(cmd, env, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("leapsbench: build step timed out: %s" % " ".join(cmd),
              file=sys.stderr)
        return False
    return done.returncode == 0


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("leapsbench: no LEAPS sources at %s" % (ROOT / "src"),
              file=sys.stderr)
        return None
    out.mkdir(parents=True, exist_ok=True)
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (out / "CMakeCache.txt").is_file():
        if not run_quiet(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], env,
                         BUILD_TIMEOUT_S):
            return None
    if not run_quiet(["cmake", "--build", str(out), "-j", BUILD_JOBS], env,
                     BUILD_TIMEOUT_S):
        return None
    binary = out / "leaps_bench"
    return binary if binary.is_file() else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be within 1..600")

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    env = dict(os.environ, TMPDIR=str(out / "tmp"))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("leapsbench: %s timed out after %d s"
              % (args.workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if done.returncode != 0:
        return done.returncode
    if not isinstance(result, dict) or result.get("correct") is not True:
        print("leapsbench: no passing result line", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
