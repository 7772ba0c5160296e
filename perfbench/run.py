#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (the simulator libraries from src/ plus
the rbperf program) as a Release build in .bench_build/, runs the
benchmark's self-test, then replaces itself with rbperf, whose last
stdout line is the JSON result. Build output goes to stderr. Exits
nonzero, without a result line, when the build or the self-test fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def run_quiet(cmd):
    """Run cmd with its output sent to stderr; exit 1 if it fails."""
    rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
    if rc != 0:
        print(f"perfbench: {' '.join(cmd)} failed ({rc})", file=sys.stderr)
        sys.exit(1)


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cfg += ["-G", "Ninja"]
    run_quiet(cfg)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs])
    run_quiet([os.path.join(BUILD, "rbperf_selftest"), "--gtest_brief=1"])

    sys.stdout.flush()
    rbperf = os.path.join(BUILD, "rbperf")
    os.execv(rbperf, [rbperf, *sys.argv[1:], "--git-sha", git_sha()])


if __name__ == "__main__":
    main()
