#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. Builds the sbqa library and the perfbench
driver from source with CMake into $CARGO_TARGET_DIR (default
.bench_build), then runs one workload. The driver's last stdout line is
the JSON result; build output goes to stderr. --selftest builds and runs
the tests of the benchmark's own statistics instead.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
BUILD_TYPE = "RelWithDebInfo"


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = REPO_ROOT / target
    return target / "perfbench"


def build(target: str) -> Path:
    """Configures (once) and builds `target`; returns the build directory."""
    if not (REPO_ROOT / "CMakeLists.txt").is_file() or not (REPO_ROOT / "src").is_dir():
        sys.exit(f"perfbench: no sbqa sources at {REPO_ROOT}; run from a full checkout")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target", target],
                   check=True, stdout=sys.stderr)
    return out


def commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(REPO_ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True).stdout.strip()
        if Path(top).resolve() != REPO_ROOT:
            return "unknown"
        return subprocess.run(["git", "-C", str(REPO_ROOT), "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["serve_small", "sim_boinc"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        if args.selftest:
            out = build("perfbench_stats_test")
            return subprocess.run([str(out / "perfbench_stats_test")]).returncode
        if args.workload is None:
            parser.error("--workload is required")
        out = build("perfbench")
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    traces = out / "traces"
    traces.mkdir(exist_ok=True)
    command = [str(out / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out-dir", str(traces),
               "--commit", commit()]
    # A run takes about its budget plus set-up; the margin only catches a hang.
    timeout_s = 4 * args.seconds + 60
    try:
        return subprocess.run(command, timeout=timeout_s).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout_s:g} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
