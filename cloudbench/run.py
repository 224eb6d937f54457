#!/usr/bin/env python3
"""Build and run the cloudmc benchmark.

Usage (from the repository root):

    python3 cloudbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds cloudbench/ (a standalone CMake project that compiles
the repository's src/ into a private library) under the build directory,
then runs the benchmark binary. Its last stdout line is one JSON object with
the keys "correct", "attempted", "failed" and "metrics"; this script checks
that it is there and exits non-zero otherwise. Build output goes to stderr.

The build directory is $CARGO_TARGET_DIR when set (relative paths are taken
from the repository root), else .bench_build; everything the benchmark
writes stays under it.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "cloudbench")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "cloudbench")


def build(out_dir):
    """Configure once, then build; returns the binary's path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "cloudbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    exe = os.path.join(out_dir, "cloudbench")
    return exe if os.path.exists(exe) else None


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = res.stdout.strip()
    return sha if res.returncode == 0 and len(sha) == 40 else "unknown"


def source_digest():
    """sha256 over the library sources, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("cloudbench: no src/ next to cloudbench/", file=sys.stderr)
        return 1
    out_dir = build_dir()
    exe = build(out_dir)
    if exe is None:
        print("cloudbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--git-sha", git_sha(),
           "--src-digest", source_digest()]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("cloudbench: run timed out", file=sys.stderr)
        return 1
    lines = res.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if res.returncode != 0 or not ok:
        sys.stderr.write(res.stdout)
        print("cloudbench: benchmark exited %d without a result"
              % res.returncode, file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
