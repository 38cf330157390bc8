#!/usr/bin/env python3
"""End-to-end benchmark of the gStoreD engine.

Builds the engine (src/) and the load generator in this directory with CMake,
then runs one workload in its own process:

    python3 perfbench/run.py --workload lubm-prune --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
separate traced replay. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. The build goes to
$CARGO_TARGET_DIR/perfbench (default: .bench_build/perfbench at the repository
root); span files of traced runs go to its traces/ subdirectory.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lubm-prune", "yago-assembly", "lubm-serve")
# Wall-clock limit of one load-generator process, in seconds.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the load generator; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(build_dir, "perfbench_loadgen")
    return binary if os.path.exists(binary) else None


def source_id():
    """The git commit when there is one, else a digest of the src/ tree."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                                ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 1
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id(), "--trace-dir", trace_dir]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"load generator exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1


if __name__ == "__main__":
    sys.exit(main())
