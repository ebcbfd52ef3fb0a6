#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload plan|simulate|stream --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The build lands in $CARGO_TARGET_DIR (default .bench_build) under the
repository root; build output goes to stderr. stdout carries the run
record line and, last, the result line:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("plan", "simulate", "stream")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Set-up and teardown take a few seconds; anything past this is a hang.
RUN_SLACK_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir, target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources next to {HERE.name}/ (expected src/)")
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (bdir / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(bdir), "--target", target,
                        "-j", str(os.cpu_count() or 1)],
                       stdout=sys.stderr, check=True)


def source_identity():
    """`git describe` where there is a repository, else a hash of the
    sources the benchmark builds."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def validate_result(line):
    """The contract's result line, or None if `line` is not one."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    if not isinstance(result["correct"], bool):
        return None
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return None
    if result["attempted"] < 1 or not isinstance(result["metrics"], dict):
        return None
    for metric in result["metrics"].values():
        if set(metric) != {"value", "unit"}:
            return None
    return result


def selftest(bdir):
    build(bdir, "perfbench_tests")
    build(bdir, "perfbench")
    code = subprocess.run([str(bdir / "perfbench_tests")]).returncode
    env = dict(os.environ, PERFBENCH_BIN=str(bdir / "perfbench"))
    code |= subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                            str(HERE / "tests"), "-p", "test_*.py"],
                           env=env).returncode
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    bdir = build_dir()
    if args.selftest:
        return selftest(bdir)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build(bdir, "perfbench")
    command = [str(bdir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--tmp-dir", str(bdir / "tmp"),
               "--commit", source_identity()]
    if args.trace:
        traces = bdir / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {args.seconds + RUN_SLACK_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines or validate_result(lines[-1]) is None:
        sys.stderr.write(run.stdout)
        fail(f"benchmark exited {run.returncode} without a valid result line")
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
