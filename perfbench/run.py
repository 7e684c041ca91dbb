#!/usr/bin/env python3
"""Builds the benchmark driver from the checkout's sources and runs it.

Run from the root of the repository:

    python3 perfbench/run.py --workload nexmark-n1 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --quick

The first form runs one workload and passes the driver's output through; its
last line is the JSON result. `--quick` runs every workload briefly, untraced
and traced, with every correctness check, and exits non-zero on any mismatch
or failed operation.

The build goes to $CARGO_TARGET_DIR when set, else to .bench_build, relative
to the repository root. Run-time files (checkpoints, write-ahead logs, Chrome
traces) stay under that directory.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["nexmark-n1", "server-durable"]
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"{root} holds no engine sources (CMakeLists.txt and src/)")
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = [
            "cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
            "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
        ]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench",
                   "-j", BUILD_JOBS]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def run_driver(binary, work, args):
    cmd = [str(binary), "--workdir", str(work)] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s: {' '.join(args)}")
    return proc.returncode, proc.stdout


def quick(binary, work):
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, out = run_driver(binary, work, [
                "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", trace, "--quick"])
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            good = (code == 0 and result.get("correct") is True
                    and result.get("failed") == 0)
            print(f"{workload} trace={trace}: "
                  f"{'ok' if good else 'FAILED'} "
                  f"(attempted={result.get('attempted')}, "
                  f"failed={result.get('failed')}, "
                  f"metrics={len(result.get('metrics', {}))})")
            ok = ok and good
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if not args.quick and args.workload is None:
        parser.error("--workload is required (or --quick)")

    root = Path.cwd()
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(root, build_dir)
    work = build_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    if args.quick:
        return quick(binary, work)
    code, out = run_driver(binary, work, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace])
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
