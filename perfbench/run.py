#!/usr/bin/env python3
"""Builds the benchmark against the repository's library and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds into
$CARGO_TARGET_DIR (default .bench_build); later runs only check the build.
The last line of stdout is the benchmark's JSON result; build output goes
to stderr.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("flights-serve", "flights-ingest", "particles-summary")
RUN_TIMEOUT_S = 170


def build(root: Path, build_dir: Path) -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "entropydb_perfbench"],
        check=True, stdout=sys.stderr)
    return build_dir / "entropydb_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    os.chdir(root)
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    # Compiler temporaries stay inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    proc = subprocess.Popen(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace],
        stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        # The driver's scratch directory, in case the run died before its
        # own clean-up.
        shutil.rmtree(root / ".bench_run" / f"{args.workload}-{proc.pid}",
                      ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: run failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    try:
        json.loads(lines[-1])
    except ValueError:
        print("perfbench: last output line is not JSON", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
