#!/usr/bin/env python3
"""Build the slpwlo benchmark and run one workload in its own process.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
library and the perfbench binary (CMake, Release) into .bench_build/; later
runs only check that the build is current. The binary runs with a fresh
SLPWLO_JIT_DIR under .bench_build/ that is removed afterwards. Its last
stdout line, the result object, is checked against the metric lists in
BENCHMARK.json and printed as this script's last line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def build() -> None:
    jobs = str(len(os.sched_getaffinity(0)))
    if not (BUILD / "CMakeCache.txt").exists() or not any(
        (BUILD / f).exists() for f in ("build.ninja", "Makefile")
    ):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)


def check_metrics(result: dict, trace: bool) -> None:
    """The printed metrics must be exactly BENCHMARK.json's list for the mode."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return
    spec = json.loads(spec_path.read_text())
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise SystemExit(f"perfbench: metrics differ from BENCHMARK.json: "
                         f"missing {missing}, extra {extra}, units {units}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper", "corpus", "exact", "farm"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    jit_dir = tempfile.mkdtemp(prefix="jit-", dir=ROOT / ".bench_build")
    try:
        completed = subprocess.run(
            [str(BUILD / "perfbench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, env={**os.environ, "SLPWLO_JIT_DIR": jit_dir},
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(jit_dir, ignore_errors=True)
    if completed.returncode != 0:
        return completed.returncode

    lines = [line for line in completed.stdout.splitlines() if line.strip()]
    if not lines:
        print("perfbench: no result printed", file=sys.stderr)
        return 1
    check_metrics(json.loads(lines[-1]), bool(args.trace))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
