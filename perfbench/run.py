#!/usr/bin/env python3
"""Build and run the coupled-workflow benchmark.

    python3 perfbench/run.py --workload modeled_sweep|live_insitu|live_intransit \
        --seed N --seconds S --trace 0|1 [--pins FILE] [--print-pins]

Run from the repository root. The script configures and builds perfbench/
(which compiles the library from src/) with CMake into the directory named
by $CARGO_TARGET_DIR (default .bench_build), then runs one workload in the
xlbench binary. The last line of standard output is the result JSON:
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the spans go
to <build dir>/perfbench/trace/<workload>-seed<N>.jsonl.

Exits non-zero, without printing a result, when the build fails; exits
non-zero after printing the result when an output check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The harness may overrun --seconds by one unit of work (a few seconds) plus
# its checks; past this margin the run is abandoned without a result.
RUN_MARGIN_S = 60


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    configure = ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (bdir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", str(bdir), "--parallel", "3"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return bdir / "xlbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pins", default=str(HERE / "pins.txt"))
    args, extra = parser.parse_known_args()

    bdir = build_dir()
    exe = build(bdir)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--pins", args.pins]
    if args.trace:
        spans = bdir / "trace" / f"{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd + extra, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: xlbench ran past {args.seconds + RUN_MARGIN_S:.0f} s "
                 "and was stopped without a result")
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.exit(f"perfbench: xlbench exited {proc.returncode} without a result")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
