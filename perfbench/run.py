#!/usr/bin/env python3
"""Builds and runs the serving benchmark (perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (which compiles the library
from src/) with CMake into the build directory: $CARGO_TARGET_DIR when set,
else .bench_build, relative to the repository root. Later runs rebuild
incrementally. Build output goes to stderr; the benchmark's last stdout
line is its JSON result. --trace 1 writes the traced run's spans to
<build>/traces/<workload>-seed<seed>.json unless --trace-out says otherwise.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_cold", "hotspot_moves", "campus_hier")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion and returns its exit code. On a timeout or an
    exception (SIGTERM included) it kills cmd's whole process group, such
    as the compilers of a build, and waits for cmd before re-raising."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def on_sigterm(signum, _frame):
    """Turns SIGTERM into an exception, so run() stops its child first."""
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="span file of the traced run")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = root / build
    to_stderr = {"stdout": sys.stderr.fileno(), "cwd": root}
    steps = (
        ["cmake", "-S", str(root / "perfbench"), "-B", str(build),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build), "--target", "serving_bench",
         "--parallel", "3"],
    )
    for step in steps:
        if run(step, BUILD_TIMEOUT_S, **to_stderr) != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    # Write back what the build left dirty now, so the kernel's writeback
    # does not share the measured phase's vCPU.
    os.sync()

    cmd = [str(build / "serving_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        trace_out = Path(args.trace_out) if args.trace_out else (
            build / "traces" / f"{args.workload}-seed{args.seed}.json")
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_out)]
    sys.stdout.flush()
    return run(cmd, RUN_TIMEOUT_S, cwd=root)


if __name__ == "__main__":
    sys.exit(main())
