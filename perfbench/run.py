#!/usr/bin/env python3
"""Builds the pipeline benchmark from source and runs one workload.

    python3 perfbench/run.py --workload whole_poly|edit_loop|split_link \
        --seed N --seconds S --trace 0|1

Run it from the repository root; BENCHMARK.json describes the workloads and
metrics. The benchmark is built in Release mode under $CARGO_TARGET_DIR
(default .bench_build) with its own CMake project, which compiles the
libraries it needs from src/. Build output is shown only when the build
fails. A traced run (--trace 1) also writes its spans as a Chrome trace to
<build dir>/traces/. The last line on stdout is the result JSON.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("whole_poly", "edit_loop", "split_link")


def build(bench_dir, build_dir):
    """Configures and builds the perfbench binary; returns its path or None."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", bench_dir, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path, errors="replace") as failed:
                    sys.stderr.write(failed.read()[-8000:])
                return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no libquals sources under %s/src\n" % root)
        return 2
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    binary = build(bench_dir, build_dir)
    if binary is None:
        sys.stderr.write("perfbench: build failed\n")
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
