#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload math_7B_128gpu --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) and is incremental, so only the first run in a checkout pays
for compiling the simulator. Build output goes to stderr; the benchmark's
stdout, whose last line is the JSON result, passes through unchanged. Exits
non-zero, printing no result, when the checkout has no simulator sources or
the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no simulator sources (src/) next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir],
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--parallel", jobs],
                   stdout=sys.stderr, env=env, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as err:
        sys.exit("perfbench: build failed: %s" % err)
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
