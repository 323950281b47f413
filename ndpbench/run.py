#!/usr/bin/env python3
"""Builds ndpgen's benchmark program from source and runs one workload.

Usage (from the repository root):

    python3 ndpbench/run.py --workload scan-bulk --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/ndpbench (default .bench_build/ndpbench);
build output goes to stderr. The program's stdout passes through, so the last
line of stdout is its JSON result. See ndpbench/README.md for the workloads
and metrics.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the ndpbench target; True on success."""
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", build_dir, "--target", "ndpbench",
                   "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr,
                          env=env).returncode == 0


def main(argv):
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "ndpbench")
    if not build(build_dir):
        print("ndpbench: build failed", file=sys.stderr)
        return 2
    command = [os.path.join(build_dir, "ndpbench")] + argv
    if "--trace" in argv and "--trace-out" not in argv:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "-".join(argv[i + 1] for i, flag in enumerate(argv[:-1])
                        if flag in ("--workload", "--seed"))
        command += ["--trace-out", os.path.join(traces, name + ".json")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
