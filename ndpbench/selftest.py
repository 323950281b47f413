#!/usr/bin/env python3
"""Self-test of the benchmark's correctness check.

For every workload, runs one clean pass and one pass with a corrupted
expected answer (--corrupt-oracle), and checks that the clean pass reports
correct with ok_frac 1 and exactly the end-to-end metrics BENCHMARK.json
names, while the corrupted pass reports a failed operation and ok_frac
below 1. Run from the repository root:

    python3 ndpbench/selftest.py [workload ...]
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["scan-bulk", "serve-ranges", "update-lookup", "query-plans"]


def result(workload, extra):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", "0"] + extra
    out = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(workloads):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as spec:
        declared = {(m["name"], m["unit"])
                    for m in json.load(spec)["end_to_end"]}
    ok = True
    for workload in workloads:
        clean = result(workload, [])
        corrupt = result(workload, ["--corrupt-oracle"])
        printed = {(name, m["unit"]) for name, m in clean["metrics"].items()}
        clean_ok = (clean["correct"] and clean["failed"] == 0 and
                    clean["metrics"]["ok_frac"]["value"] == 1 and
                    printed == declared)
        corrupt_ok = (not corrupt["correct"] and corrupt["failed"] > 0 and
                      corrupt["metrics"]["ok_frac"]["value"] < 1)
        print(f"{workload}: clean {'ok' if clean_ok else 'FAIL'}, "
              f"corrupted oracle {'caught' if corrupt_ok else 'MISSED'} "
              f"({corrupt['failed']} of {corrupt['attempted']} failed)")
        ok = ok and clean_ok and corrupt_ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or WORKLOADS))
