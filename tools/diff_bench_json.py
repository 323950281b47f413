#!/usr/bin/env python3
"""Diff two BENCH_*.json files row-by-row, optionally ignoring series.

The sim-equivalence CI job runs the same bench once per sim mode
(NDPGEN_SIM_MODE=exact / fast) and requires every virtual-time row to be
byte-identical between the two runs. Rows measuring *wall-clock* sim
throughput (series "sim_throughput") legitimately differ — that gap is
the whole point of fast mode's fused chunk replay — so they are
excluded with --ignore-series.

Usage:
  diff_bench_json.py A.json B.json [--ignore-series sim_throughput ...]

Exit code 0 when all compared rows match exactly, 1 otherwise.
"""

import argparse
import json
import sys


def rows_of(path, ignored):
    with open(path) as fp:
        data = json.load(fp)
    return {
        f"{row['series']}|{row['x']}": (row["value"], row.get("unit", ""))
        for row in data["rows"]
        if row["series"] not in ignored
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--ignore-series", nargs="*", default=[],
                        help="series names excluded from the comparison")
    args = parser.parse_args()

    ignored = set(args.ignore_series)
    a = rows_of(args.a, ignored)
    b = rows_of(args.b, ignored)

    failures = []
    for key in sorted(set(a) | set(b)):
        if key not in a:
            failures.append(f"row {key} only in {args.b}")
        elif key not in b:
            failures.append(f"row {key} only in {args.a}")
        elif a[key] != b[key]:
            failures.append(f"row {key}: {a[key]} != {b[key]}")

    if failures:
        print(f"{args.a} vs {args.b}: {len(failures)} mismatch(es):")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print(f"{args.a} vs {args.b}: {len(a)} rows identical"
          + (f" (ignored series: {', '.join(sorted(ignored))})"
             if ignored else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
