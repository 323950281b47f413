#!/usr/bin/env python3
"""Self-test of check_bench_regression.py against the committed rule table.

Builds a fixture baseline and results from bench/baseline.json (plus the
wall-clock rows the baseline leaves out), then asserts that clean input
passes, that every rule fails just past its limit (naming the rule) and
passes just inside it, that unclaimed rows, missing rows, missing
benches and growth off a zero baseline fail, that a scale mismatch exits
2, and that --update keeps the rules.

Usage: bench_guard_selftest.py bench/baseline.json
"""

import copy
import json
import pathlib
import subprocess
import sys
import tempfile

TOOLS = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))
import check_bench_regression as guard  # noqa: E402

EPS = 1e-6
# Same-run rows the baseline never stores (fig7_scan's wall-clock series).
WALL_CLOCK = {"fig7_scan": {
    "sim_throughput|exact": {"value": 1.0e6, "unit": "cyc/s"},
    "sim_throughput|fast": {"value": 1.0e7, "unit": "cyc/s"},
    "sim_throughput|speedup": {"value": 10.0, "unit": "ratio"},
    "load_throughput|generator": {"value": 1.0e8, "unit": "rec/s"},
    "load_throughput|refs": {"value": 1.5e7, "unit": "rec/s"},
    "load_throughput|ratio": {"value": 0.15, "unit": "ratio"},
}}


def run(baseline, results, *args):
    """Runs the checker on fixture files; returns (exit code, stdout)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        baseline_path = tmp / "baseline.json"
        baseline_path.write_text(json.dumps(baseline))
        for bench, rows in results.items():
            out = [{"series": key.partition("|")[0],
                    "x": key.partition("|")[2], **row}
                   for key, row in rows.items()]
            (tmp / f"BENCH_{bench}.json").write_text(
                json.dumps({"bench": bench, "rows": out}))
        if "--scale" not in args:
            args += ("--scale", str(baseline["scale"]))
        proc = subprocess.run(
            [sys.executable, str(TOOLS / "check_bench_regression.py"),
             "--baseline", str(baseline_path), "--results", str(tmp), *args],
            capture_output=True, text=True)
        if "--update" in args:
            return proc.returncode, json.loads(baseline_path.read_text())
        return proc.returncode, proc.stdout


def expect(label, outcome, code, text=None):
    rc, out = outcome
    if rc != code or (text is not None and text not in out):
        print(f"FAIL {label}: exit {rc}, wanted {code}"
              + (f" with {text!r}" if text else "") + f"\n{out}")
        sys.exit(1)
    print(f"ok   {label}")


def with_value(baseline, results, bench, key, value, in_baseline=False):
    base, res = copy.deepcopy(baseline), copy.deepcopy(results)
    res[bench][key]["value"] = value
    if in_baseline and key in base["benches"][bench]:
        base["benches"][bench][key]["value"] = value
    return base, res


def change_cases(rule, baseline, results):
    """(bench, key, bound, past, inside) for the first nonzero row a change
    or equal rule claims."""
    for bench, rows in sorted(baseline["benches"].items()):
        for key, row in sorted(rows.items()):
            base = row["value"]
            if guard.claimant(baseline["rules"], key, row["unit"]) is not rule:
                continue
            if rule["kind"] == "equal":
                return bench, key, "baseline", base + 1, base
            if base == 0:
                continue
            if rule["better"] == "lower":
                limit = base / (1.0 - rule["limit"])
                return (bench, key, "limit", limit * (1 + EPS),
                        limit * (1 - EPS))
            limit = base * (1.0 - rule["limit"])
            return bench, key, "limit", limit * (1 - EPS), limit * (1 + EPS)
    raise AssertionError(f"rule {rule['name']} claims no nonzero row")


def ratio_cases(rule, results):
    """[(bench, numerator key, bound, past, inside)] for the first pair a
    ratio rule selects, one per bound."""
    for bench, rows in sorted(results.items()):
        for key, row in sorted(rows.items()):
            if not guard.selects(rule, key, row["unit"]):
                continue
            num = rule.get("of", key)
            den = rows[rule["over"].replace("*", guard.stem(rule["rows"],
                                                              key))]["value"]
            cases = []
            if "max" in rule:
                high = rule["max"]
                if rule.get("plus_share"):
                    share = float(num.partition("|")[2])
                    high += share / (1.0 - share)
                cases.append((bench, num, "max", den * high * (1 + EPS),
                              den * high * (1 - EPS)))
            if "min" in rule:
                low = rule["min"]
                cases.append((bench, num, "min", den * low * (1 - EPS),
                              den * low * (1 + EPS)))
            return cases
    raise AssertionError(f"rule {rule['name']} selects no row")


def main():
    committed = json.loads(pathlib.Path(sys.argv[1]).read_text())
    baseline = {"scale": committed["scale"], "rules": committed["rules"],
                "benches": committed["benches"]}
    results = copy.deepcopy(baseline["benches"])
    for bench, rows in WALL_CLOCK.items():
        results[bench].update(copy.deepcopy(rows))

    expect("clean input passes", run(baseline, results), 0)

    for rule in baseline["rules"]:
        if rule["kind"] == "ratio":
            cases = ratio_cases(rule, results)
        else:
            cases = [change_cases(rule, baseline, results)]
        for bench, key, bound, past, inside in cases:
            ratio = rule["kind"] == "ratio"
            label = f"{rule['name']}: {bench} {key} just"
            expect(f"{label} past the {bound}",
                   run(*with_value(baseline, results, bench, key, past,
                                   ratio)), 1, f"[{rule['name']}]")
            expect(f"{label} inside the {bound}",
                   run(*with_value(baseline, results, bench, key, inside,
                                   ratio)), 0)

    bench, rows = sorted(results.items())[0]
    key = sorted(rows)[0]

    unclaimed = copy.deepcopy(results)
    unclaimed[bench]["stray|row"] = {"value": 1.0, "unit": "furlongs"}
    expect("an unclaimed row fails", run(baseline, unclaimed), 1,
           "[unclaimed]")

    missing_row = copy.deepcopy(results)
    del missing_row[bench][key]
    expect("a baseline row missing from the results fails",
           run(baseline, missing_row), 1, "missing from results")

    missing_bench = copy.deepcopy(results)
    del missing_bench[bench]
    expect("a missing bench fails", run(baseline, missing_bench), 1,
           f"no BENCH_{bench}.json")

    zero = next((bench, key) for bench, rows in
                sorted(baseline["benches"].items())
                for key, row in sorted(rows.items())
                if row["value"] == 0
                and guard.claimant(baseline["rules"], key, row["unit"])
                .get("better") == "lower")
    expect(f"{zero[0]} {zero[1]} moving off a zero baseline fails",
           run(*with_value(baseline, results, *zero, 1.0)), 1,
           "off a zero baseline")

    expect("a scale mismatch exits 2",
           run(baseline, results, "--scale", str(baseline["scale"] * 2)), 2)

    rc, updated = run(baseline, results, "--update")
    if rc != 0 or updated["rules"] != baseline["rules"] \
            or updated["benches"] != baseline["benches"]:
        print("FAIL --update must keep the rules and store exactly the "
              "claimed rows")
        sys.exit(1)
    print("ok   --update keeps the rules and leaves wall-clock rows out")
    return 0


if __name__ == "__main__":
    sys.exit(main())
