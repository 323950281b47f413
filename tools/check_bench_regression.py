#!/usr/bin/env python3
"""Guard bench results with the rule table in bench/baseline.json.

Benches write BENCH_<name>.json files of (series, x, value, unit) rows;
a row's key is "<series>|<x>". The baseline holds an ordered list of
rules plus the rows they compare against:

  {"scale": 2048,
   "rules": [{"name": ..., "kind": ..., "rows": ..., "units": [...], ...}],
   "benches": {"<bench>": {"<series>|<x>": {"value": v, "unit": u}}}}

A rule selects rows by "rows", a key pattern with at most one "*", and
by "units"; an absent selector matches every row. Each row is claimed by
the first "change" or "equal" rule that selects it; those rows are
exactly the baseline's rows:

  change  bounded change against the baseline. "better": "lower" fails
          when new > base / (1 - limit) (and on any growth off a zero
          baseline); "better": "higher" fails when new < base * (1 - limit).
  equal   the value must equal the baseline.

A "ratio" rule divides each results row it selects (or the fixed "of"
row) by its partner "over" in the same run, where "*" stands for what
the row's "*" matched, and fails outside ["min", "max"]. With
"plus_share" the max grows by share/(1-share), share being the row's x.
Ratio rules read the results only: they check rows a change/equal rule
also claims, and claim the rows no such rule selects (the wall-clock
rows, which never enter the baseline).

Every one of these fails the check (exit 1): a rule past its limit, a
row no rule claims, a baseline row missing from the results, a claimed
row missing from the baseline, a missing bench, a missing ratio partner,
and a rule that selects no row at all. Exit 2 means no results or a
scale mismatch.

Usage:
  check_bench_regression.py --baseline bench/baseline.json --results DIR \
      --scale 2048
  check_bench_regression.py --baseline bench/baseline.json --results DIR \
      --scale 2048 --update   # rewrite the rows, keep the rules
"""

import argparse
import json
import pathlib
import sys


def load_results(results_dir):
    benches = {}
    for path in sorted(pathlib.Path(results_dir).glob("BENCH_*.json")):
        data = json.loads(path.read_text())
        benches[data["bench"]] = {
            f"{row['series']}|{row['x']}": {"value": row["value"],
                                            "unit": row.get("unit", "")}
            for row in data["rows"]}
    return benches


def stem(pattern, key):
    """What the pattern's "*" matched in key ("" for a literal match), or
    None when the key does not match."""
    prefix, star, suffix = pattern.partition("*")
    if not star:
        return "" if key == pattern else None
    if (len(key) >= len(prefix) + len(suffix) and key.startswith(prefix)
            and key.endswith(suffix)):
        return key[len(prefix):len(key) - len(suffix)]
    return None


def selects(rule, key, unit):
    return ((rule.get("rows") is None or stem(rule["rows"], key) is not None)
            and unit in rule.get("units", [unit]))


def claimant(rules, key, unit):
    """The rule that owns a row: the first change/equal rule selecting it,
    else the first ratio rule selecting it, else None."""
    selecting = [rule for rule in rules if selects(rule, key, unit)]
    for rule in selecting:
        if rule["kind"] != "ratio":
            return rule
    return selecting[0] if selecting else None


def describe(rule):
    if rule["kind"] == "equal":
        return "equal to baseline"
    if rule["kind"] == "change":
        word = "growth" if rule["better"] == "lower" else "drop"
        return f"{word} <= {rule['limit']:.0%}"
    bounds = [f">= {rule['min']:g}"] if "min" in rule else []
    if "max" in rule:
        bounds.append(f"<= {rule['max']:g}"
                      + (" + share/(1-share)" if rule.get("plus_share")
                         else ""))
    return f"ratio to {rule['over']} " + " and ".join(bounds)


def check_change(rule, base, new):
    """Failure text for one claimed row, or None when it holds."""
    if rule["kind"] == "equal":
        return None if new == base else f"{new:g} != baseline {base:g}"
    limit = rule["limit"]
    if rule["better"] == "lower":
        if base == 0:
            return None if new <= 0 else f"{new:g} off a zero baseline"
        if new > base / (1.0 - limit):
            return (f"{new:g} vs baseline {base:g} "
                    f"(+{new / base - 1.0:.1%} > {limit:.0%})")
        return None
    if new < base * (1.0 - limit):
        return (f"{new:g} vs baseline {base:g} "
                f"(-{1.0 - new / base:.1%} > {limit:.0%})")
    return None


def check_ratio(rule, num, den, x):
    if den <= 0:
        return f"partner value {den:g} is not positive"
    ratio = num / den
    high = rule.get("max")
    if high is not None and rule.get("plus_share"):
        share = float(x)
        high += share / (1.0 - share)
    if ratio < rule.get("min", ratio) or (high is not None and ratio > high):
        return f"{num:g} / {den:g} = {ratio:.4g}x"
    return None


def run_rules(rules, baseline, results):
    """Returns (per-rule checked counts, failure lines)."""
    checked = {rule["name"]: 0 for rule in rules}
    failures = []

    def fail(bench, key, rule, text):
        failures.append(f"{bench} {key}: {text} [{rule}]")

    for bench in sorted(set(baseline) | set(results)):
        if bench not in results:
            fail(bench, "", "results", f"no BENCH_{bench}.json")
            continue
        base_rows, new_rows = baseline.get(bench, {}), results[bench]
        for key in sorted(set(base_rows) | set(new_rows)):
            unit = new_rows.get(key, base_rows.get(key))["unit"]
            rule = claimant(rules, key, unit)
            if rule is None:
                fail(bench, key, "unclaimed", f"no rule claims unit {unit!r}")
            elif rule["kind"] == "ratio":
                if key in base_rows:
                    fail(bench, key, rule["name"],
                         "same-run row stored in the baseline")
            elif key not in new_rows:
                fail(bench, key, rule["name"], "missing from results")
            elif key not in base_rows:
                fail(bench, key, rule["name"], "missing from baseline")
            else:
                checked[rule["name"]] += 1
                text = check_change(rule, base_rows[key]["value"],
                                    new_rows[key]["value"])
                if text:
                    fail(bench, key, rule["name"], text)

        for rule in rules:
            if rule["kind"] != "ratio":
                continue
            pairs = set()
            for key, row in new_rows.items():
                if selects(rule, key, row["unit"]):
                    star = stem(rule["rows"], key)
                    pairs.add((rule.get("of", key),
                               rule["over"].replace("*", star)))
            for of, over in sorted(pairs):
                checked[rule["name"]] += 1
                if of not in new_rows or over not in new_rows:
                    fail(bench, of, rule["name"],
                         f"needs rows {of} and {over}")
                    continue
                text = check_ratio(rule, new_rows[of]["value"],
                                   new_rows[over]["value"],
                                   of.partition("|")[2])
                if text:
                    fail(bench, of, rule["name"], text)
    return checked, failures


def dump_baseline(baseline):
    """One rule and one row per line, so a diff shows exactly what moved."""
    rules = ",\n  ".join(json.dumps(rule) for rule in baseline["rules"])
    benches = ",\n  ".join(
        f"{json.dumps(bench)}: {{\n   " + ",\n   ".join(
            f"{json.dumps(key)}: {json.dumps(row, sort_keys=True)}"
            for key, row in sorted(rows.items())) + "\n  }"
        for bench, rows in sorted(baseline["benches"].items()))
    return (f'{{\n "scale": {baseline["scale"]},\n "rules": [\n  {rules}\n'
            f' ],\n "benches": {{\n  {benches}\n }}\n}}\n')


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--results", required=True,
                        help="directory holding BENCH_*.json files")
    parser.add_argument("--scale", type=int, default=None,
                        help="NDPGEN_SCALE the results were produced at "
                             "(recorded with --update, checked otherwise)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline rows from the results, "
                             "keeping the rules")
    args = parser.parse_args()

    results = load_results(args.results)
    if not results:
        print(f"error: no BENCH_*.json files in {args.results}")
        return 2
    baseline_path = pathlib.Path(args.baseline)
    baseline = json.loads(baseline_path.read_text())
    rules = baseline["rules"]

    if args.update:
        if args.scale is not None:
            baseline["scale"] = args.scale
        baseline["benches"] = {
            bench: {key: row for key, row in rows.items()
                    if (claimant(rules, key, row["unit"]) or {}).get("kind")
                    in ("change", "equal")}
            for bench, rows in results.items()}
        baseline_path.write_text(dump_baseline(baseline))
        count = sum(len(rows) for rows in baseline["benches"].values())
        print(f"wrote {baseline_path} ({len(results)} benches, {count} rows, "
              f"{len(rules)} rules)")
        return 0

    if args.scale is not None and args.scale != baseline["scale"]:
        print(f"error: results at scale {args.scale} cannot be compared "
              f"against a scale-{baseline['scale']} baseline")
        return 2

    checked, failures = run_rules(rules, baseline["benches"], results)
    for rule in rules:
        count = checked[rule["name"]]
        unit = "pairs" if rule["kind"] == "ratio" else "rows"
        print(f"{rule['name']:>15}: {count:3} {unit:5} {describe(rule)}")
        if count == 0:
            failures.append(f"rule {rule['name']} selects no row")
    if failures:
        print(f"\n{len(failures)} failure(s):")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print(f"no regressions against {baseline_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
