#!/usr/bin/env python3
"""CI perf gate: checks bench JSON reports against floor/ceiling baselines.

Usage:
    bench_check.py --baselines bench/baselines.json BENCH_foo.json ...
    bench_check.py --baselines bench/baselines.json \\
        --compare REFERENCE.json CANDIDATE.json

Each report file is the output of a bench binary's --json flag:

    {"bench": "bench_qps_recall", "config": {...},
     "metrics": {"must/beam64/qps": 22678.1, ...}, "timestamp": 1720000000}

bench/baselines.json maps bench names to per-metric constraints:

    {"bench_qps_recall": {
        "metrics": {"must/beam64/recall_at_10": {"min": 0.9},
                    "must/beam64/qps": {"min": 1500.0}}}}

A metric listed in the baselines but absent from the report is a failure
(a silently dropped metric must not pass the gate). Reports whose bench
has no baselines entry pass with a note. Exit code 0 = all constraints
hold, 1 = at least one violation (or unreadable input).

A metric's bounds may name config floors below which they do not apply,
e.g. a 4-workers-vs-1 scaling ratio on a runner with fewer than 4
hardware threads:

    "saturation/scaling_4v1": {"min": 2.0,
                               "skip_if_config_below": {"hardware_threads": 4}}

On such a run the metric is skipped with an explicit note. A report that
lacks the named config value, or whose value is not a number, fails,
like a missing metric.

Compare mode gates the *ratio* between two runs of the same bench — e.g.
a scalar-pinned run vs the dispatched SIMD run. The per-bench "ratios"
baseline block names the ns_per_op metrics and the minimum speedup
(reference / candidate):

    {"bench_distance_kernels": {
        "ratios": {
            "skip_if_equal_config": "simd_level",
            "metrics": {"bm_l2sq_128/ns_per_op": {"min_speedup": 1.5}}}}}

When `skip_if_equal_config` names a config key that has the same value in
both reports (e.g. the runner has no AVX2, so both runs resolved to
scalar), the comparison is skipped with an explicit note instead of
failing — the ratio would be meaningless noise at 1.0x.
"""

import argparse
import json
import sys


def config_number(report, key):
    """A config value as a number (benches write config values as
    strings), or None when it is absent or not a number."""
    try:
        return float(report.get("config", {})[key])
    except (KeyError, TypeError, ValueError):
        return None


def config_below_floor(report, bounds):
    """The (key, value, floor) that exempts a metric on this run, or None."""
    for key, floor in sorted(bounds.get("skip_if_config_below", {}).items()):
        value = config_number(report, key)
        if value is not None and value < floor:
            return key, value, floor
    return None


def check_report(report, baseline, out=sys.stdout):
    """Returns a list of violation strings for one report (empty = pass).
    Metrics exempted by a config floor are noted on `out`."""
    violations = []
    bench = report.get("bench", "<unnamed>")
    metrics = report.get("metrics", {})
    for name, bounds in sorted(baseline.get("metrics", {}).items()):
        floors = bounds.get("skip_if_config_below", {})
        missing = [key for key in sorted(floors)
                   if config_number(report, key) is None]
        if missing:
            violations.append(
                f"{bench}: config '{missing[0]}' missing from the report "
                f"or not a number, needed to decide whether {name} is gated")
            continue
        below = config_below_floor(report, bounds)
        if below is not None:
            key, have, floor = below
            print(f"SKIP {bench}: {name} not gated on this host: "
                  f"{key}={have:g} is below {floor:g}", file=out)
            continue
        value = metrics.get(name)
        if value is None:
            violations.append(
                f"{bench}: metric '{name}' missing from the report")
            continue
        lo = bounds.get("min")
        hi = bounds.get("max")
        if lo is not None and value < lo:
            violations.append(
                f"{bench}: {name} = {value:g} below floor {lo:g}")
        if hi is not None and value > hi:
            violations.append(
                f"{bench}: {name} = {value:g} above ceiling {hi:g}")
    return violations


def check_ratios(reference, candidate, ratios, out=sys.stdout):
    """Gates reference/candidate metric ratios. Returns an exit code."""
    bench = reference.get("bench", "<unnamed>")
    if candidate.get("bench") != reference.get("bench"):
        print(f"FAIL compare: bench mismatch "
              f"('{bench}' vs '{candidate.get('bench')}')", file=out)
        return 1
    skip_key = ratios.get("skip_if_equal_config")
    if skip_key is not None:
        ref_val = reference.get("config", {}).get(skip_key)
        cand_val = candidate.get("config", {}).get(skip_key)
        if ref_val == cand_val:
            print(f"SKIP compare: both reports have {skip_key}="
                  f"'{ref_val}' — ratio gate not meaningful on this host",
                  file=out)
            return 0
    violations = []
    checked = 0
    for name, bounds in sorted(ratios.get("metrics", {}).items()):
        ref_val = reference.get("metrics", {}).get(name)
        cand_val = candidate.get("metrics", {}).get(name)
        if ref_val is None or cand_val is None:
            violations.append(
                f"{bench}: metric '{name}' missing from "
                f"{'reference' if ref_val is None else 'candidate'} report")
            continue
        if cand_val <= 0:
            violations.append(
                f"{bench}: {name} candidate value {cand_val:g} "
                "is not positive")
            continue
        speedup = ref_val / cand_val
        checked += 1
        floor = bounds.get("min_speedup")
        if floor is not None and speedup < floor:
            violations.append(
                f"{bench}: {name} speedup {speedup:.2f}x below "
                f"required {floor:g}x ({ref_val:g} -> {cand_val:g})")
        else:
            print(f"  {name}: {speedup:.2f}x "
                  f"({ref_val:g} -> {cand_val:g})", file=out)
    if violations:
        print(f"FAIL compare {bench}:", file=out)
        for v in violations:
            print(f"  {v}", file=out)
        return 1
    print(f"PASS compare {bench}: {checked} ratio constraint(s) hold",
          file=out)
    return 0


def run_compare(baselines_path, ref_path, cand_path, out=sys.stdout):
    """Loads two reports and gates their ratios. Returns an exit code."""
    try:
        with open(baselines_path, encoding="utf-8") as f:
            baselines = json.load(f)
        with open(ref_path, encoding="utf-8") as f:
            reference = json.load(f)
        with open(cand_path, encoding="utf-8") as f:
            candidate = json.load(f)
    except (OSError, ValueError) as e:
        print(f"cannot read inputs: {e}", file=out)
        return 1
    bench = reference.get("bench", "<unnamed>")
    ratios = baselines.get(bench, {}).get("ratios")
    if ratios is None:
        print(f"SKIP compare: no ratio baselines for '{bench}'", file=out)
        return 0
    return check_ratios(reference, candidate, ratios, out=out)


def run(baselines_path, report_paths, out=sys.stdout):
    """Checks every report; returns the process exit code."""
    try:
        with open(baselines_path, encoding="utf-8") as f:
            baselines = json.load(f)
    except (OSError, ValueError) as e:
        print(f"cannot read baselines {baselines_path}: {e}", file=out)
        return 1

    failed = False
    for path in report_paths:
        try:
            with open(path, encoding="utf-8") as f:
                report = json.load(f)
        except (OSError, ValueError) as e:
            print(f"FAIL {path}: unreadable report: {e}", file=out)
            failed = True
            continue
        bench = report.get("bench", "<unnamed>")
        baseline = baselines.get(bench)
        if baseline is None:
            print(f"SKIP {path}: no baselines for '{bench}'", file=out)
            continue
        violations = check_report(report, baseline, out=out)
        if violations:
            failed = True
            print(f"FAIL {path}:", file=out)
            for v in violations:
                print(f"  {v}", file=out)
        else:
            n = sum(1 for bounds in baseline.get("metrics", {}).values()
                    if config_below_floor(report, bounds) is None)
            print(f"PASS {path}: {n} constraint(s) hold", file=out)
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baselines", required=True,
                        help="path to bench/baselines.json")
    parser.add_argument("--compare", action="store_true",
                        help="ratio-gate exactly two reports: "
                             "REFERENCE CANDIDATE")
    parser.add_argument("reports", nargs="+",
                        help="bench --json output files to gate")
    args = parser.parse_args(argv)
    if args.compare:
        if len(args.reports) != 2:
            parser.error("--compare takes exactly two reports: "
                         "REFERENCE CANDIDATE")
        return run_compare(args.baselines, args.reports[0], args.reports[1])
    return run(args.baselines, args.reports)


if __name__ == "__main__":
    sys.exit(main())
