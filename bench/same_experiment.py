"""Check that a figures.exe JSON report ran the same experiment as a baseline.

Usage: python3 bench/same_experiment.py REPORT.json BASELINE.json

Every figure present in both reports must agree on its workload, seed,
runs, duration and thread axis; at least one figure must be shared.
Exits 1, listing each difference, otherwise.  A --compare gate is only
meaningful when this holds: a changed default would otherwise compare a
different experiment against the committed numbers.
"""

import json
import sys

KEYS = ("workload", "seed", "runs", "duration_s", "threads")


def figures(path):
    with open(path) as f:
        return {fig["figure"]: fig for fig in json.load(f)["figures"]}


def main(report_path, baseline_path):
    report, baseline = figures(report_path), figures(baseline_path)
    shared = sorted(report.keys() & baseline.keys())
    if not shared:
        print(f"{report_path}: no figure in common with {baseline_path}")
        return 1
    diffs = [
        f"{name}.{key}: {report[name].get(key)!r} != {baseline[name].get(key)!r}"
        for name in shared
        for key in KEYS
        if report[name].get(key) != baseline[name].get(key)
    ]
    for d in diffs:
        print(f"{report_path} vs {baseline_path}: {d}")
    if not diffs:
        print(f"{report_path}: figures {','.join(shared)} match {baseline_path}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
