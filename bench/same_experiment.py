"""Check that a figures.exe JSON report ran the same experiment as a baseline.

Usage: python3 bench/same_experiment.py REPORT.json BASELINE.json

Every figure present in both reports must agree on its workload, seed,
runs, duration and thread axis; at least one figure must be shared.
When both reports carry a "config", they must also agree on the engine
settings that change the experiment: the clock policy (absent means
gv1), retry cap, starvation mode, deadline and fault injection (compared
by its spec).  Every other config key is ignored, including the "cm",
"backoff_init" and "backoff_max" of older reports.
Exits 1, listing each difference, otherwise.  A --compare gate is only
meaningful when this holds: a changed default would otherwise compare a
different experiment against the committed numbers.
"""

import json
import sys

KEYS = ("workload", "seed", "runs", "duration_s", "threads")


def config_keys(config):
    faults = config.get("faults")
    return {
        "clock": config.get("clock", "gv1"),
        "retry_cap": config.get("retry_cap"),
        "starvation_mode": config.get("starvation_mode"),
        "tx_timeout_ns": config.get("tx_timeout_ns"),
        "faults": faults and faults.get("spec"),
    }


def main(report_path, baseline_path):
    with open(report_path) as f:
        report = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)
    diffs = []
    if "config" in report and "config" in baseline:
        mine, theirs = config_keys(report["config"]), config_keys(baseline["config"])
        diffs += [
            f"config.{key}: {mine[key]!r} != {theirs[key]!r}"
            for key in mine
            if mine[key] != theirs[key]
        ]
    report_figs = {fig["figure"]: fig for fig in report["figures"]}
    baseline_figs = {fig["figure"]: fig for fig in baseline["figures"]}
    shared = sorted(report_figs.keys() & baseline_figs.keys())
    if not shared:
        print(f"{report_path}: no figure in common with {baseline_path}")
        return 1
    diffs += [
        f"{name}.{key}: {report_figs[name].get(key)!r} != {baseline_figs[name].get(key)!r}"
        for name in shared
        for key in KEYS
        if report_figs[name].get(key) != baseline_figs[name].get(key)
    ]
    for d in diffs:
        print(f"{report_path} vs {baseline_path}: {d}")
    if not diffs:
        print(f"{report_path}: figures {','.join(shared)} match {baseline_path}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
