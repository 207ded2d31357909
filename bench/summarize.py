#!/usr/bin/env python3
"""Collect the results files of several benchmark runs into one record.

    python3 bench/summarize.py --out BENCH_<name>.json

Reads every ``.bench_out/<workload>-seed<seed>-trace<trace>.json`` and
writes, per workload and trace mode, each metric's value per seed, its
median, quartiles and spread (quartile distance / median), the same for
each run's median of every sample (raw wall times among them), plus the
metadata shared by the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".bench_out"
RUN_FIELDS = ("workload", "seed", "trace", "seconds")


def _order(path):
    """Sort key (workload, seed, name): seeds in numeric order."""
    workload, rest = path.name.split("-seed")
    return workload, int(rest.split("-")[0]), path.name


def _stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else None}


def summarize(paths):
    groups = {}
    metadata = None
    for path in paths:
        run = json.loads(path.read_text(encoding="utf-8"))
        meta = run["metadata"]
        key = f"{meta['workload']} trace{meta['trace']}"
        group = groups.setdefault(key, {"seeds": [], "correct": [], "values": {}})
        group["seeds"].append(meta["seed"])
        group["correct"].append(run["failed"] == 0)
        numbers = {**{k: m["value"] for k, m in run["metrics"].items()},
                   **{f"quality.{k}": v for k, v in run["quality"].items()},
                   **{f"sample_median.{k}": statistics.median(v)
                      for k, v in run["samples"].items() if v}}
        for name, value in numbers.items():
            group["values"].setdefault(name, []).append(value)
        if metadata is None:
            metadata = {k: v for k, v in meta.items() if k not in RUN_FIELDS}
    for group in groups.values():
        group["metrics"] = {name: {**_stats(values), "values": values}
                            for name, values in group.pop("values").items()}
    return {"metadata": metadata, "runs": groups}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="record to write")
    args = parser.parse_args(argv)
    paths = sorted(OUT.glob("*-seed*-trace*.json"), key=_order)
    if not paths:
        print(f"summarize: no results under {OUT}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summarize(paths), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
