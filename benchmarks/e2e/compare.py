#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

    python benchmarks/e2e/compare.py --parent p1.json p2.json ... --change c1.json ...

Each file is a ``run.py --out`` report, or a file of such reports under
``"sets"`` (``results/baseline.json``). Traced reports are skipped: their
end-to-end numbers come from a shortened untraced phase.

For every workload and every end-to-end metric of ``BENCHMARK.json`` it
prints each side's median and quartiles, and a verdict, using that file's
direction and bound:

* ``unresolved`` — either side's quartile spread exceeds the bound, unless
  every change run of at least 10 beats every parent run (then ``better``);
* ``worse`` — the change's median is worse than the parent's by more than
  the bound;
* ``better`` — over at least 10 (parent, change) pairs, in the order given,
  the change wins at least 9 in 10, ties counting for neither, and the
  medians differ by more than the parent's interquartile range;
* ``same`` — otherwise.

A higher failed fraction than the parent's is also ``worse``. The exit
code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"
#: A gain is claimed only over at least this many (parent, change) pairs.
MIN_PAIRS = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def runs(paths: Sequence[str]) -> List[dict]:
    """Every untraced report in ``paths``, one per file or per set."""
    reports = []
    for path in paths:
        data = json.loads(Path(path).read_text())
        for report in data.get("sets", [data]):
            if not report["provenance"]["trace"]:
                reports.append(report)
    return reports


def collect(reports: Sequence[dict]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, plus ``attempted``/``failed`` totals."""
    table: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for report in reports:
        for workload, run in report["workloads"].items():
            for metric, entry in run["end_to_end"].items():
                table[workload][metric].append(entry["value"])
            table[workload]["attempted"].append(run["attempted"])
            table[workload]["failed"].append(run["failed"])
    return table


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    enough = len(pairs) >= MIN_PAIRS
    if (p_q3 - p_q1) / p_med > bound or (c_q3 - c_q1) / c_med > bound:
        if enough and min(sign * c for c in change) > max(sign * p for p in parent):
            return "better"
        return "unresolved"
    if sign * (p_med - c_med) / p_med > bound:
        return "worse"
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if enough and wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > p_q3 - p_q1:
        return "better"
    return "same"


def compare(parent: Sequence[dict], change: Sequence[dict],
            spec: dict) -> List[dict]:
    """One row per workload x metric (and failed fraction)."""
    before, after = collect(parent), collect(change)
    rows = []
    for workload in sorted(set(before) & set(after)):
        for metric in spec["end_to_end"]:
            p, c = before[workload][metric["name"]], after[workload][metric["name"]]
            if not p or not c:
                rows.append({"workload": workload, "metric": metric["name"],
                             "verdict": "missing"})
                continue
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "parent": quartiles(p),
                "change": quartiles(c),
                "verdict": verdict(p, c, metric["better"], metric["bound"]),
            })
        p_frac = sum(before[workload]["failed"]) / sum(before[workload]["attempted"])
        c_frac = sum(after[workload]["failed"]) / sum(after[workload]["attempted"])
        rows.append({
            "workload": workload,
            "metric": "failed_frac",
            "unit": "ratio",
            "parent": (p_frac,) * 3,
            "change": (c_frac,) * 3,
            "verdict": "worse" if c_frac > p_frac else "same",
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    parent, change = runs(args.parent), runs(args.change)
    if not parent or not change:
        print("compare.py: need at least one untraced report per side",
              file=sys.stderr)
        return 2
    rows = compare(parent, change, spec)
    print(f"{len(parent)} parent report(s), {len(change)} change report(s); "
          "median [q1, q3] per side")
    for row in rows:
        if row["verdict"] == "missing":
            print(f"{row['workload']:<13} {row['metric']:<16} missing on one side")
            continue
        (pq1, pm, pq3), (cq1, cm, cq3) = row["parent"], row["change"]
        delta = (cm - pm) / pm if pm else 0.0
        print(f"{row['workload']:<13} {row['metric']:<16} "
              f"{pm:11.4f} [{pq1:.4f}, {pq3:.4f}]  ->  "
              f"{cm:11.4f} [{cq1:.4f}, {cq3:.4f}] {row['unit']:<7} "
              f"{delta:+7.1%}  {row['verdict']}")
    return 1 if any(row["verdict"] in ("worse", "missing") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
