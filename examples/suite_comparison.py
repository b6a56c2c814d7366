#!/usr/bin/env python3
"""Suite-wide predictor comparison — a miniature of the paper's Fig. 15.

Runs every SPEC CPU 2017-like profile under the five evaluated predictors,
prints per-application IPC normalised to the ideal predictor, and the
geometric-mean summary with the paper's headline speedups.

Usage:
    python examples/suite_comparison.py [num_ops] [--subset N]
"""

import argparse
import tempfile

from repro import spec_suite
from repro.analysis.figures import run_grid
from repro.analysis.report import format_table
from repro.common.stats import geometric_mean
from repro.harness.store import ResultStore
from repro.harness.sweep import SweepRunner

PREDICTORS = ["store-sets", "nosq", "mdp-tage", "mdp-tage-s", "phast"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("num_ops", type=int, nargs="?", default=20_000)
    parser.add_argument("--subset", type=int, default=None,
                        help="only the first N workloads (quick runs)")
    args = parser.parse_args()

    workloads = spec_suite(subset=args.subset)

    print(f"Simulating {len(workloads)} workloads x {len(PREDICTORS) + 1} predictors "
          f"at {args.num_ops} micro-ops each...\n")

    with tempfile.TemporaryDirectory() as store:
        runner = SweepRunner(ResultStore(store))
        grid = run_grid(runner, workloads, ["ideal"] + PREDICTORS, args.num_ops)
    table = []
    normalized = {name: [] for name in PREDICTORS}
    for workload in workloads:
        row = [workload]
        for name in PREDICTORS:
            ratio = grid[workload, name].ipc / grid[workload, "ideal"].ipc
            normalized[name].append(ratio)
            row.append(ratio)
        table.append(row)
    table.append(
        ["GEOMEAN"] + [geometric_mean(normalized[name]) for name in PREDICTORS]
    )
    print(format_table(["workload"] + PREDICTORS, table,
                       title="IPC normalised to the ideal MDP (Fig. 15)"))

    phast = geometric_mean(normalized["phast"])
    print("\nPHAST mean speedups (paper: +5.05% / +1.29% / +3.04% / +2.10%):")
    for baseline in ("store-sets", "nosq", "mdp-tage", "mdp-tage-s"):
        speedup = (phast / geometric_mean(normalized[baseline]) - 1.0) * 100.0
        print(f"  vs {baseline:<12} {speedup:+.2f}%")


if __name__ == "__main__":
    main()
