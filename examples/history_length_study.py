#!/usr/bin/env python3
"""Reproduce the paper's Sec. III-C limit study interactively (Figs. 6, 10, 11).

Sweeps UnlimitedNoSQ's fixed history length, runs UnlimitedMDPTAGE and
UnlimitedPHAST, and prints IPC + tracked paths — the evidence behind the
paper's key claim that the store-to-load path (N+1 divergent branches) is
the right history length, discovered per conflict rather than fixed.

Usage:
    python examples/history_length_study.py [num_ops]
"""

import sys
import tempfile

from repro.analysis import figures
from repro.analysis.report import format_table
from repro.harness.store import ResultStore
from repro.harness.sweep import SweepRunner

WORKLOADS = ["500.perlbench_1", "502.gcc_1", "511.povray", "531.deepsjeng"]


def main() -> None:
    num_ops = int(sys.argv[1]) if len(sys.argv) > 1 else 25_000
    with tempfile.TemporaryDirectory() as store:
        study(SweepRunner(ResultStore(store)), num_ops)


def study(runner: SweepRunner, num_ops: int) -> None:
    print("Fig. 6 — unlimited predictors (IPC vs ideal, mean tracked paths):")
    points = figures.fig06_unlimited_sweep(
        runner, WORKLOADS, num_ops, nosq_lengths=(1, 2, 4, 6, 8, 12, 16)
    )
    print(
        format_table(
            ["variant", "IPC vs ideal", "mean paths"],
            [[p.label, p.normalized_ipc, p.mean_paths] for p in points],
        )
    )

    print("\nFig. 10 — unique conflicts per required history length (N+1):")
    histogram = figures.fig10_conflict_length_histogram(WORKLOADS, num_ops=num_ops)
    total = histogram.total()
    print(
        format_table(
            ["N+1", "conflicts", "cumulative %"],
            [
                [length, count, 100.0 * histogram.cumulative_fraction_up_to(length)]
                for length, count in histogram.sorted_items()
            ],
        )
    )

    print("\nFig. 11 — UnlimitedPHAST IPC at capped maximum history lengths:")
    series = figures.fig11_max_history(
        runner, WORKLOADS, num_ops, clamps=(4, 8, 16, 32, None)
    )
    print(
        format_table(
            ["cap", "IPC vs ideal"],
            [[label, value] for label, value in series.items()],
        )
    )
    print(
        "\nReading: NoSQ saturates around 6-8 branches while its path count"
        "\nkeeps climbing; PHAST matches the best fixed length with fewer"
        "\npaths because each conflict is trained at exactly N+1; and a cap"
        "\nof 32 branches is indistinguishable from unlimited history."
    )


if __name__ == "__main__":
    main()
