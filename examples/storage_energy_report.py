#!/usr/bin/env python3
"""Reproduce Table II and Fig. 16: predictor storage and energy.

Prints the predictor configuration table (sizes must match the paper's
18.5 / 19 / 38.6 / 13 / 14.5 KB), then simulates the suite subset to charge
the calibrated CACTI-like energy model with real access counts.

Usage:
    python examples/storage_energy_report.py [num_ops]
"""

import sys
import tempfile

from repro.analysis.charts import bar_chart
from repro.analysis.figures import fig16_energy
from repro.harness.store import ResultStore
from repro.harness.sweep import SweepRunner
from repro.mdp.storage import format_table2

WORKLOADS = ["500.perlbench_1", "502.gcc_1", "511.povray", "541.leela"]


def main() -> None:
    num_ops = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000

    print("Table II — predictor configurations:\n")
    print(format_table2())

    print(f"\nFig. 16 — energy over {len(WORKLOADS)} workloads "
          f"({num_ops} micro-ops each):\n")
    with tempfile.TemporaryDirectory() as store:
        rows = fig16_energy(SweepRunner(ResultStore(store)), WORKLOADS, num_ops)
    print(
        bar_chart(
            [(row.predictor, row.total_nj) for row in rows],
            title="total predictor energy (nJ)",
            unit=" nJ",
        )
    )
    print(
        "\nReading: the 12-table MDP-TAGE pays for every prediction with a"
        "\nprobe of every component; PHAST's eight small tables keep its"
        "\naccess energy in the same class as the other compact predictors"
        "\nwhile delivering the best accuracy (the paper's Fig. 16 message)."
    )


if __name__ == "__main__":
    main()
