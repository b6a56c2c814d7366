#!/usr/bin/env python3
"""Reproduce the paper's motivation figure (Fig. 2): MDP across generations.

Sweeps the core-generation presets (Nehalem-like 2008 through Alder
Lake-like 2021) and shows how memory-dependence MPKI and the gap to an ideal
predictor grow with the speculation window — the trend that motivates PHAST.

Usage:
    python examples/generation_trends.py [num_ops]
"""

import sys
import tempfile

from repro import GENERATIONS
from repro.analysis.figures import mean_mpki, mean_normalized_ipc, run_grid
from repro.analysis.report import format_table
from repro.harness.store import ResultStore
from repro.harness.sweep import SweepRunner

WORKLOADS = ["500.perlbench_1", "502.gcc_1", "511.povray", "541.leela"]
PREDICTORS = ["store-sets", "phast"]


def main() -> None:
    num_ops = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    with tempfile.TemporaryDirectory() as store:
        runner = SweepRunner(ResultStore(store))
        grids = {
            name: run_grid(runner, WORKLOADS, PREDICTORS + ["ideal"], num_ops, config)
            for name, config in GENERATIONS.items()
        }

    rows = []
    for name, config in GENERATIONS.items():
        for predictor in PREDICTORS:
            violations, false_deps = mean_mpki(grids[name], WORKLOADS, predictor)
            normalized = mean_normalized_ipc(grids[name], WORKLOADS, predictor)
            rows.append(
                [
                    name,
                    config.year,
                    f"ROB {config.rob_entries} / SQ {config.sq_entries}",
                    predictor,
                    violations + false_deps,
                    (1.0 - normalized) * 100.0,
                ]
            )
    print(
        format_table(
            ["generation", "year", "window", "predictor", "total MPKI", "gap vs ideal %"],
            rows,
            title="Fig. 2: memory dependence prediction across core generations",
        )
    )
    print(
        "\nReading: as the out-of-order window grows (more unresolved stores"
        "\nin flight, wider issue), both the misprediction rate and the cost"
        "\nof imperfect prediction grow — Store Sets' gap roughly triples"
        "\nfrom the 2008 core to the 2021 core, while PHAST holds close to"
        "\nideal throughout (the paper's Fig. 2 motivation)."
    )


if __name__ == "__main__":
    main()
