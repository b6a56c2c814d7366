"""Fig. 16 — energy consumption of the evaluated predictors.

Paper shape: the standard TAGE-like predictor consumes several times more
energy than the rest (12 tables probed per prediction, the largest storage);
the remaining predictors are comparable to each other, and reads dominate
writes everywhere.
"""

from benchmarks.conftest import BENCH_OPS, SUITE, run_once
from repro.analysis import figures
from repro.analysis.report import format_table


def test_fig16_energy(runner, emit, benchmark):
    rows = run_once(benchmark, lambda: figures.fig16_energy(runner, SUITE, BENCH_OPS))

    emit(
        "fig16_energy",
        format_table(
            ["predictor", "read nJ", "write nJ", "total nJ"],
            [[r.predictor, r.read_nj, r.write_nj, r.total_nj] for r in rows],
            title="Fig. 16: predictor energy over the suite",
        ),
    )

    by_name = {row.predictor: row for row in rows}

    # MDP-TAGE is by far the most expensive (paper's main observation).
    tage_total = by_name["mdp-tage"].total_nj
    for name, row in by_name.items():
        if name != "mdp-tage":
            assert tage_total > row.total_nj * 1.5, name

    # Reads dominate writes (every load probes; only violations train).
    for row in rows:
        assert row.read_nj > row.write_nj

    # PHAST's energy is in the same class as MDP-TAGE-S (same organisation).
    assert by_name["phast"].total_nj < by_name["mdp-tage-s"].total_nj * 2.0
