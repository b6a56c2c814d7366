"""Fig. 2 — MDP trends across processor generations.

Paper shape: (a) MPKI of every predictor grows from the Nehalem-like core to
the Alder Lake-like core (roughly doubling for Store Sets); (b) the
performance gap to an ideal predictor widens with generation (Store Sets:
1.8% on Nehalem -> 6.0% on Alder Lake), motivating the paper.
"""

from benchmarks.conftest import BENCH_OPS, SUBSET, run_once
from repro.analysis import figures
from repro.analysis.report import format_table


def test_fig02_generations(runner, emit, benchmark):
    rows = run_once(
        benchmark, lambda: figures.fig02_generations(runner, SUBSET, BENCH_OPS)
    )

    emit(
        "fig02_generations",
        format_table(
            ["generation", "year", "predictor", "viol MPKI", "fp MPKI", "gap vs ideal %"],
            [
                [r.generation, r.year, r.predictor, r.violation_mpki,
                 r.false_dep_mpki, r.gap_vs_ideal_percent]
                for r in rows
            ],
            title="Fig. 2: MDP MPKI and ideal-gap across core generations",
        ),
    )

    by_cell = {(r.generation, r.predictor): r for r in rows}

    def older_to_newer(predictor, field):
        return (
            getattr(by_cell[("nehalem", predictor)], field),
            getattr(by_cell[("alderlake", predictor)], field),
        )

    # (a) total MPKI grows with the speculation window for every predictor.
    for predictor in ("store-sets", "nosq", "mdp-tage", "phast"):
        old_row = by_cell[("nehalem", predictor)]
        new_row = by_cell[("alderlake", predictor)]
        old_total = old_row.violation_mpki + old_row.false_dep_mpki
        new_total = new_row.violation_mpki + new_row.false_dep_mpki
        assert new_total > old_total * 0.9, predictor

    # (b) the ideal gap widens from Nehalem to Alder Lake for Store Sets
    # (the paper's 1.8% -> 6.0% motivation trend).
    old_gap, new_gap = older_to_newer("store-sets", "gap_vs_ideal_percent")
    assert new_gap > old_gap

    # PHAST stays closest to ideal on the modern core.
    modern = {
        predictor: by_cell[("alderlake", predictor)].gap_vs_ideal_percent
        for predictor in ("store-sets", "nosq", "mdp-tage", "phast")
    }
    assert modern["phast"] == min(modern.values())
