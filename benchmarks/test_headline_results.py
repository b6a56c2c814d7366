"""The abstract's quantitative claims, measured on this reproduction.

Paper numbers (shape targets — absolute values depend on the substrate, see
DESIGN.md §1):

* UnlimitedPHAST within 0.47% of ideal; 14.5 KB PHAST within 1.50%.
* Mean speedups: +5.05% vs 18.5 KB Store Sets, +1.29% vs 19 KB NoSQ,
  +3.04% vs 38.6 KB MDP-TAGE, +2.10% vs MDP-TAGE-S.
* Average MPKI 0.766; 62.0% total-MPKI reduction vs NoSQ.
"""

from benchmarks.conftest import BENCH_OPS, SUITE, run_once
from repro.analysis import figures
from repro.analysis.report import format_table


def test_headline_results(runner, emit, benchmark):
    summary = run_once(
        benchmark, lambda: figures.headline_summary(runner, SUITE, BENCH_OPS)
    )

    emit(
        "headline_results",
        format_table(
            ["claim", "paper", "measured"],
            [
                ["PHAST gap vs ideal (%)", 1.50, summary.phast_gap_percent],
                ["UnlimitedPHAST gap vs ideal (%)", 0.47,
                 summary.unlimited_phast_gap_percent],
                ["speedup vs Store Sets (%)", 5.05, summary.speedup_vs_store_sets],
                ["speedup vs NoSQ (%)", 1.29, summary.speedup_vs_nosq],
                ["speedup vs MDP-TAGE (%)", 3.04, summary.speedup_vs_mdp_tage],
                ["speedup vs MDP-TAGE-S (%)", 2.10, summary.speedup_vs_mdp_tage_s],
                ["PHAST total MPKI", 0.766, summary.phast_total_mpki],
                ["MPKI reduction vs NoSQ (%)", 62.0,
                 summary.mpki_reduction_vs_nosq_percent],
            ],
            title="Headline results: paper vs this reproduction",
            precision=2,
        ),
    )

    # PHAST lands close to the ideal predictor...
    assert summary.phast_gap_percent < 8.0
    # ...and the unlimited version is at least as close.
    assert summary.unlimited_phast_gap_percent <= summary.phast_gap_percent + 0.5

    # Positive mean speedup against every baseline (directions of the
    # paper's 5.05 / 1.29 / 3.04 / 2.10 claims; MDP-TAGE-S is the closest
    # competitor in both the paper and this reproduction).
    assert summary.speedup_vs_store_sets > 0.5
    assert summary.speedup_vs_nosq > 0.0
    assert summary.speedup_vs_mdp_tage > 1.0
    assert summary.speedup_vs_mdp_tage_s > -0.3

    # The biggest win is against the weakest baselines, as in the paper.
    assert summary.speedup_vs_store_sets > summary.speedup_vs_nosq
    assert summary.speedup_vs_mdp_tage > summary.speedup_vs_nosq

    # Large misprediction reduction vs the best baseline (paper: 62%).
    assert summary.mpki_reduction_vs_nosq_percent > 25.0
