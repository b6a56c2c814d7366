"""Fig. 14 — MPKI of the evaluated predictors per application.

Paper shape: PHAST has the lowest MPKI in both categories on average
(0.766 total, 62-70% below the baselines); Store Sets converts would-be
squashes into false dependences; MDP-TAGE-S trades MDP-TAGE's false
negatives for the suite's highest false-positive pressure; the
data-dependent applications (parest, leela, nab) are hard for everyone.
"""

from benchmarks.conftest import BENCH_OPS, SUITE, run_once
from repro.analysis import figures
from repro.analysis.report import format_table


def test_fig14_mpki_per_application(runner, emit, benchmark):
    rows = run_once(
        benchmark, lambda: figures.fig14_15_per_application(runner, SUITE, BENCH_OPS)
    )

    emit(
        "fig14_mpki_per_app",
        format_table(
            ["workload", "predictor", "viol MPKI", "fp MPKI"],
            [
                [r.workload, r.predictor, r.violation_mpki, r.false_dep_mpki]
                for r in rows
            ],
            title="Fig. 14: per-application MPKI",
        ),
    )

    totals = {}
    for row in rows:
        entry = totals.setdefault(row.predictor, [0.0, 0.0])
        entry[0] += row.violation_mpki
        entry[1] += row.false_dep_mpki

    num_workloads = len(SUITE)
    mean_total = {
        name: (viol + fp) / num_workloads for name, (viol, fp) in totals.items()
    }

    # PHAST has the lowest mean total MPKI of the roster.
    assert mean_total["phast"] == min(mean_total.values())

    # A substantial reduction vs NoSQ (paper: 62%; shape: > 25%).
    assert mean_total["phast"] < mean_total["nosq"] * 0.75

    # Store Sets is false-dependence heavy relative to its violations.
    store_sets_viol, store_sets_fp = totals["store-sets"]
    assert store_sets_fp > store_sets_viol

    # MDP-TAGE has the highest violation MPKI of the five (blind training).
    viol_means = {name: viol / num_workloads for name, (viol, _) in totals.items()}
    assert viol_means["mdp-tage"] == max(viol_means.values())
