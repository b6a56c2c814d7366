"""Figs. 7, 8, 9 — UnlimitedPHAST per application.

Paper shape: Fig. 7 — UnlimitedPHAST within 0.47% of ideal (geomean), with
the gcc inputs, parest and leela the farthest applications; Fig. 8 — MPKI is
dominated by cold misses and by data-dependent false dependences
(parest/deepsjeng/leela/nab highest); Fig. 9 — most applications track fewer
than five thousand paths, with the gcc inputs (and other huge-code apps) the
exceptions.
"""

from benchmarks.conftest import BENCH_OPS, SUITE, run_once
from repro.analysis import figures
from repro.analysis.report import format_table
from repro.common.stats import geometric_mean


def test_fig07_09_unlimited_phast(runner, emit, benchmark):
    rows = run_once(
        benchmark, lambda: figures.fig07_09_unlimited_phast(runner, SUITE, BENCH_OPS)
    )

    emit(
        "fig07_09_unlimited_phast",
        format_table(
            ["workload", "IPC vs ideal", "viol MPKI", "fp MPKI", "paths"],
            [
                [r.workload, r.normalized_ipc, r.violation_mpki, r.false_dep_mpki, r.paths]
                for r in rows
            ],
            title="Figs. 7-9: UnlimitedPHAST per application",
        ),
    )

    by_workload = {r.workload: r for r in rows}

    # Fig. 7: close to ideal overall (paper: 99.53%; simulator fidelity and
    # shorter traces leave us a few percent lower — see EXPERIMENTS.md).
    mean_ipc = geometric_mean([r.normalized_ipc for r in rows])
    assert mean_ipc > 0.93
    assert all(r.normalized_ipc > 0.75 for r in rows)

    # Fig. 8: the false-dependence standouts are the data-dependent apps.
    fp_ranked = sorted(rows, key=lambda r: -r.false_dep_mpki)[:8]
    fp_names = {r.workload for r in fp_ranked}
    assert fp_names & {"510.parest", "541.leela", "544.nab", "531.deepsjeng"}

    # Fig. 9: gcc tracks the most paths; conflict-free apps track ~none.
    gcc_paths = max(
        by_workload[name].paths for name in by_workload if name.startswith("502.gcc")
    )
    median_paths = sorted(r.paths for r in rows)[len(rows) // 2]
    assert gcc_paths > median_paths
    assert by_workload["548.exchange2"].paths == 0
