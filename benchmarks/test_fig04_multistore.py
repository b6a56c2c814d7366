"""Fig. 4 — percentage of loads that depend on multiple stores.

Paper shape: the fraction is tiny (0.04% of executed loads on average, at
most 0.25% in 503.bwaves), many applications have none at all, and the
multiple writers overwhelmingly execute in order (70% on average) — which is
what justifies predicting a single store distance (Sec. III-A).
"""

from benchmarks.conftest import BENCH_OPS, SUITE, run_once
from repro.analysis import figures
from repro.analysis.report import format_table


def test_fig04_multi_store(runner, emit, benchmark):
    rows = run_once(
        benchmark, lambda: figures.fig04_multi_store(runner, SUITE, BENCH_OPS)
    )

    emit(
        "fig04_multi_store",
        format_table(
            ["workload", "multi-store loads %", "in-order writers %"],
            [[r.workload, r.multi_store_percent, r.in_order_percent] for r in rows],
            title="Fig. 4: loads depending on multiple stores",
        ),
    )

    by_workload = {row.workload: row for row in rows}

    # The phenomenon is rare suite-wide.
    mean_percent = sum(r.multi_store_percent for r in rows) / len(rows)
    assert mean_percent < 1.5

    # Many applications have no such loads at all (paper: fourteen).
    zero_apps = sum(1 for r in rows if r.multi_store_percent == 0.0)
    assert zero_apps >= 8

    # The multi-store applications the paper names are the standouts.
    standouts = sorted(rows, key=lambda r: -r.multi_store_percent)[:5]
    standout_names = {r.workload for r in standouts}
    assert "503.bwaves" in standout_names or "525.x264_3" in standout_names

    # Where they exist, the writers mostly execute in order.
    with_multi = [r for r in rows if r.multi_store_percent > 0]
    assert with_multi
    mean_in_order = sum(r.in_order_percent for r in with_multi) / len(with_multi)
    assert mean_in_order > 50.0
