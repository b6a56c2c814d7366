"""Fig. 11 — UnlimitedPHAST at several maximum history lengths.

Paper shape: IPC climbs with the cap and a maximum of 32 branches already
matches unlimited histories (most benchmarks need only 16).
"""

from benchmarks.conftest import BENCH_OPS, SUBSET, run_once
from repro.analysis import figures
from repro.analysis.report import format_table

CLAMPS = (4, 8, 16, 32, 64, None)


def test_fig11_max_history(runner, emit, benchmark):
    series = run_once(
        benchmark,
        lambda: figures.fig11_max_history(runner, SUBSET, BENCH_OPS, clamps=CLAMPS),
    )

    emit(
        "fig11_max_history",
        format_table(
            ["max history", "normalized IPC"],
            [[label, value] for label, value in series.items()],
            title="Fig. 11: UnlimitedPHAST IPC vs maximum history length",
        ),
    )

    def at(clamp):
        return series[f"unlimited-phast-max{clamp if clamp is not None else 'inf'}"]

    # Longer caps never hurt materially...
    assert at(32) >= at(4) - 0.005
    assert at(16) >= at(4) - 0.005
    # ...and 32 is enough: within noise of fully unlimited (the paper's
    # justification for the ladder's 32 cap).
    assert abs(at(32) - at(None)) < 0.01
    assert abs(at(64) - at(None)) < 0.01
