"""Fig. 13 — performance versus storage budget.

Paper shape: PHAST outperforms every baseline while using less storage; even
half-budget PHAST (7.25 KB) beats the full-size baselines; Store Sets and
NoSQ show practically no improvement from doubling their storage.
"""

from benchmarks.conftest import BENCH_OPS, SUBSET, run_once
from repro.analysis import figures
from repro.analysis.report import format_table

FACTORS = (0.5, 1.0, 2.0)


def test_fig13_storage_tradeoff(runner, emit, benchmark):
    points = run_once(
        benchmark,
        lambda: figures.fig13_storage_tradeoff(
            runner, SUBSET, BENCH_OPS, factors=FACTORS
        ),
    )

    emit(
        "fig13_storage_tradeoff",
        format_table(
            ["predictor", "storage KB", "normalized IPC"],
            [[p.predictor, p.storage_kb, p.normalized_ipc] for p in points],
            title="Fig. 13: IPC vs storage budget",
        ),
    )

    series = {}
    for point in points:
        series.setdefault(point.predictor, []).append(point)
    for name in series:
        series[name].sort(key=lambda p: p.storage_kb)

    # PHAST at its default budget beats every baseline at ANY budget swept.
    phast_default = series["phast"][1]
    assert phast_default.storage_kb < 15.0
    for name in ("store-sets", "nosq", "mdp-tage"):
        best_baseline = max(p.normalized_ipc for p in series[name])
        assert phast_default.normalized_ipc >= best_baseline - 0.01, name

    # Half-budget PHAST (7.25 KB) still beats full-size Store Sets & MDP-TAGE.
    phast_half = series["phast"][0]
    assert phast_half.normalized_ipc >= series["store-sets"][1].normalized_ipc - 0.01
    assert phast_half.normalized_ipc >= series["mdp-tage"][1].normalized_ipc - 0.01

    # Store Sets and NoSQ flatten: doubling storage buys almost nothing.
    for name in ("store-sets", "nosq"):
        default, doubled = series[name][1], series[name][2]
        assert doubled.normalized_ipc - default.normalized_ipc < 0.02, name

    # More storage never materially hurts PHAST.
    assert series["phast"][2].normalized_ipc >= series["phast"][0].normalized_ipc - 0.01
