"""Fig. 15 — IPC per application normalised to the perfect MDP.

Paper shape: PHAST is the closest to ideal overall (1.5% gap); it matches or
beats NoSQ everywhere except 525.x264 and 541.leela; Store Sets falls behind
badly where multiple instances of a store are in flight (500.perlbench_3);
PHAST shines on 500.perlbench_1, 511.povray and 531.deepsjeng.
"""

from benchmarks.conftest import BENCH_OPS, SUITE, run_once
from repro.analysis import figures
from repro.analysis.report import format_table
from repro.common.stats import geometric_mean


def test_fig15_ipc_per_application(runner, emit, benchmark):
    rows = run_once(
        benchmark, lambda: figures.fig14_15_per_application(runner, SUITE, BENCH_OPS)
    )

    emit(
        "fig15_ipc_per_app",
        format_table(
            ["workload", "predictor", "IPC vs ideal"],
            [[r.workload, r.predictor, r.normalized_ipc] for r in rows],
            title="Fig. 15: per-application IPC normalised to the perfect MDP",
        ),
    )

    series = {}
    for row in rows:
        series.setdefault(row.predictor, {})[row.workload] = row.normalized_ipc
    means = {
        name: geometric_mean(list(values.values())) for name, values in series.items()
    }

    # PHAST is closest to ideal overall (MDP-TAGE-S, which borrows PHAST's
    # exact table organisation, ties within noise at this fidelity —
    # see EXPERIMENTS.md).
    assert means["phast"] >= max(means.values()) - 0.004

    # The paper's speedup directions hold (magnitudes are simulator-bound).
    assert means["phast"] > means["store-sets"]
    assert means["phast"] > means["mdp-tage"]
    assert means["phast"] >= means["nosq"]

    # Store Sets' multiple-instance weakness on 500.perlbench_3.
    assert series["phast"]["500.perlbench_3"] > series["store-sets"]["500.perlbench_3"]

    # PHAST's showcase applications stay near ideal.
    for name in ("511.povray", "500.perlbench_1"):
        assert series["phast"][name] > 0.93, name

    # Nobody meaningfully beats the ideal predictor (sub-percent overshoots
    # are port-schedule noise: a wait can serendipitously dodge contention).
    assert all(
        value <= 1.01 for values in series.values() for value in values.values()
    )
