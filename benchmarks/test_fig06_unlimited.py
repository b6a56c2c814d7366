"""Fig. 6 — unlimited-budget study: IPC and tracked paths.

Paper shape: UnlimitedNoSQ improves with history length but saturates
(marginal beyond ~8-9 branches) while its path count keeps growing;
UnlimitedMDPTAGE sits below the best NoSQ point despite tracking the most
paths; UnlimitedPHAST beats everything while tracking a fraction of the
paths of long-history NoSQ.
"""

from benchmarks.conftest import BENCH_OPS, SUBSET, run_once
from repro.analysis import figures
from repro.analysis.report import format_table

NOSQ_LENGTHS = (1, 2, 4, 6, 8, 12, 16)


def test_fig06_unlimited_sweep(runner, emit, benchmark):
    points = run_once(
        benchmark,
        lambda: figures.fig06_unlimited_sweep(
            runner, SUBSET, BENCH_OPS, nosq_lengths=NOSQ_LENGTHS
        ),
    )

    emit(
        "fig06_unlimited",
        format_table(
            ["variant", "normalized IPC", "mean paths"],
            [[p.label, p.normalized_ipc, p.mean_paths] for p in points],
            title="Fig. 6: unlimited predictors — IPC (a) and paths (b)",
        ),
    )

    by_label = {p.label: p for p in points}
    nosq = [by_label[f"unlimited-nosq-h{length}"] for length in NOSQ_LENGTHS]
    phast = by_label["unlimited-phast"]
    tage = by_label["unlimited-mdp-tage"]

    # (a) NoSQ IPC improves with history up to the saturation knee.
    assert nosq[-3].normalized_ipc >= nosq[0].normalized_ipc  # h8 >= h1
    # Marginal improvement beyond the knee (paper: >9 branches is marginal).
    knee_gain = nosq[-1].normalized_ipc - nosq[-3].normalized_ipc
    early_gain = nosq[-3].normalized_ipc - nosq[0].normalized_ipc
    assert knee_gain < max(early_gain, 0.002) + 0.01

    # (a) UnlimitedPHAST is the best variant of the study.
    best_nosq = max(p.normalized_ipc for p in nosq)
    assert phast.normalized_ipc >= best_nosq - 0.003
    assert phast.normalized_ipc > tage.normalized_ipc

    # (b) NoSQ's tracked paths grow with history length...
    assert nosq[-1].mean_paths > nosq[0].mean_paths
    # ...and PHAST tracks fewer paths than the longest NoSQ (paper: < 1/3).
    assert phast.mean_paths < nosq[-1].mean_paths
    # MDP-TAGE tracks the most paths of all (paper: > 16000 on real traces).
    assert tage.mean_paths > phast.mean_paths
