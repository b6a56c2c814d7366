"""Ablation — PHAST trained at commit versus at detection (Sec. IV-A1).

The paper reports that all baselines prefer updating at mispeculation
detection, but PHAST benefits from updating at commit: at-detection training
can learn the *first store to resolve* rather than the true youngest
dependence (Fig. 3d), and with PHAST those wrong entries carry longer
histories that outrank the correct ones.
"""

from benchmarks.ablations.variants import PhastAtDetection
from benchmarks.conftest import BENCH_OPS, SUBSET, run_once
from repro.analysis.figures import mean_normalized_ipc, run_grid
from repro.analysis.report import format_table


def test_update_timing_ablation(runner, emit, benchmark):
    def compute():
        predictors = ["phast", PhastAtDetection.name]
        grid = run_grid(runner, SUBSET, [*predictors, "ideal"], BENCH_OPS)
        at_commit, at_detection = (
            mean_normalized_ipc(grid, SUBSET, predictor) for predictor in predictors
        )
        return at_commit, at_detection

    at_commit, at_detection = run_once(benchmark, compute)
    emit(
        "abl_update_timing",
        format_table(
            ["variant", "normalized IPC"],
            [["train at commit (paper)", at_commit],
             ["train at detection", at_detection]],
            title="Ablation: PHAST update timing",
            precision=4,
        ),
    )

    # At-commit training is at least as good for PHAST (Sec. IV-A1).
    assert at_commit >= at_detection - 0.005
