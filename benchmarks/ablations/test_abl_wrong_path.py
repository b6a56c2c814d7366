"""Ablation — wrong-path modelling and training-time robustness (Sec. IV-A1).

The paper models wrong-path execution Scarab-style and argues PHAST's
at-commit training "avoids learning long paths that are not leading to
actual dependencies". With phantom wrong-path replay enabled, detection-time
predictors can be trained by wrong-path conflicts; PHAST cannot, by
construction.
"""

from benchmarks.conftest import BENCH_OPS, SUBSET, run_once
from repro.analysis.figures import mean_normalized_ipc, run_grid
from repro.analysis.report import format_table
from repro.core.config import CoreConfig

WRONG_PATH_DEPTH = 24


def test_wrong_path_ablation(runner, emit, benchmark):
    predictors = ("phast", "mdp-tage", "nosq")
    wrong_path = CoreConfig().with_wrong_path(WRONG_PATH_DEPTH)

    def compute():
        cells = [*predictors, "ideal"]
        clean = run_grid(runner, SUBSET, cells, BENCH_OPS)
        polluted = run_grid(runner, SUBSET, cells, BENCH_OPS, wrong_path)
        return {
            predictor: (
                mean_normalized_ipc(clean, SUBSET, predictor),
                mean_normalized_ipc(polluted, SUBSET, predictor),
                sum(
                    polluted[name, predictor].pipeline.wrong_path_trainings
                    for name in SUBSET
                ),
            )
            for predictor in predictors
        }

    rows = run_once(benchmark, compute)
    emit(
        "abl_wrong_path",
        format_table(
            ["predictor", "no wrong path", f"depth {WRONG_PATH_DEPTH}", "phantom trainings"],
            [
                [name, clean, polluted, trainings]
                for name, (clean, polluted, trainings) in rows.items()
            ],
            title="Ablation: wrong-path modelling",
            precision=4,
        ),
    )

    # PHAST is structurally immune: at-commit training never sees phantoms.
    assert rows["phast"][2] == 0
    # The at-detection predictors are trained by phantom conflicts.
    assert rows["mdp-tage"][2] > 0 and rows["nosq"][2] > 0
    # Wrong-path replay must not change PHAST's result class.
    clean, polluted, _ = rows["phast"]
    assert abs(clean - polluted) < 0.02
