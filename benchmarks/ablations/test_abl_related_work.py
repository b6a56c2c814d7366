"""Related-work check — the perceptron MDP (Sec. VII).

Hasan's perceptron-based memory dependence predictor "was able to gain
almost as much IPC speedup as the Store Sets"; this bench verifies our
implementation lands in that class: clearly better than blind speculation,
within a few percent of Store Sets, below PHAST.
"""

from benchmarks.conftest import BENCH_OPS, SUBSET, run_once
from repro.analysis.figures import mean_normalized_ipc, run_grid
from repro.analysis.report import format_table

PREDICTORS = ("always-speculate", "perceptron-mdp", "store-sets", "phast")


def test_perceptron_mdp_class(runner, emit, benchmark):
    def compute():
        grid = run_grid(runner, SUBSET, [*PREDICTORS, "ideal"], BENCH_OPS)
        return {name: mean_normalized_ipc(grid, SUBSET, name) for name in PREDICTORS}

    results = run_once(benchmark, compute)
    emit(
        "abl_related_work_perceptron",
        format_table(
            ["predictor", "normalized IPC"],
            [[name, value] for name, value in results.items()],
            title="Related work: perceptron MDP vs Store Sets",
            precision=4,
        ),
    )

    assert results["perceptron-mdp"] > results["always-speculate"]
    # "Almost as much speedup as Store Sets": within a handful of percent.
    assert results["perceptron-mdp"] > results["store-sets"] - 0.06
    assert results["phast"] >= results["perceptron-mdp"]
