"""Ablation — lazy versus eager memory-order squash (Sec. IV-A1 / V).

The paper performs eager squash for branches but *lazy* squash (at commit)
for the rarer memory-order violations, arguing the simplification costs
little because violations are rare with a good predictor. Eager squash
detects earlier (cheaper per event) but can squash wrong-path work; in this
correct-path model its advantage is purely the earlier restart, so the bench
checks the paper's claim from the other side: with a good predictor, lazy
squash is nearly free; with blind speculation, eager recovery wins clearly.
"""

from benchmarks.conftest import BENCH_OPS, SUBSET, run_once
from repro.analysis.figures import mean_normalized_ipc, run_grid
from repro.analysis.report import format_table
from repro.core.config import CoreConfig


def test_squash_timing_ablation(runner, emit, benchmark):
    predictors = ("phast", "always-speculate")
    modes = {"lazy": CoreConfig(), "eager": CoreConfig().with_violation_squash("eager")}

    def compute():
        grids = {
            mode: run_grid(runner, SUBSET, [*predictors, "ideal"], BENCH_OPS, config)
            for mode, config in modes.items()
        }
        return {
            predictor: {
                mode: mean_normalized_ipc(grids[mode], SUBSET, predictor)
                for mode in modes
            }
            for predictor in predictors
        }

    results = run_once(benchmark, compute)
    emit(
        "abl_squash_timing",
        format_table(
            ["predictor", "lazy (paper)", "eager"],
            [
                [name, modes["lazy"], modes["eager"]]
                for name, modes in results.items()
            ],
            title="Ablation: memory-order squash timing",
            precision=4,
        ),
    )

    # Eager recovery can only help (earlier restart in a correct-path model).
    for name, modes in results.items():
        assert modes["eager"] >= modes["lazy"] - 0.01, name

    # The paper's claim: with an accurate predictor the lazy simplification
    # costs almost nothing...
    phast_delta = results["phast"]["eager"] - results["phast"]["lazy"]
    assert phast_delta < 0.02
    # ...whereas the predictor-less machine, squashing constantly, benefits
    # far more from earlier recovery.
    blind_delta = (
        results["always-speculate"]["eager"] - results["always-speculate"]["lazy"]
    )
    assert blind_delta >= phast_delta - 0.005
