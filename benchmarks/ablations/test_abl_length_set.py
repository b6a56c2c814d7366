"""Ablation — PHAST's ladder of history lengths (Sec. IV-B).

The paper picks the geometric-like set (0, 2, 4, 6, 8, 12, 16, 32): eight
tables spanning short and long contexts. The ablation compares against a
short linear ladder (loses deep paths), a sparse ladder (truncation loses
precision), and a single PC-only table (no context at all).
"""

from benchmarks.conftest import BENCH_OPS, SUBSET, run_once
from repro.analysis.figures import mean_normalized_ipc, run_grid
from repro.analysis.report import format_table
from repro.sim.simulator import predictor_variant

LADDERS = {
    "(0,2,4,6,8,12,16,32) paper": (0, 2, 4, 6, 8, 12, 16, 32),
    "(0,1,2,3,4,5,6,7) linear": (0, 1, 2, 3, 4, 5, 6, 7),
    "(0,8,32) sparse": (0, 8, 32),
    "(0,) pc-only": (0,),
}


def test_length_ladder_ablation(runner, emit, benchmark):
    def compute():
        variants = {
            label: predictor_variant("phast", history_lengths=ladder)
            for label, ladder in LADDERS.items()
        }
        grid = run_grid(runner, SUBSET, [*variants.values(), "ideal"], BENCH_OPS)
        return {
            label: mean_normalized_ipc(grid, SUBSET, predictor)
            for label, predictor in variants.items()
        }

    results = run_once(benchmark, compute)
    emit(
        "abl_length_set",
        format_table(
            ["ladder", "normalized IPC"],
            [[label, value] for label, value in results.items()],
            title="Ablation: PHAST history-length ladder",
            precision=4,
        ),
    )

    paper = results["(0,2,4,6,8,12,16,32) paper"]
    # Context beats no context.
    assert paper > results["(0,) pc-only"] - 0.002
    # The paper's ladder is at least as good as the short linear one
    # (which cannot hold the deep deepsjeng/gcc dependences)...
    assert paper >= results["(0,1,2,3,4,5,6,7) linear"] - 0.01
    # ...and at least as good as the sparse one (whose truncation drops the
    # path-disambiguating branch for mid-length dependences).
    assert paper >= results["(0,8,32) sparse"] - 0.01
