"""Ablation — what goes into PHAST's history (Sec. III-B).

Two design choices are ablated:

* **N vs N+1**: training with only the branches *between* the store and the
  load (length N) drops the divergent branch previous to the store — the
  Fig. 5 disambiguator. The paper's N+1 must not be worse.
* **Target bits**: 0 target bits reduce each history entry to its
  taken/not-taken bit, which merges indirect-branch paths (and Fig. 5-style
  conditional destinations). The paper uses 5 bits.
"""

from benchmarks.ablations.variants import PhastLengthN
from benchmarks.conftest import BENCH_OPS, SUBSET, run_once
from repro.analysis.figures import mean_normalized_ipc, run_grid
from repro.analysis.report import format_table
from repro.sim.simulator import predictor_variant

VARIANTS = {
    "N+1, 5 target bits (paper)": "phast",
    "N (no pre-store branch)": PhastLengthN.name,
    "N+1, 0 target bits": predictor_variant("phast", target_bits=0),
}


def test_history_composition_ablation(runner, emit, benchmark):
    def compute():
        grid = run_grid(runner, SUBSET, [*VARIANTS.values(), "ideal"], BENCH_OPS)
        return {
            label: mean_normalized_ipc(grid, SUBSET, predictor)
            for label, predictor in VARIANTS.items()
        }

    results = run_once(benchmark, compute)
    emit(
        "abl_history_composition",
        format_table(
            ["variant", "normalized IPC"],
            [[name, value] for name, value in results.items()],
            title="Ablation: PHAST history composition",
            precision=4,
        ),
    )

    paper = results["N+1, 5 target bits (paper)"]
    # Dropping the pre-store branch cannot help (Fig. 5's argument).
    assert paper >= results["N (no pre-store branch)"] - 0.005
    # Dropping the destination bits cannot help (indirect paths merge).
    assert paper >= results["N+1, 0 target bits"] - 0.005
