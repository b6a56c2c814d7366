"""Ablation — the Omnipredictor cannot be tuned for both uses (Sec. IV-B).

The paper: "the optimal history lengths for MDP differ from the ones for
branch prediction, which implies that an Omnipredictor cannot be tuned for
both types of prediction." This bench runs the shared-storage Omnipredictor
(branch-tuned geometric lengths, one table set for both consumers) against
PHAST + TAGE and against standalone MDP-TAGE + TAGE.
"""

from benchmarks.conftest import BENCH_OPS, SUBSET, run_once
from repro.analysis.figures import mean_normalized_ipc, run_grid
from repro.analysis.report import format_table
from repro.common.stats import geometric_mean
from repro.mdp.omnipredictor import OmniPredictor
from repro.sim.simulator import simulate
from repro.sim.spec import RunSpec


def test_omnipredictor_ablation(runner, emit, benchmark):
    def compute():
        grid = run_grid(runner, SUBSET, ["ideal", "mdp-tage", "phast"], BENCH_OPS)
        omni_ipc = []
        evictions = 0
        for name in SUBSET:
            # The branch view is an instance no wire can carry: the shared
            # design runs in-process, with the predictor it shares storage
            # with as its front end.
            omni = OmniPredictor()
            result = simulate(
                RunSpec(
                    workload=name, predictor=omni, num_ops=BENCH_OPS,
                    branch_predictor=omni.branch_view,
                )
            )
            omni_ipc.append(result.ipc / grid[name, "ideal"].ipc)
            evictions += omni.branch_evicted_by_mdp + omni.mdp_evicted_by_branch
        return {
            "omnipredictor (shared)": geometric_mean(omni_ipc),
            "mdp-tage (standalone)": mean_normalized_ipc(grid, SUBSET, "mdp-tage"),
            "phast (tuned for MDP)": mean_normalized_ipc(grid, SUBSET, "phast"),
        }, evictions

    results, evictions = run_once(benchmark, compute)
    emit(
        "abl_omnipredictor",
        format_table(
            ["configuration", "normalized IPC"],
            [[name, value] for name, value in results.items()],
            title=f"Ablation: Omnipredictor (cross-type evictions: {evictions})",
            precision=4,
        ),
    )

    # The MDP tuned with exact history lengths beats the shared design.
    assert results["phast (tuned for MDP)"] > results["omnipredictor (shared)"]
    # Sharing storage with branches does not beat the standalone MDP-TAGE.
    assert (
        results["mdp-tage (standalone)"]
        >= results["omnipredictor (shared)"] - 0.02
    )
    # The two consumers demonstrably fight over entries.
    assert evictions > 0
