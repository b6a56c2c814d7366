"""End-to-end ordering invariants across predictors.

These assert the *qualitative* relationships the paper establishes, on short
traces (the quantitative reproduction lives in benchmarks/).
"""

import pytest

from repro.analysis.figures import mean_mpki, mean_normalized_ipc, run_grid
from repro.common.stats import geometric_mean

#: Conflict-heavy workloads where predictor differences are visible quickly.
WORKLOADS = ["500.perlbench_3", "502.gcc_1", "511.povray", "531.deepsjeng"]

NUM_OPS = 12_000


#: The 16-branch unlimited NoSQ point of the paths comparison.
NOSQ_H16 = "unlimited-nosq(history_branches=16)"

PREDICTORS = [
    "ideal",
    "phast",
    "nosq",
    "store-sets",
    "always-speculate",
    "always-wait",
    "mdp-tage",
    "cht",
    "store-vector",
    "unlimited-phast",
    NOSQ_H16,
]


@pytest.fixture(scope="module")
def grid(runner):
    return run_grid(runner, WORKLOADS, PREDICTORS, NUM_OPS)


def mean_normalized(grid, predictor):
    return mean_normalized_ipc(grid, WORKLOADS, predictor)


class TestBounds:
    def test_ideal_is_best(self, grid):
        for predictor in ("phast", "nosq", "store-sets", "always-speculate"):
            assert mean_normalized(grid, predictor) <= 1.0 + 1e-9

    def test_ideal_never_violates(self, grid):
        for name in WORKLOADS:
            result = grid[name, "ideal"]
            assert result.pipeline.violations == 0
            assert result.pipeline.false_positives == 0

    def test_blind_speculation_is_poor(self, grid):
        assert mean_normalized(grid, "always-speculate") < mean_normalized(
            grid, "phast"
        )

    def test_always_wait_never_violates_but_slow(self, grid):
        for name in WORKLOADS:
            result = grid[name, "always-wait"]
            assert result.pipeline.violations == 0
        assert mean_normalized(grid, "always-wait") < mean_normalized(grid, "phast")


class TestPaperOrderings:
    def test_phast_beats_every_baseline(self, grid):
        phast = mean_normalized(grid, "phast")
        for baseline in ("store-sets", "nosq", "mdp-tage", "cht", "store-vector"):
            assert phast >= mean_normalized(grid, baseline) - 0.005, baseline

    def test_phast_beats_mdp_tage_clearly(self, grid):
        """Paper: +3.04% mean over MDP-TAGE."""
        assert mean_normalized(grid, "phast") > mean_normalized(grid, "mdp-tage") + 0.01

    def test_store_sets_loses_on_perlbench3(self, grid):
        """Multiple in-flight store instances serialise Store Sets (Sec. VI-C)."""
        store_sets = grid["500.perlbench_3", "store-sets"]
        phast = grid["500.perlbench_3", "phast"]
        assert phast.ipc > store_sets.ipc

    def test_phast_near_ideal_on_povray(self, grid):
        """511.povray: dependences tied to branch history (Sec. VI-C)."""
        result = grid["511.povray", "phast"]
        ideal = grid["511.povray", "ideal"]
        assert result.ipc / ideal.ipc > 0.95

    def test_phast_reduces_mpki_vs_nosq(self, grid):
        """Paper headline: ~62% total-MPKI reduction vs NoSQ."""
        phast_viol, phast_fp = mean_mpki(grid, WORKLOADS, "phast")
        nosq_viol, nosq_fp = mean_mpki(grid, WORKLOADS, "nosq")
        assert phast_viol + phast_fp < nosq_viol + nosq_fp


class TestUnlimitedStudy:
    def test_unlimited_phast_at_least_limited(self, grid):
        unlimited = mean_normalized(grid, "unlimited-phast")
        limited = mean_normalized(grid, "phast")
        assert unlimited >= limited - 0.01

    def test_unlimited_phast_tracks_fewer_paths_than_long_nosq(self, grid):
        phast_paths = sum(
            grid[name, "unlimited-phast"].paths_tracked for name in WORKLOADS
        )
        nosq_paths = sum(grid[name, NOSQ_H16].paths_tracked for name in WORKLOADS)
        assert phast_paths < nosq_paths


class TestForwardingFilter:
    def test_fwd_filter_helps_phast(self, grid, runner):
        """Fig. 12: PHAST is the biggest FWD beneficiary."""
        from repro.core.config import CoreConfig

        nofwd_config = CoreConfig().with_forwarding_filter(False)
        nofwd = run_grid(runner, WORKLOADS, ["phast"], NUM_OPS, nofwd_config)
        with_filter = [grid[w, "phast"].ipc for w in WORKLOADS]
        without = [nofwd[w, "phast"].ipc for w in WORKLOADS]
        assert geometric_mean(with_filter) >= geometric_mean(without)
