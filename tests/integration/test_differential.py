"""Differential tests: limited predictors against their unlimited oracles.

Under low table pressure the limited implementations should track their
exact-key unlimited counterparts closely — any large divergence indicates a
hashing/aliasing/replacement bug rather than a capacity effect.
"""

import pytest

from repro.analysis.figures import run_grid, scaled_variant

WORKLOADS = ["500.perlbench_1", "511.povray", "525.x264_1"]
NUM_OPS = 10_000

#: PHAST with 4x tables: no capacity pressure at all.
PHAST_X4 = scaled_variant("phast", 4.0)


@pytest.fixture(scope="module")
def grid(runner):
    predictors = ["phast", "unlimited-phast", "nosq", "unlimited-nosq", PHAST_X4]
    return run_grid(runner, WORKLOADS, predictors, NUM_OPS)


class TestPhastVsUnlimited:
    def test_ipc_tracks_unlimited(self, grid):
        for name in WORKLOADS:
            limited = grid[name, "phast"]
            unlimited = grid[name, "unlimited-phast"]
            assert limited.ipc == pytest.approx(unlimited.ipc, rel=0.03), name

    def test_violations_close(self, grid):
        for name in WORKLOADS:
            limited = grid[name, "phast"].pipeline.violations
            unlimited = grid[name, "unlimited-phast"].pipeline.violations
            assert abs(limited - unlimited) <= max(4, unlimited), name

    def test_limited_never_dramatically_worse(self, grid):
        """Table pressure is low here: aliasing losses must be tiny."""
        for name in WORKLOADS:
            limited = grid[name, "phast"]
            unlimited = grid[name, "unlimited-phast"]
            assert limited.total_mdp_mpki <= unlimited.total_mdp_mpki + 1.0, name


class TestNosqVsUnlimited:
    def test_ipc_tracks_unlimited(self, grid):
        """The limited NoSQ (8-bit hashed history) vs the exact 8-branch
        unlimited version: same design point, so results stay close."""
        for name in WORKLOADS:
            limited = grid[name, "nosq"]
            unlimited = grid[name, "unlimited-nosq"]
            assert limited.ipc == pytest.approx(unlimited.ipc, rel=0.06), name


class TestScaledConsistency:
    def test_oversized_phast_matches_default(self, grid):
        """4x tables with no capacity pressure must change nothing material."""
        for name in WORKLOADS:
            default = grid[name, "phast"]
            large = grid[name, PHAST_X4]
            assert large.ipc == pytest.approx(default.ipc, rel=0.02), name
