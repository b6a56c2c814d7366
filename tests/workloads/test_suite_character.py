"""Suite-wide character invariants: every profile exercises what it claims."""

import pytest

from repro.analysis.figures import mean_normalized_ipc, run_grid
from repro.workloads.spec2017 import spec_suite

#: Profiles designed without memory conflicts (pure compute / streaming).
CONFLICT_FREE = {"548.exchange2"}

#: Profiles with deliberately tiny conflict rates (may be zero on short runs).
CONFLICT_LIGHT = {
    "507.cactuBSSN",
    "508.namd",
    "519.lbm",
    "521.wrf",
    "538.imagick",
    "549.fotonik3d",
    "554.roms",
    "503.bwaves",
    "544.nab",
    "505.mcf",
}

NUM_OPS = 15_000

#: Conflict-bearing profiles for the suite-wide prediction check.
SUBSET = sorted(set(spec_suite()) - CONFLICT_FREE - CONFLICT_LIGHT)[:6]


@pytest.fixture(scope="module")
def grid(runner):
    grid = run_grid(runner, spec_suite(), ["always-speculate"], NUM_OPS)
    grid.update(run_grid(runner, SUBSET, ["phast", "ideal"], NUM_OPS))
    return grid


@pytest.mark.parametrize("name", sorted(set(spec_suite()) - CONFLICT_FREE - CONFLICT_LIGHT))
def test_integer_profiles_have_real_conflicts(grid, name):
    """Blind speculation must squash on every conflict-bearing profile."""
    result = grid[name, "always-speculate"]
    assert result.pipeline.violations > 0, name


@pytest.mark.parametrize("name", sorted(CONFLICT_FREE))
def test_conflict_free_profiles_never_squash(grid, name):
    result = grid[name, "always-speculate"]
    assert result.pipeline.violations == 0


def test_prediction_matters_suite_wide(grid):
    """PHAST must beat blind speculation over the conflict-bearing subset."""
    phast = mean_normalized_ipc(grid, SUBSET, "phast")
    blind = mean_normalized_ipc(grid, SUBSET, "always-speculate")
    assert phast > blind


def test_every_profile_has_reasonable_branch_behaviour(grid):
    """Branch MPKI stays within plausible CPU-workload bounds everywhere."""
    for name in spec_suite():
        result = grid[name, "always-speculate"]
        assert result.branch_mpki < 120, name
