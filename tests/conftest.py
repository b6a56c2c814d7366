"""Shared fixtures for the test suite.

Tests use short traces (a few thousand micro-ops) so the whole suite stays
fast; the benchmark harness under ``benchmarks/`` is where full-length
reproduction runs live.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.core.config import CoreConfig
from repro.harness.executor import ProcessCellExecutor
from repro.harness.store import ResultStore
from repro.harness.sweep import SweepRunner
from repro.sim.simulator import get_trace

# A conservative hypothesis profile: deterministic, no deadline flakes from
# the occasionally-slow first trace build.
settings.register_profile(
    "repro",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

#: Trace length for integration-level tests.
TEST_OPS = 6000


@pytest.fixture(scope="session")
def runner(tmp_path_factory) -> SweepRunner:
    """A session-wide sweep runner: every cell it finishes is stored once,
    so tests sharing a cell simulate it once. Two workers, one per core of
    a small CI host."""
    store = ResultStore(tmp_path_factory.mktemp("results"))
    return SweepRunner(store, ProcessCellExecutor(workers=2))


@pytest.fixture(scope="session")
def povray_trace():
    """A trace with strong path-dependent conflicts."""
    return get_trace("511.povray", TEST_OPS)


@pytest.fixture(scope="session")
def leela_trace():
    """A trace with data-dependent (path-invisible) conflicts."""
    return get_trace("541.leela", TEST_OPS)


@pytest.fixture()
def core_config() -> CoreConfig:
    return CoreConfig()
