"""Functional warming: fast-forward fidelity and checkpoint hand-off."""

from __future__ import annotations

import pytest

from repro.core.config import CoreConfig
from repro.sampling.state import restore_run
from repro.sampling.warming import FunctionalWarmer
from repro.sim.simulator import get_trace, make_predictor

OPS = 3000


@pytest.fixture(scope="module")
def trace():
    return get_trace("502.gcc_1", OPS)


def test_warmer_advances_monotonically(trace):
    warmer = FunctionalWarmer(trace, predictor=make_predictor("phast"))
    warmer.advance(1000)
    assert warmer.next_index == 1000
    warmer.advance(1000)  # idempotent: never rewinds
    assert warmer.next_index == 1000
    warmer.advance()
    assert warmer.next_index == OPS


def test_warmer_counts_match_trace_prefix(trace):
    warmer = FunctionalWarmer(trace, predictor=make_predictor("store-sets"))
    warmer.advance(1500)
    loads = sum(1 for i in range(1500) if trace[i].is_load)
    stores = sum(1 for i in range(1500) if trace[i].is_store)
    assert warmer.predictor_pass.load_count == loads
    assert warmer.predictor_pass.store_count == stores


def test_functional_snapshot_resumes_into_detailed_run(trace):
    warmer = FunctionalWarmer(trace, predictor=make_predictor("phast"))
    warmer.advance(1000)
    state = warmer.snapshot()
    assert state.mode == "functional"
    # Resume detailed at 1000 with a 200-op detailed lead, measure 800 ops.
    run = restore_run(state, trace, total=2000, warmup_ops=1200)
    run.advance()
    stats = run.finish()
    assert stats.committed_uops == 800
    assert stats.cycles > 0
    assert stats.ipc > 0


def test_warming_trains_the_predictor(trace):
    cold = make_predictor("phast")
    warm = make_predictor("phast")
    FunctionalWarmer(trace, predictor=warm).advance(2000)
    # The warmed predictor observed the prefix's loads; the cold one nothing.
    assert warm.stats.load_predictions > cold.stats.load_predictions
    assert warm.stats.load_predictions >= sum(
        1 for i in range(2000) if trace[i].is_load
    )


def test_warmer_faster_than_detailed(trace):
    import time

    from repro.core.pipeline import Pipeline

    def functional_seconds() -> float:
        start = time.perf_counter()
        FunctionalWarmer(trace, predictor=make_predictor("phast")).advance()
        return time.perf_counter() - start

    def detailed_seconds() -> float:
        start = time.perf_counter()
        Pipeline(CoreConfig(), make_predictor("phast")).run(trace)
        return time.perf_counter() - start

    # One untimed round each (allocator/caches), then best-of-3: short
    # traces under CI load are noisy, and the minimum is the stable
    # observable. The real several-x throughput claim is measured at 1M ops
    # by benchmarks/sampling_speedup.py; this only guards the ordering.
    functional_seconds(), detailed_seconds()
    functional = min(functional_seconds() for _ in range(3))
    detailed = min(detailed_seconds() for _ in range(3))
    assert functional < detailed
