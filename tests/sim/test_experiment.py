"""Tests for running a figure's cells: variants, keys and the result store.

A figure's cells run through :func:`repro.analysis.figures.run_grid` on a
:class:`~repro.harness.sweep.SweepRunner`; the runner's store holds each
finished cell once, keyed by everything that defines it.
"""

import dataclasses

import pytest

from repro.analysis.figures import (
    mean_mpki,
    mean_normalized_ipc,
    normalize_to_ideal,
    run_grid,
)
from repro.core.config import CoreConfig
from repro.harness.executor import ProcessCellExecutor
from repro.harness.store import ResultStore
from repro.harness.sweep import SweepRunner, build_cells
from repro.sim.simulator import register_predictor, unregister_predictor

NUM_OPS = 2500


@pytest.fixture(scope="module")
def small_runner(tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("experiment-store"))
    return SweepRunner(store, ProcessCellExecutor(workers=2))


def run_cells(runner, predictors, config=None, seed=None):
    return runner.run(
        build_cells(["511.povray"], predictors, config, NUM_OPS, seed)
    )


class TestMemoisation:
    def test_same_cell_cached(self, small_runner):
        first = run_grid(small_runner, ["511.povray"], ["phast"], NUM_OPS)
        report = run_cells(small_runner, ["phast"])
        assert (report.cached, report.simulated) == (1, 0)
        assert report.results == first

    def test_distinct_predictors_not_shared(self, small_runner):
        report = run_cells(small_runner, ["phast", "nosq"])
        keys = {outcome.spec.key().digest for outcome in report.outcomes}
        assert len(keys) == 2
        assert report.completed == 2

    def test_nofwd_config_is_distinct_cell(self, small_runner):
        fwd = run_cells(small_runner, ["phast"]).outcomes[0]
        nofwd = run_cells(
            small_runner, ["phast"], CoreConfig().with_forwarding_filter(False)
        ).outcomes[0]
        assert fwd.spec.key().digest != nofwd.spec.key().digest

    def test_same_name_configs_do_not_collide(self, small_runner):
        """Regression: keys once covered only (name, forwarding_filter)."""
        base = CoreConfig()
        shrunk = dataclasses.replace(base, rob_entries=64, iq_entries=32)
        assert shrunk.name == base.name
        full = run_grid(small_runner, ["511.povray"], ["phast"], NUM_OPS, base)
        tiny = run_grid(small_runner, ["511.povray"], ["phast"], NUM_OPS, shrunk)
        # a quarter of the window must cost IPC
        assert tiny["511.povray", "phast"].ipc < full["511.povray", "phast"].ipc

    def test_seed_is_part_of_the_key(self, small_runner):
        default = run_cells(small_runner, ["phast"]).outcomes[0]
        reseeded = run_cells(small_runner, ["phast"], seed=12345).outcomes[0]
        assert default.spec.key().digest != reseeded.spec.key().digest
        assert reseeded.ok

    def test_factory_label_distinguishes_variants(self, small_runner):
        h4 = "unlimited-nosq(history_branches=4)"
        h2 = "unlimited-nosq(history_branches=2)"
        report = run_cells(small_runner, [h4, h2])
        assert report.completed == 2
        results = report.results
        assert results["511.povray", h4].predictor == h4
        assert results["511.povray", h2].predictor == h2
        keys = {outcome.spec.key().digest for outcome in report.outcomes}
        assert len(keys) == 2


class TestDurableStore:
    def test_second_grid_hits_the_store_without_simulating(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        first = run_grid(SweepRunner(store), ["511.povray"], ["phast"], NUM_OPS)
        again = run_cells(SweepRunner(ResultStore(tmp_path / "store")), ["phast"])
        assert (again.cached, again.simulated) == (1, 0)
        assert again.results == first

    def test_different_cell_misses_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = SweepRunner(store)
        run_grid(runner, ["511.povray"], ["phast"], NUM_OPS)
        assert len(store) == 1
        run_grid(runner, ["511.povray"], ["phast(target_bits=0)"], NUM_OPS)
        assert len(store) == 2


class TestTolerantSuites:
    def test_strict_suite_still_raises(self, small_runner):
        def broken():
            raise RuntimeError("seeded cell failure")

        register_predictor("seeded-failure", broken)
        try:
            with pytest.raises(RuntimeError, match="541.leela/seeded-failure"):
                run_grid(
                    small_runner,
                    ["511.povray", "541.leela"],
                    ["phast", "seeded-failure"],
                    NUM_OPS,
                )
        finally:
            unregister_predictor("seeded-failure")


class TestAggregates:
    def test_run_suite_keys(self, small_runner):
        workloads = ["511.povray", "541.leela"]
        results = run_grid(small_runner, workloads, ["phast"], NUM_OPS)
        assert set(results) == {("511.povray", "phast"), ("541.leela", "phast")}

    def test_normalize_to_ideal(self, small_runner):
        grid = run_grid(
            small_runner, ["511.povray"], ["always-speculate", "ideal"], NUM_OPS
        )
        normalized = normalize_to_ideal(
            {"511.povray": grid["511.povray", "always-speculate"]},
            {"511.povray": grid["511.povray", "ideal"]},
        )
        assert 0 < normalized["511.povray"] <= 1.05

    def test_mean_normalized_ipc_bounded(self, small_runner):
        workloads = ["511.povray", "541.leela"]
        grid = run_grid(small_runner, workloads, ["phast", "ideal"], NUM_OPS)
        value = mean_normalized_ipc(grid, workloads, "phast")
        assert 0.3 < value <= 1.05

    def test_mean_mpki_non_negative(self, small_runner):
        workloads = ["511.povray", "541.leela"]
        grid = run_grid(small_runner, workloads, ["always-speculate"], NUM_OPS)
        violations, false_deps = mean_mpki(grid, workloads, "always-speculate")
        assert violations >= 0
        assert false_deps == 0.0  # never predicts a dependence
