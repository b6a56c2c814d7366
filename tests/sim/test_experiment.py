"""Tests for the experiment grid."""

import dataclasses

import pytest

import repro.sim.experiment as experiment_module
from repro.core.config import CoreConfig
from repro.harness.store import ResultStore
from repro.mdp.unlimited import UnlimitedNoSQPredictor
from repro.sim.experiment import ExperimentGrid, normalize_to_ideal
from repro.sim.simulator import run_spec as real_run_spec


@pytest.fixture()
def small_grid():
    return ExperimentGrid(num_ops=2500)


class TestMemoisation:
    def test_same_cell_cached(self, small_grid):
        first = small_grid.run("511.povray", "phast")
        second = small_grid.run("511.povray", "phast")
        assert first is second

    def test_distinct_predictors_not_shared(self, small_grid):
        a = small_grid.run("511.povray", "phast")
        b = small_grid.run("511.povray", "nosq")
        assert a is not b

    def test_nofwd_config_is_distinct_cell(self, small_grid):
        fwd = small_grid.run("511.povray", "phast")
        nofwd = small_grid.run(
            "511.povray", "phast", CoreConfig().with_forwarding_filter(False)
        )
        assert fwd is not nofwd

    def test_same_name_configs_do_not_collide(self, small_grid):
        """Regression: keys once covered only (name, forwarding_filter)."""
        base = CoreConfig()
        shrunk = dataclasses.replace(base, rob_entries=64, iq_entries=32)
        assert shrunk.name == base.name
        full = small_grid.run("511.povray", "phast", base)
        tiny = small_grid.run("511.povray", "phast", shrunk)
        assert full is not tiny
        assert tiny.ipc < full.ipc  # a quarter of the window must cost IPC

    def test_seed_is_part_of_the_key(self, small_grid):
        default = small_grid.run("511.povray", "phast")
        reseeded = small_grid.run("511.povray", "phast", seed=12345)
        assert default is not reseeded

    def test_factory_label_distinguishes_variants(self, small_grid):
        h4 = small_grid.run(
            "511.povray",
            "unl-nosq-h4",
            predictor_factory=lambda: UnlimitedNoSQPredictor(history_branches=4),
        )
        h8 = small_grid.run(
            "511.povray",
            "unl-nosq-h8",
            predictor_factory=lambda: UnlimitedNoSQPredictor(history_branches=8),
        )
        assert h4 is not h8


class TestDurableStore:
    def test_second_grid_hits_the_store_without_simulating(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path / "store")
        first = ExperimentGrid(num_ops=2500, store=store)
        result = first.run("511.povray", "phast")

        def boom(*args, **kwargs):
            raise AssertionError("cell should have come from the durable store")

        monkeypatch.setattr(experiment_module, "run_spec", boom)
        second = ExperimentGrid(num_ops=2500, store=store)
        assert second.run("511.povray", "phast") == result

    def test_different_cell_misses_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        grid = ExperimentGrid(num_ops=2500, store=store)
        grid.run("511.povray", "phast")
        assert len(store) == 1
        grid.run("511.povray", "nosq")
        assert len(store) == 2


class TestTolerantSuites:
    def flaky_run_spec(self, broken_workload):
        def wrapper(spec):
            if spec.workload_name == broken_workload:
                raise RuntimeError("seeded cell failure")
            return real_run_spec(spec)

        return wrapper

    def test_strict_suite_still_raises(self, monkeypatch):
        monkeypatch.setattr(
            experiment_module, "run_spec", self.flaky_run_spec("541.leela")
        )
        grid = ExperimentGrid(num_ops=2500)
        with pytest.raises(RuntimeError):
            grid.run_suite(["511.povray", "541.leela"], "phast")


class TestAggregates:
    def test_run_suite_keys(self, small_grid):
        results = small_grid.run_suite(["511.povray", "541.leela"], "phast")
        assert set(results) == {"511.povray", "541.leela"}

    def test_normalize_to_ideal(self, small_grid):
        workloads = ["511.povray"]
        results = small_grid.run_suite(workloads, "always-speculate")
        ideal = small_grid.run_suite(workloads, "ideal")
        normalized = normalize_to_ideal(results, ideal)
        assert 0 < normalized["511.povray"] <= 1.05

    def test_mean_normalized_ipc_bounded(self, small_grid):
        value = small_grid.mean_normalized_ipc(["511.povray", "541.leela"], "phast")
        assert 0.3 < value <= 1.05

    def test_mean_mpki_non_negative(self, small_grid):
        violations, false_deps = small_grid.mean_mpki(
            ["511.povray", "541.leela"], "always-speculate"
        )
        assert violations >= 0
        assert false_deps == 0.0  # never predicts a dependence
