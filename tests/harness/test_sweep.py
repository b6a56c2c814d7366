"""Tests for campaign-level sweeps: resume, manifests, graceful degradation."""

import os

import pytest

from repro.core.config import CoreConfig
from repro.core.pipeline import PipelineStats
from repro.harness.executor import ProcessCellExecutor
from repro.harness.failures import FailureKind
from repro.harness.leases import LeaseStore
from repro.harness.store import ResultStore
from repro.harness.sweep import SweepRunner, build_cells
from repro.mdp.base import MDPStats
from repro.sim.metrics import SimResult
from repro.sim.spec import RunSpec


def _result_for(spec):
    return SimResult(
        workload=spec.workload,
        predictor=spec.predictor,
        core=spec.config.name,
        pipeline=PipelineStats(committed_uops=100, cycles=50),
        mdp=MDPStats(),
    )


def _ok_worker(conn, spec, check_invariants):
    conn.send(("ok", _result_for(spec).to_record()))
    conn.close()


def _ok_group_worker(conn, group, check_invariants):
    for index, cell in enumerate(group.cells):
        conn.send(("cell", index, "ok", _result_for(cell).to_record()))
    conn.send(("ok", {"cells": len(group.cells)}))
    conn.close()


def _bad_predictor_worker(conn, spec, check_invariants):
    # Deterministically crash one column of the grid.
    if spec.predictor == "bad":
        os._exit(3)
    _ok_worker(conn, spec, check_invariants)


def runner(tmp_path, worker, **kwargs):
    kwargs.setdefault("timeout", 10.0)
    kwargs.setdefault("retries", 0)
    kwargs.setdefault("backoff_base", 0.01)
    return SweepRunner(
        ResultStore(tmp_path / "store"),
        ProcessCellExecutor(worker=worker, **kwargs),
    )


class TestBuildCells:
    def test_cross_product(self):
        cells = build_cells(["a", "b"], ["x", "y", "z"], num_ops=100, seed=4)
        assert len(cells) == 6
        assert {(c.workload, c.predictor) for c in cells} == {
            (w, p) for w in ("a", "b") for p in ("x", "y", "z")
        }
        assert all(c.num_ops == 100 and c.seed == 4 for c in cells)

    def test_shared_config(self):
        config = CoreConfig()
        cells = build_cells(["a"], ["x", "y"], config=config)
        assert all(c.config is config for c in cells)

    def test_cells_are_run_specs_with_explicit_config(self):
        (cell,) = build_cells(["a"], ["x"])
        assert isinstance(cell, RunSpec)
        assert cell.config == CoreConfig()
        assert cell.num_ops is None  # 0 and None both mean "the default"
        assert cell.key() == RunSpec("a", "x").key()


UNKEYED_FIELDS = (
    "predictor", "workload", "probes", "branch_predictor", "warmup_ops", "interval_ops",
)


def _unkeyed_overrides():
    from repro.core.probes import Probe
    from repro.frontend.branch_predictors import BimodalPredictor
    from repro.sim.simulator import make_predictor
    from repro.workloads.spec2017 import workload

    return {
        "predictor": {"predictor": make_predictor("phast")},
        "workload": {"workload": workload("511.povray")},
        "probes": {"probes": (Probe(),)},
        "branch_predictor": {"branch_predictor": BimodalPredictor()},
        "warmup_ops": {"warmup_ops": 0},
        "interval_ops": {"interval_ops": 100},
    }


class TestUnkeyedFields:
    @pytest.mark.parametrize("field", UNKEYED_FIELDS)
    def test_run_refuses_a_field_the_store_does_not_key(self, tmp_path, field):
        sweeps = runner(tmp_path, _ok_worker)
        spec = RunSpec("511.povray", "phast", num_ops=100)
        cells = [spec, spec.with_overrides(**_unkeyed_overrides()[field])]
        with pytest.raises(ValueError, match=f": {field} is not"):
            sweeps.run(cells)
        assert len(sweeps.store) == 0  # refused before anything ran


class TestSweepRuns:
    def test_fresh_run_then_full_cache_hit(self, tmp_path):
        sweeps = runner(tmp_path, _ok_worker)
        cells = build_cells(["a", "b"], ["x", "y"])
        first = sweeps.run(cells)
        assert (first.completed, first.cached, first.simulated) == (4, 0, 4)
        second = sweeps.run(cells)
        assert (second.completed, second.cached, second.simulated) == (4, 4, 0)
        assert "cached=4, simulated=0" in second.summary()

    def test_results_keyed_by_cell(self, tmp_path):
        sweeps = runner(tmp_path, _ok_worker)
        report = sweeps.run(build_cells(["a"], ["x", "y"]))
        assert set(report.results) == {("a", "x"), ("a", "y")}

    def test_failures_degrade_gracefully(self, tmp_path):
        sweeps = runner(tmp_path, _bad_predictor_worker)
        cells = build_cells(["a", "b"], ["good", "bad"])
        report = sweeps.run(cells)
        assert report.completed == 2
        assert report.failed == 2  # the "bad" column, both workloads
        assert set(report.results) == {("a", "good"), ("b", "good")}
        assert all(f.kind is FailureKind.CRASH for f in report.failures)

    def test_manifest_written_every_run(self, tmp_path):
        sweeps = runner(tmp_path, _bad_predictor_worker)
        cells = build_cells(["a"], ["good", "bad"])
        sweeps.run(cells)
        manifest = sweeps.store.read_manifest()
        assert manifest["failure_count"] == 1
        assert manifest["cells"] == 2
        assert manifest["completed"] == 1
        assert manifest["failures"][0]["kind"] == "crash"
        assert manifest["failures"][0]["cell"]["predictor"] == "bad"
        # A clean re-run of the surviving cells rewrites it empty.
        clean = runner(tmp_path, _ok_worker)
        clean.run(build_cells(["a"], ["good"]))
        assert clean.store.read_manifest()["failure_count"] == 0

    def test_status_without_running(self, tmp_path):
        sweeps = runner(tmp_path, _bad_predictor_worker)
        cells = build_cells(["a", "b"], ["good", "bad"])
        before = sweeps.status(cells)
        assert (before.completed, before.failed, before.pending) == (0, 0, 4)
        sweeps.run(cells)
        after = sweeps.status(cells)
        assert (after.completed, after.failed, after.pending) == (2, 2, 0)

    def test_progress_callback_sees_every_cell(self, tmp_path):
        sweeps = runner(tmp_path, _ok_worker)
        cells = build_cells(["a", "b"], ["x"])
        seen = []
        sweeps.run(cells, progress=seen.append)
        assert len(seen) == 2
        sweeps.run(cells, progress=seen.append)
        assert len(seen) == 4
        assert all(outcome.cached for outcome in seen[2:])


class _CountingStore(ResultStore):
    """A result store that counts the entries a sweep reads."""

    reads = 0

    def get(self, key):
        self.reads += 1
        return super().get(key)

    def get_failure(self, key):
        self.reads += 1
        return super().get_failure(key)


class _RecordingExecutor(ProcessCellExecutor):
    """Remembers every job the runner hands over."""

    def __init__(self, **kwargs):
        super().__init__(
            worker=_ok_worker, group_worker=_ok_group_worker, timeout=10.0,
            retries=0, **kwargs,
        )
        self.dispatched = []

    def run_many(self, jobs, **kwargs):
        self.dispatched.extend(jobs)
        return super().run_many(jobs, **kwargs)


class TestStoreReads:
    """The runner reads each cell's stored state once, before any work;
    with leases, each claim adds exactly one read (the race guard)."""

    @pytest.mark.parametrize("backend", ["reference", "batch"])
    @pytest.mark.parametrize("leased", [False, True], ids=["plain", "leased"])
    def test_each_cell_is_read_once_per_run(self, tmp_path, backend, leased):
        store = _CountingStore(tmp_path / "store")
        sweeps = SweepRunner(store, _RecordingExecutor(), precompile=False)
        cells = build_cells(["a", "b"], ["x", "y", "z"], backend=backend)

        def run():
            store.reads = 0
            leases = LeaseStore(store.leases_dir, owner="me") if leased else None
            return sweeps.run(cells, leases=leases)

        fresh = run()
        assert fresh.simulated == len(cells)
        assert store.reads == len(cells) * (2 if leased else 1)
        cached = run()
        assert cached.cached == len(cells)
        assert store.reads == len(cells)  # answered cells are never claimed

    def test_a_result_landing_before_the_claim_settles_as_cached(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        (cell,) = build_cells(["a"], ["x"])

        class PeerFinishesFirst(LeaseStore):
            def acquire(self, digest):
                # A peer stores the result after the runner's first read.
                store.put(cell.key(), _result_for(cell))
                return super().acquire(digest)

        executor = _RecordingExecutor()
        report = SweepRunner(store, executor).run(
            [cell], leases=PeerFinishesFirst(store.leases_dir, owner="me")
        )
        assert (report.cached, report.simulated) == (1, 0)
        assert executor.dispatched == []
        assert list(store.leases_dir.glob("*.json")) == []  # lease released


class TestTracePrecompile:
    def real_runner(self, tmp_path, precompile=True):
        return SweepRunner(
            ResultStore(tmp_path / "store"),
            ProcessCellExecutor(timeout=120.0, retries=0),
            precompile=precompile,
        )

    def test_precompile_populates_trace_store(self, tmp_path):
        sweeps = self.real_runner(tmp_path)
        cells = build_cells(
            ["511.povray"], ["ideal", "store-sets"], num_ops=400, seed=3
        )
        report = sweeps.run(cells)
        assert report.completed == 2
        # Two cells share one (workload, seed, num_ops): one compiled trace.
        assert report.precompiled == 1
        assert len(sweeps.trace_store) == 1
        assert report.trace_rebuilds == 0
        assert "trace-rebuilds=0" in report.summary()
        manifest = sweeps.store.read_manifest()
        assert manifest["precompiled_traces"] == 1
        assert manifest["trace_rebuilds"] == 0

    def test_second_run_compiles_nothing(self, tmp_path):
        sweeps = self.real_runner(tmp_path)
        cells = build_cells(["511.povray"], ["ideal"], num_ops=400, seed=3)
        sweeps.run(cells)
        again = self.real_runner(tmp_path).run(cells, resume=False)
        assert again.precompiled == 0  # artifact already stored

    def test_spawn_workers_load_artifacts_with_zero_rebuilds(
        self, tmp_path, monkeypatch
    ):
        # spawn-started workers have cold in-process caches, so a zero
        # rebuild count proves they really loaded the compiled artifacts.
        monkeypatch.setenv("REPRO_SWEEP_MP", "spawn")
        sweeps = self.real_runner(tmp_path)
        cells = build_cells(["511.povray"], ["ideal"], num_ops=420, seed=3)
        report = sweeps.run(cells)
        assert report.completed == 1
        assert report.trace_rebuilds == 0

    def test_spawn_workers_without_artifacts_record_rebuilds(
        self, tmp_path, monkeypatch
    ):
        # Negative control for the zero-rebuild guard: with precompilation
        # off and an empty store, every worker falls through to build_trace
        # and drops a marker.
        monkeypatch.setenv("REPRO_SWEEP_MP", "spawn")
        sweeps = self.real_runner(tmp_path, precompile=False)
        cells = build_cells(
            ["511.povray"], ["ideal"], num_ops=430, seed=3,
            trace_dir=str(sweeps.trace_store.root),
        )
        report = sweeps.run(cells)
        assert report.completed == 1
        assert report.trace_rebuilds is None  # runner didn't precompile
        assert sweeps.trace_store.rebuild_count() == 1

    def test_synthetic_workloads_skip_precompile(self, tmp_path):
        # Unknown workload names can't be compiled; the sweep must still run.
        sweeps = runner(tmp_path, _ok_worker)
        report = sweeps.run(build_cells(["a"], ["x"]))
        assert report.completed == 1
        assert report.precompiled == 0
