"""Where a sweep compiles its traces: the parent for solo cells, groups for their own.

A batch group is the only reader of its trace, so the sweep leaves the
trace to the group's worker: it loads the artifact, or builds and persists
it, before its first cell, without a rebuild marker. The parent precompiles
only the traces that pending solo cells read, and keeps the trace it
compiled in its in-process cache instead of reading the artifact back.

Build counts come from a ``build_trace`` wrapper that appends one line per
call to a file, so fork-started workers report their builds too.
"""

from __future__ import annotations

import errno
import os

import pytest

from repro.common.atomicio import set_write_fault_hook
from repro.harness.executor import ProcessCellExecutor
from repro.harness.store import ResultStore
from repro.harness.sweep import SweepRunner, build_cells
from repro.sim import simulator
from repro.workloads import generator

WORKLOADS = ["511.povray", "541.leela"]
PREDICTORS = ["phast", "nosq", "store-sets"]
NUM_OPS = 1200


@pytest.fixture
def builds(tmp_path, monkeypatch):
    """The pids of every ``build_trace`` call, across forked workers."""
    log = tmp_path / "builds.log"
    original = generator.build_trace

    def counting(profile, num_ops):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return original(profile, num_ops)

    # The artifact store imports it at call time; the simulator at import.
    monkeypatch.setattr(generator, "build_trace", counting)
    monkeypatch.setattr(simulator, "build_trace", counting)

    def read():
        return log.read_text().split() if log.exists() else []

    return read


@pytest.fixture
def refuse_artifacts():
    """Refuse every ``.rtb`` write, as a full disk would."""

    def hook(path, data):
        if path.suffix == ".rtb":
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        return None

    previous = set_write_fault_hook(hook)
    yield
    set_write_fault_hook(previous)


def _runner(root, workers=2):
    return SweepRunner(
        ResultStore(root / "store"),
        ProcessCellExecutor(timeout=120.0, retries=0, workers=workers),
    )


def _records(report):
    return {cell: result.to_record() for cell, result in report.results.items()}


def _reference(root, workloads, predictors):
    report = _runner(root / "reference").run(
        build_cells(workloads, predictors, num_ops=NUM_OPS, backend="reference")
    )
    assert report.failed == 0
    return _records(report)


class TestGroupCompile:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_fresh_batch_sweep_compiles_in_groups(
        self, tmp_path, monkeypatch, start_method
    ):
        monkeypatch.setenv("REPRO_SWEEP_MP", start_method)
        sweeps = _runner(tmp_path / "batch")
        report = sweeps.run(
            build_cells(WORKLOADS, PREDICTORS, num_ops=NUM_OPS, backend="batch")
        )
        assert report.completed == len(WORKLOADS) * len(PREDICTORS)
        assert report.precompiled == 0  # no solo cell read a trace
        assert len(sweeps.trace_store) == len(WORKLOADS)
        assert report.trace_rebuilds == 0
        assert _records(report) == _reference(tmp_path, WORKLOADS, PREDICTORS)

    def test_rerun_loads_the_stored_artifacts(self, tmp_path, builds):
        cells = build_cells(WORKLOADS, PREDICTORS, num_ops=NUM_OPS, backend="batch")
        first = _runner(tmp_path).run(cells)
        assert len(builds()) == len(WORKLOADS)
        assert str(os.getpid()) not in builds()  # built in the group workers
        again = _runner(tmp_path).run(cells, resume=False)
        assert again.simulated == len(cells)
        assert len(builds()) == len(WORKLOADS)  # nothing built the second time
        assert again.trace_rebuilds == 0
        assert _records(again) == _records(first)

    def test_solo_cell_sharing_a_group_trace_is_precompiled_once(
        self, tmp_path, builds
    ):
        # A reference cell runs solo on the same trace as the batch group.
        sweeps = _runner(tmp_path)
        report = sweeps.run(
            build_cells(
                ["511.povray"], ["phast", "nosq"], num_ops=NUM_OPS, backend="batch"
            )
            + build_cells(
                ["511.povray"], ["store-sets"], num_ops=NUM_OPS, backend="reference"
            )
        )
        assert report.completed == 3
        assert report.precompiled == 1
        assert builds() == [str(os.getpid())]  # the parent, and only it
        assert report.trace_rebuilds == 0

    def test_group_runs_from_memory_when_the_artifact_write_is_refused(
        self, tmp_path, refuse_artifacts
    ):
        sweeps = _runner(tmp_path / "batch")
        report = sweeps.run(
            build_cells(["511.povray"], PREDICTORS, num_ops=NUM_OPS, backend="batch")
        )
        assert report.completed == len(PREDICTORS)
        assert len(sweeps.trace_store) == 0  # the disk refused the artifact
        assert report.trace_rebuilds == 0
        assert _records(report) == _reference(tmp_path, ["511.povray"], PREDICTORS)


class TestParentPrecompile:
    def test_refused_artifact_write_builds_once_without_a_rebuild(
        self, tmp_path, builds, refuse_artifacts
    ):
        # Reference cells are solo: the parent compiles their trace. With
        # the artifact refused it must keep the trace it built instead of
        # re-reading the store, building again and dropping a marker.
        sweeps = _runner(tmp_path, workers=1)
        report = sweeps.run(
            build_cells(["511.povray"], ["ideal", "nosq"], num_ops=NUM_OPS)
        )
        assert report.completed == 2
        assert report.precompiled == 1
        assert builds() == [str(os.getpid())]
        assert report.trace_rebuilds == 0
        assert sweeps.trace_store.rebuild_count() == 0
