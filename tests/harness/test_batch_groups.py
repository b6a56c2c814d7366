"""Batch-group scheduling: one worker unit, per-cell verdicts.

The contract under test: a :class:`~repro.harness.executor.BatchGroup` is
*scheduling* aggregation only. Results, failures, retries, store entries
and chaos classification all stay per-cell — a worker crash mid-group
salvages every streamed result and retries only the unfinished cells, as
solo cells, so one bad cell (or one injected fault) can never poison the
verdict of its groupmates.

Fake group workers are module-level (picklable) and misbehave on purpose,
mirroring ``tests/harness/test_executor.py``.
"""

import os
import signal

import pytest

from repro.core.pipeline import PipelineStats
from repro.harness.chaos import FaultPlan
from repro.harness.executor import (
    BatchGroup,
    ProcessCellExecutor,
    _batch_group_worker,
)
from repro.harness.failures import FailureKind
from repro.harness.store import ResultStore
from repro.harness.sweep import SweepRunner, build_cells
from repro.mdp.base import MDPStats
from repro.sim.metrics import SimResult
from repro.sim.spec import RunSpec


def _result_for(cell):
    return SimResult(
        workload=cell.workload,
        predictor=cell.predictor,
        core=cell.resolved_config().name,
        pipeline=PipelineStats(committed_uops=100, cycles=50),
        mdp=MDPStats(),
    )


def _ok_group_worker(conn, group, check_invariants):
    for index, cell in enumerate(group.cells):
        conn.send(("cell", index, "ok", _result_for(cell).to_record()))
    conn.send(("ok", {"cells": len(group.cells)}))
    conn.close()


def _die_after_two_group_worker(conn, group, check_invariants):
    """Streams two cell results, then dies hard: the salvage scenario."""
    for index, cell in enumerate(group.cells):
        if index == 2:
            os.kill(os.getpid(), signal.SIGSEGV)
        conn.send(("cell", index, "ok", _result_for(cell).to_record()))
    conn.send(("ok", {"cells": len(group.cells)}))
    conn.close()


def _one_bad_cell_group_worker(conn, group, check_invariants):
    """Cell 1 fails in-band; the rest of the group still completes."""
    for index, cell in enumerate(group.cells):
        if index == 1:
            conn.send(
                ("cell", index, "error", {"message": "ValueError: seeded"})
            )
        else:
            conn.send(("cell", index, "ok", _result_for(cell).to_record()))
    conn.send(("ok", {"cells": len(group.cells)}))
    conn.close()


def _ok_solo_worker(conn, spec, check_invariants):
    conn.send(("ok", _result_for(spec).to_record()))
    conn.close()


def _crashing_solo_worker(conn, spec, check_invariants):
    os._exit(13)


def _group(n=4, workload="wl"):
    cells = tuple(
        RunSpec(workload=workload, predictor=f"p{i}", num_ops=100)
        for i in range(n)
    )
    return BatchGroup(cells=cells)


def executor(group_worker, worker=_ok_solo_worker, **kwargs):
    kwargs.setdefault("timeout", 10.0)
    kwargs.setdefault("retries", 1)
    return ProcessCellExecutor(
        worker=worker, group_worker=group_worker, **kwargs
    )


class TestGroupScheduling:
    def test_full_group_success_settles_every_cell(self):
        group = _group(4)
        outcomes = executor(_ok_group_worker).run_many([group])
        assert len(outcomes) == 1
        shell = outcomes[0]
        assert shell.spec is group
        assert shell.failure is None
        assert len(shell.cells) == 4
        for sub, cell in zip(shell.cells, group.cells):
            assert sub.spec == cell
            assert sub.ok
            assert sub.result.predictor == cell.predictor

    def test_results_persisted_per_cell(self, tmp_path):
        group = _group(3)
        store = ResultStore(tmp_path / "store")
        executor(_ok_group_worker).run_many([group], store=store)
        for cell in group.cells:
            assert store.get(cell.key()) is not None

    def test_group_timeout_budget_scales_with_cells(self):
        group = _group(5)
        ex = executor(_ok_group_worker, timeout=2.0)
        entry = ex._spawn(0, group, 0, now=100.0)
        try:
            assert entry.deadline == pytest.approx(100.0 + 2.0 * 5)
        finally:
            entry.proc.kill()
            entry.proc.join(5)
            entry.conn.close()

    def test_progress_fires_per_cell_not_per_group(self):
        seen = []
        group = _group(3)
        executor(_ok_group_worker).run_many([group], progress=seen.append)
        assert [o.spec.predictor for o in seen] == ["p0", "p1", "p2"]


class TestPerCellSalvage:
    def test_crash_mid_group_salvages_finished_cells(self, tmp_path):
        """A dead group worker keeps its streamed results; the unfinished
        cells are retried as solo cells and settle individually."""
        group = _group(4)
        store = ResultStore(tmp_path / "store")
        outcomes = executor(_die_after_two_group_worker).run_many(
            [group], store=store
        )
        shell = outcomes[0]
        assert shell.failure is not None
        assert shell.failure.kind is FailureKind.CRASH
        # cells 0 and 1 were streamed before the SIGSEGV: salvaged
        assert [s.spec.predictor for s in shell.cells] == ["p0", "p1"]
        assert all(s.ok for s in shell.cells)
        # cells 2 and 3 were re-run solo (the _ok_solo_worker) and appended
        solos = outcomes[1:]
        assert sorted(o.spec.predictor for o in solos) == ["p2", "p3"]
        assert all(o.ok for o in solos)
        # every cell of the group has a durable store entry either way
        for cell in group.cells:
            assert store.get(cell.key()) is not None

    def test_in_band_cell_failure_retries_only_that_cell(self):
        group = _group(3)
        outcomes = executor(_one_bad_cell_group_worker).run_many([group])
        shell = outcomes[0]
        assert shell.failure is None  # the worker itself finished cleanly
        assert [s.spec.predictor for s in shell.cells] == ["p0", "p2"]
        solos = outcomes[1:]
        assert [o.spec.predictor for o in solos] == ["p1"]
        assert solos[0].ok  # solo retry succeeded

    def test_no_whole_group_poison_on_persistent_solo_failure(self, tmp_path):
        """Even when the solo retry also fails, only that cell fails."""
        group = _group(3)
        store = ResultStore(tmp_path / "store")
        outcomes = executor(
            _one_bad_cell_group_worker, worker=_crashing_solo_worker, retries=0
        ).run_many([group], store=store)
        shell = outcomes[0]
        assert [s.spec.predictor for s in shell.cells] == ["p0", "p2"]
        solo = outcomes[1]
        assert solo.spec.predictor == "p1"
        assert solo.failure is not None
        assert solo.failure.kind is FailureKind.CRASH
        # the failure record names the cell, not the group
        assert solo.failure.cell.get("predictor") == "p1"
        assert store.get(group.cells[0].key()) is not None
        assert store.get_failure(group.cells[1].key()) is not None
        assert store.get(group.cells[2].key()) is not None


class TestGroupDeadline:
    def test_pending_group_cut_settles_every_cell_as_deadline(self):
        """A group the campaign deadline caught still pending settles with
        one deadline verdict per cell — nothing persisted, nothing lost."""
        group = _group(3)
        # timeout=10 with a deadline of 0: the scheduler cuts immediately
        outcomes = executor(_ok_group_worker).run_many([group], deadline=0.0)
        shell = outcomes[0]
        assert len(shell.cells) == 3
        for sub in shell.cells:
            assert sub.failure is not None
            assert sub.failure.kind is FailureKind.DEADLINE
            assert sub.failure.detail["phase"] == "pending"


class TestChaosSemantics:
    def test_injected_group_crash_classifies_per_cell(self, tmp_path):
        """The chaos gate for batch groups: an injected worker crash on a
        group settles as per-cell verdicts (salvage + solo retries), and
        the journal's observed kind matches the injected fault."""
        preds = ["phast", "store-sets", "cht"]
        store = ResultStore(tmp_path / "store")
        runner = SweepRunner(
            store, ProcessCellExecutor(timeout=120, retries=0, workers=1)
        )
        cells = build_cells(
            ["511.povray"], preds, num_ops=2000, backend="batch"
        )
        report = runner.run(
            cells, fault_plan=FaultPlan(seed=7, crash_rate=1.0)
        )
        # one outcome per input cell, each its own crash verdict
        assert len(report.outcomes) == len(cells)
        for outcome in report.outcomes:
            assert outcome.failure is not None
            assert outcome.failure.kind is FailureKind.CRASH
            assert (
                outcome.failure.cell.get("predictor")
                == outcome.spec.predictor
            )
        # every injected fault observed as the kind it simulates
        for event in report.chaos.events:
            if event.site.startswith("worker."):
                assert event.observed == FailureKind.CRASH.value


class TestSweepPlanning:
    def test_reference_cells_never_grouped(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = SweepRunner(store, ProcessCellExecutor(), precompile=False)
        cells = build_cells(["511.povray"], ["phast", "nosq"], num_ops=100)
        jobs = runner._plan_jobs(cells)
        assert all(isinstance(job, RunSpec) for job in jobs)

    def test_batch_cells_grouped_by_trace(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = SweepRunner(store, ProcessCellExecutor(), precompile=False)
        cells = build_cells(
            ["511.povray", "541.leela"],
            ["phast", "nosq", "cht"],
            num_ops=100,
            backend="batch",
        )
        jobs = runner._plan_jobs(cells)
        groups = [job for job in jobs if isinstance(job, BatchGroup)]
        assert len(groups) == 2  # one per trace
        assert sorted(g.workload for g in groups) == ["511.povray", "541.leela"]
        assert all(len(g.cells) == 3 for g in groups)

    def test_cached_cells_never_reach_the_executor(self, tmp_path):
        dispatched = []

        class Recording(ProcessCellExecutor):
            def run_many(self, jobs, **kwargs):
                dispatched.extend(jobs)
                return super().run_many(jobs, **kwargs)

        store = ResultStore(tmp_path / "store")
        runner = SweepRunner(
            store, Recording(group_worker=_ok_group_worker), precompile=False
        )
        cells = build_cells(
            ["511.povray"], ["phast", "nosq", "cht"], num_ops=100,
            backend="batch",
        )
        store.put(cells[0].key(), _result_for(cells[0]))
        report = runner.run(cells)
        (group,) = dispatched
        assert [cell.predictor for cell in group.cells] == ["nosq", "cht"]
        assert [o.cached for o in report.outcomes] == [True, False, False]

    def test_singleton_groups_stay_solo(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = SweepRunner(store, ProcessCellExecutor(), precompile=False)
        cells = build_cells(
            ["511.povray"], ["phast"], num_ops=100, backend="batch"
        )
        jobs = runner._plan_jobs(cells)
        assert all(isinstance(job, RunSpec) for job in jobs)

    def test_registered_names_and_variants_are_grouped(self, tmp_path):
        from repro.mdp.store_sets import StoreSetsPredictor
        from repro.sim.simulator import register_predictor, unregister_predictor

        store = ResultStore(tmp_path / "store")
        runner = SweepRunner(store, ProcessCellExecutor(), precompile=False)
        names = ["group-test-a", "phast(target_bits=0)", "ideal(strict=False)"]
        register_predictor("group-test-a", StoreSetsPredictor)
        try:
            cells = build_cells(["511.povray"], names, num_ops=100, backend="batch")
            jobs = runner._plan_jobs(cells)
        finally:
            unregister_predictor("group-test-a")
        assert len(jobs) == 1 and isinstance(jobs[0], BatchGroup)
        assert [cell.predictor for cell in jobs[0].cells] == names

    def test_invariant_checked_cells_are_grouped(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = SweepRunner(
            store,
            ProcessCellExecutor(check_invariants=True),
            precompile=False,
        )
        cells = build_cells(
            ["511.povray"], ["phast", "nosq"], num_ops=100, backend="batch"
        )
        jobs = runner._plan_jobs(cells)
        assert len(jobs) == 1 and isinstance(jobs[0], BatchGroup)

    def test_unknown_backend_cells_fail_solo_with_clear_error(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = SweepRunner(store, ProcessCellExecutor(), precompile=False)
        cells = build_cells(
            ["511.povray"], ["phast", "nosq"], num_ops=100, backend="bogus"
        )
        jobs = runner._plan_jobs(cells)
        assert all(isinstance(job, RunSpec) for job in jobs)


class TestGroupWorkerBody:
    def test_real_group_worker_streams_per_cell(self):
        """`_batch_group_worker` against the real simulator: every cell of a
        small group produces an ok event plus the final sign-off."""
        import multiprocessing

        cells = tuple(
            RunSpec(workload="511.povray", predictor=p, num_ops=1500)
            for p in ("ideal", "always-wait")
        )
        group = BatchGroup(cells=cells)
        parent, child = multiprocessing.Pipe(duplex=False)
        _batch_group_worker(child, group, False)
        messages = []
        try:
            while parent.poll(0):
                messages.append(parent.recv())
        except EOFError:
            pass  # worker closed its end after the final message
        parent.close()
        cell_ok = [m for m in messages if m[0] == "cell" and m[2] == "ok"]
        assert [m[1] for m in cell_ok] == [0, 1]
        assert messages[-1][0] == "ok"
        for m in cell_ok:
            result = SimResult.from_record(m[3])
            assert result.pipeline.committed_uops > 0
