"""Campaign-level resilience: deadlines, quarantine, the circuit breaker.

These policies settle cells with *ephemeral* kinds (``deadline``,
``quarantined``, ``skipped``) that are never persisted to the failure
store — on resume the cells are still pending, which is exactly what makes
a deadline a clean partial shutdown rather than a poisoned store.
"""

import os
import time

from repro.core.pipeline import PipelineStats
from repro.harness.executor import ProcessCellExecutor
from repro.harness.failures import EPHEMERAL_KINDS, CellFailure, FailureKind
from repro.harness.store import ResultStore
from repro.mdp.base import MDPStats
from repro.sim.metrics import SimResult
from repro.sim.spec import RunSpec


def _result_for(spec):
    return SimResult(
        workload=spec.workload,
        predictor=spec.predictor,
        core=spec.resolved_config().name,
        pipeline=PipelineStats(committed_uops=100, cycles=50),
        mdp=MDPStats(),
    )


def _ok_worker(conn, spec, check_invariants):
    conn.send(("ok", _result_for(spec).to_record()))
    conn.close()


def _slow_worker(conn, spec, check_invariants):
    time.sleep(30)


def _crashing_worker(conn, spec, check_invariants):
    os._exit(3)


def _per_workload_worker(conn, spec, check_invariants):
    # Workloads named bad* crash deterministically; everything else is fine.
    if spec.workload.startswith("bad"):
        os._exit(3)
    _ok_worker(conn, spec, check_invariants)


def executor(worker, **kwargs):
    kwargs.setdefault("timeout", 10.0)
    kwargs.setdefault("retries", 0)
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("backoff_base", 0.01)
    kwargs.setdefault("backoff_cap", 0.02)
    return ProcessCellExecutor(worker=worker, **kwargs)


def specs(n, workload="w"):
    return [RunSpec(workload=f"{workload}{i}", predictor="p") for i in range(n)]


class TestDeadline:
    def test_running_and_pending_cells_cut_cleanly(self):
        outcomes = executor(_slow_worker, workers=1).run_many(
            specs(3), deadline=0.4
        )
        assert len(outcomes) == 3
        assert all(o.failure.kind is FailureKind.DEADLINE for o in outcomes)
        phases = {o.failure.detail["phase"] for o in outcomes}
        assert phases == {"running", "pending"}

    def test_completed_results_survive_the_cut(self, tmp_path):
        store = ResultStore(tmp_path / "store")

        def worker(conn, spec, check_invariants):
            if spec.workload == "w1":
                time.sleep(30)
            _ok_worker(conn, spec, check_invariants)

        outcomes = executor(worker, workers=1).run_many(
            specs(3), store=store, deadline=1.0
        )
        by_workload = {o.spec.workload: o for o in outcomes}
        assert by_workload["w0"].ok
        assert store.get(RunSpec(workload="w0", predictor="p").key()) is not None
        assert by_workload["w1"].failure.kind is FailureKind.DEADLINE

    def test_cut_cells_are_not_persisted_and_resume_pending(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        population = specs(2)
        executor(_slow_worker, workers=1).run_many(
            population, store=store, deadline=0.3
        )
        for spec in population:
            assert store.get_failure(spec.key()) is None
        status = store.status(spec.key() for spec in population)
        assert status.pending == 2
        # The resumed (deadline-free) run finishes the job.
        resumed = executor(_ok_worker).run_many(population, store=store)
        assert all(o.ok for o in resumed)

    def test_no_deadline_means_no_cut(self):
        outcomes = executor(_ok_worker).run_many(specs(3))
        assert all(o.ok for o in outcomes)


class TestQuarantine:
    def test_durable_failure_skipped_with_original_in_detail(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = RunSpec(workload="doomed", predictor="p")
        executor(_crashing_worker, retries=1).run_many([spec], store=store)
        outcome = executor(_crashing_worker).run_many(
            [spec], store=store, quarantine=True
        )[0]
        assert outcome.failure.kind is FailureKind.QUARANTINED
        assert outcome.failure.attempts == 2  # the prior run's count
        original = outcome.failure.detail["original"]
        assert original["kind"] == "crash"
        # Quarantine is an annotation, not a verdict: the durable record
        # still holds the original failure, not the quarantine marker.
        assert store.get_failure(spec.key()).kind is FailureKind.CRASH

    def test_without_the_flag_the_cell_is_rejudged(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = RunSpec(workload="doomed", predictor="p")
        executor(_crashing_worker).run_many([spec], store=store)
        outcome = executor(_ok_worker).run_many([spec], store=store)[0]
        assert outcome.ok  # re-judged (and healed) without quarantine
        assert store.get_failure(spec.key()) is None

    def test_quarantine_never_spawns_a_worker(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = RunSpec(workload="doomed", predictor="p")
        executor(_crashing_worker).run_many([spec], store=store)
        started = time.monotonic()
        executor(_slow_worker, timeout=30.0).run_many(
            [spec], store=store, quarantine=True
        )
        assert time.monotonic() - started < 5.0


class TestCircuitBreaker:
    def test_threshold_failures_trip_the_workload(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        # 4 cells of one workload, sequential so failures accumulate.
        population = [
            RunSpec(workload="bad", predictor=f"p{i}") for i in range(4)
        ]
        outcomes = executor(
            _per_workload_worker, workers=1, breaker_threshold=2
        ).run_many(population, store=store)
        kinds = [o.failure.kind for o in outcomes]
        assert kinds[:2] == [FailureKind.CRASH, FailureKind.CRASH]
        assert kinds[2:] == [FailureKind.SKIPPED, FailureKind.SKIPPED]
        # Skips are ephemeral: only the two real failures are durable.
        assert sum(
            1 for s in population if store.get_failure(s.key()) is not None
        ) == 2

    def test_other_workloads_unaffected(self):
        population = [
            RunSpec(workload="bad", predictor="p0"),
            RunSpec(workload="bad", predictor="p1"),
            RunSpec(workload="bad", predictor="p2"),
            RunSpec(workload="good", predictor="p0"),
        ]
        outcomes = executor(
            _per_workload_worker, workers=1, breaker_threshold=2
        ).run_many(population)
        by_cell = {(o.spec.workload, o.spec.predictor): o for o in outcomes}
        assert by_cell[("bad", "p2")].failure.kind is FailureKind.SKIPPED
        assert by_cell[("good", "p0")].ok

    def test_a_success_holds_the_breaker_open(self):
        # successes > 0 means the workload is not systematically broken.
        population = [
            RunSpec(workload="good", predictor="p0"),
            RunSpec(workload="bad", predictor="p0"),
        ]

        def worker(conn, spec, check_invariants):
            if spec.predictor == "p0" and spec.workload == "bad":
                os._exit(3)
            _ok_worker(conn, spec, check_invariants)

        outcomes = executor(worker, workers=1, breaker_threshold=1).run_many(
            population + [RunSpec(workload="good", predictor="p1")]
        )
        assert outcomes[2].ok  # "good" never trips

    def test_invalid_threshold_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="breaker_threshold"):
            ProcessCellExecutor(breaker_threshold=0)


class TestEphemeralKinds:
    def test_the_policy_kinds_are_ephemeral(self):
        assert EPHEMERAL_KINDS == {
            FailureKind.DEADLINE,
            FailureKind.QUARANTINED,
            FailureKind.SKIPPED,
        }

    def test_ephemeral_and_transient_are_disjoint(self):
        from repro.harness.failures import TRANSIENT_KINDS

        assert not (EPHEMERAL_KINDS & TRANSIENT_KINDS)

    def test_ephemeral_failures_round_trip_as_records(self):
        failure = CellFailure(
            kind=FailureKind.DEADLINE,
            message="killed at the 5.0s campaign deadline",
            cell={"workload": "w", "predictor": "p"},
            detail={"deadline_seconds": 5.0, "phase": "running"},
        )
        assert CellFailure.from_dict(failure.to_dict()) == failure
