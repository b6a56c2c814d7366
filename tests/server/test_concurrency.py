"""Dispatcher-pool concurrency and job-lifecycle regression tests.

These drive :class:`~repro.server.jobs.JobManager` directly (no HTTP) with
the event-gated :class:`~tests.server.stubs.FabricatingExecutor`, so every
interleaving — a job held mid-run, a queue backed up behind it, two jobs
provably in flight at once — is deterministic rather than timing-dependent.
"""

import threading
import time

import pytest

from repro.harness.store import ResultStore
from repro.server.jobs import JobManager, QuotaError, TenantPolicy
from repro.sim.spec import RunSpec

from tests.server.stubs import FabricatingExecutor

OPS = 600


def _specs(seed):
    return [
        RunSpec(workload="511.povray", predictor=p, num_ops=OPS, seed=seed)
        for p in ("phast", "ideal")
    ]


def _manager(tmp_path, factory, **kwargs) -> JobManager:
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("timeout", 30.0)
    kwargs.setdefault("retries", 0)
    return JobManager(
        ResultStore(tmp_path / "store"), executor_factory=factory, **kwargs
    )


def _wait_done(job, timeout=30.0) -> None:
    deadline = time.monotonic() + timeout
    while not job.done:
        assert time.monotonic() < deadline, f"job stuck in {job.state!r}"
        time.sleep(0.02)


def _started(stubs, timeout=10.0) -> None:
    """Block until a dispatcher has built a stub and entered run_many."""
    deadline = time.monotonic() + timeout
    while not stubs:
        assert time.monotonic() < deadline, "no dispatcher picked up the job"
        time.sleep(0.01)
    assert stubs[0].started.wait(timeout=timeout)


def _gated_factory(gate):
    """An executor factory whose jobs block until ``gate`` is set."""
    stubs = []

    def factory(check_invariants):
        stub = FabricatingExecutor(gate=gate)
        stubs.append(stub)
        return stub

    return factory, stubs


class TestCancellationRaces:
    def test_cancel_while_queued_settles_immediately(self, tmp_path):
        """A queued job's cancel must not wait for a dispatcher dequeue."""
        gate = threading.Event()
        factory, stubs = _gated_factory(gate)
        manager = _manager(tmp_path, factory, dispatchers=1)
        try:
            blocker, _ = manager.submit(_specs(seed=1))
            _started(stubs)
            queued, _ = manager.submit(_specs(seed=2))
            assert queued.state == "queued"

            manager.cancel(queued.id)
            # Settled right now, while the only dispatcher is still busy:
            # the terminal event is already in the log.
            assert queued.state == "cancelled"
            assert queued.events[-1]["event"] == "job"
            assert queued.events[-1]["state"] == "cancelled"
            assert len(stubs) == 1  # no runner was ever built for it

            gate.set()
            _wait_done(blocker)
            assert blocker.state == "completed"
            time.sleep(0.1)  # the dispatcher must skip the settled corpse
            assert queued.state == "cancelled"
            assert len(stubs) == 1
        finally:
            gate.set()
            manager.close()

    def test_cancel_while_running_settles_via_stop(self, tmp_path):
        gate = threading.Event()
        factory, stubs = _gated_factory(gate)
        manager = _manager(tmp_path, factory, dispatchers=1)
        try:
            job, _ = manager.submit(_specs(seed=3))
            _started(stubs)
            assert job.state == "running"
            manager.cancel(job.id)
            assert not job.done  # running jobs wind down, not teleport
            gate.set()
            _wait_done(job)
            assert job.state == "cancelled"
            # Stop-settled cells stay ephemeral — never "ok", never stored.
            assert all(cell.state != "ok" for cell in job.cells)
        finally:
            gate.set()
            manager.close()

    def test_cancel_after_done_is_a_noop(self, tmp_path):
        manager = _manager(
            tmp_path, lambda check: FabricatingExecutor(), dispatchers=1
        )
        try:
            job, _ = manager.submit(_specs(seed=4))
            _wait_done(job)
            assert job.state == "completed"
            events_before = len(job.events)
            assert manager.cancel(job.id) is job
            assert job.state == "completed"
            assert len(job.events) == events_before
        finally:
            manager.close()


class TestDispatch:
    def test_job_runs_its_submitted_specs_under_its_flag(self, tmp_path):
        flags, dispatched = [], []

        class Recording(FabricatingExecutor):
            def run_many(self, jobs, **kwargs):
                for job in jobs:
                    dispatched.extend(getattr(job, "cells", (job,)))
                return super().run_many(jobs, **kwargs)

        def factory(check_invariants):
            flags.append(check_invariants)
            return Recording()

        manager = _manager(tmp_path, factory)
        try:
            job, _ = manager.submit(_specs(seed=5), check_invariants=True)
            _wait_done(job)
        finally:
            manager.close()
        assert job.state == "completed"
        assert job.check_invariants is True and flags == [True]
        assert sorted(spec.predictor for spec in dispatched) == ["ideal", "phast"]
        # The submitted specs themselves, not a grid rebuilt from them.
        assert all(spec.config is None for spec in dispatched)


class TestEventVisibility:
    def test_first_heartbeat_emits_running_cell_event(self, tmp_path):
        """Replaying the log must observe the pending→running transition."""
        manager = _manager(
            tmp_path, lambda check: FabricatingExecutor(), dispatchers=1
        )
        try:
            job, _ = manager.submit(_specs(seed=5))
            _wait_done(job)
            events = list(job.events)
            running = {
                event["index"]: event["seq"]
                for event in events
                if event["event"] == "cell" and event["state"] == "running"
            }
            heartbeats = [
                event for event in events if event["event"] == "heartbeat"
            ]
            assert heartbeats, "the stub streams heartbeats"
            for event in heartbeats:
                # Every heartbeat's cell announced running first, in order.
                assert event["index"] in running
                assert running[event["index"]] < event["seq"]
        finally:
            manager.close()

    def test_replay_agrees_with_poll_under_concurrent_jobs(self, tmp_path):
        barrier = threading.Barrier(2)
        manager = _manager(
            tmp_path,
            lambda check: FabricatingExecutor(barrier=barrier),
            dispatchers=2,
        )
        try:
            first, _ = manager.submit(_specs(seed=6))
            second, _ = manager.submit(_specs(seed=7))
            _wait_done(first)
            _wait_done(second)
            # Both completing proves concurrency: each stub's barrier only
            # releases when the *other* job is in flight too.
            assert first.state == "completed"
            assert second.state == "completed"
            for job in (first, second):
                sequences = [event["seq"] for event in job.events]
                assert sequences == list(range(len(sequences)))
                replayed = {
                    event["index"]: event["state"]
                    for event in job.events
                    if event["event"] == "cell"
                }
                polled = {cell.index: cell.state for cell in job.cells}
                assert replayed == polled
        finally:
            manager.close()


class TestClose:
    def test_close_reports_wedged_dispatcher_and_fast_settles_queue(
        self, tmp_path
    ):
        gate = threading.Event()
        factory, stubs = _gated_factory(gate)
        manager = _manager(tmp_path, factory, dispatchers=1)
        wedged_job, _ = manager.submit(_specs(seed=8))
        _started(stubs)
        queued_job, _ = manager.submit(_specs(seed=9))

        wedged = manager.close(timeout=0.2)
        # The stuck dispatcher is named, not silently abandoned...
        assert wedged == ["repro-serve-dispatch-1"]
        # ...and the queued job settled without ever building a runner.
        assert queued_job.state == "cancelled"
        assert len(stubs) == 1

        gate.set()  # unwedge so the daemon thread drains before teardown
        for thread in manager._pool:
            thread.join(timeout=10)

    def test_close_joins_cleanly_when_idle(self, tmp_path):
        manager = _manager(
            tmp_path, lambda check: FabricatingExecutor(), dispatchers=3
        )
        assert manager.close() == []


class TestTenantQuotas:
    def test_tenant_max_queued_is_enforced_per_tenant(self, tmp_path):
        gate = threading.Event()
        factory, stubs = _gated_factory(gate)
        manager = _manager(
            tmp_path,
            factory,
            dispatchers=1,
            tenant_limits={"small": TenantPolicy(max_queued=1)},
        )
        try:
            held, _ = manager.submit(_specs(seed=10), tenant="small")
            _started(stubs)
            with pytest.raises(QuotaError) as excinfo:
                manager.submit(_specs(seed=11), tenant="small")
            assert excinfo.value.status == 429
            assert "small" in str(excinfo.value)
            # Another tenant (and the anonymous lane) are unaffected.
            other, _ = manager.submit(_specs(seed=12), tenant="big")
            anon, _ = manager.submit(_specs(seed=13))
            gate.set()
            for job in (held, other, anon):
                _wait_done(job)
                assert job.state == "completed"
        finally:
            gate.set()
            manager.close()

    def test_tenant_max_cells_is_413(self, tmp_path):
        manager = _manager(
            tmp_path,
            lambda check: FabricatingExecutor(),
            tenant_limits={"small": TenantPolicy(max_cells=1)},
        )
        try:
            with pytest.raises(QuotaError) as excinfo:
                manager.submit(_specs(seed=14), tenant="small")
            assert excinfo.value.status == 413
            job, receipt = manager.submit(_specs(seed=14), tenant="big")
            assert receipt["tenant"] == "big"
            _wait_done(job)
        finally:
            manager.close()
