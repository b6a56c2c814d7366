"""Tests for the process-isolated executor: timeouts, retries, classification.

The fake workers below are module-level functions (picklable under any
multiprocessing start method) that misbehave on purpose — hang, crash,
SIGKILL themselves — so the tests exercise the parent-side machinery
without ever touching the simulator.
"""

import os
import signal
import time

import pytest

from repro.core.pipeline import PipelineStats
from repro.harness.executor import (
    ProcessCellExecutor,
    _simulate_cell,
    default_retries,
    default_timeout,
    default_workers,
)
from repro.harness.failures import (
    FailureKind,
    backoff_delay,
    classify_exitcode,
)
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


def _hanging_worker(conn, spec, check_invariants):
    time.sleep(60)


def _crashing_worker(conn, spec, check_invariants):
    os._exit(17)


def _sigkill_worker(conn, spec, check_invariants):
    os.kill(os.getpid(), signal.SIGKILL)


def _invariant_worker(conn, spec, check_invariants):
    conn.send(
        (
            "invariant",
            {"message": "[rob-overflow] seeded", "detail": {"check": "rob-overflow"}},
        )
    )
    conn.close()


def _flaky_worker(conn, spec, check_invariants):
    # The spec's workload doubles as a flag-file path: first attempt crashes
    # after leaving the flag, every later attempt succeeds.
    flag = spec.workload
    if not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(1)
    conn.send(("ok", _result_for(spec).to_record()))
    conn.close()


def executor(worker, **kwargs):
    kwargs.setdefault("timeout", 10.0)
    kwargs.setdefault("retries", 1)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("backoff_base", 0.01)
    kwargs.setdefault("backoff_cap", 0.02)
    return ProcessCellExecutor(worker=worker, **kwargs)


SPEC = RunSpec(workload="w", predictor="p", num_ops=100)


class TestSimulateCell:
    def test_executor_flag_replaces_the_spec_flag(self, monkeypatch):
        # A wire spec may carry check_invariants; the executor's flag wins,
        # and "off" defers to REPRO_CHECK_INVARIANTS rather than forcing False.
        seen = []

        class Backend:
            def run_streaming(self, spec, on_window, heartbeat_ops):
                seen.append(spec.check_invariants)

        monkeypatch.setattr("repro.sim.backends.get_backend", lambda name: Backend())
        for flag, carried in ((False, True), (False, False), (True, None)):
            _simulate_cell(RunSpec("w", "p", check_invariants=carried), flag)
        assert seen == [None, None, True]


class TestOutcomes:
    def test_success(self):
        outcome = executor(_ok_worker).run_one(SPEC)
        assert outcome.ok
        assert outcome.result.workload == "w"
        assert outcome.attempts == 1
        assert not outcome.cached

    def test_timeout_is_killed_and_retried(self):
        outcome = executor(_hanging_worker, timeout=0.3, retries=1).run_one(SPEC)
        assert not outcome.ok
        assert outcome.failure.kind is FailureKind.TIMEOUT
        assert outcome.failure.attempts == 2  # initial + one retry
        assert outcome.failure.transient

    def test_crash_classified_with_exit_status(self):
        outcome = executor(_crashing_worker, retries=2).run_one(SPEC)
        assert outcome.failure.kind is FailureKind.CRASH
        assert "17" in outcome.failure.message
        assert outcome.failure.attempts == 3

    def test_sigkill_classified_as_oom(self):
        outcome = executor(_sigkill_worker, retries=0).run_one(SPEC)
        assert outcome.failure.kind is FailureKind.OOM
        assert "SIGKILL" in outcome.failure.message

    def test_invariant_failure_not_retried(self):
        outcome = executor(_invariant_worker, retries=3).run_one(SPEC)
        assert outcome.failure.kind is FailureKind.INVARIANT
        assert outcome.failure.attempts == 1  # deterministic: no retries
        assert outcome.failure.detail == {"check": "rob-overflow"}
        assert not outcome.failure.transient

    def test_transient_crash_succeeds_on_retry(self, tmp_path):
        spec = RunSpec(workload=str(tmp_path / "flag"), predictor="p")
        outcome = executor(_flaky_worker, retries=2).run_one(spec)
        assert outcome.ok
        assert outcome.attempts == 2

    def test_failure_records_the_cell(self):
        outcome = executor(_crashing_worker, retries=0).run_one(SPEC)
        assert outcome.failure.cell["workload"] == "w"
        assert outcome.failure.cell["predictor"] == "p"
        assert "w/p" in outcome.failure.summary()


class TestRunMany:
    def specs(self, n):
        return [RunSpec(workload=f"w{i}", predictor="p") for i in range(n)]

    def test_order_preserved_with_parallel_workers(self):
        specs = self.specs(5)
        outcomes = executor(_ok_worker, workers=3).run_many(specs)
        assert [o.spec.workload for o in outcomes] == [s.workload for s in specs]
        assert all(o.ok for o in outcomes)

    def test_store_resume_skips_completed_cells(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = self.specs(3)
        first = executor(_ok_worker).run_many(specs, store=store)
        assert sum(1 for o in first if o.cached) == 0
        second = executor(_ok_worker).run_many(specs, store=store)
        assert all(o.cached and o.attempts == 0 for o in second)

    def test_no_resume_resimulates(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = self.specs(2)
        executor(_ok_worker).run_many(specs, store=store)
        again = executor(_ok_worker).run_many(specs, store=store, resume=False)
        assert all(not o.cached for o in again)

    def test_final_failure_persisted(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = RunSpec(workload="doomed", predictor="p")
        executor(_crashing_worker, retries=0).run_many([spec], store=store)
        failure = store.get_failure(spec.key())
        assert failure is not None
        assert failure.kind is FailureKind.CRASH

    def test_one_bad_cell_never_aborts_the_rest(self):
        specs = [
            RunSpec(workload="a", predictor="p"),
            RunSpec(workload="b", predictor="p"),
        ]

        outcomes = executor(_mixed_worker, retries=0, workers=2).run_many(specs)
        by_workload = {o.spec.workload: o for o in outcomes}
        assert not by_workload["a"].ok
        assert by_workload["b"].ok


def _mixed_worker(conn, spec, check_invariants):
    if spec.workload == "a":
        os._exit(2)
    _ok_worker(conn, spec, check_invariants)


def _window_payload(index):
    from repro.sim.intervals import IntervalWindow

    return IntervalWindow(
        index=index,
        start_op=index * 1000,
        end_op=index * 1000 + 999,
        cycles=1500,
        committed_uops=1000,
    ).to_dict()


def _heartbeat_then_hang_worker(conn, spec, check_invariants):
    for index in range(3):
        conn.send(("heartbeat", _window_payload(index)))
    time.sleep(60)


def _heartbeat_then_ok_worker(conn, spec, check_invariants):
    for index in range(2):
        conn.send(("heartbeat", _window_payload(index)))
    conn.send(("ok", _result_for(spec).to_record()))
    conn.close()


def _heartbeat_then_crash_worker(conn, spec, check_invariants):
    conn.send(("heartbeat", _window_payload(0)))
    os._exit(9)


class TestHeartbeats:
    """Interval heartbeats: progress forensics for hung/killed cells."""

    def test_timeout_failure_records_last_interval(self):
        outcome = executor(
            _heartbeat_then_hang_worker, timeout=0.5, retries=0
        ).run_one(SPEC)
        assert outcome.failure.kind is FailureKind.TIMEOUT
        last = outcome.failure.detail["last_interval"]
        assert last["index"] == 2  # the third (latest) window wins
        assert last["end_op"] == 2999

    def test_heartbeats_do_not_break_the_success_path(self):
        outcome = executor(_heartbeat_then_ok_worker).run_one(SPEC)
        assert outcome.ok
        assert outcome.result.workload == "w"
        assert outcome.attempts == 1

    def test_heartbeats_alone_never_reap_a_live_worker(self):
        """A ready pipe carrying only heartbeats must not be mistaken for a
        finished worker (that would misclassify a healthy cell)."""
        outcome = executor(
            _heartbeat_then_ok_worker, timeout=10.0, workers=2
        ).run_many([SPEC])[0]
        assert outcome.ok

    def test_crash_failure_keeps_salvaged_interval(self):
        outcome = executor(_heartbeat_then_crash_worker, retries=0).run_one(SPEC)
        assert outcome.failure.kind is FailureKind.CRASH
        assert outcome.failure.detail["last_interval"]["index"] == 0

    def test_manifest_round_trips_last_interval(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = RunSpec(workload="hung", predictor="p")
        executor(_heartbeat_then_hang_worker, timeout=0.5, retries=0).run_many(
            [spec], store=store
        )
        failure = store.get_failure(spec.key())
        assert failure.detail["last_interval"]["index"] == 2


class TestKnobs:
    def test_backoff_delay_doubles_and_caps(self):
        assert backoff_delay(0, 0.5, 30.0) == 0.5
        assert backoff_delay(1, 0.5, 30.0) == 1.0
        assert backoff_delay(3, 0.5, 30.0) == 4.0
        assert backoff_delay(10, 0.5, 30.0) == 30.0
        assert backoff_delay(5, 0.0, 30.0) == 0.0

    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_TIMEOUT", "12.5")
        monkeypatch.setenv("REPRO_SWEEP_RETRIES", "7")
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "4")
        assert default_timeout() == 12.5
        assert default_retries() == 7
        assert default_workers() == 4
        ex = ProcessCellExecutor()
        assert (ex.timeout, ex.retries, ex.workers) == (12.5, 7, 4)

    def test_explicit_knobs_override_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_TIMEOUT", "12.5")
        assert ProcessCellExecutor(timeout=1.0).timeout == 1.0


class TestClassifyExitcode:
    @pytest.mark.parametrize(
        "exitcode,kind",
        [
            (None, FailureKind.CRASH),
            (1, FailureKind.CRASH),
            (-int(signal.SIGSEGV), FailureKind.CRASH),
            (-int(signal.SIGKILL), FailureKind.OOM),
        ],
    )
    def test_kinds(self, exitcode, kind):
        got, reason = classify_exitcode(exitcode)
        assert got is kind
        assert reason
