"""ChaosEngine injection: each fault lands as the failure it simulates.

Worker faults run against the fake ``_ok_worker`` — every cell would
succeed if chaos left it alone, so any observed failure is an injected
one. Write faults run against real stores through the
:mod:`repro.common.atomicio` hook.
"""

import pytest

from repro.core.pipeline import PipelineStats
from repro.harness.chaos import ChaosEngine, FaultPlan, _flip_bit
from repro.harness.executor import ProcessCellExecutor
from repro.harness.failures import FailureKind
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


def executor(**kwargs):
    kwargs.setdefault("timeout", 10.0)
    kwargs.setdefault("retries", 0)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("backoff_base", 0.01)
    kwargs.setdefault("backoff_cap", 0.02)
    return ProcessCellExecutor(worker=_ok_worker, **kwargs)


SPEC = RunSpec(workload="w", predictor="p", num_ops=100)


class TestWorkerFaults:
    """rate=1.0 plans: the directive must fire and classify as expected."""

    def run_under(self, plan, **kwargs):
        chaos = ChaosEngine(plan)
        outcome = executor(**kwargs).run_many([SPEC], chaos=chaos)[0]
        return chaos, outcome

    def test_hang_classifies_as_timeout(self):
        chaos, outcome = self.run_under(FaultPlan(hang_rate=1.0), timeout=0.3)
        assert outcome.failure.kind is FailureKind.TIMEOUT
        assert chaos.verify() == []

    def test_crash_signal_classifies_as_crash(self):
        chaos, outcome = self.run_under(FaultPlan(crash_rate=1.0))
        assert outcome.failure.kind is FailureKind.CRASH
        assert chaos.verify() == []

    def test_sigkill_classifies_as_oom(self):
        chaos, outcome = self.run_under(FaultPlan(oom_rate=1.0))
        assert outcome.failure.kind is FailureKind.OOM
        assert chaos.verify() == []

    def test_exception_classifies_as_error(self):
        chaos, outcome = self.run_under(FaultPlan(exception_rate=1.0))
        assert outcome.failure.kind is FailureKind.ERROR
        assert "ChaosInjectedError" in outcome.failure.message
        assert outcome.failure.detail["injected"] is True
        assert chaos.verify() == []

    def test_poisoned_cell_fails_every_attempt(self):
        # Poison draws per cell (attempt=None), so the directive re-fires on
        # retries; an ERROR is final anyway, but the journal records the
        # per-cell decision.
        chaos, outcome = self.run_under(FaultPlan(poison_rate=1.0))
        assert outcome.failure.kind is FailureKind.ERROR
        assert "poisoned" in outcome.failure.message
        assert chaos.verify() == []

    def test_transient_fault_recovers_on_retry(self):
        # Crash once under max_faults=1, then the budget is spent and the
        # retry runs clean — the canonical chaos-recovery path.
        chaos = ChaosEngine(FaultPlan(crash_rate=1.0, max_faults=1))
        outcome = executor(retries=2).run_many([SPEC], chaos=chaos)[0]
        assert outcome.ok
        assert outcome.attempts == 2
        assert chaos.verify() == []

    def test_verify_flags_misclassified_fault(self):
        chaos = ChaosEngine(FaultPlan(hang_rate=1.0))
        assert chaos.worker_directive(SPEC, 0) is not None
        chaos.observe(SPEC, 0, FailureKind.CRASH)  # wrong: hang must be timeout
        problems = chaos.verify()
        assert len(problems) == 1
        assert "timeout" in problems[0] and "crash" in problems[0]

    def test_verify_flags_unobserved_fault(self):
        chaos = ChaosEngine(FaultPlan(crash_rate=1.0))
        assert chaos.worker_directive(SPEC, 0) is not None
        assert "never observed" in chaos.verify()[0]


class TestDeterminism:
    def specs(self, n):
        return [RunSpec(workload=f"w{i}", predictor="p") for i in range(n)]

    def test_same_seed_same_schedule(self):
        plan = FaultPlan(seed=3, crash_rate=0.5, hang_rate=0.2)
        first = ChaosEngine(plan)
        second = ChaosEngine(plan)
        specs = self.specs(20)
        a = [first.worker_directive(s, 0) for s in specs]
        b = [second.worker_directive(s, 0) for s in specs]
        assert a == b
        assert any(d is not None for d in a)  # the schedule is not empty

    def test_decisions_independent_of_order(self):
        plan = FaultPlan(seed=3, crash_rate=0.5)
        forward = ChaosEngine(plan)
        backward = ChaosEngine(plan)
        specs = self.specs(20)
        fired_fwd = {
            s.workload for s in specs if forward.worker_directive(s, 0)
        }
        fired_bwd = {
            s.workload for s in reversed(specs) if backward.worker_directive(s, 0)
        }
        assert fired_fwd == fired_bwd

    def test_different_seed_different_schedule(self):
        specs = self.specs(40)
        fired = []
        for seed in (0, 1):
            engine = ChaosEngine(FaultPlan(seed=seed, crash_rate=0.5))
            fired.append(
                tuple(s.workload for s in specs if engine.worker_directive(s, 0))
            )
        assert fired[0] != fired[1]

    def test_max_faults_bounds_injections(self):
        engine = ChaosEngine(FaultPlan(crash_rate=1.0, max_faults=2))
        directives = [
            engine.worker_directive(s, 0) for s in self.specs(10)
        ]
        assert sum(1 for d in directives if d is not None) == 2
        assert engine.summary()["injected"] == 2


class TestWriteFaults:
    def key_and_result(self):
        spec = RunSpec(workload="w", predictor="p", num_ops=100)
        return spec.key(), _result_for(spec)

    def test_enospc_degrades_to_memory_tier(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key, result = self.key_and_result()
        engine = ChaosEngine(FaultPlan(enospc_rate=1.0))
        with engine.installed():
            assert store.put(key, result) is None
        assert store.degraded_writes >= 1
        # The result never reached disk but stays reachable this run.
        assert not store.result_path(key).exists()
        assert store.get(key) == result
        assert engine.summary()["by_site"]["write.enospc"] >= 1

    def test_corrupted_result_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key, result = self.key_and_result()
        engine = ChaosEngine(FaultPlan(corrupt_rate=1.0))
        with engine.installed():
            assert store.put(key, result) is not None  # the write "succeeds"
        assert store.result_path(key).exists()
        assert store.get(key) is None  # ...but the bit flip reads as a miss
        assert engine.summary()["by_site"]["write.corrupt"] >= 1

    def test_corrupted_trace_artifact_reads_as_miss(self, tmp_path):
        from repro.isa.artifacts import TraceStore, trace_key
        from repro.workloads.generator import build_trace
        from repro.workloads.spec2017 import workload

        store = TraceStore(tmp_path / "traces")
        profile = workload("505.mcf", seed=1)
        trace = build_trace(profile, 50)
        key = trace_key(profile, 50)
        engine = ChaosEngine(FaultPlan(seed=5, corrupt_rate=1.0))
        with engine.installed():
            store.save(key, trace)
        assert store.load(key) is None  # CRC rejects the flipped artifact
        assert store.save(key, trace) is not None  # clean rewrite heals it
        loaded = store.load(key)
        assert loaded is not None
        assert list(loaded.ops) == list(trace.ops)

    def test_trace_store_enospc_degrades_to_none(self, tmp_path):
        from repro.isa.artifacts import TraceStore, trace_key
        from repro.workloads.generator import build_trace
        from repro.workloads.spec2017 import workload

        store = TraceStore(tmp_path / "traces")
        profile = workload("505.mcf", seed=1)
        trace = build_trace(profile, 50)
        key = trace_key(profile, 50)
        engine = ChaosEngine(FaultPlan(enospc_rate=1.0))
        with engine.installed():
            assert store.save(key, trace) is None  # degraded, not raised
        assert store.load(key) is None

    def test_retry_write_draws_fresh(self, tmp_path):
        # Decisions key on (path, nth write): one blocked write must not
        # doom every rewrite of the same entry.
        store = ResultStore(tmp_path / "store")
        key, result = self.key_and_result()
        engine = ChaosEngine(FaultPlan(enospc_rate=1.0, max_faults=1))
        with engine.installed():
            assert store.put(key, result) is None
            assert store.put(key, result) is not None
        assert store.get(key) == result
        assert store.result_path(key).exists()


class TestFlipBit:
    def test_flips_exactly_one_bit(self):
        data = bytes(range(32))
        flipped = _flip_bit(data, 0.37)
        assert len(flipped) == len(data)
        diff = [a ^ b for a, b in zip(data, flipped)]
        assert sum(bin(d).count("1") for d in diff) == 1

    def test_empty_payload_survives(self):
        assert _flip_bit(b"", 0.5) == b""

    @pytest.mark.parametrize("draw", [0.0, 0.5, 0.999999])
    def test_draw_stays_in_range(self, draw):
        data = b"xy"
        assert len(_flip_bit(data, draw)) == 2
