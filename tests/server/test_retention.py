"""The job table is bounded: settled jobs retire oldest first.

``RETAINED_CELLS`` is lowered so a handful of submissions cross it. Every
grid here is answered in the store before it is submitted, so its job
settles at submit without a dispatcher, except where a test holds a job
open on a gated :class:`~tests.server.stubs.FabricatingExecutor`.
"""

import gc
import threading
import time
import tracemalloc

import pytest

from repro.client import ServerError
from repro.harness.store import ResultStore
from repro.server import jobs as jobs_module
from repro.server.jobs import JobManager
from repro.sim.spec import RunSpec

from tests.server.stubs import FabricatingExecutor, fabricate_result
from tests.server.test_server import _ServerHarness

WORKLOADS = ("511.povray", "505.mcf")
PREDICTORS = ("phast", "nosq", "store-sets", "mdp-tage", "ideal")


def _answered_grid(store, seed=5):
    """A 10-cell grid whose every cell the store already holds."""
    specs = [
        RunSpec(workload, predictor, num_ops=600, seed=seed)
        for workload in WORKLOADS
        for predictor in PREDICTORS
    ]
    for spec in specs:
        store.put(spec.key(), fabricate_result(spec))
    return specs


@pytest.fixture()
def manager(tmp_path, monkeypatch):
    monkeypatch.setattr(jobs_module, "RETAINED_CELLS", 30)
    gate = threading.Event()
    manager = JobManager(
        ResultStore(tmp_path / "store"),
        executor_factory=lambda check: FabricatingExecutor(gate=gate),
        dispatchers=1,
    )
    manager.gate = gate
    yield manager
    gate.set()
    manager.close()


class TestRetention:
    def test_the_oldest_settled_jobs_retire_first(self, manager):
        specs = _answered_grid(manager.store)
        submitted = [manager.submit(specs)[0] for _ in range(5)]
        assert all(job.state == "completed" for job in submitted)
        # 30 cells fit three 10-cell jobs: the two oldest were retired.
        assert [manager.get(job.id) for job in submitted[:2]] == [None, None]
        assert [job.id for job in manager.jobs()] == [
            job.id for job in submitted[2:]
        ]
        # Their results stay in the store under their keys.
        assert manager.results(submitted[0])[0]["result"] is not None

    def test_queued_and_running_jobs_are_never_retired(self, manager):
        fresh = [
            RunSpec("511.povray", predictor, num_ops=600, seed=77)
            for predictor in PREDICTORS
        ]
        running, _ = manager.submit(fresh[:3])
        deadline = time.monotonic() + 10
        while running.state != "running":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        queued, _ = manager.submit(fresh[3:])
        specs = _answered_grid(manager.store)
        for _ in range(6):
            manager.submit(specs)
        held = {job.id for job in manager.jobs()}
        assert {running.id, queued.id} <= held
        manager.gate.set()
        deadline = time.monotonic() + 30
        while not queued.done:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert queued.state == "completed"
        # Once settled they retire like any other job.
        for _ in range(3):
            manager.submit(specs)
        assert running.id not in {job.id for job in manager.jobs()}

    def test_held_memory_stays_flat_over_resubmissions(self, manager):
        specs = _answered_grid(manager.store)

        def held_after(submissions: int) -> int:
            for _ in range(submissions):
                manager.submit(specs)
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            baseline = held_after(50)
            grown = held_after(200) - baseline
        finally:
            tracemalloc.stop()
        # Unbounded, 200 more cached 10-cell jobs hold about 2 MB
        # (10 KB each); bounded, the table holds three at any time.
        assert grown < 100_000, f"{grown} bytes held by 200 resubmissions"
        assert len(manager.jobs()) == 3

    def test_a_retired_job_id_is_404_over_http(self, manager):
        server = _ServerHarness(manager)
        try:
            specs = _answered_grid(manager.store)
            first, _ = manager.submit(specs)
            for _ in range(3):
                manager.submit(specs)
            with pytest.raises(ServerError) as excinfo:
                server.client.status(first.id)
            assert excinfo.value.status == 404
            assert "unknown job" in str(excinfo.value)
        finally:
            server.close()
