"""A served cell's store state is decided once, at submit.

Counted over a real :class:`~repro.server.jobs.JobManager` and the in-process
:class:`~tests.server.stubs.FabricatingExecutor`: every ``get``,
``contains`` and ``get_failure`` call is one read of the cell it names. A
fresh cell is read at submit, at its lease claim and by ``results()``; a
cached one at submit and by ``results()``.
"""

import threading
import time
from collections import Counter

from repro.harness.store import ResultStore
from repro.server.jobs import JobManager
from repro.sim.spec import RunSpec

from tests.server.stubs import FabricatingExecutor, fabricate_result

PREDICTORS = ("phast", "nosq", "ideal")


class _CountingStore(ResultStore):
    """A result store that counts reads per cell digest."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.reads: Counter = Counter()
        self._reads_lock = threading.Lock()

    def _count(self, key) -> None:
        with self._reads_lock:
            self.reads[key.digest] += 1

    def get(self, key):
        self._count(key)
        return super().get(key)

    def contains(self, key):
        self._count(key)
        return super().get(key) is not None

    def get_failure(self, key):
        self._count(key)
        return super().get_failure(key)


def _specs(seed):
    return [
        RunSpec("511.povray", predictor, num_ops=600, seed=seed)
        for predictor in PREDICTORS
    ]


def _manager(store, executor=None, **kwargs) -> JobManager:
    return JobManager(
        store,
        workers=1,
        timeout=30.0,
        retries=0,
        executor_factory=lambda check_invariants: executor or FabricatingExecutor(),
        **kwargs,
    )


def _wait_done(job, timeout=30.0) -> None:
    deadline = time.monotonic() + timeout
    while not job.done:
        assert time.monotonic() < deadline, f"job stuck in {job.state!r}"
        time.sleep(0.01)


class TestServedStoreReads:
    def test_a_fresh_cell_is_read_three_times(self, tmp_path):
        store = _CountingStore(tmp_path / "store")
        manager = _manager(store)
        try:
            specs = _specs(seed=4101)
            job, receipt = manager.submit(specs)
            _wait_done(job)
            assert receipt["scheduled"] == len(specs)
            assert all(cell.state == "ok" for cell in job.cells)
            digests = [key.digest for key in job.keys]
            # Submit's dedupe read and the lease claim's re-read.
            assert [store.reads[digest] for digest in digests] == [2] * len(specs)
            results = manager.results(job)
            assert all(entry["result"] is not None for entry in results)
            assert [store.reads[digest] for digest in digests] == [3] * len(specs)
            assert sum(store.reads.values()) == 3 * len(specs)
        finally:
            manager.close()

    def test_a_cached_cell_is_read_twice(self, tmp_path):
        store = _CountingStore(tmp_path / "store")
        manager = _manager(store)
        try:
            specs = _specs(seed=4102)
            first, _ = manager.submit(specs)
            _wait_done(first)
            store.reads.clear()

            job, receipt = manager.submit(specs)
            assert (receipt["cached"], receipt["scheduled"]) == (len(specs), 0)
            assert job.state == "completed"
            manager.results(job)
            assert [store.reads[key.digest] for key in job.keys] == [2] * len(specs)
            assert sum(store.reads.values()) == 2 * len(specs)
        finally:
            manager.close()

    def test_a_cell_answered_after_submit_settles_cached_unrun(self, tmp_path):
        """A result stored between submit and dispatch is found by the
        lease claim's re-read: the cell settles ``cached`` and never runs."""
        store = _CountingStore(tmp_path / "store")
        gate = threading.Event()
        executed = []
        stub = FabricatingExecutor(gate=gate, executed=executed)
        manager = _manager(store, executor=stub, dispatchers=1)
        try:
            # The one dispatcher is held open by a first job ...
            blocker, _ = manager.submit(_specs(seed=4103)[:1])
            assert stub.started.wait(timeout=10)
            # ... so the second is read at submit but not yet dispatched.
            (spec,) = _specs(seed=4104)[:1]
            job, receipt = manager.submit([spec])
            assert receipt["scheduled"] == 1
            assert job.state == "queued"
            store.put(spec.key(), fabricate_result(spec))
            gate.set()
            _wait_done(blocker)
            _wait_done(job)

            assert job.state == "completed"
            assert job.cells[0].state == "cached"
            assert spec.key().digest not in executed
            assert store.reads[job.keys[0].digest] == 2  # submit, claim
            assert list(store.leases_dir.glob("*.json")) == []
        finally:
            gate.set()
            manager.close()
