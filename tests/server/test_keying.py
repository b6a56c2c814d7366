"""A served cell is keyed once at submit; later steps reuse that key.

Counted over a real :class:`~repro.server.jobs.JobManager` and the in-process
:class:`~tests.server.stubs.FabricatingExecutor`, with one heartbeat per
cell. Building a cell key is counted at ``repro.harness.store._key``, which
every keying path (``cell_key``, ``grid_keys``, ``RunSpec.key``) goes
through.
"""

import time

import pytest

from repro.harness import store as store_module
from repro.harness.store import ResultStore
from repro.server.jobs import JobManager
from repro.sim.spec import RunSpec

from tests.server.stubs import FabricatingExecutor

PREDICTORS = ("phast", "nosq", "ideal")


@pytest.fixture()
def counted(monkeypatch):
    counts = {"keys": 0, "canonical": 0}
    key, canonical = store_module._key, store_module.canonical_config

    def counting_key(*args):
        counts["keys"] += 1
        return key(*args)

    def counting_canonical(config):
        counts["canonical"] += 1
        return canonical(config)

    monkeypatch.setattr(store_module, "_key", counting_key)
    monkeypatch.setattr(store_module, "canonical_config", counting_canonical)
    return counts


def _run(tmp_path, specs):
    manager = JobManager(
        ResultStore(tmp_path / "store"),
        workers=1,
        timeout=30.0,
        retries=0,
        executor_factory=lambda check_invariants: FabricatingExecutor(),
    )
    try:
        job, _ = manager.submit(specs)
        deadline = time.monotonic() + 30.0
        while not job.done:
            assert time.monotonic() < deadline, f"job stuck in {job.state!r}"
            time.sleep(0.01)
        return manager, job
    finally:
        manager.close()


class TestServedKeying:
    def test_each_fresh_cell_is_keyed_at_submit_run_and_persist_only(
        self, tmp_path, counted
    ):
        # A config never fingerprinted before, so the memo starts cold.
        specs = [
            RunSpec("511.povray", predictor, num_ops=600, seed=9101)
            for predictor in PREDICTORS
        ]
        manager, job = _run(tmp_path, specs)
        assert job.state == "completed"
        # Submit, the runner's `grid_keys` and the executor's persist: three keys
        # per cell; the grid's one default config is canonicalised once.
        assert counted["keys"] == 3 * len(specs)
        assert counted["canonical"] <= 1

        states = [
            (event["index"], event["state"])
            for event in job.events
            if event["event"] == "cell"
        ]
        for index in range(len(specs)):
            assert states.count((index, "running")) == 1
            assert states.count((index, "ok")) == 1
        heartbeats = [e for e in job.events if e["event"] == "heartbeat"]
        assert sorted(e["index"] for e in heartbeats) == [0, 1, 2]

        counted["keys"] = 0
        results = manager.results(job)
        assert counted["keys"] == 0
        assert [entry["digest"] for entry in results] == [
            spec.key().digest for spec in specs
        ]
        assert all(entry["result"] is not None for entry in results)
