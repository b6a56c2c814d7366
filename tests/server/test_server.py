"""End-to-end sweep server tests: bit-identity, dedupe, failure surfacing.

The server fixture runs the real asyncio :class:`SweepServer` on an
ephemeral port with the real :class:`SweepClient` talking to it over
loopback TCP — nothing is mocked below the executor, so these tests cover
the full wire → validate → dedupe → schedule → store → results path.
"""

import asyncio
import os
import threading

import pytest

from repro.api.wire import WireError, WireGrid, attach_tenant, grid_to_wire
from repro.client import ServerError, SweepClient
from repro.core.pipeline import PipelineStats
from repro.harness.executor import ProcessCellExecutor
from repro.harness.store import ResultStore
from repro.harness.sweep import SweepRunner, build_cells
from repro.mdp.base import MDPStats
from repro.server.jobs import JobManager, QuotaError, validate_names
from repro.server.http import SweepServer
from repro.sim.metrics import SimResult
from repro.sim.spec import RunSpec

OPS = 600
WORKLOADS = ["511.povray"]
PREDICTORS = ["phast", "ideal"]


def _instant_worker(conn, spec, check_invariants):
    """A worker that fabricates a result without simulating (fast paths)."""
    result = SimResult(
        workload=spec.workload,
        predictor=spec.predictor,
        core=spec.resolved_config().name,
        pipeline=PipelineStats(committed_uops=100, cycles=50),
        mdp=MDPStats(),
    )
    conn.send(("ok", result.to_record()))
    conn.close()


def _crashing_worker(conn, spec, check_invariants):
    """A worker that dies mid-cell, as a kill -9'd box would."""
    os._exit(9)


class _ServerHarness:
    """One live server + client on an ephemeral loopback port."""

    def __init__(self, manager: JobManager) -> None:
        self.manager = manager
        self.server = SweepServer(manager, port=0)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._started = threading.Event()
        self._thread.start()
        self._started.wait(timeout=10)
        self.client = SweepClient(
            f"http://127.0.0.1:{self.server.port}", timeout=30
        )

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def main() -> None:
            await self.server.start()
            self._started.set()
            await self.server.serve_forever()

        try:
            self._loop.run_until_complete(main())
        except asyncio.CancelledError:
            pass
        finally:
            self._loop.close()

    def close(self) -> None:
        async def stop() -> None:
            await self.server.close()
            for task in asyncio.all_tasks(self._loop):
                task.cancel()

        asyncio.run_coroutine_threadsafe(stop(), self._loop)
        self._thread.join(timeout=10)


def _manager(tmp_path, worker=None, **kwargs) -> JobManager:
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("timeout", 60.0)
    kwargs.setdefault("retries", 0)
    store = ResultStore(tmp_path / "server-store")
    if worker is None:
        return JobManager(store, **kwargs)

    def factory(check_invariants: bool) -> ProcessCellExecutor:
        return ProcessCellExecutor(
            worker=worker,
            workers=kwargs["workers"],
            timeout=kwargs["timeout"],
            retries=kwargs["retries"],
            backoff_base=0.01,
            check_invariants=check_invariants,
        )

    return JobManager(store, executor_factory=factory, **kwargs)


@pytest.fixture()
def harness(tmp_path):
    """A real-simulation server (small traces keep this fast)."""
    server = _ServerHarness(_manager(tmp_path))
    yield server
    server.close()


@pytest.fixture()
def fake_harness(tmp_path):
    """A server whose workers fabricate results instantly."""
    server = _ServerHarness(_manager(tmp_path, worker=_instant_worker))
    yield server
    server.close()


class TestHealth:
    def test_reports_registries_and_limits(self, fake_harness):
        health = fake_harness.client.health()
        assert health["ok"] is True
        assert health["wire_version"] == 1
        assert "phast" in health["predictors"]
        assert "511.povray" in health["workloads"]
        assert health["max_cells_per_job"] >= 1
        assert health["dispatchers"] >= 1
        assert health["sharding"] is True
        assert health["lease_owner"]
        assert health["lease_ttl"] > 0


class TestEndToEnd:
    def test_remote_results_are_bit_identical_to_local(self, harness, tmp_path):
        receipt = harness.client.submit_grid(
            WORKLOADS, PREDICTORS, num_ops=OPS, seed=3
        )
        assert receipt["cells"] == 2
        assert receipt["scheduled"] == 2
        status = harness.client.wait(receipt["id"], timeout=120)
        assert status["state"] == "completed"
        assert status["counts"] == {"ok": 2}

        local_store = ResultStore(tmp_path / "local-store")
        SweepRunner(
            local_store,
            ProcessCellExecutor(workers=2, timeout=60.0, retries=0),
        ).run(build_cells(WORKLOADS, PREDICTORS, num_ops=OPS, seed=3))

        remote = harness.client.results(receipt["id"])
        for workload in WORKLOADS:
            for predictor in PREDICTORS:
                cell = build_cells([workload], [predictor], num_ops=OPS, seed=3)[0]
                local = local_store.get(cell.key())
                assert local is not None
                assert (
                    remote[(workload, predictor)].to_record() == local.to_record()
                )

    def test_resubmission_schedules_zero_cells(self, harness):
        first = harness.client.submit_grid(WORKLOADS, PREDICTORS, num_ops=OPS)
        harness.client.wait(first["id"], timeout=120)

        second = harness.client.submit_grid(WORKLOADS, PREDICTORS, num_ops=OPS)
        assert second["cached"] == 2
        assert second["scheduled"] == 0
        assert second["state"] == "completed"  # done at submission time
        status = harness.client.status(second["id"])
        assert status["counts"] == {"cached": 2}
        assert {cell["state"] for cell in status["cells"]} == {"cached"}
        # And the results are immediately servable.
        assert len(harness.client.results(second["id"])) == 2

    def test_variant_grid_completes_and_resubmission_is_cached(self, harness):
        variants = ["phast", "phast(target_bits=0)", "ideal(strict=False)"]
        first = harness.client.submit_grid(WORKLOADS, variants, num_ops=OPS)
        assert first["cells"] == 3 and first["scheduled"] == 3
        status = harness.client.wait(first["id"], timeout=120)
        assert status["state"] == "completed"
        assert status["counts"] == {"ok": 3}
        results = harness.client.results(first["id"])
        assert len(results) == 3
        assert all(result.predictor == p for (_, p), result in results.items())

        second = harness.client.submit_grid(WORKLOADS, variants, num_ops=OPS)
        assert second["cached"] == 3 and second["scheduled"] == 0
        assert harness.client.status(second["id"])["counts"] == {"cached": 3}

    def test_single_spec_submission_round_trip(self, harness):
        spec = RunSpec(
            workload="511.povray", predictor="ideal", num_ops=OPS, seed=5
        )
        receipt = harness.client.submit_spec(spec)
        status = harness.client.wait(receipt["id"], timeout=120)
        assert status["state"] == "completed"
        # A remote spec and a local spec share a store key: resubmitting the
        # same spec is a pure cache hit.
        again = harness.client.submit_spec(spec)
        assert again["cached"] == 1 and again["scheduled"] == 0


class TestEvents:
    def test_event_log_is_dense_and_monotonic(self, fake_harness):
        receipt = fake_harness.client.submit_grid(
            WORKLOADS, PREDICTORS, num_ops=OPS
        )
        fake_harness.client.wait(receipt["id"], timeout=60)
        feed = fake_harness.client.events(receipt["id"])
        assert feed["done"] is True
        sequences = [event["seq"] for event in feed["events"]]
        assert sequences == list(range(len(sequences)))
        kinds = {event["event"] for event in feed["events"]}
        assert "job" in kinds and "cell" in kinds

    def test_since_cursor_skips_seen_events(self, fake_harness):
        receipt = fake_harness.client.submit_grid(
            WORKLOADS, PREDICTORS, num_ops=OPS
        )
        fake_harness.client.wait(receipt["id"], timeout=60)
        total = len(fake_harness.client.events(receipt["id"])["events"])
        tail = fake_harness.client.events(receipt["id"], since=total - 1)
        assert len(tail["events"]) == 1
        assert tail["events"][0]["seq"] == total - 1

    def test_sse_stream_replays_and_terminates(self, fake_harness):
        receipt = fake_harness.client.submit_grid(
            WORKLOADS, PREDICTORS, num_ops=OPS
        )
        fake_harness.client.wait(receipt["id"], timeout=60)
        streamed = list(fake_harness.client.stream(receipt["id"]))
        polled = fake_harness.client.events(receipt["id"])["events"]
        assert streamed == polled  # the stream IS the log, replayed


class TestValidation:
    def test_unknown_predictor_is_a_structured_422(self, fake_harness):
        with pytest.raises(ServerError) as excinfo:
            fake_harness.client.submit_grid(WORKLOADS, ["phastt"], num_ops=OPS)
        assert excinfo.value.status == 422
        assert excinfo.value.field == "predictor"
        assert "phast" in excinfo.value.choices

    @pytest.mark.parametrize(
        "label",
        [
            "phast(target_bits=0 )",  # not canonical
            "phast(bogus=1)",  # not a keyword of the factory
            "phast(target_bits=len)",  # not a literal
        ],
    )
    def test_bad_variant_is_a_structured_422(self, fake_harness, label):
        with pytest.raises(ServerError) as excinfo:
            fake_harness.client.submit_grid(WORKLOADS, [label], num_ops=OPS)
        assert excinfo.value.status == 422
        assert excinfo.value.field == "predictor"

    def test_unknown_workload_is_a_structured_422(self, fake_harness):
        with pytest.raises(ServerError) as excinfo:
            fake_harness.client.submit_grid(["512.povray"], PREDICTORS)
        assert excinfo.value.status == 422
        assert excinfo.value.field == "workload"

    def test_unknown_backend_is_a_structured_422(self, fake_harness):
        with pytest.raises(ServerError) as excinfo:
            fake_harness.client.submit_grid(
                WORKLOADS, ["phast"], backend="quantum"
            )
        assert excinfo.value.status == 422
        assert excinfo.value.field == "backend"

    def test_warmup_override_rejected_at_submission(self, fake_harness):
        spec = RunSpec(
            workload="511.povray", predictor="phast", num_ops=OPS, warmup_ops=100
        )
        with pytest.raises(ServerError) as excinfo:
            fake_harness.client.submit_spec(spec)
        assert excinfo.value.status == 422
        assert excinfo.value.field == "warmup_ops"

    def test_version_mismatch_rejected(self, fake_harness):
        with pytest.raises(ServerError) as excinfo:
            fake_harness.client._request(
                "POST",
                "/v1/jobs",
                {"v": 99, "workload": "511.povray", "predictor": "phast"},
            )
        assert excinfo.value.status == 422
        assert excinfo.value.field == "v"

    def test_unknown_job_is_404(self, fake_harness):
        with pytest.raises(ServerError) as excinfo:
            fake_harness.client.status("job-9999")
        assert excinfo.value.status == 404

    def test_validate_names_accepts_good_specs(self):
        validate_names(
            [RunSpec(workload="511.povray", predictor="phast", num_ops=OPS)]
        )

    def test_validate_names_interval_ops_rejected(self):
        with pytest.raises(WireError) as excinfo:
            validate_names(
                [
                    RunSpec(
                        workload="511.povray", predictor="phast",
                        interval_ops=100,
                    )
                ]
            )
        assert excinfo.value.field == "interval_ops"


class TestQuotas:
    def test_oversize_job_is_413(self, tmp_path):
        manager = _manager(tmp_path, worker=_instant_worker, max_cells=1)
        try:
            with pytest.raises(QuotaError) as excinfo:
                manager.submit(
                    [
                        RunSpec(workload="511.povray", predictor=p, num_ops=OPS)
                        for p in ("phast", "ideal")
                    ]
                )
            assert excinfo.value.status == 413
        finally:
            manager.close()

    def test_queue_depth_is_429_over_http(self, tmp_path):
        manager = _manager(tmp_path, worker=_crashing_worker, max_queued=1)
        harness = _ServerHarness(manager)
        try:
            # First job occupies the queue (its cells crash slowly enough to
            # keep it non-terminal for a moment on most machines; even if it
            # finishes first, submitting against a 1-deep queue while it is
            # live must 429).
            first = harness.client.submit_grid(WORKLOADS, ["phast"], num_ops=OPS)
            try:
                harness.client.submit_grid(WORKLOADS, ["ideal"], num_ops=OPS)
            except ServerError as exc:
                assert exc.status == 429
            else:
                # The first job already finished: the queue was empty again,
                # which is also correct behaviour.
                assert harness.client.status(first["id"])["state"] in (
                    "completed", "failed",
                )
        finally:
            harness.close()


class TestTenancy:
    def test_bearer_tenant_is_attributed_end_to_end(self, fake_harness):
        client = SweepClient(
            f"http://127.0.0.1:{fake_harness.server.port}",
            timeout=30,
            tenant="team-a",
        )
        receipt = client.submit_grid(WORKLOADS, PREDICTORS, num_ops=OPS)
        assert receipt["tenant"] == "team-a"
        status = client.wait(receipt["id"], timeout=60)
        assert status["tenant"] == "team-a"
        # The queued event carries the attribution too (replay shows who).
        first = client.events(receipt["id"])["events"][0]
        assert first["tenant"] == "team-a"

    def test_ext_tenant_alone_is_accepted(self, fake_harness):
        body = attach_tenant(
            grid_to_wire(
                WireGrid(
                    workloads=tuple(WORKLOADS),
                    predictors=tuple(PREDICTORS),
                    num_ops=OPS,
                )
            ),
            "ext-only",
        )
        _, receipt = fake_harness.client._request("POST", "/v1/jobs", body)
        assert receipt["tenant"] == "ext-only"

    def test_bearer_and_ext_must_agree(self, fake_harness):
        client = SweepClient(
            f"http://127.0.0.1:{fake_harness.server.port}",
            timeout=30,
            tenant="team-a",
        )
        body = attach_tenant(
            grid_to_wire(
                WireGrid(
                    workloads=tuple(WORKLOADS),
                    predictors=tuple(PREDICTORS),
                    num_ops=OPS,
                )
            ),
            "team-b",
        )
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/v1/jobs", body)
        assert excinfo.value.status == 422
        assert excinfo.value.field == "ext.tenant"

    def test_malformed_authorization_is_400(self, fake_harness):
        client = fake_harness.client
        import http.client as http_client
        import json as json_module

        conn = http_client.HTTPConnection(
            client.host, client.port, timeout=30
        )
        try:
            conn.request(
                "POST",
                "/v1/jobs",
                body=json_module.dumps(
                    grid_to_wire(
                        WireGrid(
                            workloads=tuple(WORKLOADS),
                            predictors=tuple(PREDICTORS),
                            num_ops=OPS,
                        )
                    )
                ),
                headers={
                    "Content-Type": "application/json",
                    "Authorization": "Basic dXNlcjpwYXNz",
                },
            )
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()


class TestFailureSurfacing:
    def test_killed_worker_surfaces_taxonomy_without_wedging(self, tmp_path):
        """A kill -9'd worker must become a structured per-cell failure."""
        harness = _ServerHarness(_manager(tmp_path, worker=_crashing_worker))
        try:
            receipt = harness.client.submit_grid(
                WORKLOADS, ["phast"], num_ops=OPS
            )
            status = harness.client.wait(receipt["id"], timeout=60)
            assert status["state"] == "completed"  # the job is not wedged
            (cell,) = status["cells"]
            assert cell["state"] in ("crash", "oom")  # SIGKILL classification
            assert cell["message"]
            assert status["counts"] in ({"crash": 1}, {"oom": 1})
            # No result was stored for the dead cell.
            assert harness.client.results(receipt["id"]) == {}
        finally:
            harness.close()

    def test_cancel_settles_cells_and_job(self, tmp_path):
        """Cancellation must terminate the job and mark cells cancelled."""
        manager = _manager(tmp_path, timeout=120.0)
        harness = _ServerHarness(manager)
        try:
            receipt = harness.client.submit_grid(
                WORKLOADS, PREDICTORS, num_ops=200_000
            )
            harness.client.cancel(receipt["id"])
            status = harness.client.wait(receipt["id"], timeout=60)
            assert status["state"] == "cancelled"
            # Cancelled cells stay ephemeral: nothing was persisted, so a
            # fresh submission would schedule them again (not cached).
            assert "cached" not in status["counts"]
        finally:
            harness.close()
