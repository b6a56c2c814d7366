"""The surrogate serving path: ``/v1/predict`` and surrogate-tiered jobs.

Runs the real server harness from ``test_server`` with a model trained on
a fabricated store — a predict call must answer whole grids from the model
alone, with zero executor or queue involvement.
"""

import pytest

from repro.client import ServerError, SweepClient
from repro.harness.store import ResultStore
from repro.server.jobs import (
    JobManager,
    QuotaError,
    SurrogateUnavailable,
    TenantPolicy,
)
from repro.sim.spec import RunSpec

from tests.server.stubs import FabricatingExecutor
from tests.server.test_server import _ServerHarness
from tests.surrogate.conftest import NUM_OPS, PREDICTORS, WORKLOADS, populate


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    from repro.surrogate.dataset import build_store_dataset
    from repro.surrogate.model import train_model

    root = tmp_path_factory.mktemp("predict-model")
    store = ResultStore(root / "store")
    populate(store)
    return train_model(build_store_dataset(store.root))


def _manager(tmp_path, model, mode="only", **kwargs):
    from repro.surrogate.triage import SurrogateStore, SurrogateTier

    store = ResultStore(tmp_path / "server-store")
    tier = None
    if model is not None:
        tier = SurrogateTier(
            model, mode=mode, store=SurrogateStore(store.root)
        )
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("timeout", 60.0)
    kwargs.setdefault("retries", 0)
    return JobManager(
        store,
        executor_factory=lambda check_invariants: FabricatingExecutor(),
        surrogate=tier,
        **kwargs,
    )


@pytest.fixture()
def harness(tmp_path, model):
    server = _ServerHarness(_manager(tmp_path, model))
    yield server
    server.close()


class TestPredictEndpoint:
    def test_grid_is_answered_without_scheduling_any_work(self, harness):
        payload = harness.client.predict(WORKLOADS, PREDICTORS, num_ops=NUM_OPS)
        assert payload["count"] == len(WORKLOADS) * len(PREDICTORS)
        assert payload["model_sha256"] == harness.manager.surrogate.model.content_sha256
        assert payload["level"] == harness.manager.surrogate.model.level
        for prediction in payload["predictions"]:
            assert prediction["surrogate"] is True
            assert prediction["ipc"] >= 0.0
            assert prediction["ipc_ci"] > 0.0
            assert prediction["violation_mpki_ci"] > 0.0
        # No job was created and nothing touched the store or the queue.
        assert harness.client.jobs() == []
        assert len(harness.manager.store) == 0

    def test_single_spec_predict(self, harness):
        payload = harness.client.predict_spec(
            RunSpec(workload=WORKLOADS[0], predictor="phast", num_ops=NUM_OPS)
        )
        assert payload["count"] == 1
        (prediction,) = payload["predictions"]
        assert prediction["workload"] == WORKLOADS[0]
        assert prediction["predictor"] == "phast"

    def test_novel_cells_are_flagged_in_the_response(self, harness):
        payload = harness.client.predict(
            [WORKLOADS[0]], ["ideal"], num_ops=NUM_OPS
        )
        (prediction,) = payload["predictions"]
        assert prediction["novel"] is True

    def test_health_advertises_the_loaded_model(self, harness):
        health = harness.client.health()
        tier = harness.manager.surrogate
        assert health["surrogate"] == {
            "mode": tier.mode,
            "model_sha256": tier.model.content_sha256,
            "level": tier.model.level,
        }

    def test_unknown_names_are_structured_422(self, harness):
        with pytest.raises(ServerError) as excinfo:
            harness.client.predict(WORKLOADS[:1], ["phastt"], num_ops=NUM_OPS)
        assert excinfo.value.status == 422
        assert excinfo.value.field == "predictor"


class TestUnavailableAndQuotas:
    def test_no_model_is_503(self, tmp_path):
        harness = _ServerHarness(_manager(tmp_path, model=None))
        try:
            with pytest.raises(ServerError) as excinfo:
                harness.client.predict(WORKLOADS[:1], ["phast"], num_ops=NUM_OPS)
            assert excinfo.value.status == 503
            assert harness.client.health()["surrogate"] is None
        finally:
            harness.close()

    def test_no_model_raises_directly(self, tmp_path):
        manager = _manager(tmp_path, model=None)
        try:
            with pytest.raises(SurrogateUnavailable):
                manager.predict(
                    [RunSpec(workload=WORKLOADS[0], predictor="phast")]
                )
        finally:
            manager.close()

    def test_oversize_predict_is_413(self, tmp_path, model):
        manager = _manager(tmp_path, model, max_cells=2)
        try:
            with pytest.raises(QuotaError) as excinfo:
                manager.predict(
                    [
                        RunSpec(
                            workload=WORKLOADS[0],
                            predictor=predictor,
                            num_ops=NUM_OPS,
                        )
                        for predictor in PREDICTORS[:3]
                    ]
                )
            assert excinfo.value.status == 413
        finally:
            manager.close()

    def test_tenant_cell_quota_applies(self, tmp_path, model):
        manager = _manager(
            tmp_path,
            model,
            tenant_limits={"team-a": TenantPolicy(max_cells=1)},
        )
        try:
            specs = [
                RunSpec(
                    workload=WORKLOADS[0], predictor=predictor, num_ops=NUM_OPS
                )
                for predictor in PREDICTORS[:2]
            ]
            # Anonymous calls see only the server-wide cap...
            assert len(manager.predict(specs)) == 2
            # ...while the constrained tenant is refused the same grid.
            with pytest.raises(QuotaError) as excinfo:
                manager.predict(specs, tenant="team-a")
            assert excinfo.value.status == 413
        finally:
            manager.close()

    def test_tenant_is_echoed_in_the_payload(self, harness):
        client = SweepClient(
            f"http://127.0.0.1:{harness.server.port}",
            timeout=30,
            tenant="team-a",
        )
        payload = client.predict([WORKLOADS[0]], ["phast"], num_ops=NUM_OPS)
        assert payload["tenant"] == "team-a"


class TestSurrogateTieredJobs:
    def test_submitted_job_settles_cells_as_surrogate(self, harness):
        receipt = harness.client.submit_grid(
            WORKLOADS, ["phast"], num_ops=NUM_OPS
        )
        status = harness.client.wait(receipt["id"], timeout=60)
        assert status["state"] == "completed"
        assert {cell["state"] for cell in status["cells"]} == {"surrogate"}
        for cell in status["cells"]:
            assert cell["message"].startswith("surrogate ipc=")

        # results(): settled cells carry a tagged estimate, never a result.
        _, payload = harness.client._request(
            "GET", f"/v1/jobs/{receipt['id']}/results"
        )
        assert len(payload["cells"]) == len(WORKLOADS)
        for cell in payload["cells"]:
            assert cell["result"] is None
            assert cell["surrogate"]["surrogate"] is True
            assert cell["surrogate"]["digest"] == cell["digest"]
        # The SimResult-typed client view correctly reports no detailed
        # results for a fully settled job.
        assert harness.client.results(receipt["id"]) == {}
        assert len(harness.manager.store) == 0
