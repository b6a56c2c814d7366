"""Shared fixtures for the surrogate subsystem tests.

Stores are *fabricated* (structured stats written through the real
``ResultStore.put``), never simulated: dataset determinism, artifact
corruption handling, and triage semantics are all properties of the
surrogate layers, not of the simulator. Targets are a deterministic
function of the (workload, predictor) grid position so the ridge ensemble
has real structure to learn.
"""

from __future__ import annotations

import pytest

from repro.core.config import CoreConfig
from repro.core.pipeline import PipelineStats
from repro.harness.store import ResultStore, cell_key
from repro.mdp.base import MDPStats
from repro.sim.metrics import SimResult
from repro.workloads.spec2017 import spec_suite

#: Real profile names so workload features carry actual motif structure.
WORKLOADS = spec_suite()[:8]
PREDICTORS = ["store-sets", "nosq", "mdp-tage", "phast"]
NUM_OPS = 3000


def fabricate_result(
    workload: str, predictor: str, wi: int, pi: int
) -> SimResult:
    """Deterministic, learnable stats for one grid position."""
    cycles = 4000 + 317 * wi + 523 * pi
    violations = 2 * wi + 3 * pi
    return SimResult(
        workload=workload,
        predictor=predictor,
        core="alderlake",
        pipeline=PipelineStats(
            committed_uops=10_000,
            cycles=cycles,
            loads=2500,
            stores=1200,
            branches=900,
            violations=violations,
        ),
        mdp=MDPStats(load_predictions=2500, trainings=violations),
    )


def grid_cells():
    """(workload, predictor, key) for every fabricated grid cell."""
    config = CoreConfig()
    return [
        (workload, predictor, cell_key(workload, predictor, config, NUM_OPS, None))
        for workload in WORKLOADS
        for predictor in PREDICTORS
    ]


def populate(store: ResultStore) -> None:
    for wi, workload in enumerate(WORKLOADS):
        for pi, predictor in enumerate(PREDICTORS):
            key = cell_key(workload, predictor, CoreConfig(), NUM_OPS, None)
            store.put(key, fabricate_result(workload, predictor, wi, pi))


@pytest.fixture()
def seeded_store(tmp_path) -> ResultStore:
    store = ResultStore(tmp_path / "store")
    populate(store)
    return store


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """(store, dataset, model) trained once per module — training is fast
    but there is no reason to repeat identical deterministic fits."""
    from repro.surrogate import model as model_mod
    from repro.surrogate.dataset import build_store_dataset

    root = tmp_path_factory.mktemp("surrogate-trained")
    store = ResultStore(root / "store")
    populate(store)
    dataset = build_store_dataset(store.root)
    model = model_mod.train_model(dataset)
    return store, dataset, model
