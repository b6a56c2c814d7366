"""Golden bit-identity gate for the hot-path optimization passes.

The pipeline's scheduling loop and the predictor lookup paths are rewritten
for speed from time to time; every such pass must be *semantically invisible*.
This test pins the complete observable outcome — every ``PipelineStats``
counter, every ``MDPStats`` counter and every per-interval metric window —
for **every registered predictor** on three short workload traces against a
committed golden fixture generated from the pre-optimization implementation.

If this test fails after a performance change, the change altered simulation
semantics: fix the change, do not regenerate the fixture. Regeneration is
only legitimate for *intentional* semantic changes (a modelling fix, a new
counter), via::

    PYTHONPATH=src python tests/core/test_hot_path_identity.py --regen

The same fixture gates the ``batch`` execution backend: for every predictor
it covers, the fused shared-decode engine must reproduce the reference
results to the bit — pipeline counters, predictor counters, and every
interval window. Uncovered or shadowed predictors must route to the
reference fallback and still match.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.sim.backends import get_backend
from repro.sim.backends._numpy import have_numpy
from repro.sim.simulator import available_predictors, simulate
from repro.sim.spec import RunSpec

GOLDEN_PATH = Path(__file__).parent / "golden" / "hot_path_identity.json"

WORKLOADS = ("502.gcc_1", "541.leela", "511.povray")
NUM_OPS = 4000
WARMUP_OPS = 500
INTERVAL_OPS = 1000


def _cell_spec(workload: str, predictor: str, backend: str = None) -> RunSpec:
    return RunSpec(
        workload=workload,
        predictor=predictor,
        num_ops=NUM_OPS,
        warmup_ops=WARMUP_OPS,
        interval_ops=INTERVAL_OPS,
        check_invariants=False,
        backend=backend,
    )


def _run_cell(workload: str, predictor: str, backend: str = None) -> dict:
    result = simulate(_cell_spec(workload, predictor, backend))
    return {
        "pipeline": asdict(result.pipeline),
        "mdp": asdict(result.mdp),
        "intervals": [window.to_dict() for window in result.intervals],
    }


def _load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"missing golden fixture {GOLDEN_PATH}; generate it with "
            "'PYTHONPATH=src python tests/core/test_hot_path_identity.py --regen'"
        )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden() -> dict:
    return _load_golden()


def test_fixture_covers_every_registered_predictor(golden):
    """A newly registered predictor must be added to the golden fixture."""
    fixture_predictors = set(golden["predictors"])
    registered = set(available_predictors())
    assert fixture_predictors == registered, (
        "golden fixture predictors diverge from the registry; regenerate with "
        "'PYTHONPATH=src python tests/core/test_hot_path_identity.py --regen' "
        f"(fixture-only: {sorted(fixture_predictors - registered)}, "
        f"registry-only: {sorted(registered - fixture_predictors)})"
    )


def test_fixture_parameters_unchanged(golden):
    assert golden["workloads"] == list(WORKLOADS)
    assert golden["num_ops"] == NUM_OPS
    assert golden["warmup_ops"] == WARMUP_OPS
    assert golden["interval_ops"] == INTERVAL_OPS


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("predictor", sorted(available_predictors()))
def test_bit_identical_to_golden(golden, workload, predictor):
    cell_key = f"{workload}/{predictor}"
    expected = golden["cells"].get(cell_key)
    if expected is None:
        pytest.fail(f"golden fixture has no cell {cell_key}; regenerate it")
    actual = _run_cell(workload, predictor)
    assert actual["pipeline"] == expected["pipeline"], cell_key
    assert actual["mdp"] == expected["mdp"], cell_key
    assert actual["intervals"] == expected["intervals"], cell_key


@pytest.mark.skipif(not have_numpy(), reason="batch backend needs numpy")
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("predictor", sorted(available_predictors()))
def test_batch_backend_bit_identical_to_golden(golden, workload, predictor):
    """The backend contract: batch == reference, to the bit, per predictor.

    Every built-in predictor must be *covered* (run through the fused
    engine, not the fallback) and must reproduce the committed golden
    results exactly — full ``PipelineStats``, full ``MDPStats`` and every
    interval window.
    """
    cell_key = f"{workload}/{predictor}"
    expected = golden["cells"].get(cell_key)
    if expected is None:
        pytest.fail(f"golden fixture has no cell {cell_key}; regenerate it")
    spec = _cell_spec(workload, predictor, backend="batch")
    assert get_backend("batch").covers(spec), (
        f"batch backend no longer covers built-in predictor {predictor!r}; "
        "the identity gate would silently test the fallback"
    )
    actual = _run_cell(workload, predictor, backend="batch")
    assert actual["pipeline"] == expected["pipeline"], cell_key
    assert actual["mdp"] == expected["mdp"], cell_key
    assert actual["intervals"] == expected["intervals"], cell_key


@pytest.mark.skipif(not have_numpy(), reason="batch backend needs numpy")
def test_batch_backend_routes_unclaimed_predictors_to_reference():
    """Predictors the batch engine was never validated against fall back.

    A freshly registered (or shadowed) predictor name is outside the fused
    engine's validated envelope: ``covers`` must say so, and ``run`` must
    still produce the reference result rather than erroring.
    """
    from repro.mdp.mdp_tage import MDPTagePredictor
    from repro.mdp.store_sets import StoreSetsPredictor
    from repro.sim.simulator import register_predictor, unregister_predictor

    backend = get_backend("batch")
    register_predictor("hot-path-test-custom", StoreSetsPredictor)
    try:
        spec = _cell_spec(WORKLOADS[0], "hot-path-test-custom", backend="batch")
        assert not backend.covers(spec)
        via_batch = _run_cell(WORKLOADS[0], "hot-path-test-custom", backend="batch")
        via_reference = _run_cell(WORKLOADS[0], "hot-path-test-custom")
        assert via_batch == via_reference
    finally:
        unregister_predictor("hot-path-test-custom")

    # Shadowing a covered name must also disqualify it: the engine's fast
    # paths were validated against the built-in factory, not the override.
    try:
        register_predictor(
            "store-sets", lambda: StoreSetsPredictor(), replace=True
        )
        spec = _cell_spec(WORKLOADS[0], "store-sets", backend="batch")
        assert not backend.covers(spec)
    finally:
        register_predictor("store-sets", StoreSetsPredictor, replace=True)
    assert backend.covers(spec)

    # Restoring a classmethod factory binds a new method object: it must
    # compare equal to the built-in entry, not be identical to it.
    spec = _cell_spec(WORKLOADS[0], "mdp-tage-s", backend="batch")
    try:
        register_predictor(
            "mdp-tage-s", lambda: MDPTagePredictor.tage_s(), replace=True
        )
        assert not backend.covers(spec)
    finally:
        register_predictor("mdp-tage-s", MDPTagePredictor.tage_s, replace=True)
    assert backend.covers(spec)


def _regen() -> None:
    cells = {}
    predictors = sorted(available_predictors())
    for workload in WORKLOADS:
        for predictor in predictors:
            key = f"{workload}/{predictor}"
            print(f"  {key}")
            cells[key] = _run_cell(workload, predictor)
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "workloads": list(WORKLOADS),
                "predictors": predictors,
                "num_ops": NUM_OPS,
                "warmup_ops": WARMUP_OPS,
                "interval_ops": INTERVAL_OPS,
                "cells": cells,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"golden fixture written to {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
        sys.exit(2)
