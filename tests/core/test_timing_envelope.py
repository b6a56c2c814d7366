"""Timing-model envelope: the outcomes the 45-cell golden fixture leaves open.

``test_hot_path_identity.py`` pins every predictor at the default
``CoreConfig`` only. This oracle pins, against a committed fixture
generated once from the stage-interpreter timing model, what that fixture
does not reach:

* seven non-default cores — eager squash, no forwarding filter, a 1-wide
  core with an 8-entry ROB (IQ 4, LQ 2, SQ 2), zero squash/redirect
  penalties and three older ``GENERATIONS`` — plus wrong-path replay at
  depths 4 and 16, for every registered predictor;
* a ``GSharePredictor`` front-end override;
* runs with invariant checking on;
* a probe subscribing to every event type: per-type counts plus one
  SHA-256 over every event's fields in emission order, which pins the
  sequence points as well as the values;
* capture -> encode -> decode -> restore at three op indices, which must
  finish exactly like the straight run;
* ``run_sampled`` estimates for three predictors on a small trace.

Every cell runs on both backends and must equal the fixture. The fixture
is an oracle: if this test fails, the change altered simulation semantics.
Regenerate it only for an intentional modelling change, with::

    PYTHONPATH=src python tests/core/test_timing_envelope.py --regen
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro.core.config import GENERATIONS, CoreConfig
from repro.core.pipeline import Pipeline
from repro.core.probes import (
    BranchResolved,
    DependencePredicted,
    LoadCommitted,
    LoadResolved,
    MultiStoreLoad,
    OpCommitted,
    OpDispatched,
    Probe,
    RunFinished,
    Squash,
    StoreRecorded,
    Violation,
    WrongPathLoad,
)
from repro.frontend.branch_predictors import GSharePredictor
from repro.sampling import (
    capture_state,
    decode_checkpoint,
    encode_checkpoint,
    restore_run,
    run_sampled,
)
from repro.sim.simulator import available_predictors, get_trace, make_predictor, simulate
from repro.sim.spec import RunSpec

FIXTURE_PATH = Path(__file__).parent / "golden" / "timing_envelope.json"

WORKLOADS = ("502.gcc_1", "541.leela", "511.povray")
NUM_OPS = 3000
WARMUP_OPS = 300
INTERVAL_OPS = 1000
BACKENDS = ("reference", "batch")

#: Cells whose predictor asserts by design instead of producing a result;
#: the matrix leaves them out and the test checks that they still raise.
SKIPPED = {
    "nofwd/502.gcc_1/ideal": "strict IdealPredictor raises AssertionError "
    "without the forwarding filter (Fig. 3c squashes even perfect waiting)",
}

FRONT_END_PREDICTORS = ("store-sets", "nosq", "phast", "mdp-tage", "cht")
INVARIANT_CONFIGS = ("tiny", "eager", "wrong-path-16")
INVARIANT_PREDICTORS = ("store-sets", "phast", "always-speculate")
PROBE_PREDICTORS = ("store-sets", "phast", "nosq")
#: Wrong-path phantoms train the at-detection predictors on this trace.
PHANTOM_WORKLOAD = "520.omnetpp"
CHECKPOINT_PREDICTORS = ("phast", "store-sets", "mdp-tage")
CHECKPOINT_PAUSES = (700, 1500, 2300)
SAMPLED_PREDICTORS = ("phast", "nosq", "store-sets")
SAMPLED_WORKLOAD = "541.leela"
SAMPLED_OPS = 8000


def _configs() -> dict:
    base = CoreConfig()
    return {
        "eager": replace(base.with_violation_squash("eager"), name="eager"),
        "nofwd": replace(base.with_forwarding_filter(False), name="nofwd"),
        "tiny": replace(
            base,
            name="tiny",
            dispatch_width=1,
            commit_width=1,
            rob_entries=8,
            iq_entries=4,
            lq_entries=2,
            sq_entries=2,
        ),
        "zero-penalty": replace(
            base, name="zero-penalty", branch_redirect_penalty=0, violation_penalty=0
        ),
        "nehalem": GENERATIONS["nehalem"],
        "haswell": GENERATIONS["haswell"],
        "sunnycove": GENERATIONS["sunnycove"],
        "wrong-path-4": replace(base.with_wrong_path(4), name="wrong-path-4"),
        "wrong-path-16": replace(base.with_wrong_path(16), name="wrong-path-16"),
    }


CONFIGS = _configs()


def _matrix():
    """(config, workload, predictor) cells; the workload rotates per cell."""
    cells = []
    for ci, config in enumerate(CONFIGS):
        for pi, predictor in enumerate(sorted(available_predictors())):
            workload = WORKLOADS[(ci + pi) % len(WORKLOADS)]
            if f"{config}/{workload}/{predictor}" not in SKIPPED:
                cells.append((config, workload, predictor))
    return cells


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def _spec(config, workload: str, predictor: str, **overrides) -> RunSpec:
    """A cell on ``CONFIGS[config]``, or on the default core for ``None``."""
    fields = dict(
        workload=workload,
        predictor=predictor,
        config=CONFIGS[config] if config else CoreConfig(),
        num_ops=NUM_OPS,
        warmup_ops=WARMUP_OPS,
        interval_ops=INTERVAL_OPS,
        check_invariants=False,
    )
    fields.update(overrides)
    return RunSpec(**fields)


def _outcome(result) -> dict:
    return {
        "pipeline": asdict(result.pipeline),
        "mdp": asdict(result.mdp),
        "intervals": _digest([window.to_dict() for window in result.intervals]),
    }


# ------------------------------------------------------------ event probe --


def _canon(value):
    """A JSON-safe rendering of an event field (histories are shared state,
    not values, so they are left out)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_canon(item) for item in value]
    if isinstance(value, enum.Enum):
        return value.name
    if hasattr(value, "__dataclass_fields__"):
        names = list(value.__dataclass_fields__)
    else:
        names = type(value).__slots__
    return {
        name: _canon(getattr(value, name)) for name in names if name != "history"
    }


EVENT_TYPES = (
    OpDispatched,
    LoadResolved,
    MultiStoreLoad,
    DependencePredicted,
    Violation,
    Squash,
    WrongPathLoad,
    StoreRecorded,
    BranchResolved,
    LoadCommitted,
    OpCommitted,
    RunFinished,
)


class EventLedger(Probe):
    """Counts every event per type and hashes all of them in order."""

    def __init__(self) -> None:
        self.counts = {event_type.__name__: 0 for event_type in EVENT_TYPES}
        self._hash = hashlib.sha256()

    def subscriptions(self):
        return {event_type: self._record for event_type in EVENT_TYPES}

    def _record(self, event) -> None:
        name = type(event).__name__
        self.counts[name] += 1
        fields = {slot: _canon(getattr(event, slot)) for slot in event.__slots__}
        self._hash.update(
            json.dumps([name, fields], sort_keys=True, separators=(",", ":")).encode()
        )

    def summary(self) -> dict:
        return {"counts": self.counts, "sha256": self._hash.hexdigest()}


# ---------------------------------------------------------------- runners --


def _run_matrix_cell(config, workload, predictor, backend):
    return _outcome(simulate(_spec(config, workload, predictor, backend=backend)))


def _run_front_end_cell(predictor, backend):
    spec = _spec(
        None, WORKLOADS[0], predictor, branch_predictor=GSharePredictor(),
        backend=backend,
    )
    return _outcome(simulate(spec))


def _run_invariant_cell(config, predictor, backend):
    spec = _spec(config, PHANTOM_WORKLOAD, predictor, check_invariants=True,
                 backend=backend)
    return _outcome(simulate(spec))


def _run_probe_cell(predictor, backend):
    ledger = EventLedger()
    spec = _spec("wrong-path-16", PHANTOM_WORKLOAD, predictor, probes=(ledger,),
                 backend=backend)
    outcome = _outcome(simulate(spec))
    outcome["events"] = ledger.summary()
    return outcome


def _checkpoint_pipeline(predictor):
    return Pipeline(
        config=CONFIGS["wrong-path-4"],
        predictor=make_predictor(predictor),
        check_invariants=False,
    )


def _finish_outcome(run) -> dict:
    stats = run.finish()
    return {"pipeline": asdict(stats), "mdp": asdict(run.pipeline.predictor.stats)}


def _run_straight(predictor) -> dict:
    trace = get_trace(WORKLOADS[2], NUM_OPS)
    run = _checkpoint_pipeline(predictor).begin(trace, warmup_ops=WARMUP_OPS)
    run.advance()
    return _finish_outcome(run)


def _run_resumed(predictor, pause: int):
    """(resumed outcome, donor outcome) for one pause index."""
    trace = get_trace(WORKLOADS[2], NUM_OPS)
    donor = _checkpoint_pipeline(predictor).begin(trace, warmup_ops=WARMUP_OPS)
    donor.advance(pause)
    blob = encode_checkpoint(capture_state(donor))
    resumed = restore_run(decode_checkpoint(blob), trace)
    resumed.advance()
    donor.advance()
    return _finish_outcome(resumed), _finish_outcome(donor)


def _run_sampled_cell(predictor):
    result = run_sampled(
        RunSpec(SAMPLED_WORKLOAD, predictor, num_ops=SAMPLED_OPS),
        interval_ops=1000,
        warmup_ops=200,
        max_clusters=3,
    )
    return {
        "pipeline": asdict(result.pipeline),
        "mdp": asdict(result.mdp),
        "sampling": asdict(result.sampling),
    }


# ------------------------------------------------------------------ tests --


@pytest.fixture(scope="module")
def fixture() -> dict:
    return json.loads(FIXTURE_PATH.read_text())


def test_fixture_parameters_unchanged(fixture):
    assert fixture["workloads"] == list(WORKLOADS)
    assert fixture["num_ops"] == NUM_OPS
    assert fixture["warmup_ops"] == WARMUP_OPS
    assert fixture["interval_ops"] == INTERVAL_OPS
    assert fixture["skipped"] == SKIPPED
    assert sorted(fixture["matrix"]) == sorted(
        f"{config}/{workload}/{predictor}" for config, workload, predictor in _matrix()
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_core_configs(fixture, config, backend):
    for cell_config, workload, predictor in _matrix():
        if cell_config != config:
            continue
        key = f"{config}/{workload}/{predictor}"
        actual = _run_matrix_cell(config, workload, predictor, backend)
        assert actual == fixture["matrix"][key], key


@pytest.mark.parametrize("backend", BACKENDS)
def test_skipped_cells_still_raise(backend):
    for key in SKIPPED:
        config, workload, predictor = key.split("/")
        with pytest.raises(AssertionError):
            simulate(_spec(config, workload, predictor, backend=backend))


@pytest.mark.parametrize("backend", BACKENDS)
def test_front_end_override(fixture, backend):
    for predictor in FRONT_END_PREDICTORS:
        actual = _run_front_end_cell(predictor, backend)
        assert actual == fixture["front_end"][predictor], predictor


@pytest.mark.parametrize("backend", BACKENDS)
def test_invariant_checked_runs(fixture, backend):
    for config in INVARIANT_CONFIGS:
        for predictor in INVARIANT_PREDICTORS:
            key = f"{config}/{predictor}"
            actual = _run_invariant_cell(config, predictor, backend)
            assert actual == fixture["invariants"][key], key


@pytest.mark.parametrize("backend", BACKENDS)
def test_subscribing_probe_sees_identical_event_stream(fixture, backend):
    for predictor in PROBE_PREDICTORS:
        actual = _run_probe_cell(predictor, backend)
        expected = fixture["probe"][predictor]
        assert actual["events"]["counts"] == expected["events"]["counts"], predictor
        assert actual == expected, predictor


def test_checkpoint_resume_matches_straight_run(fixture):
    for predictor in CHECKPOINT_PREDICTORS:
        straight = fixture["checkpoint"][predictor]
        assert _run_straight(predictor) == straight, predictor
        for pause in CHECKPOINT_PAUSES:
            resumed, donor = _run_resumed(predictor, pause)
            assert resumed == straight, (predictor, pause)
            assert donor == straight, (predictor, pause)


def test_sampled_estimates(fixture):
    for predictor in SAMPLED_PREDICTORS:
        assert _run_sampled_cell(predictor) == fixture["sampled"][predictor], predictor


# ------------------------------------------------------------------ regen --


def _regen() -> None:
    payload = {
        "workloads": list(WORKLOADS),
        "num_ops": NUM_OPS,
        "warmup_ops": WARMUP_OPS,
        "interval_ops": INTERVAL_OPS,
        "skipped": SKIPPED,
        "matrix": {
            f"{config}/{workload}/{predictor}": _run_matrix_cell(
                config, workload, predictor, "reference"
            )
            for config, workload, predictor in _matrix()
        },
        "front_end": {
            predictor: _run_front_end_cell(predictor, "reference")
            for predictor in FRONT_END_PREDICTORS
        },
        "invariants": {
            f"{config}/{predictor}": _run_invariant_cell(config, predictor, "reference")
            for config in INVARIANT_CONFIGS
            for predictor in INVARIANT_PREDICTORS
        },
        "probe": {
            predictor: _run_probe_cell(predictor, "reference")
            for predictor in PROBE_PREDICTORS
        },
        "checkpoint": {
            predictor: _run_straight(predictor) for predictor in CHECKPOINT_PREDICTORS
        },
        "sampled": {
            predictor: _run_sampled_cell(predictor) for predictor in SAMPLED_PREDICTORS
        },
    }
    FIXTURE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"timing envelope written to {FIXTURE_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
        sys.exit(2)
