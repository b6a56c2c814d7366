"""Entry-bytes oracle: the exact bytes each store writes for a fixed entry.

Stores and CI caches written by an earlier build must keep reading as
hits, so the on-disk framing of every entry kind is pinned here by the
SHA-256 of the file a fixed write produces:

* ``result``   — ``ResultStore.put`` of one fixed cell;
* ``failure``  — ``ResultStore.put_failure`` of one fixed failure;
* ``estimate`` — ``SurrogateStore.put`` of one fixed estimate;
* ``dataset``  — ``Dataset.save`` over the surrogate tests' fabricated
  store (``tests/surrogate/conftest.py``).

A moved digest means existing files no longer read back; if that is
intended, bump the kind's schema version and regenerate with::

    PYTHONPATH=src python tests/harness/test_entry_bytes.py --regen
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.core.config import CoreConfig
from repro.core.pipeline import PipelineStats
from repro.harness.failures import CellFailure, FailureKind
from repro.harness.store import ResultStore, cell_key
from repro.mdp.base import MDPStats
from repro.sim.metrics import SimResult
from repro.surrogate.dataset import build_store_dataset
from repro.surrogate.triage import SurrogateEstimate, SurrogateStore

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
from tests.surrogate.conftest import populate  # noqa: E402

FIXTURE_PATH = Path(__file__).parent / "golden" / "entry_bytes.json"

KEY = cell_key("511.povray", "phast", CoreConfig(), 5000, None)

RESULT = SimResult(
    workload="511.povray",
    predictor="phast",
    core="alderlake",
    pipeline=PipelineStats(
        committed_uops=1000,
        cycles=537,
        loads=250,
        stores=120,
        branches=90,
        violations=3,
    ),
    mdp=MDPStats(load_predictions=250, trainings=3),
)

FAILURE = CellFailure(
    kind=FailureKind.TIMEOUT,
    message="cell exceeded 0.5s",
    cell=dict(KEY.describe),
    attempts=2,
    elapsed_seconds=1.25,
    detail={"last_interval": {"ops": 4000, "ipc": 1.5}},
)

ESTIMATE = SurrogateEstimate(
    workload="511.povray",
    predictor="phast",
    digest=KEY.digest,
    ipc=1.8625,
    ipc_ci=0.0375,
    violation_mpki=0.4,
    violation_mpki_ci=0.125,
    level=0.8,
    model_sha256="ab" * 32,
)


def _write(kind: str, root: Path) -> Path:
    if kind == "result":
        return ResultStore(root).put(KEY, RESULT)
    if kind == "failure":
        return ResultStore(root).put_failure(KEY, FAILURE)
    if kind == "estimate":
        return SurrogateStore(root).put(ESTIMATE)
    if kind == "dataset":
        store = ResultStore(root / "store")
        populate(store)
        return build_store_dataset(store.root).save(root / "dataset.json")
    raise ValueError(kind)


KINDS = ("result", "failure", "estimate", "dataset")


def _digest(kind: str, root: Path) -> str:
    path = _write(kind, root)
    assert path is not None
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE_PATH.read_text())


def test_fixture_covers_every_kind(fixture):
    assert sorted(fixture["sha256"]) == sorted(KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_entry_bytes_are_pinned(fixture, kind, tmp_path):
    assert _digest(kind, tmp_path) == fixture["sha256"][kind]


def _regen() -> None:
    digests = {}
    for kind in KINDS:
        with tempfile.TemporaryDirectory() as root:
            digests[kind] = _digest(kind, Path(root))
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(
        json.dumps({"sha256": digests}, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {len(digests)} digests to {FIXTURE_PATH}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
        sys.exit(2)
