"""Result-store key oracle: the digest of every built-in predictor's cell.

A durable store is addressed by ``cell_key`` digests, so a change to how a
plain registry name is keyed orphans every stored result. This fixture pins
``RunSpec(WORKLOAD, name, config=core, num_ops=NUM_OPS).key().digest`` for
all built-in predictor names at the default core and at one non-default
core. A moved digest means stored cells no longer resolve; if that is
intended, bump ``SCHEMA_VERSION`` or ``CODE_VERSION`` in
``repro.harness.store`` and regenerate with::

    PYTHONPATH=src python tests/harness/test_cell_key_digests.py --regen
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import GENERATIONS, CoreConfig
from repro.harness.sweep import build_cells
from repro.sim.simulator import BUILTIN_PREDICTORS
from repro.sim.spec import RunSpec

FIXTURE_PATH = Path(__file__).parent / "golden" / "cell_keys.json"

WORKLOAD = "511.povray"
NUM_OPS = 25000
CORES = {"default": CoreConfig(), "nehalem": GENERATIONS["nehalem"]}


def _cases():
    return [(core, name) for core in CORES for name in sorted(BUILTIN_PREDICTORS)]


def _case_id(core: str, name: str) -> str:
    return f"{name}@{core}"


def _digest(core: str, name: str) -> str:
    return RunSpec(WORKLOAD, name, config=CORES[core], num_ops=NUM_OPS).key().digest


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE_PATH.read_text())


def test_fixture_covers_every_builtin(fixture):
    assert sorted(fixture["digests"]) == sorted(_case_id(*case) for case in _cases())


@pytest.mark.parametrize("core,name", _cases(), ids=lambda v: str(v))
def test_plain_name_key_is_pinned(fixture, core, name):
    assert _digest(core, name) == fixture["digests"][_case_id(core, name)]


@pytest.mark.parametrize("core,name", _cases(), ids=lambda v: str(v))
def test_cell_spec_keys_like_run_spec(fixture, core, name):
    # A sweep cell is the RunSpec that build_cells makes, with the config
    # and op count spelled out; its key must match the plain RunSpec's.
    (cell,) = build_cells([WORKLOAD], [name], config=CORES[core], num_ops=NUM_OPS)
    assert cell.key().digest == fixture["digests"][_case_id(core, name)]


def _regen() -> None:
    payload = {"digests": {_case_id(*case): _digest(*case) for case in _cases()}}
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload['digests'])} digests to {FIXTURE_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
        sys.exit(2)
