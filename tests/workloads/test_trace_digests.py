"""Trace-generator oracle: the SHA-256 of every pinned trace's artifact bytes.

The trace artifact store keys on ``GENERATOR_VERSION``, so a generator
change that alters any trace must bump it, or stale artifacts replay as if
they were current. This fixture makes that rule checkable: it pins
``sha256(dumps_trace_binary(build_trace(workload(w), n)))`` for

* every suite workload at 2,000 ops,
* 511.povray, 505.mcf and 519.lbm at 30,000 ops,
* 505.mcf at 300,000 ops (the sampled benchmark's trace length),

together with the ``GENERATOR_VERSION`` and ``BINARY_VERSION`` they were
generated under. If a digest moves, either the change was unintended, or it
was intended and the version must be bumped before regenerating with::

    PYTHONPATH=src python tests/workloads/test_trace_digests.py --regen
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.isa.serialize import BINARY_VERSION, dumps_trace_binary, loads_trace_binary
from repro.workloads.generator import GENERATOR_VERSION, build_trace
from repro.workloads.spec2017 import spec_suite, workload

FIXTURE_PATH = Path(__file__).parent / "golden" / "trace_digests.json"

SHORT_OPS = 2000
MEDIUM_OPS = 30000
MEDIUM_WORKLOADS = ("511.povray", "505.mcf", "519.lbm")
LONG_OPS = 300000
LONG_WORKLOADS = ("505.mcf",)


def _cases():
    cases = [(name, SHORT_OPS) for name in spec_suite()]
    cases += [(name, MEDIUM_OPS) for name in MEDIUM_WORKLOADS]
    cases += [(name, LONG_OPS) for name in LONG_WORKLOADS]
    return cases


def _case_id(name: str, num_ops: int) -> str:
    return f"{name}@{num_ops}"


def _digest(name: str, num_ops: int) -> str:
    data = dumps_trace_binary(build_trace(workload(name), num_ops))
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE_PATH.read_text())


def test_fixture_versions_match(fixture):
    # A moved digest must come with a version bump; a bumped version must
    # come with a regenerated fixture.
    assert fixture["generator_version"] == GENERATOR_VERSION
    assert fixture["binary_version"] == BINARY_VERSION
    assert sorted(fixture["digests"]) == sorted(_case_id(*case) for case in _cases())


@pytest.mark.parametrize("name,num_ops", _cases(), ids=lambda v: str(v))
def test_trace_digest(fixture, name, num_ops):
    assert _digest(name, num_ops) == fixture["digests"][_case_id(name, num_ops)]


@pytest.mark.parametrize("name", MEDIUM_WORKLOADS)
def test_built_trace_equals_its_round_trip(name):
    built = build_trace(workload(name), MEDIUM_OPS)
    decoded = loads_trace_binary(dumps_trace_binary(built))
    assert decoded.name == built.name
    assert len(decoded) == len(built)
    for index, (a, b) in enumerate(zip(built, decoded)):
        assert a == b, f"op {index} differs after the round trip"


@pytest.mark.parametrize("name", MEDIUM_WORKLOADS)
def test_built_trace_shares_equal_ops(name):
    # The generator interns ops per build: equal ops are one object, as in
    # a decoded trace, so a build allocates only the distinct ops.
    built = build_trace(workload(name), MEDIUM_OPS)
    objects_by_value = {}
    for op in built:
        objects_by_value.setdefault(repr(op), set()).add(id(op))
    assert all(len(ids) == 1 for ids in objects_by_value.values())
    assert len(objects_by_value) < len(built)


def test_builds_do_not_share_ops():
    # One table per build: two builds of the same trace share no op.
    first = build_trace(workload("505.mcf"), SHORT_OPS)
    second = build_trace(workload("505.mcf"), SHORT_OPS)
    assert not {id(op) for op in first} & {id(op) for op in second}


def _regen() -> None:
    payload = {
        "generator_version": GENERATOR_VERSION,
        "binary_version": BINARY_VERSION,
        "digests": {_case_id(*case): _digest(*case) for case in _cases()},
    }
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
