"""Split functional warming: a helper-run machine pass matches inline warming.

With ``workers > 1`` and wrong-path replay off, the sampled scheduler warms
the memory hierarchy (and the default front end) in a forked helper while
the parent warms history, store window and MDP. The checkpoints it stores
must be byte-identical to inline warming's, the results equal, and no
helper may outlive the run.

Inline warming itself is pinned by a golden fixture of checkpoint payload
digests, generated from the single-loop warmer the two passes replaced
(the Omnipredictor case after the fix that copies a predictor and its
``branch_view`` together). Regenerate it only for an intentional change to
warming semantics, with::

    PYTHONPATH=src python tests/sampling/test_split_warming.py --regen
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import CoreConfig
from repro.frontend.branch_predictors import GSharePredictor
from repro.harness.executor import ENV_MP
from repro.isa.artifacts import CheckpointStore
from repro.isa.microop import OpKind
from repro.isa.trace import Trace
from repro.mdp.omnipredictor import OmniPredictor
from repro.memory.hierarchy import HierarchyConfig
from repro.sampling import sampled, warming
from repro.sampling.checkpoint import _HEADER, decode_checkpoint, encode_checkpoint
from repro.sampling.sampled import run_sampled
from repro.sampling.warming import FunctionalWarmer, MachineHelper
from repro.sim.simulator import get_trace, make_predictor
from repro.sim.spec import RunSpec

GOLDEN_PATH = Path(__file__).parent / "golden" / "split_warming.json"

WORKLOAD = "505.mcf"
OPS = 12_000
INTERVAL = 1000
LEAD = 200


def _omni_spec() -> RunSpec:
    omni = OmniPredictor()
    return RunSpec(WORKLOAD, omni, num_ops=OPS, branch_predictor=omni.branch_view)


CASES = {
    "phast": lambda: RunSpec(WORKLOAD, "phast", num_ops=OPS),
    "store-sets": lambda: RunSpec(WORKLOAD, "store-sets", num_ops=OPS),
    "nosq": lambda: RunSpec(WORKLOAD, "nosq", num_ops=OPS),
    "gshare-override": lambda: RunSpec(
        WORKLOAD, "phast", num_ops=OPS, branch_predictor=GSharePredictor()
    ),
    "omni-branch-view": _omni_spec,
    "wrong-path-16": lambda: RunSpec(
        WORKLOAD, "phast", num_ops=OPS, config=CoreConfig(wrong_path_depth=16)
    ),
    "tiny-sq": lambda: RunSpec(
        WORKLOAD, "phast", num_ops=OPS, config=CoreConfig(sq_entries=4)
    ),
    "one-interval": lambda: RunSpec(WORKLOAD, "phast", num_ops=INTERVAL),
}


@pytest.fixture
def helpers(monkeypatch):
    """Counts the helpers run_sampled starts; forces the fork start method."""
    monkeypatch.delenv(ENV_MP, raising=False)
    started = []

    class CountingHelper(MachineHelper):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(sampled, "MachineHelper", CountingHelper)
    return started


def _sampled(spec: RunSpec, workers: int, root):
    store_dir = root / f"workers-{workers}"
    result = run_sampled(
        spec,
        interval_ops=INTERVAL,
        warmup_ops=LEAD,
        max_clusters=3,
        checkpoint_store=CheckpointStore(store_dir),
        workers=workers,
    )
    artifacts = {
        path.relative_to(store_dir): path.read_bytes()
        for path in store_dir.rglob("*.ckpt")
    }
    return result, artifacts


def _payload_digests(artifacts) -> dict:
    """SHA-256 of each checkpoint's uncompressed payload, by pause op."""
    digests = {
        decode_checkpoint(blob).op_index: hashlib.sha256(
            zlib.decompress(blob[_HEADER.size :])
        ).hexdigest()
        for blob in artifacts.values()
    }
    return {str(op): digests[op] for op in sorted(digests)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_helper_warming_matches_inline(case, tmp_path, helpers, golden):
    spec = CASES[case]()
    inline, inline_artifacts = _sampled(spec, 1, tmp_path)
    assert not helpers
    assert _payload_digests(inline_artifacts) == golden["cases"][case]
    split, split_artifacts = _sampled(CASES[case](), 2, tmp_path)
    # With wrong-path replay on, the machine pass needs the predictor
    # pass's branch outcomes, so warming stays inline.
    assert len(helpers) == (0 if spec.resolved_config().wrong_path_depth else 1)
    assert inline_artifacts
    assert split_artifacts == inline_artifacts
    assert split == inline
    assert not multiprocessing.active_children()


def test_non_fork_start_method_warms_inline(tmp_path, helpers, monkeypatch):
    monkeypatch.setenv(ENV_MP, "spawn")
    spec = CASES["phast"]()
    spawned, spawned_artifacts = _sampled(spec, 2, tmp_path)
    assert not helpers
    inline, inline_artifacts = _sampled(spec, 1, tmp_path)
    assert spawned_artifacts == inline_artifacts
    assert spawned == inline


# ------------------------------------------------------------ property --

_BASE = get_trace("502.gcc_1", 3000)
_BRANCH_FREE = [op for op in _BASE.ops if op.kind is not OpKind.BRANCH]

configs = st.builds(
    CoreConfig,
    sq_entries=st.integers(min_value=1, max_value=48),
    wrong_path_depth=st.sampled_from([0, 1, 4, 16]),
    hierarchy=st.sampled_from([HierarchyConfig(), HierarchyConfig.nehalem_like()]),
)


@settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    config=configs,
    length=st.integers(min_value=1, max_value=len(_BRANCH_FREE)),
    pauses=st.lists(st.integers(min_value=0, max_value=len(_BRANCH_FREE)), max_size=3),
    branch_free=st.booleans(),
    predictor=st.sampled_from(["phast", "store-sets", "nosq"]),
    gshare=st.booleans(),
)
def test_helper_snapshots_match_inline(
    config, length, pauses, branch_free, predictor, gshare
):
    ops = _BRANCH_FREE if branch_free else _BASE.ops
    trace = Trace(ops[:length], name="split-warming")
    # Always a pause at op 0; the rest clamp into the trace.
    stops = sorted({0} | {pause % (length + 1) for pause in pauses})

    def checkpoints(machine, op_by_op=False):
        warmer = FunctionalWarmer(
            trace,
            predictor=make_predictor(predictor),
            config=config,
            branch_predictor=GSharePredictor() if gshare else None,
            machine=machine,
        )
        blobs = []
        for stop in stops:
            if op_by_op:
                for index in range(warmer.next_index + 1, stop):
                    warmer.advance(index)
            warmer.advance(stop)
            blobs.append(encode_checkpoint(warmer.snapshot()))
        return blobs

    inline = checkpoints(None)
    # One op per call interleaves the two passes the way the single loop
    # did, so passes over whole stretches must land on the same state.
    assert checkpoints(None, op_by_op=True) == inline
    if config.wrong_path_depth:
        with pytest.raises(ValueError, match="wrong_path_depth"):
            MachineHelper(
                trace, config, None, stops, multiprocessing.get_context("fork")
            )
        return
    helper = MachineHelper(
        trace,
        config,
        GSharePredictor() if gshare else None,
        stops,
        multiprocessing.get_context("fork"),
    )
    try:
        split = checkpoints(helper)
    finally:
        helper.close()
    assert split == inline
    assert not multiprocessing.active_children()


# ------------------------------------------------------------- failure --

CRASH_AFTER = 6000


def test_helper_crash_raises_and_saves_only_reached_pauses(
    tmp_path, helpers, monkeypatch
):
    spec = CASES["phast"]()
    _, inline_artifacts = _sampled(spec, 1, tmp_path)
    reached = sorted(
        decode_checkpoint(blob).op_index
        for blob in inline_artifacts.values()
        if decode_checkpoint(blob).op_index <= CRASH_AFTER
    )
    assert 0 < len(reached) < len(inline_artifacts)

    advance = warming.MachinePass.advance

    def dies_midway(self, until, phantoms=()):
        if until > CRASH_AFTER:
            os._exit(7)
        advance(self, until, phantoms)

    monkeypatch.setattr(warming.MachinePass, "advance", dies_midway)
    store_dir = tmp_path / "crashed"
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="functional-warming helper .* code 7"):
        run_sampled(
            spec,
            interval_ops=INTERVAL,
            warmup_ops=LEAD,
            max_clusters=3,
            checkpoint_store=CheckpointStore(store_dir),
            workers=2,
        )
    assert time.monotonic() - started < 60
    assert len(helpers) == 1
    saved = sorted(
        decode_checkpoint(path.read_bytes()).op_index
        for path in store_dir.rglob("*.ckpt")
    )
    assert saved == reached
    assert not multiprocessing.active_children()


def test_parent_pass_failure_kills_and_joins_the_helper(helpers, monkeypatch):
    advance = warming.PredictorPass.advance

    def fails_midway(self, until):
        if until > CRASH_AFTER:
            raise ValueError("predictor pass failed")
        return advance(self, until)

    monkeypatch.setattr(warming.PredictorPass, "advance", fails_midway)
    with pytest.raises(ValueError, match="predictor pass failed"):
        run_sampled(
            CASES["phast"](),
            interval_ops=INTERVAL,
            warmup_ops=LEAD,
            max_clusters=3,
            workers=2,
        )
    assert len(helpers) == 1
    assert not multiprocessing.active_children()


def _regen() -> None:
    import tempfile

    cases = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as root:
            _, artifacts = _sampled(CASES[case](), 1, Path(root))
            cases[case] = _payload_digests(artifacts)
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "workload": WORKLOAD,
                "num_ops": OPS,
                "interval_ops": INTERVAL,
                "warmup_ops": LEAD,
                "cases": cases,
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
