"""Checkpoint-resume bit-identity: the sampling subsystem's core contract.

A detailed run paused at an arbitrary op, snapshotted through the full
encode/decode codec and resumed in a *new* pipeline must finish with
exactly the statistics of an uninterrupted run — for every registered
predictor, including interval windows and the MDP counters. Anything less
means sampled results silently diverge from detailed ones.
"""

from __future__ import annotations

import pickle
from dataclasses import asdict

import pytest

from repro.core.config import CoreConfig
from repro.core.pipeline import PLAN_CHUNK_OPS, Pipeline
from repro.frontend.tage import TAGEPredictor
from repro.sampling.checkpoint import (
    CheckpointFormatError,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.sampling.state import capture_state, restore_run
from repro.sim.simulator import available_predictors, get_trace, make_predictor

OPS = 2500
WARMUP = 300
PAUSE = 1111  # mid-run, not on any interval boundary


@pytest.fixture(scope="module")
def trace():
    return get_trace("502.gcc_1", OPS)


def _checkpointed_stats(trace, name: str, check_invariants: bool = True):
    pipeline = Pipeline(
        CoreConfig(),
        make_predictor(name),
        branch_predictor=TAGEPredictor(),
        check_invariants=check_invariants,
    )
    run = pipeline.begin(trace, warmup_ops=WARMUP)
    run.advance(PAUSE)
    state = decode_checkpoint(encode_checkpoint(capture_state(run)))
    resumed = restore_run(state, trace)
    resumed.advance()
    return resumed.finish(), asdict(resumed.pipeline.predictor.stats)


@pytest.mark.parametrize("name", available_predictors())
def test_resume_is_bit_identical_for_every_predictor(trace, name):
    reference = Pipeline(
        CoreConfig(),
        make_predictor(name),
        branch_predictor=TAGEPredictor(),
        check_invariants=True,
    )
    ref_stats = reference.run(trace, warmup_ops=WARMUP)
    resumed_stats, resumed_mdp = _checkpointed_stats(trace, name)
    assert asdict(resumed_stats) == asdict(ref_stats)
    assert resumed_mdp == asdict(reference.predictor.stats)


def test_resume_preserves_interval_windows(trace):
    def run_windows(resume: bool):
        pipeline = Pipeline(
            CoreConfig(),
            make_predictor("phast"),
            branch_predictor=TAGEPredictor(),
        )
        run = pipeline.begin(trace, warmup_ops=WARMUP, interval_ops=500)
        if resume:
            run.advance(PAUSE)
            state = decode_checkpoint(encode_checkpoint(capture_state(run)))
            run = restore_run(state, trace)
        run.advance()
        run.finish()
        return [window.to_dict() for window in run.intervals]

    assert run_windows(resume=True) == run_windows(resume=False)


def test_restore_rejects_mismatched_trace(trace):
    pipeline = Pipeline(CoreConfig(), make_predictor("store-sets"))
    run = pipeline.begin(trace, warmup_ops=WARMUP)
    run.advance(PAUSE)
    state = capture_state(run)
    other = get_trace("541.leela", OPS)
    with pytest.raises(CheckpointFormatError, match="trace"):
        restore_run(state, other)


def test_restore_verifies_component_digests(trace):
    pipeline = Pipeline(CoreConfig(), make_predictor("store-sets"))
    run = pipeline.begin(trace, warmup_ops=WARMUP)
    run.advance(PAUSE)
    state = capture_state(run)
    state.digests["predictor"] ^= 1  # simulate post-capture drift
    with pytest.raises(CheckpointFormatError, match="predictor"):
        restore_run(state, trace)
    restore_run(state, trace, verify_digests=False)  # opt-out path still works


# A pause past the first plan chunk, on no chunk boundary.
LONG_OPS = 6000
LONG_PAUSE = 5003


@pytest.fixture(scope="module")
def long_trace():
    return get_trace("502.gcc_1", LONG_OPS)


def test_paused_front_end_sits_at_its_pause(long_trace):
    """A plain TAGE predicts each plan chunk's branches before the loop
    reaches them, but no chunk runs past the op being advanced to: the
    TAGE captured at the pause equals one that observed the branches
    before it one by one, and the resumed run equals the straight one."""
    assert LONG_PAUSE > PLAN_CHUNK_OPS and LONG_PAUSE % PLAN_CHUNK_OPS
    straight = Pipeline(CoreConfig(), make_predictor("phast")).run(
        long_trace, warmup_ops=WARMUP
    )
    run = Pipeline(CoreConfig(), make_predictor("phast")).begin(
        long_trace, warmup_ops=WARMUP
    )
    run.advance(LONG_PAUSE)
    state = decode_checkpoint(encode_checkpoint(capture_state(run)))
    by_branch = TAGEPredictor()
    for op in long_trace.ops[:LONG_PAUSE]:
        branch = op.branch
        if branch is not None:
            by_branch.observe(op.pc, branch.kind, branch.taken, branch.target)
    assert pickle.dumps(state.branch_predictor) == pickle.dumps(by_branch)
    resumed = restore_run(state, long_trace)
    resumed.advance()
    assert asdict(resumed.finish()) == asdict(straight)


@pytest.mark.parametrize("name", ["phast", "mdp-tage", "nosq"])
def test_restored_history_builds_tables_from_its_pause(long_trace, name):
    """A restored run reads its history tables only at snapshots from its
    pause on, so each table it builds starts at the record count at decode."""
    run = Pipeline(CoreConfig(), make_predictor(name)).begin(
        long_trace, warmup_ops=WARMUP
    )
    run.advance(LONG_PAUSE)
    state = decode_checkpoint(encode_checkpoint(capture_state(run)))
    views = (state.history.divergent, state.history.nosq)
    bases = [len(view) for view in views]
    resumed = restore_run(state, long_trace)
    resumed.advance()
    built = 0
    for view, base in zip(views, bases):
        for key, table in view._tables.items():
            if key[0] == "chunks":
                continue
            built += 1
            assert len(table) == len(view) + 1
            assert len(table.values) == len(view) - base + 1
            with pytest.raises(IndexError, match="restore point"):
                table[base - 1]
    assert built
