"""Checkpoint codec: round trip, corruption detection, format-drift guard."""

from __future__ import annotations

import pytest

from repro.core.config import CoreConfig
from repro.core.pipeline import Pipeline
from repro.isa.artifacts import CheckpointStore
from repro.sampling.checkpoint import (
    _HEADER,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointFormatError,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.sampling.sampled import run_sampled
from repro.sampling.state import capture_state
from repro.sim.simulator import get_trace, make_predictor
from repro.sim.spec import RunSpec


@pytest.fixture(scope="module")
def blob() -> bytes:
    trace = get_trace("502.gcc_1", 3000)
    pipeline = Pipeline(CoreConfig(), make_predictor("phast"))
    run = pipeline.begin(trace, warmup_ops=200)
    run.advance(1500)
    return encode_checkpoint(capture_state(run))


def test_round_trip_preserves_machine_identity(blob):
    state = decode_checkpoint(blob)
    assert state.mode == "detailed"
    assert state.op_index == 1500
    assert state.trace_name == "502.gcc_1"
    assert state.trace_len == 3000
    # The digests embedded at capture must match the unpickled components.
    from repro.sampling.state import component_digests

    assert state.digests == component_digests(
        state.history, state.hierarchy, state.predictor
    )


def test_encode_is_deterministic_for_same_state(blob):
    # Same live machine re-encoded twice gives byte-identical artifacts,
    # so content-addressed storage never duplicates a checkpoint.
    trace = get_trace("502.gcc_1", 3000)
    pipeline = Pipeline(CoreConfig(), make_predictor("phast"))
    run = pipeline.begin(trace, warmup_ops=200)
    run.advance(1500)
    state = capture_state(run)
    assert encode_checkpoint(state) == encode_checkpoint(state)


def test_truncated_header_rejected(blob):
    with pytest.raises(CheckpointFormatError, match="short"):
        decode_checkpoint(blob[:4])


def test_bad_magic_rejected(blob):
    corrupt = b"XXXX" + blob[4:]
    with pytest.raises(CheckpointFormatError, match="magic"):
        decode_checkpoint(corrupt)
    assert blob[:4] == CHECKPOINT_MAGIC


def test_version_drift_rejected(blob):
    # A future format version must read as drift, not as garbage data: this
    # is the guard that turns stale stored checkpoints into cache misses.
    bumped = (CHECKPOINT_VERSION + 1).to_bytes(2, "little")
    corrupt = blob[:4] + bumped + blob[6:]
    with pytest.raises(CheckpointFormatError, match="format v"):
        decode_checkpoint(corrupt)


def test_truncated_payload_rejected(blob):
    with pytest.raises(CheckpointFormatError):
        decode_checkpoint(blob[:-10])


def test_payload_corruption_caught_by_crc(blob):
    corrupt = bytearray(blob)
    corrupt[-1] ^= 0xFF
    with pytest.raises(CheckpointFormatError, match="CRC"):
        decode_checkpoint(bytes(corrupt))


def _assert_stale_version_rewarmed(tmp_path, version):
    spec = RunSpec(workload="502.gcc_1", predictor="phast", num_ops=8000)
    geometry = dict(interval_ops=2000, warmup_ops=300, max_clusters=2)
    store = CheckpointStore(tmp_path)
    cold = run_sampled(spec, checkpoint_store=store, **geometry)
    stored = sorted(tmp_path.glob("*.ckpt"))
    assert len(stored) == cold.sampling.checkpoints_warmed > 0
    # Re-pack each valid artifact's header as an older format version, as a
    # store written before the current layout would hold it.
    for path in stored:
        data = path.read_bytes()
        magic, _version, reserved, length, crc = _HEADER.unpack_from(data)
        path.write_bytes(
            _HEADER.pack(magic, version, reserved, length, crc) + data[_HEADER.size :]
        )
    again = run_sampled(spec, checkpoint_store=store, **geometry)
    assert again.sampling.checkpoints_reused == 0
    assert again.sampling.checkpoints_warmed == cold.sampling.checkpoints_warmed
    assert again.pipeline == cold.pipeline
    # The re-warmed checkpoints replaced the stale ones.
    for path in stored:
        assert decode_checkpoint(path.read_bytes()) is not None


def test_version_1_artifact_in_store_is_rewarmed(tmp_path):
    _assert_stale_version_rewarmed(tmp_path, 1)


def test_version_2_artifact_in_store_is_rewarmed(tmp_path):
    # v2 held TAGE and the MDP tables as one object per entry.
    assert CHECKPOINT_VERSION > 2
    _assert_stale_version_rewarmed(tmp_path, 2)


def test_version_3_artifact_in_store_is_rewarmed(tmp_path):
    # v3 carried the stage context's fields and a probe-state list.
    assert CHECKPOINT_VERSION > 3
    _assert_stale_version_rewarmed(tmp_path, 3)


def test_version_4_artifact_in_store_is_rewarmed(tmp_path):
    # v4 carried PHAST's rolling fold state.
    assert CHECKPOINT_VERSION > 4
    _assert_stale_version_rewarmed(tmp_path, 4)
