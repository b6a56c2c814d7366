"""End-to-end sampled runs: estimates, error bars, store reuse, fan-out."""

from __future__ import annotations

import pytest

from repro.common.env import EnvVarError
from repro.isa.artifacts import CheckpointStore
from repro.mdp.phast import PHASTPredictor
from repro.sampling.checkpoint import decode_checkpoint
from repro.sampling.sampled import (
    SAMPLE_INTERVAL_ENV,
    SAMPLE_WARMUP_ENV,
    default_sample_interval_ops,
    default_sample_warmup_ops,
    run_sampled,
)
from repro.sim.metrics import SimResult
from repro.sim.simulator import run_spec
from repro.sim.spec import RunSpec

OPS = 24_000
INTERVAL = 2000
LEAD = 300


@pytest.fixture(scope="module")
def spec() -> RunSpec:
    return RunSpec(workload="502.gcc_1", predictor="phast", num_ops=OPS)


@pytest.fixture(scope="module")
def sampled(spec) -> SimResult:
    return run_sampled(spec, interval_ops=INTERVAL, warmup_ops=LEAD, max_clusters=4)


def test_summary_geometry(sampled):
    sampling = sampled.sampling
    assert sampling is not None
    assert sampling.interval_ops == INTERVAL
    assert sampling.warmup_ops == LEAD
    assert sampling.total_ops == OPS
    assert sampling.num_intervals == OPS // INTERVAL
    assert 1 <= sampling.num_representatives <= 4
    assert sampling.simulated_ops <= sampling.num_representatives * (INTERVAL + LEAD)
    assert 0 < sampling.detail_fraction < 1
    assert sampling.checkpoints_warmed == sampling.num_representatives
    assert sampling.checkpoints_reused == 0


def test_estimate_brackets_detailed_run(spec, sampled):
    full = run_spec(spec)
    sampling = sampled.sampling
    # The weighted estimate must land near the exact value; the CI gives the
    # statistically principled bound, the coarse rel-tolerance catches a
    # broken estimator even if the CI were inflated.
    assert sampling.ipc == pytest.approx(full.ipc, rel=0.30)
    assert sampling.ipc_ci95 >= 0
    assert sampled.ipc == pytest.approx(full.ipc, rel=0.30)


def test_record_round_trip(sampled):
    restored = SimResult.from_record(sampled.to_record())
    assert restored.sampling == sampled.sampling
    assert restored.pipeline == sampled.pipeline
    assert restored.mdp == sampled.mdp


def test_store_reuse_and_determinism(spec, tmp_path, sampled):
    store = CheckpointStore(tmp_path)
    first = run_sampled(
        spec, interval_ops=INTERVAL, warmup_ops=LEAD, max_clusters=4,
        checkpoint_store=store,
    )
    assert first.sampling.checkpoints_warmed == first.sampling.num_representatives
    assert len(store) == first.sampling.checkpoints_warmed
    second = run_sampled(
        spec, interval_ops=INTERVAL, warmup_ops=LEAD, max_clusters=4,
        checkpoint_store=store,
    )
    assert second.sampling.checkpoints_warmed == 0
    assert second.sampling.checkpoints_reused == second.sampling.num_representatives
    # Checkpoint-restored runs are fully deterministic, store or not.
    assert second.sampling.ipc == first.sampling.ipc == sampled.sampling.ipc
    assert second.pipeline == first.pipeline == sampled.pipeline


def test_corrupted_stored_checkpoint_is_rewarmed(spec, tmp_path):
    store = CheckpointStore(tmp_path)
    run_sampled(
        spec, interval_ops=INTERVAL, warmup_ops=LEAD, max_clusters=4,
        checkpoint_store=store,
    )
    for entry in tmp_path.glob("*.ckpt"):
        entry.write_bytes(b"garbage")
    again = run_sampled(
        spec, interval_ops=INTERVAL, warmup_ops=LEAD, max_clusters=4,
        checkpoint_store=store,
    )
    assert again.sampling.checkpoints_reused == 0
    assert again.sampling.checkpoints_warmed == again.sampling.num_representatives


def test_worker_fanout_matches_inline(spec, sampled):
    parallel = run_sampled(
        spec, interval_ops=INTERVAL, warmup_ops=LEAD, max_clusters=4, workers=2
    )
    assert parallel.sampling.ipc == sampled.sampling.ipc
    assert parallel.sampling.violation_mpki == sampled.sampling.violation_mpki
    assert parallel.pipeline == sampled.pipeline
    assert parallel.mdp == sampled.mdp


def test_configured_predictor_instance_is_warmed_as_configured(tmp_path):
    """A predictor instance's constructor arguments reach the warmed state.

    Warming once rebuilt the instance's class with default arguments, so a
    small PHAST sampled exactly like the Table II one.
    """
    configured = PHASTPredictor(sets_per_table=8, ways=1)
    small = run_sampled(
        RunSpec(workload="502.gcc_1", predictor=configured, num_ops=40_000),
        checkpoint_store=CheckpointStore(tmp_path),
    )
    default = run_sampled(
        RunSpec(workload="502.gcc_1", predictor="phast", num_ops=40_000)
    )
    assert small.mdp != default.mdp
    stored = sorted(tmp_path.glob("*.ckpt"))
    assert stored
    for path in stored:
        state = decode_checkpoint(path.read_bytes())
        assert [table.num_sets for table in state.predictor._tables] == [8] * 8
        assert {table.ways for table in state.predictor._tables} == {1}
    # Warming trained a copy; the spec's instance is untouched.
    assert configured.stats.trainings == 0


def test_bad_geometry_rejected(spec):
    with pytest.raises(ValueError, match="interval_ops"):
        run_sampled(spec, interval_ops=0)
    with pytest.raises(ValueError, match="warmup_ops"):
        run_sampled(spec, interval_ops=INTERVAL, warmup_ops=-1)


def test_env_knobs(monkeypatch):
    monkeypatch.delenv(SAMPLE_INTERVAL_ENV, raising=False)
    monkeypatch.delenv(SAMPLE_WARMUP_ENV, raising=False)
    assert default_sample_interval_ops() == 2000
    assert default_sample_warmup_ops() == 400
    monkeypatch.setenv(SAMPLE_INTERVAL_ENV, "5000")
    monkeypatch.setenv(SAMPLE_WARMUP_ENV, "0")
    assert default_sample_interval_ops() == 5000
    assert default_sample_warmup_ops() == 0
    monkeypatch.setenv(SAMPLE_INTERVAL_ENV, "10k")
    with pytest.raises(EnvVarError, match=SAMPLE_INTERVAL_ENV):
        default_sample_interval_ops()
    monkeypatch.setenv(SAMPLE_INTERVAL_ENV, "0")
    with pytest.raises(EnvVarError, match=SAMPLE_INTERVAL_ENV):
        default_sample_interval_ops()
    monkeypatch.setenv(SAMPLE_WARMUP_ENV, "-1")
    with pytest.raises(EnvVarError, match=SAMPLE_WARMUP_ENV):
        default_sample_warmup_ops()
