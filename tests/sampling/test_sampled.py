"""End-to-end sampled runs: estimates, error bars, store reuse, fan-out."""

from __future__ import annotations

import pickle

import pytest

from repro.common.env import EnvVarError
from repro.frontend.branch_predictors import GSharePredictor
from repro.isa.artifacts import CheckpointStore
from repro.mdp.omnipredictor import OmniPredictor
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


def _stored(root):
    return {path.relative_to(root): path.read_bytes() for path in root.rglob("*.ckpt")}


def test_worker_fanout_matches_inline(spec, sampled, tmp_path):
    inline_store = tmp_path / "inline"
    run_sampled(
        spec, interval_ops=INTERVAL, warmup_ops=LEAD, max_clusters=4,
        checkpoint_store=CheckpointStore(inline_store),
    )
    parallel_store = tmp_path / "parallel"
    parallel = run_sampled(
        spec, interval_ops=INTERVAL, warmup_ops=LEAD, max_clusters=4, workers=2,
        checkpoint_store=CheckpointStore(parallel_store),
    )
    assert parallel.sampling.ipc == sampled.sampling.ipc
    assert parallel.sampling.violation_mpki == sampled.sampling.violation_mpki
    assert parallel.pipeline == sampled.pipeline
    assert parallel.mdp == sampled.mdp
    assert _stored(inline_store)
    assert _stored(parallel_store) == _stored(inline_store)


def _override_spec(front_end: str) -> RunSpec:
    if front_end == "gshare":
        return RunSpec(
            workload="505.mcf", predictor="phast", num_ops=8000,
            branch_predictor=GSharePredictor(),
        )
    omni = OmniPredictor()
    return RunSpec(
        workload="505.mcf", predictor=omni, num_ops=8000,
        branch_predictor=omni.branch_view,
    )


@pytest.mark.parametrize("front_end", ["omni-branch-view", "gshare"])
def test_front_end_override_is_copied_not_warmed_in_place(front_end, tmp_path):
    """A sampled run warms copies of the spec's predictor and override.

    It once deep-copied the predictor but warmed the override in place, so
    the caller's objects changed and a repeated run gave another result.
    A store-backed run warms the same checkpoints and a rerun reuses them.
    """
    spec = _override_spec(front_end)
    before = pickle.dumps((spec.predictor, spec.branch_predictor))
    first = run_sampled(spec, interval_ops=INTERVAL, warmup_ops=LEAD, max_clusters=3)
    second = run_sampled(spec, interval_ops=INTERVAL, warmup_ops=LEAD, max_clusters=3)
    assert second == first
    assert pickle.dumps((spec.predictor, spec.branch_predictor)) == before

    store = CheckpointStore(tmp_path / "store")
    runs = [
        run_sampled(
            spec, interval_ops=INTERVAL, warmup_ops=LEAD, max_clusters=3,
            checkpoint_store=store,
        )
        for _ in range(2)
    ]
    assert runs[0].sampling.checkpoints_reused == 0
    assert runs[1].sampling.checkpoints_warmed == 0
    for run in runs:
        assert run.pipeline == first.pipeline
        assert run.mdp == first.mdp
    assert pickle.dumps((spec.predictor, spec.branch_predictor)) == before


def test_front_end_override_does_not_reuse_default_front_end_checkpoints(tmp_path):
    """The checkpoint key names an override front end, so a store warmed on
    the default TAGE (or before the key named overrides) is a miss for it."""
    store = CheckpointStore(tmp_path / "store")
    geometry = dict(interval_ops=INTERVAL, warmup_ops=LEAD, max_clusters=3)
    default = RunSpec(workload="505.mcf", predictor="phast", num_ops=8000)
    run_sampled(default, checkpoint_store=store, **geometry)
    override = _override_spec("gshare")
    shared = run_sampled(override, checkpoint_store=store, **geometry)
    assert shared.sampling.checkpoints_reused == 0
    alone = run_sampled(override, **geometry)
    assert shared.pipeline == alone.pipeline
    assert shared.mdp == alone.mdp
    again = run_sampled(default, checkpoint_store=store, **geometry)
    assert again.sampling.checkpoints_warmed == 0


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
