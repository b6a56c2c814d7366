"""Checkpointed sampled simulation: the interval scheduler and aggregator.

``run_sampled`` is the subsystem's entry point. For one
:class:`~repro.sim.spec.RunSpec` it:

1. clusters the trace's interval BBVs and picks representative intervals
   (:func:`repro.analysis.simpoints.choose_simpoints` — the same selection
   the SimPoint driver uses);
2. acquires a machine-state checkpoint just before each representative —
   from the content-addressed :class:`~repro.isa.artifacts.CheckpointStore`
   when one was warmed before (keyed by run identity, trace digest, op
   index and both format/semantics versions), else by a *single ascending
   functional-warming pass* (:class:`~repro.sampling.warming.
   FunctionalWarmer`) that snapshots at every missing index — with
   ``workers > 1`` its machine half may run in a forked helper;
3. runs each representative interval in detail — restored from its
   checkpoint, with a short detailed-warmup lead replayed in front of the
   measured region — inline or fanned out across worker processes through
   the harness's :class:`~repro.harness.executor.ProcessCellExecutor`;
4. aggregates the per-interval measurements into one
   :class:`~repro.sim.metrics.SimResult` whose counters are
   cluster-weight-scaled estimates and whose ``sampling`` field carries the
   geometry plus 95% sampling-error bounds
   (:class:`~repro.sim.replication.WeightedMetric`).

Interval geometry, for a representative starting at op ``S`` with detailed
lead ``L``: the checkpoint pauses at ``F = S - L``; the restored run gets
``warmup_ops = S`` and ``max_ops = S + interval_ops``, so ops ``[F, S)``
replay in detailed mode without counting and exactly ``[S, S + interval)``
are measured — the same warmup-exclusion contract as a straight
``Pipeline.run``.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, fields as dataclass_fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.simpoints import SimPoint, choose_simpoints
from repro.common.env import env_int
from repro.core.pipeline import PipelineStats
from repro.harness.executor import (
    ProcessCellExecutor,
    _worker_failure,
    default_mp_context,
)
from repro.isa.artifacts import CheckpointStore, TraceStore, checkpoint_key
from repro.isa.trace import Trace
from repro.mdp.base import MDPStats
from repro.sampling.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointFormatError,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.sampling.state import MachineState, restore_run
from repro.sampling.warming import FunctionalWarmer, MachineHelper
from repro.sim.metrics import SamplingSummary, SimResult
from repro.sim.replication import WeightedMetric
from repro.sim.simulator import get_trace, make_predictor
from repro.sim.spec import RunSpec

#: Environment knobs for the sampled-run geometry (see repro.common.env).
SAMPLE_INTERVAL_ENV = "REPRO_SAMPLE_INTERVAL_OPS"
SAMPLE_WARMUP_ENV = "REPRO_SAMPLE_WARMUP_OPS"

_FALLBACK_INTERVAL_OPS = 2000
_FALLBACK_WARMUP_OPS = 400

#: Version of the functional-warming *semantics* (what state a checkpoint's
#: warmed structures contain). Participates in the checkpoint key alongside
#: the codec's CHECKPOINT_VERSION: bump it when warming itself changes
#: meaning, so stale artifacts age out as misses.
WARMING_VERSION = 1


def default_sample_interval_ops() -> int:
    """Measured ops per representative interval (REPRO_SAMPLE_INTERVAL_OPS)."""
    return env_int(SAMPLE_INTERVAL_ENV, _FALLBACK_INTERVAL_OPS, min_value=1)


def default_sample_warmup_ops() -> int:
    """Detailed-warmup lead per interval (REPRO_SAMPLE_WARMUP_OPS)."""
    return env_int(SAMPLE_WARMUP_ENV, _FALLBACK_WARMUP_OPS, min_value=0)


@dataclass(frozen=True)
class IntervalJob:
    """One representative interval, shippable to a worker process.

    Carries the encoded checkpoint (bytes survive pickling to the worker
    unchanged — the codec validates them again on the other side) plus the
    interval geometry. Satisfies the executor's job contract:
    ``describe()`` for failure manifests; no store key (interval runs are
    aggregated, never individually durable).
    """

    spec: RunSpec
    checkpoint: bytes
    interval_index: int
    start_op: int
    interval_ops: int
    weight: float

    def describe(self) -> Dict[str, object]:
        return {
            **self.spec.describe(),
            "interval_index": self.interval_index,
            "start_op": self.start_op,
            "interval_ops": self.interval_ops,
        }


def _job_trace(spec: RunSpec) -> Trace:
    store = TraceStore(spec.trace_dir) if spec.trace_dir else None
    return get_trace(spec.resolved_profile(), spec.resolved_num_ops(), store=store)


def _run_interval(
    job: IntervalJob, trace: Trace, check_invariants: Optional[bool]
) -> SimResult:
    """Restore one checkpoint, run its interval in detail, measure the delta."""
    state = decode_checkpoint(job.checkpoint)
    run = restore_run(
        state,
        trace,
        check_invariants=check_invariants,
        total=job.start_op + job.interval_ops,
        warmup_ops=job.start_op,
    )
    predictor = run.pipeline.predictor
    # Functional warming already bumped the MDP counters over the prefix;
    # the interval's contribution is the delta across the detailed run.
    before = asdict(predictor.stats)
    run.advance()
    stats = run.finish()
    after = asdict(predictor.stats)
    mdp = MDPStats(**{name: after[name] - before[name] for name in after})
    return SimResult(
        workload=trace.name,
        predictor=predictor.name,
        core=run.pipeline.config.name,
        pipeline=stats,
        mdp=mdp,
        paths_tracked=getattr(predictor, "paths_tracked", None),
    )


def _interval_worker(conn, job: IntervalJob, check_invariants: bool) -> None:
    """Subprocess entry point for one interval (executor ``worker=`` hook)."""
    try:
        result = _run_interval(
            job, _job_trace(job.spec), True if check_invariants else None
        )
        conn.send(("ok", result.to_record()))
    except BaseException as exc:  # noqa: BLE001 — report, parent classifies
        conn.send(_worker_failure(exc))
    finally:
        conn.close()


def _fresh_components(spec: RunSpec):
    """The predictor and front-end override to warm: a fresh named predictor
    or a copy of the spec's instance, and a copy of any override, so their
    configuration reaches the checkpoints and the spec's objects are left
    untouched. One deep copy covers both: an override may share state with
    its predictor (``OmniPredictor.branch_view``)."""
    if isinstance(spec.predictor, str):
        return make_predictor(spec.predictor), copy.deepcopy(spec.branch_predictor)
    return copy.deepcopy((spec.predictor, spec.branch_predictor))


def _checkpoint_run(spec: RunSpec) -> Dict[str, object]:
    """The run identity a checkpoint is keyed by: ``spec.describe()``, plus
    the front end's kind and size when the spec overrides it. Default-TAGE
    keys (and the stores holding them) are unchanged by the addition."""
    run = spec.describe()
    front_end = spec.branch_predictor
    if front_end is not None:
        run["front_end"] = {
            "name": front_end.name,
            "storage_bits": front_end.storage_bits(),
        }
    return run


def _acquire_checkpoints(
    spec: RunSpec,
    trace: Trace,
    points: Sequence[SimPoint],
    interval_ops: int,
    lead_ops: int,
    store: Optional[CheckpointStore],
    workers: int,
) -> Tuple[List[bytes], int, int]:
    """An encoded checkpoint per representative; returns (blobs, reused, warmed).

    Store hits are decode-validated here — any corruption mode reads as a
    miss and the index is re-warmed. Misses are filled by one ascending
    functional-warming pass over the trace prefix, snapshotting (and
    persisting) at each missing pause index. With ``workers > 1``, a fork
    start method and wrong-path replay off, a
    :class:`~repro.sampling.warming.MachineHelper` runs the machine pass on
    another core; each pause's state is encoded,
    saved and dropped before the next one, and the helper is joined (or
    killed) before this returns or raises.
    """
    trace_digest = spec.trace_key().digest
    run = _checkpoint_run(spec)
    pause_ops = []
    keys = []
    for point in points:
        start = point.interval_index * interval_ops
        pause_ops.append(start - min(lead_ops, start))
        keys.append(
            checkpoint_key(
                run,
                trace_digest,
                pause_ops[-1],
                CHECKPOINT_VERSION,
                WARMING_VERSION,
            )
        )

    blobs: List[Optional[bytes]] = [None] * len(points)
    reused = 0
    if store is not None:
        for slot, key in enumerate(keys):
            data = store.load(key)
            if data is None:
                continue
            try:
                decode_checkpoint(data)
            except CheckpointFormatError:
                continue  # corruption/version drift: re-warm below
            blobs[slot] = data
            reused += 1

    missing = sorted(
        {pause for slot, pause in enumerate(pause_ops) if blobs[slot] is None}
    )
    if missing:
        predictor, branch_predictor = _fresh_components(spec)
        config = spec.resolved_config()
        helper = None
        # The helper inherits the trace, so it needs a fork start; with
        # wrong-path replay on, the machine pass waits on branch outcomes.
        if workers > 1 and not config.wrong_path_depth:
            context = default_mp_context()
            if context.get_start_method() == "fork":
                helper = MachineHelper(
                    trace, config, branch_predictor, missing, context
                )
        try:
            warmer = FunctionalWarmer(
                trace,
                predictor=predictor,
                config=config,
                branch_predictor=branch_predictor,
                machine=helper,
            )
            for pause in missing:
                warmer.advance(pause)
                blob = encode_checkpoint(warmer.snapshot())
                for slot, slot_pause in enumerate(pause_ops):
                    if slot_pause == pause and blobs[slot] is None:
                        blobs[slot] = blob
                        if store is not None:
                            store.save(keys[slot], blob)
        finally:
            if helper is not None:
                helper.close()
    return [blob for blob in blobs if blob is not None], reused, len(missing)


def _scaled_stats(
    cls, per_point: Sequence[object], weights: Sequence[float], scale: float
):
    """Cluster-weighted whole-trace estimate of a counter dataclass.

    Each representative's counters stand for its whole cluster:
    ``estimate = scale · Σ ŵ_k · counter_k`` with ``scale`` the total
    interval count. Counters round to ints; derived rates (IPC, MPKI) then
    fall out of the estimated totals.
    """
    total_weight = sum(weights) or 1.0
    estimate = {}
    for field in dataclass_fields(cls):
        weighted = sum(
            weight * getattr(point, field.name)
            for weight, point in zip(weights, per_point)
        )
        estimate[field.name] = round(scale * weighted / total_weight)
    return cls(**estimate)


def run_sampled(
    spec: RunSpec,
    interval_ops: Optional[int] = None,
    warmup_ops: Optional[int] = None,
    max_clusters: int = 5,
    seed: int = 0,
    checkpoint_store: Optional[CheckpointStore] = None,
    workers: int = 1,
) -> SimResult:
    """Estimate a full-trace result from checkpointed representative intervals.

    ``interval_ops``/``warmup_ops`` default to the ``REPRO_SAMPLE_*``
    environment knobs. ``seed`` seeds the k-means clustering.
    ``checkpoint_store``, when given, makes warmed checkpoints durable and
    reusable across processes (and across predictors' *detailed* phases —
    the key includes the predictor and any front-end override, so each run
    warms its own). With
    ``workers > 1`` the interval runs fan out through the harness executor
    in worker processes (the spec must then be picklable — use registry
    predictor names), and under a fork start method with wrong-path replay
    off a helper process warms the cache hierarchy (and default TAGE)
    beside the parent's predictor warming; ``workers <= 1`` does
    everything inline. Either way the checkpoints and the result are the
    same.

    The returned :class:`~repro.sim.metrics.SimResult` is an *estimate*:
    ``pipeline``/``mdp`` counters are cluster-weight-scaled to the whole
    trace, and ``result.sampling`` carries the sampling geometry, the
    weighted-mean IPC / violation-MPKI estimators and their 95%
    sampling-error half-widths. ``result.sampling.ipc`` (a weighted mean of
    per-interval IPCs) and ``result.pipeline.ipc`` (a ratio of estimated
    totals) agree up to interval-length variation.
    """
    interval_ops = (
        default_sample_interval_ops() if interval_ops is None else interval_ops
    )
    lead_ops = default_sample_warmup_ops() if warmup_ops is None else warmup_ops
    if interval_ops <= 0:
        raise ValueError(f"interval_ops must be positive, got {interval_ops}")
    if lead_ops < 0:
        raise ValueError(f"warmup_ops must be >= 0, got {lead_ops}")

    trace = _job_trace(spec)
    num_intervals = len(trace) // interval_ops
    points = choose_simpoints(trace, interval_ops, max_clusters, seed=seed)
    blobs, reused, warmed = _acquire_checkpoints(
        spec, trace, points, interval_ops, lead_ops, checkpoint_store, workers
    )

    jobs = [
        IntervalJob(
            spec=spec,
            checkpoint=blob,
            interval_index=point.interval_index,
            start_op=point.interval_index * interval_ops,
            interval_ops=interval_ops,
            weight=point.weight,
        )
        for point, blob in zip(points, blobs)
    ]

    results: List[SimResult] = []
    if workers > 1:
        executor = ProcessCellExecutor(
            workers=workers,
            check_invariants=bool(spec.check_invariants),
            worker=_interval_worker,
        )
        for outcome in executor.run_many(jobs):
            if outcome.result is None:
                failure = outcome.failure
                raise RuntimeError(
                    f"interval run failed ({failure.kind.value}): {failure.message}"
                )
            results.append(outcome.result)
    else:
        for job in jobs:
            results.append(_run_interval(job, trace, spec.check_invariants))

    weights = [job.weight for job in jobs]
    ipc = WeightedMetric(
        "ipc", [result.ipc for result in results], weights
    )
    violation_mpki = WeightedMetric(
        "violation_mpki", [result.violation_mpki for result in results], weights
    )
    pipeline = _scaled_stats(
        PipelineStats, [result.pipeline for result in results], weights, num_intervals
    )
    mdp = _scaled_stats(
        MDPStats, [result.mdp for result in results], weights, num_intervals
    )
    summary = SamplingSummary(
        interval_ops=interval_ops,
        warmup_ops=lead_ops,
        total_ops=len(trace),
        simulated_ops=sum(
            job.interval_ops + min(lead_ops, job.start_op) for job in jobs
        ),
        num_intervals=num_intervals,
        num_representatives=len(jobs),
        ipc=ipc.mean,
        ipc_ci95=ipc.ci95_half_width,
        violation_mpki=violation_mpki.mean,
        violation_mpki_ci95=violation_mpki.ci95_half_width,
        checkpoints_warmed=warmed,
        checkpoints_reused=reused,
    )
    return SimResult(
        workload=trace.name,
        predictor=spec.predictor_label,
        core=spec.resolved_config().name,
        pipeline=pipeline,
        mdp=mdp,
        sampling=summary,
    )
