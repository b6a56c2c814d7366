"""Campaign-level sweep orchestration: resume, status, failure manifests.

``SweepRunner`` glues the durable :class:`~repro.harness.store.ResultStore`
to the :class:`~repro.harness.executor.ProcessCellExecutor`: it expands a
(workloads × predictors) grid into :class:`~repro.sim.spec.RunSpec` cells,
skips cells the store already holds, runs the rest under process isolation,
and finishes *with whatever succeeded* — failures become a machine-readable
manifest (``<store>/failure_manifest.json``), never an abort. ``repro
sweep`` is the CLI face of this module.

Every distinct input trace the pending cells need is compiled once into a
:class:`~repro.isa.artifacts.TraceStore` under ``<store>/traces``, so worker
processes load a compiled artifact instead of each regenerating the same
trace. A :class:`BatchGroup` is its trace's only reader, so its worker
compiles the trace itself, in parallel with the other groups; the runner
plans the jobs first and *precompiles* in the parent only the traces that
pending solo cells read. The report's ``trace_rebuilds`` counts workers
that fell through to ``build_trace`` anyway — nonzero means the parent and
the workers disagreed about a trace key.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import CoreConfig
from repro.harness.chaos import ChaosEngine, FaultPlan
from repro.harness.executor import (
    BatchGroup,
    CellOutcome,
    ProcessCellExecutor,
    window_cell,
)
from repro.harness.failures import CellFailure, FailureKind
from repro.harness.leases import LeaseStore
from repro.harness.store import CellKey, ResultStore, StoreStatus, grid_keys
from repro.isa.artifacts import TraceStore
from repro.sim.metrics import SimResult
from repro.sim.spec import RunSpec


def build_cells(
    workloads: Iterable[str],
    predictors: Iterable[str],
    config: Optional[CoreConfig] = None,
    num_ops: int = 0,
    seed: Optional[int] = None,
    trace_dir: Optional[str] = None,
    backend: Optional[str] = None,
) -> List[RunSpec]:
    """Expand a (workload × predictor) grid into sweep cells."""
    core = config or CoreConfig()
    return [
        RunSpec(
            workload=workload,
            predictor=predictor,
            config=core,
            num_ops=num_ops or None,
            seed=seed,
            trace_dir=trace_dir,
            backend=backend,
        )
        for workload in workloads
        for predictor in predictors
    ]


def _refuse_unkeyed(cells: Sequence[RunSpec]) -> None:
    """Raise ``ValueError`` for a cell that sets a field the store does not key.

    A stored result is keyed on the workload and predictor *names*, the
    config, ``num_ops`` and ``seed``; an instance, a profile object or a
    run-time override would be filed under a key that does not describe it.
    """
    for cell in cells:
        unkeyed = {
            "predictor": not isinstance(cell.predictor, str),
            "workload": not isinstance(cell.workload, str),
            "probes": bool(cell.probes),
            "branch_predictor": cell.branch_predictor is not None,
            "warmup_ops": cell.warmup_ops is not None,
            "interval_ops": cell.interval_ops is not None,
        }
        for name, refused in unkeyed.items():
            if refused:
                raise ValueError(
                    f"sweep cell {cell.workload_name}/{cell.predictor_label}: "
                    f"{name} is not part of the result-store key; name a "
                    "registered workload and predictor, drop the override, "
                    "or run it with simulate()"
                )


def _in_cell_order(
    cells: Sequence[RunSpec],
    keys: Sequence[CellKey],
    settled: Dict[str, CellOutcome],
) -> List[CellOutcome]:
    """One outcome per input cell, in input order, from the digest map.

    A repeated cell gets its first occurrence's outcome; a cell that
    settled nowhere reads as an ``error`` failure rather than vanishing
    from the report.
    """
    ordered: List[CellOutcome] = []
    for cell, key in zip(cells, keys):
        outcome = settled.get(key.digest)
        if outcome is None:
            outcome = CellOutcome(
                spec=cell,
                failure=CellFailure(
                    kind=FailureKind.ERROR,
                    message="cell settled without an outcome",
                    cell=dict(key.describe),
                ),
            )
        ordered.append(outcome)
    return ordered


@dataclass
class SweepReport:
    """Everything a sweep produced, successes and failures alike.

    ``trace_rebuilds`` is the number of lazy trace builds workers performed
    during this run despite the artifact store (None when the sweep ran
    without one); ``precompiled`` is the number of traces the parent's
    precompile pass built for solo cells (loads of already-stored artifacts
    don't count, and neither do the builds batch groups make for their own
    traces in their workers).
    ``chaos`` is the :class:`~repro.harness.chaos.ChaosEngine` that injected
    faults into this run (None for a fault-free sweep) — its journal backs
    the soak gate's classification check.

    Cells settled by the surrogate triage tier carry an ``estimate``
    instead of a result or failure; they count in ``surrogate``, never in
    ``completed``/``failed``, and their predictions live in ``estimates``,
    never in ``results``.
    """

    outcomes: List[CellOutcome]
    trace_rebuilds: Optional[int] = None
    precompiled: int = 0
    chaos: Optional[ChaosEngine] = None
    degraded_writes: int = 0
    peer_completed: int = 0

    @property
    def results(self) -> Dict[tuple, SimResult]:
        """(workload, predictor) -> result, for the cells that succeeded."""
        return {
            (outcome.spec.workload, outcome.spec.predictor): outcome.result
            for outcome in self.outcomes
            if outcome.ok
        }

    @property
    def estimates(self) -> Dict[tuple, object]:
        """(workload, predictor) -> surrogate estimate, for settled cells."""
        return {
            (outcome.spec.workload, outcome.spec.predictor): outcome.estimate
            for outcome in self.outcomes
            if outcome.estimate is not None
        }

    @property
    def failures(self) -> List[CellFailure]:
        return [
            outcome.failure
            for outcome in self.outcomes
            if outcome.failure is not None
        ]

    @property
    def cached(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def simulated(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok and not outcome.cached)

    @property
    def failed(self) -> int:
        return sum(
            1 for outcome in self.outcomes if outcome.failure is not None
        )

    @property
    def surrogate(self) -> int:
        """Cells settled by the surrogate tier (predicted, not simulated)."""
        return sum(
            1 for outcome in self.outcomes if outcome.estimate is not None
        )

    @property
    def completed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok)

    def _kind_count(self, kind: FailureKind) -> int:
        return sum(
            1
            for outcome in self.outcomes
            if outcome.failure is not None and outcome.failure.kind is kind
        )

    @property
    def cut(self) -> int:
        """Cells cut by the campaign deadline budget (still pending on resume)."""
        return self._kind_count(FailureKind.DEADLINE)

    @property
    def quarantined(self) -> int:
        """Cells skipped because a prior run already burned their retries."""
        return self._kind_count(FailureKind.QUARANTINED)

    @property
    def skipped(self) -> int:
        """Cells skipped by a tripped per-workload circuit breaker."""
        return self._kind_count(FailureKind.SKIPPED)

    def summary(self) -> str:
        total = len(self.outcomes)
        text = (
            f"sweep: {total} cells — ok={self.completed} "
            f"(cached={self.cached}, simulated={self.simulated}) "
            f"failed={self.failed}"
        )
        if self.surrogate:
            text += f" surrogate={self.surrogate}"
        if self.cut:
            text += f" cut={self.cut}"
        if self.quarantined:
            text += f" quarantined={self.quarantined}"
        if self.skipped:
            text += f" skipped={self.skipped}"
        if self.degraded_writes:
            text += f" degraded-writes={self.degraded_writes}"
        if self.peer_completed:
            text += f" peer={self.peer_completed}"
        if self.trace_rebuilds is not None:
            text += f" trace-rebuilds={self.trace_rebuilds}"
        if self.chaos is not None:
            text += f" chaos-injected={self.chaos.summary()['injected']}"
        return text


class SweepRunner:
    """Resumable fault-tolerant sweep over a cell population.

    The runner plans; the executor isolates, retries and persists.
    :meth:`run` keys each cell once and (with ``resume``) reads its stored
    state once, before any work starts: a durable result settles it as
    ``cached``, a durable failure (with ``quarantine``) as
    ``quarantined``, and the surrogate tier triages only what is left.
    Every later step — lease claims, batch-group planning, trace
    precompile, the executor — takes only pending cells.

    ``trace_store`` is the artifact store traces are compiled into
    (default: ``<result store>/traces``); ``precompile=False`` gives cells
    no ``trace_dir``, so every worker (solo or group) builds its own trace.
    """

    def __init__(
        self,
        store: ResultStore,
        executor: Optional[ProcessCellExecutor] = None,
        trace_store: Optional[TraceStore] = None,
        precompile: bool = True,
    ) -> None:
        self.store = store
        self.executor = executor or ProcessCellExecutor()
        self.trace_store = trace_store or TraceStore(self.store.root / "traces")
        self.precompile = precompile

    def _stored(
        self, cell: RunSpec, key: CellKey, quarantine: bool
    ) -> Optional[CellOutcome]:
        """The outcome the store already holds for ``cell``; None if pending.

        A durable result settles as ``cached``. With ``quarantine``, a
        durable failure settles as ``quarantined`` (the original failure in
        ``detail``) instead of re-burning its retries; the durable record
        keeps the original failure.
        """
        result = self.store.get(key)
        if result is not None:
            return CellOutcome(spec=cell, result=result, cached=True)
        prior = self.store.get_failure(key) if quarantine else None
        if prior is None:
            return None
        failure = CellFailure(
            kind=FailureKind.QUARANTINED,
            message=(
                f"quarantined: failed {prior.attempts} attempt(s) "
                f"in a previous run ({prior.kind.value}: {prior.message})"
            ),
            cell=dict(key.describe),
            attempts=prior.attempts,
            detail={"original": prior.to_dict()},
        )
        return CellOutcome(spec=cell, failure=failure)

    def _claim(
        self,
        cell: RunSpec,
        key: CellKey,
        leases: LeaseStore,
        quarantine: bool,
    ) -> Tuple[bool, Optional[CellOutcome]]:
        """Lease ``cell``, then re-read the store: ``(claimed, settled)``.

        The re-read is the race guard: a result (or, with ``quarantine``, a
        durable failure) that landed after the last read settles the cell
        here and releases its lease, so it is never run twice.
        """
        if not leases.acquire(key.digest):
            return False, None
        settled = self._stored(cell, key, quarantine)
        if settled is not None:
            leases.release(key.digest)
        return True, settled

    def _precompile(self, cells: Sequence[RunSpec]) -> int:
        """Compile every distinct trace ``cells`` read; returns builds.

        ``cells`` are the pending solo cells that may run here; batch groups
        compile their own trace in their worker. Unknown workload names
        (e.g. synthetic cells in tests) are skipped — the worker will
        report the real error with full context.
        """
        from repro.sim.simulator import compile_trace, default_num_ops
        from repro.workloads.spec2017 import workload

        built = 0
        traces = [(cell.workload, cell.seed, cell.num_ops) for cell in cells]
        for name, seed, num_ops in dict.fromkeys(traces):
            try:
                profile = workload(name, seed=seed)
            except KeyError:
                continue
            # The compiled trace also lands in the parent's in-process
            # cache: fork-started workers inherit it and skip even the
            # artifact read, and a refused artifact write costs no rebuild.
            _, was_built = compile_trace(
                profile, num_ops or default_num_ops(), self.trace_store
            )
            built += was_built
        return built

    def _plan_jobs(self, cells: Sequence[RunSpec]) -> List[object]:
        """Group pending batch cells by trace into worker units.

        Cells on the ``batch`` backend are grouped by input trace —
        (workload, seed, num_ops, trace_dir) — into :class:`BatchGroup`
        jobs, so one worker compiles and plans the trace once for the whole
        group, whatever its predictors. Everything else (reference cells,
        cells naming an unknown backend, which then fail with a clear
        error, singleton groups) stays a solo cell; per-cell store entries
        are preserved either way.
        """
        from repro.sim.backends import default_backend_name

        jobs: List[object] = []
        groupable: Dict[tuple, List[RunSpec]] = {}
        for cell in cells:
            if (cell.backend or default_backend_name()) == "batch":
                key = (cell.workload, cell.seed, cell.num_ops, cell.trace_dir)
                groupable.setdefault(key, []).append(cell)
            else:
                jobs.append(cell)
        for members in groupable.values():
            if len(members) >= 2:
                jobs.append(BatchGroup(cells=tuple(members)))
            else:
                jobs.extend(members)
        return jobs

    #: Poll interval while waiting on cells leased to a peer process.
    peer_poll_seconds = 0.25

    def _renewing_heartbeat(
        self,
        heartbeat: Optional[Callable],
        leases: LeaseStore,
        held: "set[str]",
        digest_of: Dict[int, str],
    ) -> Callable:
        """Wrap ``heartbeat`` so streamed windows renew the cell's lease.

        Renewal rides the existing heartbeat stream (every
        ``REPRO_HEARTBEAT_OPS`` committed ops), so any cell still making
        progress holds its lease indefinitely while a crashed owner's
        leases expire after one TTL. ``held`` is the live set of claimed
        digests (reclaimed cells join it); ``digest_of`` maps a run cell's
        ``id`` to its digest.
        """

        def renewing(job, window) -> None:
            digest = digest_of.get(id(window_cell(job, window)))
            if digest in held:
                leases.renew(digest)
            if heartbeat is not None:
                heartbeat(job, window)

        return renewing

    def _await_peers(
        self,
        waiting: Dict[str, RunSpec],
        keys: Dict[str, CellKey],
        leases: LeaseStore,
        execute: Callable[[List[RunSpec]], List[CellOutcome]],
        held: "set[str]",
        progress: Optional[Callable[[CellOutcome], None]] = None,
        quarantine: bool = False,
        stop=None,
        cutoff: Optional[float] = None,
    ) -> List[CellOutcome]:
        """Resolve cells leased to peer processes.

        Each waiting cell settles one of three ways: its result appears in
        the shared store (the peer finished it — a ``cached`` outcome
        here), its lease lapses or is released without a result (the peer
        crashed or failed the cell — we reclaim it through :meth:`_claim`
        and ``execute`` it ourselves), or a stop/deadline cut settles it
        ephemerally (kind ``deadline``, never persisted, pending again on
        resume).
        """
        outcomes: List[CellOutcome] = []
        waiting = dict(waiting)
        while waiting:
            cut = (stop is not None and stop.is_set()) or (
                cutoff is not None and time.monotonic() >= cutoff
            )
            if cut:
                reason = (
                    "cancelled by a stop request"
                    if stop is not None and stop.is_set()
                    else "campaign deadline expired"
                )
                for digest, cell in waiting.items():
                    outcome = CellOutcome(
                        spec=cell,
                        failure=CellFailure(
                            kind=FailureKind.DEADLINE,
                            message=(
                                f"{reason} while a peer held the cell's lease"
                            ),
                            cell=dict(keys[digest].describe),
                            detail={"cancelled": True, "leased_to_peer": True},
                        ),
                    )
                    outcomes.append(outcome)
                    if progress:
                        progress(outcome)
                break
            reclaimed: Dict[str, RunSpec] = {}
            for digest, cell in list(waiting.items()):
                key = keys[digest]
                outcome = self._stored(cell, key, quarantine=False)
                if outcome is None and leases.expired(leases.peek(digest)):
                    won, outcome = self._claim(cell, key, leases, quarantine)
                    if won and outcome is None:
                        reclaimed[digest] = cell
                        held.add(digest)
                        del waiting[digest]
                if outcome is not None:
                    outcomes.append(outcome)
                    del waiting[digest]
                    if progress:
                        progress(outcome)
            if reclaimed:
                try:
                    outcomes.extend(execute(list(reclaimed.values())))
                finally:
                    for digest in reclaimed:
                        leases.release(digest)
                        held.discard(digest)
            elif waiting:
                time.sleep(self.peer_poll_seconds)
        return outcomes

    def run(
        self,
        cells: Sequence[RunSpec],
        resume: bool = True,
        progress: Optional[Callable[[CellOutcome], None]] = None,
        fault_plan: Optional[FaultPlan] = None,
        deadline: Optional[float] = None,
        quarantine: bool = False,
        heartbeat: Optional[Callable] = None,
        stop=None,
        leases: Optional[LeaseStore] = None,
        surrogate=None,
    ) -> SweepReport:
        """Run the sweep; completes with the surviving cells, never aborts.

        Every fresh result and final failure is persisted atomically the
        moment it settles, so a SIGKILL anywhere leaves the store with only
        complete entries and a re-run with ``resume=True`` picks up from
        exactly the finished set. The failure manifest is (re)written at the
        end of every run — empty when everything succeeded.

        With ``resume=True`` each distinct cell's stored state is read once,
        up front: a durable result settles it as ``cached``, and with
        ``quarantine`` a durable failure settles it as ``quarantined``
        (carrying the original failure in ``detail``) instead of
        re-burning its retries; clear the failure entry, or run without
        ``quarantine``, to re-judge it. ``resume=False`` skips that pass:
        without ``leases`` nothing is read, so every cell runs and
        ``quarantine`` has no effect. A caller that has just read the store
        itself, as the server does at submit, passes only its misses with
        ``resume=False``. A repeated cell runs once and shares its first
        occurrence's outcome.

        ``fault_plan`` activates deterministic chaos injection over the
        whole run — including the precompile pass (and, in fork-started
        workers, the groups' own compiles), so artifact writes face the same
        ENOSPC/corruption weather as everything else. ``deadline`` (the
        campaign wall-clock budget), ``heartbeat`` (live interval-window
        callback) and ``stop`` (a ``threading.Event`` requesting
        cancellation; the server's cancel endpoint sets it) are applied by
        the executor; see
        :meth:`~repro.harness.executor.ProcessCellExecutor.run_many`.

        ``leases`` activates multi-process sharding over a shared store
        (:class:`~repro.harness.leases.LeaseStore`): pending cells are
        claimed through exclusive markers before dispatch, and each claim
        is followed by one store read, with or without ``resume``, so a
        result that landed since the caller's read settles as ``cached``
        and is not re-run. Concurrent runners thus split the population
        with zero duplicated executions.
        Cells claimed by a *peer* are not executed here; the runner waits
        for their results to appear in the shared store (they settle as
        ``cached`` outcomes, counted in ``SweepReport.peer_completed``) and
        reclaims any lease whose owner crashed (TTL expiry). Heartbeats
        renew the leases of in-flight cells, so a lease outlives any cell
        still making progress.

        ``surrogate`` is an optional
        :class:`~repro.surrogate.triage.SurrogateTier`: pending cells it
        settles (tight confidence interval, inside the training support)
        become ``estimate`` outcomes up front — before traces are
        precompiled or leases claimed — and never reach the executor.
        Cells found cached, by the up-front pass or (with ``resume=False``)
        by the caller's own read, bypass triage entirely: a durable
        detailed result always beats a prediction.

        A cell naming a predictor instance or a profile object, or setting
        probes, a front-end override, ``warmup_ops`` or ``interval_ops``,
        raises ``ValueError`` naming the field: the store does not key it.
        """
        _refuse_unkeyed(cells)
        chaos = ChaosEngine(fault_plan) if fault_plan is not None else None
        scope = chaos.installed() if chaos is not None else contextlib.nullcontext()
        cutoff = None if deadline is None else time.monotonic() + float(deadline)
        cell_keys = grid_keys(cells)
        keys: Dict[str, CellKey] = {}
        settled: Dict[str, CellOutcome] = {}
        pending: Dict[str, RunSpec] = {}

        def settle(digest: str, outcome: CellOutcome) -> None:
            settled[digest] = outcome
            if progress:
                progress(outcome)

        for cell, key in zip(cells, cell_keys):
            if key.digest in keys:
                continue
            keys[key.digest] = key
            stored = self._stored(cell, key, quarantine) if resume else None
            if stored is None:
                pending[key.digest] = cell
            else:
                settle(key.digest, stored)
        if surrogate is not None and surrogate.mode != "off":
            estimates = surrogate.triage(list(pending.values()))
            for digest in [digest for digest in pending if digest in estimates]:
                outcome = CellOutcome(
                    spec=pending.pop(digest), estimate=estimates[digest]
                )
                settle(digest, outcome)
        with scope:
            precompiled = 0
            rebuilds = None
            if self.precompile:
                trace_dir = str(self.trace_store.root)
                pending = {
                    digest: (
                        cell if cell.trace_dir else replace(cell, trace_dir=trace_dir)
                    )
                    for digest, cell in pending.items()
                }
                rebuilds_before = self.trace_store.rebuild_count()
            # Outcomes carry the very cell objects handed out below.
            digest_of = {id(cell): digest for digest, cell in pending.items()}
            foreign: Dict[str, RunSpec] = {}
            claimed: "set[str]" = set()
            if leases is not None:
                for digest, cell in list(pending.items()):
                    won, stored = self._claim(cell, keys[digest], leases, quarantine)
                    if won and stored is None:
                        claimed.add(digest)
                        continue
                    del pending[digest]
                    if stored is not None:
                        settle(digest, stored)
                    else:
                        foreign[digest] = cell
                heartbeat = self._renewing_heartbeat(
                    heartbeat, leases, claimed, digest_of
                )
            # Cached cells never reach the executor, but its breaker counts
            # them as their workload's successes.
            successes = Counter(
                outcome.spec.workload
                for outcome in settled.values()
                if outcome.cached
            )
            execute = functools.partial(
                self.executor.run_many,
                store=self.store,
                successes=successes,
                progress=progress,
                heartbeat=heartbeat,
                stop=stop,
            )
            jobs = self._plan_jobs(list(pending.values()))
            if self.precompile:
                # Peer-leased cells may come back to run here as solo cells.
                solo = [job for job in jobs if isinstance(job, RunSpec)]
                precompiled = self._precompile(solo + list(foreign.values()))
            peer_completed = 0
            try:
                outcomes = list(execute(jobs, chaos=chaos, deadline=deadline))
            finally:
                if leases is not None:
                    # Settled either way: results (and durable failures) are
                    # in the shared store, so peers re-reading it after a
                    # claim — or re-claiming a failed cell — move on.
                    for digest in claimed:
                        leases.release(digest)
            if foreign:
                peer_outcomes = self._await_peers(
                    foreign,
                    keys,
                    leases,
                    execute,
                    claimed,
                    progress=progress,
                    quarantine=quarantine,
                    stop=stop,
                    cutoff=cutoff,
                )
                peer_completed = sum(
                    1 for outcome in peer_outcomes if outcome.ok and outcome.cached
                )
                outcomes += peer_outcomes
            for outcome in outcomes:
                group = isinstance(outcome.spec, BatchGroup)
                for sub in (outcome.cells or []) if group else [outcome]:
                    settled[digest_of[id(sub.spec)]] = sub
            if self.precompile:
                rebuilds = self.trace_store.rebuild_count() - rebuilds_before
        report = SweepReport(
            outcomes=_in_cell_order(cells, cell_keys, settled),
            trace_rebuilds=rebuilds,
            precompiled=precompiled,
            chaos=chaos,
            degraded_writes=self.store.degraded_writes,
            peer_completed=peer_completed,
        )
        extra = {
            "cells": len(cells),
            "completed": report.completed,
            "cached": report.cached,
            "simulated": report.simulated,
            "precompiled_traces": precompiled,
            "trace_rebuilds": rebuilds,
            "cut": report.cut,
            "quarantined": report.quarantined,
            "skipped": report.skipped,
            "degraded_writes": self.store.degraded_writes,
            "peer_completed": report.peer_completed,
        }
        if surrogate is not None:
            extra["surrogate"] = {
                "mode": surrogate.mode,
                "settled": report.surrogate,
                "model_sha256": surrogate.model.content_sha256,
            }
        if deadline is not None:
            extra["deadline_seconds"] = float(deadline)
        if chaos is not None:
            extra["chaos"] = chaos.summary()
        self.store.write_manifest(report.failures, extra=extra)
        return report

    def status(self, cells: Sequence[RunSpec]) -> StoreStatus:
        """Completed/failed/pending counts for a sweep, without running it."""
        return self.store.status(grid_keys(cells))
