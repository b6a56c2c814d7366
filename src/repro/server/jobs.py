"""Job lifecycle for the sweep server: validate, dedupe, dispatch, observe.

:class:`JobManager` is the server's engine room, deliberately independent
of HTTP so it can be driven directly in tests. A submission (one
:class:`~repro.sim.spec.RunSpec` or a :class:`~repro.api.wire.WireGrid`)
becomes a :class:`Job`:

1. **Validate** — every workload/predictor/backend name is checked against
   its registry *at the submission boundary* (:func:`validate_names`), so a
   typo is a structured 422 naming the offending field, never a worker
   crash ten seconds later.
2. **Dedupe** — each cell's content-addressed store key is read from the
   shared :class:`~repro.harness.store.ResultStore` once, *before*
   scheduling; this is the job's one up-front store read. Cells already
   answered are marked ``cached`` in the submission receipt and never
   occupy a worker; resubmitting an answered grid schedules zero new cells.
3. **Dispatch** — a pool of dispatcher threads (``REPRO_SERVE_DISPATCHERS``)
   pulls jobs off a shared FIFO queue; each dispatcher runs its job through
   its *own* :class:`~repro.harness.sweep.SweepRunner` (batch-group
   planning, retry/backoff, quarantine, the whole failure taxonomy), so a
   remote job and a local ``repro sweep`` are the same machinery and the
   same store keys — and independent jobs run concurrently while every
   per-job event log stays dense and monotonic (each job's log has its own
   lock and sequence).
4. **Shard** — only the submit-time misses reach the runner (with
   ``resume=False``, so it does not read them again up front), and each
   is claimed through the shared store's lease directory
   (:class:`~repro.harness.leases.LeaseStore`). The claim re-reads the
   store, so a cell answered since submit settles as ``cached`` without
   running; two or more ``repro serve`` processes pointed at the same store
   split a grid's pending cells with zero duplicated executions, and a
   crashed peer's leases expire after a TTL and are reclaimed.
5. **Observe** — per-cell state transitions and streamed heartbeat windows
   land in a monotonically-sequenced per-job event log; pollers read
   ``events(since=...)``, the SSE endpoint blocks on :meth:`Job.wait_events`.

Cancellation of a *queued* job settles it to ``cancelled`` immediately —
the terminal event is visible the moment the cancel returns, not when a
dispatcher eventually dequeues it. Cancelling a *running* job sets its
stop event; the executor kills in-flight workers and settles the rest as
cancelled (ephemeral — a resubmission picks them back up as pending).

Per-tenant policy layers above the global quotas: a submission may carry a
tenant id (the wire ``ext`` escape hatch, or an HTTP bearer token — see
docs/server.md), and tenants can be given their own ``max_queued`` /
``max_cells`` limits; the tenant is attributed on the job payload, the
receipt, and every ``job`` event.
"""

from __future__ import annotations

import itertools
import logging
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.wire import WireError
from repro.common.env import env_int
from repro.harness.executor import ProcessCellExecutor, window_cell
from repro.harness.leases import LeaseStore
from repro.harness.store import CellKey, ResultStore, grid_keys
from repro.harness.sweep import SweepRunner
from repro.sim.spec import RunSpec

logger = logging.getLogger(__name__)

#: Quota/backpressure knobs (documented in docs/server.md).
ENV_MAX_CELLS = "REPRO_SERVE_MAX_CELLS"
ENV_MAX_QUEUED = "REPRO_SERVE_MAX_QUEUED"
#: Size of the concurrent dispatch pool (jobs in flight at once).
ENV_DISPATCHERS = "REPRO_SERVE_DISPATCHERS"
#: Per-tenant quota defaults (0 = no per-tenant default; explicit
#: ``tenant_limits`` entries always win).
ENV_TENANT_MAX_CELLS = "REPRO_SERVE_TENANT_MAX_CELLS"
ENV_TENANT_MAX_QUEUED = "REPRO_SERVE_TENANT_MAX_QUEUED"
#: Cells the job table may hold before settled jobs are retired, oldest
#: first. A held cell costs 1–3.5 KB (spec, state, key and events; a cell
#: that ran logs more than a cached one), so the table stays under ~70 MB.
#: One 15 s serve-mix benchmark run holds about 3.7k cells.
RETAINED_CELLS = 20_000


def default_max_cells() -> int:
    return env_int(ENV_MAX_CELLS, 1024, min_value=1)


def default_max_queued() -> int:
    return env_int(ENV_MAX_QUEUED, 32, min_value=1)


def default_dispatchers() -> int:
    return env_int(ENV_DISPATCHERS, 2, min_value=1)


def _default_tenant_limit(name: str) -> Optional[int]:
    value = env_int(name, 0, min_value=0)
    return value or None


#: How :meth:`JobManager._admit` words a refused request: its noun, the
#: server's per-request scope, and the tenant's verb and scope.
_JOB_WORDS = ("job", "per job", "submit", "per job")
_PREDICT_WORDS = ("predict call", "per request", "request", "per call")


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant quota overrides; ``None`` defers to the global quota."""

    max_cells: Optional[int] = None
    max_queued: Optional[int] = None


class QuotaError(Exception):
    """A submission rejected by a quota; ``status`` is the HTTP code."""

    def __init__(self, message: str, status: int) -> None:
        super().__init__(message)
        self.status = status


class SurrogateUnavailable(Exception):
    """A predict call on a server with no surrogate model loaded (→ 503)."""


def validate_names(specs: Sequence[RunSpec]) -> None:
    """Reject unknown workload/predictor/backend names with a WireError.

    Reuses the registries the simulator itself resolves against, so the
    server can never accept a name a worker would later choke on. Raises
    :class:`~repro.api.wire.WireError` (→ structured 422) naming the field.
    """
    from repro.sim.backends import available_backends
    from repro.sim.simulator import available_predictors, parse_predictor
    from repro.workloads.spec2017 import SPEC_PROFILES

    backends = set(available_backends())
    for spec in specs:
        if spec.workload_name not in SPEC_PROFILES:
            raise WireError(
                f"unknown workload {spec.workload_name!r}",
                field="workload",
                value=spec.workload_name,
                choices=sorted(SPEC_PROFILES),
            )
        try:
            parse_predictor(spec.predictor_label)
        except KeyError:
            raise WireError(
                f"unknown predictor {spec.predictor_label!r}",
                field="predictor",
                value=spec.predictor_label,
                choices=list(available_predictors()),
            ) from None
        except ValueError as exc:
            raise WireError(
                str(exc), field="predictor", value=spec.predictor_label
            ) from None
        if spec.backend is not None and spec.backend not in backends:
            raise WireError(
                f"unknown backend {spec.backend!r}",
                field="backend",
                value=spec.backend,
                choices=sorted(backends),
            )
        # The shared store keys cells on (workload, predictor, config,
        # num_ops, seed) only — a per-run warmup/interval override would
        # produce results other clients could mistake for default-warmup
        # ones, so v1 refuses rather than silently mis-filing them.
        if spec.warmup_ops is not None:
            raise WireError(
                "warmup_ops overrides are not accepted by the server "
                "(results are keyed without them); submit with "
                "warmup_ops=None",
                field="warmup_ops",
                value=spec.warmup_ops,
            )
        if spec.interval_ops is not None:
            raise WireError(
                "interval_ops overrides are not accepted by the server; "
                "heartbeat windows are streamed automatically",
                field="interval_ops",
                value=spec.interval_ops,
            )


@dataclass
class CellState:
    """One cell of a job, as the status endpoint reports it."""

    index: int
    workload: str
    predictor: str
    digest: str
    state: str = "pending"  # pending | cached | ok | surrogate | <failure kind>
    message: Optional[str] = None
    attempts: int = 0

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "index": self.index,
            "workload": self.workload,
            "predictor": self.predictor,
            "digest": self.digest,
            "state": self.state,
        }
        if self.message is not None:
            payload["message"] = self.message
        if self.attempts:
            payload["attempts"] = self.attempts
        return payload


def _identity(spec: RunSpec) -> tuple:
    """What a spec's key is made of, with its config object by identity.

    Specs of one job keep their configs alive, so two specs with one
    identity have one key.
    """
    return (
        spec.workload_name,
        spec.predictor_label,
        id(spec.config),
        spec.num_ops or 0,
        spec.seed,
    )


@dataclass
class Job:
    """One submission and everything observable about it.

    ``events`` is an append-only log of ``{"seq": n, "event": kind, ...}``
    dicts; ``seq`` is dense and monotonic per job, so a client that saw
    ``seq=k`` asks for ``since=k`` and misses nothing. All mutation happens
    under ``cond`` and notifies it, which is what SSE bridges block on.
    """

    id: str
    specs: List[RunSpec]
    cells: List[CellState]
    keys: List[CellKey]  # each spec's store key, made once at submit
    state: str = "queued"  # queued | running | completed | cancelled | failed
    tenant: Optional[str] = None
    error: Optional[str] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    events: List[Dict[str, object]] = field(default_factory=list)
    cond: threading.Condition = field(default_factory=threading.Condition)
    stop: threading.Event = field(default_factory=threading.Event)
    summary: Optional[str] = None
    claimed: bool = False  # taken by a dispatcher (or settled at cancel)
    check_invariants: bool = False
    _by_digest: Dict[str, int] = field(default_factory=dict)

    TERMINAL = ("completed", "cancelled", "failed")

    def __post_init__(self) -> None:
        for index, key in enumerate(self.keys):
            self._by_digest.setdefault(key.digest, index)

    @property
    def done(self) -> bool:
        return self.state in self.TERMINAL

    def try_claim(self) -> bool:
        """Atomically take ownership of running (or settling) this job.

        Exactly one caller wins: the dispatcher that will run the job, or
        a cancel/shutdown path that settles it while still queued. Losers
        must leave the job alone.
        """
        with self.cond:
            if self.claimed or self.done:
                return False
            self.claimed = True
            return True

    def emit(self, kind: str, **data) -> None:
        with self.cond:
            event = {"seq": len(self.events), "event": kind}
            event.update(data)
            self.events.append(event)
            self.cond.notify_all()

    def set_state(self, state: str, **data) -> None:
        with self.cond:
            self.state = state
            if state == "running":
                self.started_at = time.time()
            elif state in self.TERMINAL:
                self.finished_at = time.time()
        self.emit("job", state=state, **data)

    def cell_for(self, digest: str) -> Optional[CellState]:
        index = self._by_digest.get(digest)
        return None if index is None else self.cells[index]

    def cell_finder(self) -> Callable[[RunSpec], Optional[CellState]]:
        """A lookup from a spec the runner reports on to its cell.

        The runner hands back the submitted specs or copies of them (with a
        ``trace_dir`` set). A copy keeps its original's config object, so
        the keyed fields plus that object's identity find the cell, whose
        key was made at submit, without keying the spec again. Any other
        spec is keyed.
        """
        by_identity: Dict[tuple, int] = {}
        for index, spec in enumerate(self.specs):
            by_identity.setdefault(_identity(spec), index)

        def cell_of(spec: RunSpec) -> Optional[CellState]:
            index = by_identity.get(_identity(spec))
            if index is None:
                return self.cell_for(spec.key().digest)
            return self.cells[index]

        return cell_of

    def wait_events(
        self, since: int, timeout: Optional[float] = None
    ) -> Tuple[List[Dict[str, object]], bool]:
        """Block until there are events past ``since`` (or the job is done).

        Returns ``(new_events, done)``. A ``([], done)`` return means the
        timeout elapsed (or the job finished with nothing new to say).
        """
        with self.cond:
            self.cond.wait_for(
                lambda: len(self.events) > since or self.done, timeout
            )
            return list(self.events[since:]), self.done

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for cell in self.cells:
            counts[cell.state] = counts.get(cell.state, 0) + 1
        return counts

    def to_payload(self, cells: bool = True) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "id": self.id,
            "state": self.state,
            "cells_total": len(self.cells),
            "counts": self.counts(),
            "events": len(self.events),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.tenant is not None:
            payload["tenant"] = self.tenant
        if self.error is not None:
            payload["error"] = self.error
        if self.summary is not None:
            payload["summary"] = self.summary
        if cells:
            payload["cells"] = [cell.to_payload() for cell in self.cells]
        return payload


class JobManager:
    """Owns the job table, the dispatcher pool, and the shared stores.

    One instance per server process. ``executor_factory`` is injectable for
    tests (e.g. to substitute crashing workers); it is called once per job
    with the job's ``check_invariants`` flag and must return a
    :class:`~repro.harness.executor.ProcessCellExecutor`-compatible object.

    ``dispatchers`` sizes the concurrent dispatch pool (default
    ``REPRO_SERVE_DISPATCHERS``): that many jobs run at once, each through
    its own runner and executor. ``lease_ttl``/``owner`` shape the
    shared-store lease protocol every job's cells are claimed through.
    ``tenant_limits`` maps tenant ids to :class:`TenantPolicy` overrides;
    tenants without an entry get the ``REPRO_SERVE_TENANT_MAX_*`` defaults.

    ``surrogate`` is an optional
    :class:`~repro.surrogate.triage.SurrogateTier`: submitted jobs run
    their sweeps through it (cells it settles appear as ``surrogate`` cell
    states), and :meth:`predict` answers grids from the model alone.

    The job table is bounded: once the jobs it holds pass
    :data:`RETAINED_CELLS` cells, each submission first retires the oldest
    settled jobs (never a queued or running one). A retired job's id reads
    as unknown; its results stay in the store under their keys.
    """

    def __init__(
        self,
        store: ResultStore,
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        max_cells: Optional[int] = None,
        max_queued: Optional[int] = None,
        executor_factory=None,
        dispatchers: Optional[int] = None,
        lease_ttl: Optional[float] = None,
        owner: Optional[str] = None,
        tenant_limits: Optional[Mapping[str, TenantPolicy]] = None,
        surrogate=None,
    ) -> None:
        self.store = store
        self.surrogate = surrogate
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.max_cells = default_max_cells() if max_cells is None else max_cells
        self.max_queued = default_max_queued() if max_queued is None else max_queued
        self.dispatchers = (
            default_dispatchers() if dispatchers is None else max(1, dispatchers)
        )
        self.leases = LeaseStore(store.leases_dir, owner=owner, ttl=lease_ttl)
        self.tenant_limits: Dict[str, TenantPolicy] = dict(tenant_limits or {})
        self._executor_factory = executor_factory or self._default_executor
        self._jobs: Dict[str, Job] = {}
        self._held = 0  # cells of the jobs in ``_jobs``
        self._lock = threading.Lock()
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._ids = itertools.count(1)
        self._pool = [
            threading.Thread(
                target=self._dispatch_loop,
                name=f"repro-serve-dispatch-{index}",
                daemon=True,
            )
            for index in range(1, self.dispatchers + 1)
        ]
        for thread in self._pool:
            thread.start()

    def _default_executor(self, check_invariants: bool) -> ProcessCellExecutor:
        return ProcessCellExecutor(
            workers=self.workers,
            timeout=self.timeout,
            retries=self.retries,
            check_invariants=check_invariants,
        )

    # ---------------------------------------------------------- submission --

    def tenant_policy(self, tenant: str) -> TenantPolicy:
        """The effective quota policy for one tenant.

        An explicit ``tenant_limits`` entry wins; otherwise the
        ``REPRO_SERVE_TENANT_MAX_*`` environment defaults apply (0 / unset
        means the tenant only faces the global quotas).
        """
        policy = self.tenant_limits.get(tenant)
        if policy is not None:
            return policy
        return TenantPolicy(
            max_cells=_default_tenant_limit(ENV_TENANT_MAX_CELLS),
            max_queued=_default_tenant_limit(ENV_TENANT_MAX_QUEUED),
        )

    def _admit(
        self,
        specs: Sequence[RunSpec],
        tenant: Optional[str],
        words: Tuple[str, str, str, str],
    ) -> Tuple[List[RunSpec], Optional[TenantPolicy]]:
        """Check a grid against the per-request cell quotas and the registries.

        Returns the specs as a list and the tenant's policy (None without a
        tenant). ``words`` is :data:`_JOB_WORDS` or :data:`_PREDICT_WORDS`.
        """
        noun, per, verb, tenant_per = words
        specs = list(specs)
        if not specs:
            raise WireError(f"a {noun} needs at least one cell")
        if len(specs) > self.max_cells:
            raise QuotaError(
                f"{noun} has {len(specs)} cells; this server accepts at most "
                f"{self.max_cells} {per} ({ENV_MAX_CELLS})",
                status=413,
            )
        policy = None if tenant is None else self.tenant_policy(tenant)
        limit = None if policy is None else policy.max_cells
        if limit is not None and len(specs) > limit:
            raise QuotaError(
                f"{noun} has {len(specs)} cells; tenant {tenant!r} may "
                f"{verb} at most {limit} {tenant_per}",
                status=413,
            )
        validate_names(specs)
        return specs, policy

    def submit(
        self,
        specs: Sequence[RunSpec],
        check_invariants: bool = False,
        tenant: Optional[str] = None,
    ) -> Tuple[Job, Dict[str, object]]:
        """Validate, dedupe against the store, and enqueue a job.

        Returns ``(job, receipt)``; the receipt reports how many cells were
        already answered (``cached``) versus actually ``scheduled`` — the
        client-visible proof that a resubmission costs nothing. ``tenant``
        attributes the job and is checked against that tenant's policy
        *in addition to* the global quotas.
        """
        specs, policy = self._admit(specs, tenant, _JOB_WORDS)
        with self._lock:
            queued = sum(1 for job in self._jobs.values() if not job.done)
            if queued >= self.max_queued:
                raise QuotaError(
                    f"{queued} jobs already queued or running; this server "
                    f"accepts at most {self.max_queued} ({ENV_MAX_QUEUED})",
                    status=429,
                )
            if policy is not None and policy.max_queued is not None:
                mine = sum(
                    1
                    for job in self._jobs.values()
                    if not job.done and job.tenant == tenant
                )
                if mine >= policy.max_queued:
                    raise QuotaError(
                        f"tenant {tenant!r} already has {mine} jobs queued "
                        f"or running; its limit is {policy.max_queued}",
                        status=429,
                    )
            job_id = f"job-{next(self._ids):04d}"

        keys = grid_keys(specs)
        cells: List[CellState] = []
        cached = 0
        for index, (spec, key) in enumerate(zip(specs, keys)):
            cell = CellState(
                index=index,
                workload=spec.workload_name,
                predictor=spec.predictor_label,
                digest=key.digest,
            )
            # Dedupe *before* scheduling: an answered cell never reaches
            # the queue, let alone a worker.
            if self.store.contains(key):
                cell.state = "cached"
                cached += 1
            cells.append(cell)

        job = Job(
            id=job_id,
            specs=specs,
            cells=cells,
            tenant=tenant,
            check_invariants=check_invariants,
            keys=keys,
        )
        with self._lock:
            self._retire(len(cells))
            self._jobs[job_id] = job
            self._held += len(cells)
        queued_event: Dict[str, object] = {
            "cells": len(cells),
            "cached": cached,
            "scheduled": len(cells) - cached,
        }
        if tenant is not None:
            queued_event["tenant"] = tenant
        job.emit("job", state="queued", **queued_event)

        scheduled = len(cells) - cached
        if scheduled == 0:
            # Fully deduped: nothing to dispatch; complete on the spot.
            job.summary = (
                f"sweep: {len(cells)} cells — ok={len(cells)} "
                f"(cached={cached}, simulated=0) failed=0"
            )
            job.set_state("completed", cached=cached, scheduled=0)
        else:
            self._queue.put(job)
        receipt = {
            "id": job.id,
            "state": job.state,
            "cells": len(cells),
            "cached": cached,
            "scheduled": scheduled,
        }
        if tenant is not None:
            receipt["tenant"] = tenant
        return job, receipt

    def _retire(self, incoming: int) -> None:
        """Drop the oldest settled jobs until ``incoming`` more cells fit.

        Queued and running jobs are never dropped, so the table may stay
        above :data:`RETAINED_CELLS` while they hold it. Call under
        ``_lock``.
        """
        excess = self._held + incoming - RETAINED_CELLS
        if excess <= 0:
            return
        retired = []
        for job_id, job in self._jobs.items():
            if excess <= 0:
                break
            if job.done:
                retired.append(job_id)
                excess -= len(job.cells)
        for job_id in retired:
            self._held -= len(self._jobs.pop(job_id).cells)

    # ------------------------------------------------------------ queries --

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel a job; a still-queued one settles immediately.

        Claiming the job races the dispatcher pool: if the cancel path wins
        the claim, no dispatcher will ever run the job, so it is safe (and
        required — clients are waiting on the terminal event) to settle it
        to ``cancelled`` on the spot instead of leaving it ``queued`` until
        a dispatcher happens to dequeue it. If a dispatcher already owns
        it, the stop event makes the executor wind the job down and the
        dispatcher emits the terminal state.
        """
        job = self.get(job_id)
        if job is None:
            return None
        if not job.done:
            job.stop.set()
            if job.try_claim():
                job.set_state("cancelled", reason="cancelled while queued")
            else:
                with job.cond:
                    job.cond.notify_all()
        return job

    def results(self, job: Job) -> List[Dict[str, object]]:
        """Durable results for a job's cells, straight from the store.

        Cells the surrogate tier settled have no detailed result; their
        tagged estimate is returned under the separate ``surrogate`` key —
        never under ``result`` — read from the surrogate store namespace.
        """
        out: List[Dict[str, object]] = []
        for key, cell in zip(job.keys, job.cells):
            result = self.store.get(key)
            entry: Dict[str, object] = {
                "workload": cell.workload,
                "predictor": cell.predictor,
                "digest": cell.digest,
                "result": None if result is None else result.to_record(),
            }
            if (
                result is None
                and self.surrogate is not None
                and self.surrogate.store is not None
            ):
                estimate = self.surrogate.store.get(cell.digest)
                if estimate is not None:
                    entry["surrogate"] = estimate.to_dict()
            out.append(entry)
        return out

    def predict(
        self,
        specs: Sequence[RunSpec],
        tenant: Optional[str] = None,
    ) -> List[Dict[str, object]]:
        """Score a grid with the surrogate model — no executor work at all.

        Covered by the same per-job cell quotas as :meth:`submit` (a
        predict call is still a grid-sized request), but never by the
        queue quotas: nothing is enqueued. Raises
        :class:`SurrogateUnavailable` when the server has no model.
        """
        if self.surrogate is None:
            raise SurrogateUnavailable(
                "this server has no surrogate model loaded; start it with "
                "--surrogate-model (or set REPRO_SURROGATE_MODEL)"
            )
        specs, _ = self._admit(specs, tenant, _PREDICT_WORDS)
        return [
            estimate.to_dict()
            for estimate in self.surrogate.predict_all(specs)
        ]

    # ----------------------------------------------------------- dispatch --

    def _dispatch_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            if not job.try_claim():
                continue  # cancelled (or settled at shutdown) while queued
            try:
                self._run_job(job)
            except BaseException as exc:  # noqa: BLE001 — job fails, server lives
                job.error = f"{type(exc).__name__}: {exc}"
                job.set_state("failed", error=job.error)

    def _run_job(self, job: Job) -> None:
        if job.stop.is_set():
            job.set_state("cancelled")
            return
        job.set_state("running")

        # Submit read every cell; its misses run, re-read only at the claim.
        pending = [
            spec
            for spec, cell in zip(job.specs, job.cells)
            if cell.state != "cached"
        ]
        runner = SweepRunner(
            self.store, executor=self._executor_factory(job.check_invariants)
        )
        cell_of = job.cell_finder()

        def progress(outcome) -> None:
            cell = cell_of(outcome.spec)
            if cell is None:
                return
            if outcome.ok:
                cell.state = "cached" if outcome.cached else "ok"
                cell.message = None
            elif outcome.estimate is not None:
                cell.state = "surrogate"
                cell.message = outcome.estimate.summary()
            else:
                cell.state = outcome.failure.kind.value
                cell.message = outcome.failure.message
            cell.attempts = max(cell.attempts, outcome.attempts)
            job.emit(
                "cell",
                index=cell.index,
                workload=cell.workload,
                predictor=cell.predictor,
                state=cell.state,
                message=cell.message,
                attempts=cell.attempts,
            )

        def heartbeat(worker_job, window) -> None:
            spec = window_cell(worker_job, window)
            cell = None if spec is None else cell_of(spec)
            if cell is None:
                return
            if cell.state == "pending":
                # The first heartbeat is how we learn the cell started; emit
                # the transition so replaying the event log agrees with a
                # poll of the cell table (clients must never see a cell jump
                # straight from pending to settled).
                cell.state = "running"
                job.emit(
                    "cell",
                    index=cell.index,
                    workload=cell.workload,
                    predictor=cell.predictor,
                    state="running",
                )
            job.emit(
                "heartbeat",
                index=cell.index,
                workload=cell.workload,
                predictor=cell.predictor,
                end_op=window.get("end_op"),
                ipc=window.get("ipc"),
            )

        report = runner.run(
            pending,
            resume=False,
            progress=progress,
            heartbeat=heartbeat,
            stop=job.stop,
            leases=self.leases,
            surrogate=self.surrogate,
        )
        job.summary = report.summary()
        if job.stop.is_set():
            job.set_state("cancelled", summary=job.summary)
        else:
            job.set_state(
                "completed",
                summary=job.summary,
                ok=report.completed,
                failed=report.failed,
            )

    # ----------------------------------------------------------- shutdown --

    def close(self, timeout: float = 30.0) -> List[str]:
        """Cancel everything in flight and stop the dispatcher pool.

        Still-queued jobs are claimed and fast-settled to ``cancelled``
        without ever constructing a runner, so shutdown is not serialized
        behind work nobody wants anymore. Each dispatcher gets a stop
        sentinel and is joined for ``timeout`` seconds; a thread that fails
        to join (a wedged worker pool, a hung filesystem) is *reported* —
        logged and returned by name — rather than silently abandoned.
        """
        for job in self.jobs():
            if not job.done:
                job.stop.set()
                if job.try_claim():
                    job.set_state("cancelled", reason="server shutting down")
        for _ in self._pool:
            self._queue.put(None)
        wedged: List[str] = []
        for thread in self._pool:
            thread.join(timeout=timeout)
            if thread.is_alive():
                wedged.append(thread.name)
                logger.warning(
                    "dispatcher %s did not stop within %.0fs; abandoning it",
                    thread.name,
                    timeout,
                )
        self.leases.release_all()
        return wedged
