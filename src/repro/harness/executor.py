"""Process-isolated execution of sweep cells with timeouts and retries.

Each cell runs in its own worker subprocess, so a pathological cell — an
infinite loop, a segfaulting native extension, a memory blow-up, the kernel
OOM killer — takes down only that cell, never the campaign. The parent
classifies what happened (:class:`~repro.harness.failures.FailureKind`),
retries transient failures with capped exponential backoff, and records a
structured :class:`~repro.harness.failures.CellFailure` for anything that
still fails, while completed cells land in the crash-safe
:class:`~repro.harness.store.ResultStore`.

``ProcessCellExecutor.run_many`` is a small deadline-driven scheduler: up to
``workers`` subprocesses in flight, per-cell timeouts enforced with
``proc.kill()``, and retry backoff expressed as "not before" timestamps so
waiting cells never block a worker slot.

Workers additionally stream *heartbeats*: the backend's ``run_streaming``
(``run_many`` for batch groups) forwards each completed per-``REPRO_HEARTBEAT_OPS`` interval window
(:mod:`repro.sim.intervals`) over the pipe. The parent
stashes the most recent window per cell, so when a cell hangs and is killed
(or crashes), its failure manifest records the last interval it completed —
"died at op ~14000 with IPC collapsing" instead of just "timeout".

The executor is job-generic: the default worker simulates a
:class:`~repro.sim.spec.RunSpec` (the executor's ``check_invariants`` flag
replaces the spec's own), but any picklable job works with a custom
``worker=`` callable of the same ``(conn, job, check_invariants)`` shape
that sends the same tagged messages (``("ok", SimResult.to_record())`` on
success). A job only needs ``describe()`` (for failure manifests);
``key()`` is required only when a ``store`` is passed to ``run_many``.
``repro.sampling`` uses this to fan checkpoint-restored interval runs out
across workers without a parallel scheduler of its own.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import dataclass, replace
from multiprocessing import connection, get_context
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.env import env_float, env_int
from repro.harness.chaos import ChaosEngine, ChaosJob, _chaos_worker
from repro.harness.failures import (
    EPHEMERAL_KINDS,
    CellFailure,
    FailureKind,
    backoff_delay,
    classify_exitcode,
    jitter_fraction,
)
from repro.harness.store import ResultStore

# Imported here rather than in the worker bodies: a forked worker then
# inherits the module instead of importing it (about 1 MB of RSS) per cell.
from repro.sim.invariants import SimInvariantError
from repro.sim.metrics import SimResult
from repro.sim.spec import RunSpec

#: Environment defaults for the sweep knobs (CLI flags override).
ENV_TIMEOUT = "REPRO_SWEEP_TIMEOUT"
ENV_RETRIES = "REPRO_SWEEP_RETRIES"
ENV_WORKERS = "REPRO_SWEEP_WORKERS"
#: Multiprocessing start method ("fork", "spawn", "forkserver"). The default
#: is fork where available; spawn-started workers begin with a cold
#: in-process trace cache, so they exercise the on-disk artifact path — the
#: CI zero-rebuild guard sets this deliberately.
ENV_MP = "REPRO_SWEEP_MP"


def default_timeout() -> float:
    return env_float(ENV_TIMEOUT, 300.0, min_value=0.0)


def default_retries() -> int:
    return env_int(ENV_RETRIES, 2, min_value=0)


def default_workers() -> int:
    return env_int(ENV_WORKERS, 1, min_value=1)


def default_mp_context():
    """The multiprocessing context worker processes start from.

    ``REPRO_SWEEP_MP`` names the start method; unset, it is fork where the
    platform has it and the platform default elsewhere.
    """
    method = os.environ.get(ENV_MP)
    if method:
        return get_context(method)
    try:
        return get_context("fork")
    except ValueError:  # platforms without fork
        return get_context()


@dataclass(frozen=True)
class BatchGroup:
    """Several cells of one trace, scheduled as a single worker unit.

    The sweep planner groups pending ``batch`` cells that share an input
    trace; the worker then plans the trace once and runs every cell on the
    batch backend against the shared :class:`~repro.core.pipeline.TracePrep`.
    The group occupies one worker slot and one per-group timeout budget
    (``timeout × len(cells)``), but results stay per-cell: each completed
    cell is streamed back, then persisted and reported the moment the
    parent reads it, so a crash mid-group loses nothing already finished
    and retries only the rest — as solo cells, never as a whole group.
    """

    cells: Tuple[RunSpec, ...]

    @property
    def workload(self) -> str:
        """Shared workload name (groups never span workloads); lets the
        per-workload circuit breaker treat groups like their cells."""
        return self.cells[0].workload

    def describe(self) -> Dict[str, object]:
        return {
            "batch_group": {
                "backend": "batch",
                "cells": [cell.describe() for cell in self.cells],
            }
        }


def window_cell(job, window: Dict[str, object]):
    """The cell a streamed heartbeat ``window`` of ``job`` belongs to.

    A solo job's windows are its own; a :class:`BatchGroup`'s windows name
    their cell by index (``window["cell"]``). None when a group's window
    carries no index, or one outside the group.
    """
    if not isinstance(job, BatchGroup):
        return job
    index = window.get("cell")
    if index is None or not 0 <= index < len(job.cells):
        return None
    return job.cells[index]


@dataclass
class CellOutcome:
    """What one cell produced: a result (fresh or cached) or a failure.

    For a :class:`BatchGroup` job, ``spec`` is the group and ``cells``
    holds the per-cell outcomes that settled *in* the group (successes,
    each as it arrived; deadline cuts; breaker skips). Cells the group
    could not finish are absent here — they are re-enqueued as solo cells
    and settle on their own, so a group shell is bookkeeping, never a
    per-cell verdict.

    A cell settled by the surrogate triage tier carries an ``estimate``
    (a :class:`~repro.surrogate.triage.SurrogateEstimate`) and neither a
    result nor a failure: it was predicted, not simulated, and never
    reaches the detailed-result namespace.
    """

    spec: RunSpec
    result: Optional[SimResult] = None
    failure: Optional[CellFailure] = None
    attempts: int = 0
    elapsed_seconds: float = 0.0
    cached: bool = False
    cells: Optional[List["CellOutcome"]] = None
    estimate: Optional[object] = None

    @property
    def ok(self) -> bool:
        return self.result is not None


def _simulate_cell(
    spec: RunSpec,
    check_invariants: bool,
    on_heartbeat: Optional[Callable[[dict], None]] = None,
) -> SimResult:
    """Run one cell in-process (the worker body; importable for tests).

    ``on_heartbeat`` receives each ``REPRO_HEARTBEAT_OPS`` window as a dict,
    streamed by the backend's ``run_streaming``.
    """
    from repro.sim.backends import get_backend
    from repro.sim.intervals import heartbeat_interval_ops

    run_spec = replace(spec, check_invariants=check_invariants or None)
    on_window = None
    if on_heartbeat is not None:
        on_window = lambda window: on_heartbeat(window.to_dict())
    return get_backend(run_spec.resolved_backend()).run_streaming(
        run_spec, on_window, heartbeat_interval_ops() or None
    )


def _error_payload(exc: BaseException) -> dict:
    """The ``error`` message payload for ``exc`` (call while handling it)."""
    return {
        "message": f"{type(exc).__name__}: {exc}",
        "detail": {"traceback": traceback.format_exc()},
    }


def _worker_failure(exc: BaseException) -> Tuple[str, dict]:
    """The tagged ``(tag, payload)`` a worker sends for a failed cell."""
    if isinstance(exc, SimInvariantError):
        return "invariant", {"message": str(exc), "detail": exc.to_dict()}
    if isinstance(exc, MemoryError):
        return "oom", {"message": "MemoryError in worker"}
    return "error", _error_payload(exc)


def _cell_worker(conn, spec: RunSpec, check_invariants: bool) -> None:
    """Subprocess entry point: simulate, send a tagged message, exit.

    Completed interval windows are streamed as ``("heartbeat", window_dict)``
    messages ahead of the final tagged message.
    """
    def heartbeat(window: dict) -> None:
        conn.send(("heartbeat", window))

    try:
        result = _simulate_cell(spec, check_invariants, on_heartbeat=heartbeat)
        conn.send(("ok", result.to_record()))
    except BaseException as exc:  # noqa: BLE001 — report, parent classifies
        conn.send(_worker_failure(exc))
    finally:
        conn.close()


def _compile_group_trace(group: BatchGroup) -> None:
    """Compile the group's trace in this worker, before its first cell.

    The sweep leaves a group's trace to the group (it is the trace's only
    reader), so the groups of a sweep build their traces in parallel. The
    compile loads the artifact from the cells' ``trace_dir``, or builds and
    persists it without a rebuild marker; the trace then sits in this
    process's trace cache for the backend. Cells without a ``trace_dir``
    (a sweep run with ``precompile=False``) and unknown workloads are left
    to the cells themselves, which report any error per cell.
    """
    from repro.isa.artifacts import TraceStore
    from repro.sim.simulator import compile_trace

    spec = group.cells[0]
    if not spec.trace_dir:
        return
    try:
        profile = spec.resolved_profile()
    except KeyError:
        return
    compile_trace(profile, spec.resolved_num_ops(), TraceStore(spec.trace_dir))


def _batch_group_worker(conn, group: BatchGroup, check_invariants: bool) -> None:
    """Subprocess entry point for a :class:`BatchGroup`.

    Compiles the group's trace first (:func:`_compile_group_trace`), then
    runs every cell through the batch backend (so all cells of the trace
    share one decode/prep), streaming a ``("cell", i, tag,
    payload)`` message per finished cell — ``"ok"`` with the result record,
    or the usual in-band failure tags. Heartbeat windows carry a ``"cell"``
    index so the parent's last-interval stash stays meaningful. A final
    ``("ok", ...)`` means every cell was at least attempted; per-cell
    failures never abort the rest of the group.
    """
    from repro.sim.backends import get_backend
    from repro.sim.intervals import heartbeat_interval_ops

    try:
        backend = get_backend("batch")
        _compile_group_trace(group)
        hb_ops = heartbeat_interval_ops()
        for index, cell in enumerate(group.cells):
            spec = replace(cell, check_invariants=check_invariants or None)

            def on_result(_j, result, _i=index) -> None:
                conn.send(("cell", _i, "ok", result.to_record()))

            def on_heartbeat(_j, window, _i=index) -> None:
                payload = dict(window)
                payload["cell"] = _i
                conn.send(("heartbeat", payload))

            try:
                backend.run_many(
                    [spec],
                    on_result=on_result,
                    on_heartbeat=on_heartbeat,
                    heartbeat_ops=hb_ops or None,
                )
            except BaseException as exc:  # noqa: BLE001 — report, keep going
                conn.send(("cell", index, *_worker_failure(exc)))
        conn.send(("ok", {"cells": len(group.cells)}))
    except BaseException as exc:  # noqa: BLE001 — setup failed before any cell
        conn.send(("error", _error_payload(exc)))
    finally:
        conn.close()


#: Message tag -> failure kind for in-band worker reports.
_TAG_KINDS = {
    "invariant": FailureKind.INVARIANT,
    "oom": FailureKind.OOM,
    "error": FailureKind.ERROR,
}


class _Running:
    """Bookkeeping for one in-flight worker process."""

    __slots__ = ("index", "spec", "attempt", "proc", "conn", "deadline",
                 "started", "last_interval", "settled", "on_cell",
                 "on_heartbeat")

    def __init__(
        self, index, spec, attempt, proc, conn, deadline, started,
        on_heartbeat=None,
    ):
        self.index = index
        self.spec = spec
        self.attempt = attempt
        self.proc = proc
        self.conn = conn
        self.deadline = deadline
        self.started = started
        # Live-progress callback for streamed heartbeat windows (must not
        # raise; it runs inside the scheduler loop).
        self.on_heartbeat = on_heartbeat
        # Most recent ("heartbeat", window_dict) payload; lands in the
        # failure manifest if the cell times out or dies.
        self.last_interval = None
        # Batch groups only: ``on_cell(entry, index, tag, payload)`` acts
        # on each ("cell", ...) message as it is drained, recording every
        # cell it settles in ``settled`` (cell index -> CellOutcome). What
        # is here when the worker ends or dies is kept.
        self.on_cell: Optional[Callable] = None
        self.settled: Dict[int, CellOutcome] = {}


class ProcessCellExecutor:
    """Runs cells in worker subprocesses with timeout/retry/backoff.

    ``worker`` is the subprocess entry point — injectable so the tests can
    substitute deliberately hanging/crashing cells without touching the
    simulator; ``group_worker`` is the same hook for :class:`BatchGroup`
    jobs. ``mp_context`` defaults to fork where available (cheap on
    Linux; workers inherit nothing mutable they can corrupt — results flow
    back only through the pipe).

    ``jitter_seed``, when set, applies seeded equal-jitter to retry backoff
    (:func:`~repro.harness.failures.jitter_fraction` — deterministic per
    (cell, attempt), so colliding retries de-collide reproducibly).
    ``breaker_threshold`` arms the per-workload circuit breaker: once a
    workload has that many *final* failures and zero successes, its
    remaining cells are skipped (kind ``skipped``, never persisted) instead
    of burning worker slots and retries on a systematically broken row.
    """

    def __init__(
        self,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        workers: Optional[int] = None,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        check_invariants: bool = False,
        worker: Callable = _cell_worker,
        group_worker: Callable = _batch_group_worker,
        mp_context=None,
        jitter_seed: Optional[int] = None,
        breaker_threshold: Optional[int] = None,
    ) -> None:
        self.timeout = default_timeout() if timeout is None else float(timeout)
        self.retries = default_retries() if retries is None else int(retries)
        self.workers = max(1, default_workers() if workers is None else int(workers))
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.check_invariants = check_invariants
        self.worker = worker
        self.group_worker = group_worker
        self.jitter_seed = jitter_seed
        if breaker_threshold is not None and breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {breaker_threshold}"
            )
        self.breaker_threshold = breaker_threshold
        self.mp = default_mp_context() if mp_context is None else mp_context

    # --------------------------------------------------------- lifecycle --

    def _spawn(
        self,
        index: int,
        spec: RunSpec,
        attempt: int,
        now: float,
        chaos: Optional[ChaosEngine] = None,
        heartbeat: Optional[Callable] = None,
    ) -> _Running:
        is_group = isinstance(spec, BatchGroup)
        target: Callable = self.group_worker if is_group else self.worker
        payload: object = spec
        if chaos is not None:
            directive = chaos.worker_directive(spec, attempt)
            if directive is not None:
                payload = ChaosJob(job=spec, directive=directive, worker=target)
                target = _chaos_worker
        parent_conn, child_conn = self.mp.Pipe(duplex=False)
        proc = self.mp.Process(
            target=target,
            args=(child_conn, payload, self.check_invariants),
            daemon=True,
        )
        proc.start()
        child_conn.close()  # parent's copy; lets EOF surface on worker death
        # A group gets the whole group's worth of timeout budget: it is one
        # process doing len(cells) cells of work.
        budget = self.timeout * (len(spec.cells) if is_group else 1)
        return _Running(
            index=index,
            spec=spec,
            attempt=attempt,
            proc=proc,
            conn=parent_conn,
            deadline=now + budget,
            started=now,
            on_heartbeat=heartbeat,
        )

    def _drain(self, entry: _Running) -> Optional[Tuple[str, object]]:
        """Read pending pipe messages, acting on each as it arrives.

        Heartbeats are stashed; a batch group's per-cell messages go to
        ``entry.on_cell``, which settles a finished cell there and then —
        the group keeps running. Returns the first final message, or None
        if the worker has nothing final to say yet (or the pipe hit EOF).
        """
        while True:
            try:
                if not entry.conn.poll(0):
                    return None
                message = entry.conn.recv()
            except (EOFError, OSError):
                return None
            if message[0] == "heartbeat":
                entry.last_interval = message[1]
                if entry.on_heartbeat is not None:
                    entry.on_heartbeat(entry.spec, message[1])
            elif message[0] == "cell":
                entry.on_cell(entry, *message[1:])
            else:
                return message

    def _reap(
        self, entry: _Running, message: Optional[Tuple[str, object]] = None
    ) -> Tuple[Optional[SimResult], Optional[CellFailure]]:
        """Collect a finished (readable or dead) worker; classify the outcome."""
        if message is None:
            message = self._drain(entry)
        entry.proc.join(5)
        entry.conn.close()
        elapsed = time.monotonic() - entry.started

        if message is not None:
            tag, payload = message
            if tag == "ok":
                try:
                    return SimResult.from_record(payload), None
                except (KeyError, TypeError, ValueError) as exc:
                    return None, self._failure(
                        entry,
                        FailureKind.ERROR,
                        f"worker sent an undecodable result: {exc}",
                        elapsed,
                    )
            kind = _TAG_KINDS.get(tag, FailureKind.ERROR)
            return None, self._failure(
                entry,
                kind,
                str(payload.get("message", tag)),
                elapsed,
                detail=payload.get("detail"),
            )

        kind, reason = classify_exitcode(entry.proc.exitcode)
        return None, self._failure(entry, kind, reason, elapsed)

    def _reap_group(
        self, entry: _Running, message: Optional[Tuple[str, object]] = None
    ) -> Optional[CellFailure]:
        """Collect a finished batch-group worker.

        Returns ``None`` when the worker signed off cleanly (every cell was
        attempted), or the group-level failure when the process died or
        errored out mid-run. Either way, the cells the worker finished
        were settled as their messages were drained (``entry.settled``),
        those drained here included, and stay settled.
        """
        if message is None:
            message = self._drain(entry)
        entry.proc.join(5)
        entry.conn.close()
        elapsed = time.monotonic() - entry.started

        if message is not None:
            tag, payload = message
            if tag == "ok":
                return None
            kind = _TAG_KINDS.get(tag, FailureKind.ERROR)
            return self._failure(
                entry,
                kind,
                str(payload.get("message", tag)),
                elapsed,
                detail=payload.get("detail"),
            )
        kind, reason = classify_exitcode(entry.proc.exitcode)
        return self._failure(entry, kind, reason, elapsed)

    def _kill(
        self, entry: _Running, kind: FailureKind, message: str, detail=None
    ) -> CellFailure:
        """Kill an in-flight worker (timeout, deadline cut or stop request).

        Pending messages are drained first, so the failure's detail says
        where the cell was when it was killed, and a group's cells that
        finished just before the kill still settle.
        """
        self._drain(entry)
        entry.proc.kill()
        entry.proc.join(5)
        entry.conn.close()
        elapsed = time.monotonic() - entry.started
        return self._failure(entry, kind, message, elapsed, detail=detail)

    def _failure(
        self,
        entry: _Running,
        kind: FailureKind,
        message: str,
        elapsed: float,
        detail=None,
    ) -> CellFailure:
        if entry.last_interval is not None:
            detail = dict(detail or {})
            detail["last_interval"] = entry.last_interval
        return CellFailure(
            kind=kind,
            message=message,
            cell=entry.spec.describe(),
            attempts=entry.attempt + 1,
            elapsed_seconds=round(elapsed, 3),
            detail=detail,
        )

    # -------------------------------------------------------------- runs --

    def run_one(self, spec: RunSpec) -> CellOutcome:
        return self.run_many([spec])[0]

    def run_many(
        self,
        specs: Sequence[RunSpec],
        store: Optional[ResultStore] = None,
        successes: Optional[Mapping[object, int]] = None,
        progress: Optional[Callable[[CellOutcome], None]] = None,
        chaos: Optional[ChaosEngine] = None,
        deadline: Optional[float] = None,
        heartbeat: Optional[Callable] = None,
        stop=None,
    ) -> List[CellOutcome]:
        """Run every job; never raises for a failing cell.

        The executor isolates, retries and persists: every job it is given
        runs, and it never reads ``store``. Which cells need running at all
        — resume, quarantine, leases, surrogate triage — is decided before
        the call, by :meth:`~repro.harness.sweep.SweepRunner.run`. With a
        ``store``, fresh results and final failures are persisted as they
        settle, so a killed sweep resumes from its last finished cell.

        ``specs`` may be any picklable jobs (not just :class:`RunSpec`)
        when a matching custom ``worker=`` was given at construction;
        without a ``store`` only ``describe()`` is required of them.

        ``specs`` may also contain :class:`BatchGroup` jobs (the sweep
        planner emits them): one worker runs the whole group, streaming
        per-cell results; each is persisted and passed to ``progress`` as
        soon as it arrives, not when the group ends.
        A group's outcome carries its settled cells in ``outcome.cells``;
        cells the group worker did not finish (crash, timeout, in-band
        per-cell failure) are retried as *solo* cells — their outcomes are
        **appended after** the per-spec outcomes, so with groups present
        the returned list can be longer than ``specs``.

        Campaign-level policies applied here:

        * ``deadline`` — a wall-clock budget (seconds) for this whole call.
          When it expires, in-flight workers are killed and everything not
          yet finished settles with kind ``deadline``. Cut cells are *not*
          persisted as failures: everything completed is in the store, and
          a resumed run picks the cut cells up as pending.
        * the circuit breaker (``breaker_threshold`` at construction) —
          ``successes`` maps a workload to the number of its cells already
          answered elsewhere (the runner's cached cells); they count like
          fresh successes, so one of them holds the workload's breaker open.
        * ``chaos`` — a :class:`~repro.harness.chaos.ChaosEngine` whose
          fault plan is injected into worker spawns; every failure is also
          reported back to the engine's journal so injected faults can be
          checked against their observed classification.

        Quarantine is the runner's: a quarantined cell never reaches the
        executor.

        Live progress:

        * ``heartbeat`` — called as ``heartbeat(job, window_dict)`` for every
          streamed interval window, from the scheduler loop (so it must be
          fast and must not raise). For batch groups the window carries a
          ``"cell"`` index (:func:`window_cell` maps it back to the cell).
          The server's SSE feed rides on this.
        * ``stop`` — a ``threading.Event``; once set, in-flight workers are
          killed and everything unfinished settles with kind ``deadline``
          ("cancelled" in the message, ``{"cancelled": True}`` in the
          detail). Like a deadline cut, cancelled cells are never persisted
          as failures, so a resumed run picks them up as pending. Checked
          within ~0.5s.
        """
        outcomes: Dict[int, CellOutcome] = {}
        # Each pending entry is (index, spec, attempt, not-before timestamp).
        pending: List[Tuple[int, RunSpec, int, float]] = [
            (index, spec, 0, 0.0) for index, spec in enumerate(specs)
        ]
        cutoff = None if deadline is None else time.monotonic() + float(deadline)
        # Circuit-breaker ledger: final failures / successes per workload.
        final_failures: Dict[object, int] = {}
        successes = dict(successes or {})

        def group(spec) -> object:
            return getattr(spec, "workload", None)

        def breaker_tripped(spec) -> bool:
            if self.breaker_threshold is None:
                return False
            key = group(spec)
            if key is None:
                return False
            return (
                successes.get(key, 0) == 0
                and final_failures.get(key, 0) >= self.breaker_threshold
            )

        running: List[_Running] = []
        # Solo retries salvaged out of failed batch groups get fresh outcome
        # indices past the end of ``specs``.
        extra_index = len(specs)

        def next_index() -> int:
            nonlocal extra_index
            extra_index += 1
            return extra_index - 1

        def succeed(spec: RunSpec, attempt: int, result: SimResult) -> CellOutcome:
            """Count, persist and report one cell's fresh result."""
            successes[group(spec)] = successes.get(group(spec), 0) + 1
            if store is not None:
                store.put(spec.key(), result)
            outcome = CellOutcome(spec=spec, result=result, attempts=attempt + 1)
            if progress:
                progress(outcome)
            return outcome

        def settle(index: int, spec: RunSpec, attempt: int, result, failure) -> None:
            now = time.monotonic()
            if failure is not None and chaos is not None:
                chaos.observe(spec, attempt, failure.kind)
            if result is not None:
                outcomes[index] = succeed(spec, attempt, result)
                return
            elif failure.transient and attempt < self.retries:
                jitter = None
                if self.jitter_seed is not None:
                    jitter = jitter_fraction(
                        self.jitter_seed,
                        json.dumps(spec.describe(), sort_keys=True, default=str),
                        attempt,
                    )
                delay = backoff_delay(
                    attempt, self.backoff_base, self.backoff_cap, jitter
                )
                pending.append((index, spec, attempt + 1, now + delay))
                return
            else:
                outcome = CellOutcome(
                    spec=spec, failure=failure, attempts=attempt + 1
                )
                if failure.kind not in EPHEMERAL_KINDS:
                    final_failures[group(spec)] = (
                        final_failures.get(group(spec), 0) + 1
                    )
                    if store is not None:
                        store.put_failure(spec.key(), failure)
            outcomes[index] = outcome
            if progress:
                progress(outcome)

        def settle_cell(entry: _Running, cell_pos: int, tag: str, payload) -> None:
            """Settle one streamed group cell the moment it is drained.

            An ``"ok"`` cell is persisted and reported here, once. An
            in-band failure, an undecodable result or an index outside the
            group settles nothing: the cell is unfinished when the group
            ends, and :func:`settle_batch` retries it solo.
            """
            cells = entry.spec.cells
            if tag != "ok" or not 0 <= cell_pos < len(cells):
                return
            if cell_pos in entry.settled:
                return
            try:
                result = SimResult.from_record(payload)
            except (KeyError, TypeError, ValueError):
                return
            entry.settled[cell_pos] = succeed(cells[cell_pos], entry.attempt, result)

        def settle_batch(
            index: int,
            batch: BatchGroup,
            attempt: int,
            settled_cells: Mapping[int, CellOutcome],
            failure: Optional[CellFailure],
            cut: bool = False,
            cut_phase: str = "running",
            cut_message: str = "",
            cut_detail: Optional[Dict[str, object]] = None,
        ) -> None:
            """Settle what is left of a batch group once it has ended.

            ``settled_cells`` are the cells :func:`settle_cell` already
            settled as they streamed in; they stand as they are. The rest
            either settle as per-cell ``deadline`` cuts (``cut=True`` — the
            campaign is over; they carry ``cut_message`` and ``cut_detail``
            plus the phase) or are re-enqueued as *solo* cells: one bad
            cell — or one injected fault — must never poison the verdict of
            its groupmates, so retries always drop back to full per-cell
            isolation, where the normal failure taxonomy applies.
            """
            now = time.monotonic()
            if failure is not None and chaos is not None:
                chaos.observe(batch, attempt, failure.kind)
            settled: List[CellOutcome] = []
            for cell_pos, cell in enumerate(batch.cells):
                sub = settled_cells.get(cell_pos)
                if sub is not None:
                    settled.append(sub)
                elif cut:
                    tries = attempt + (1 if cut_phase == "running" else 0)
                    cell_failure = CellFailure(
                        kind=FailureKind.DEADLINE,
                        message=cut_message,
                        cell=cell.describe(),
                        attempts=tries,
                        detail={**cut_detail, "phase": cut_phase},
                    )
                    sub = CellOutcome(
                        spec=cell, failure=cell_failure, attempts=tries
                    )
                    settled.append(sub)
                    if progress:
                        progress(sub)
                else:
                    pending.append((next_index(), cell, attempt + 1, now))
            outcomes[index] = CellOutcome(
                spec=batch, failure=failure, attempts=attempt + 1, cells=settled
            )

        def settle_skipped(index: int, spec: RunSpec, attempt: int) -> None:
            key = group(spec)

            def skipped_failure(job) -> CellFailure:
                return CellFailure(
                    kind=FailureKind.SKIPPED,
                    message=(
                        f"circuit breaker open for workload {key!r}: "
                        f"{final_failures.get(key, 0)} failures, 0 successes"
                    ),
                    cell=job.describe(),
                    attempts=attempt,
                    detail={"breaker_threshold": self.breaker_threshold},
                )

            if isinstance(spec, BatchGroup):
                settled = []
                for cell in spec.cells:
                    sub = CellOutcome(
                        spec=cell, failure=skipped_failure(cell), attempts=attempt
                    )
                    settled.append(sub)
                    if progress:
                        progress(sub)
                outcomes[index] = CellOutcome(
                    spec=spec, attempts=attempt, cells=settled
                )
                return
            settle(index, spec, attempt, None, skipped_failure(spec))

        stopped = False
        while pending or running:
            now = time.monotonic()
            if cutoff is not None and now >= cutoff:
                break
            if stop is not None and stop.is_set():
                stopped = True
                break

            # Launch every eligible pending cell into a free worker slot —
            # unless its workload's circuit breaker is open, in which case
            # it settles as skipped without costing a slot.
            launched = []
            for slot, (index, spec, attempt, not_before) in enumerate(pending):
                if breaker_tripped(spec):
                    settle_skipped(index, spec, attempt)
                    launched.append(slot)
                    continue
                if len(running) >= self.workers:
                    break
                if not_before <= now:
                    entry = self._spawn(index, spec, attempt, now, chaos, heartbeat)
                    entry.on_cell = settle_cell
                    running.append(entry)
                    launched.append(slot)
            for slot in reversed(launched):
                pending.pop(slot)

            if not running:
                if not pending:
                    break
                # Only backoff waits remain; sleep until the nearest one
                # (or the campaign deadline, whichever comes first).
                wakeup = min(entry[3] for entry in pending)
                if cutoff is not None:
                    wakeup = min(wakeup, cutoff)
                sleep_for = max(0.0, wakeup - time.monotonic())
                if stop is not None:
                    # Stay responsive to cancellation during backoff waits.
                    sleep_for = min(sleep_for, 0.5)
                time.sleep(sleep_for)
                continue

            # Sleep until a worker speaks/dies, a deadline passes, or a
            # backoff expires — whichever is first.
            horizon = min(entry.deadline for entry in running)
            future_backoffs = [nb for (_, _, _, nb) in pending if nb > now]
            if future_backoffs:
                horizon = min(horizon, min(future_backoffs))
            if cutoff is not None:
                horizon = min(horizon, cutoff)
            wait_for = max(0.0, min(horizon - time.monotonic(), 0.5))
            ready = connection.wait([entry.conn for entry in running], wait_for)

            now = time.monotonic()
            still_running: List[_Running] = []
            for entry in running:
                # A readable pipe may only carry heartbeats; drain first and
                # reap only on a final message or a dead worker.
                final = self._drain(entry) if entry.conn in ready else None
                is_group = isinstance(entry.spec, BatchGroup)
                result = None
                if final is not None or not entry.proc.is_alive():
                    if is_group:
                        failure = self._reap_group(entry, final)
                    else:
                        result, failure = self._reap(entry, final)
                elif now >= entry.deadline:
                    budget = entry.deadline - entry.started  # timeout × cells
                    failure = self._kill(
                        entry,
                        FailureKind.TIMEOUT,
                        f"cell exceeded the {budget:.1f}s timeout",
                    )
                else:
                    still_running.append(entry)
                    continue
                if is_group:
                    settle_batch(
                        entry.index,
                        entry.spec,
                        entry.attempt,
                        entry.settled,
                        failure,
                    )
                else:
                    settle(entry.index, entry.spec, entry.attempt, result, failure)
            running = still_running

        def cut_unfinished(
            kill_message: str,
            group_message: str,
            pending_message: str,
            detail: Dict[str, object],
        ) -> None:
            """Kill what is in flight and settle everything unfinished as
            ``deadline`` cuts: nothing is persisted (the cells stay pending
            for a resumed run), and every result that completed first is
            already durable in the store. A group keeps the cells it
            streamed before the cut; the rest settle as per-cell cuts."""
            for entry in running:
                failure = self._kill(
                    entry,
                    FailureKind.DEADLINE,
                    kill_message,
                    {**detail, "phase": "running"},
                )
                if isinstance(entry.spec, BatchGroup):
                    settle_batch(
                        entry.index,
                        entry.spec,
                        entry.attempt,
                        entry.settled,
                        failure,
                        cut=True,
                        cut_message=group_message,
                        cut_detail=detail,
                    )
                else:
                    settle(entry.index, entry.spec, entry.attempt, None, failure)
            for index, spec, attempt, _ in pending:
                if isinstance(spec, BatchGroup):
                    settle_batch(
                        index,
                        spec,
                        attempt,
                        {},
                        None,
                        cut=True,
                        cut_phase="pending",
                        cut_message=group_message,
                        cut_detail=detail,
                    )
                    continue
                failure = CellFailure(
                    kind=FailureKind.DEADLINE,
                    message=pending_message,
                    cell=spec.describe(),
                    attempts=attempt,
                    detail={**detail, "phase": "pending"},
                )
                settle(index, spec, attempt, None, failure)

        # The loop stops early only on a stop request or the campaign
        # deadline. Cancellation is the same clean shutdown as a deadline
        # cut, with "cancelled" bookkeeping so the status surface can tell
        # the two apart.
        if stopped and (pending or running):
            cut_unfinished(
                "cancelled: killed by a stop request",
                "batch group cancelled by a stop request",
                "never started: cancelled by a stop request",
                {"cancelled": True},
            )
        elif pending or running:
            budget = float(deadline)
            cut_unfinished(
                f"killed at the {budget:.1f}s campaign deadline",
                f"batch group cut at the {budget:.1f}s campaign deadline",
                f"never started: campaign hit its {budget:.1f}s deadline",
                {"deadline_seconds": budget},
            )

        # Groups append solo-retry outcomes past ``len(specs)``; the sorted
        # index walk keeps the per-spec prefix in order and the extras after.
        return [outcomes[index] for index in sorted(outcomes)]
