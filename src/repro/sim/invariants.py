"""Simulator self-checks: fail loudly instead of producing wrong IPC.

A timing-model bug rarely crashes — it silently produces plausible-looking
but wrong numbers, which is the worst failure mode a reproduction can have.
With invariant checking enabled (``REPRO_CHECK_INVARIANTS=1``, the CLI's
``--check-invariants``, or ``Pipeline(..., check_invariants=True)``) the
pipeline validates, as it schedules each micro-op:

* **window bounds** — an op never dispatches before the op ROB-size slots
  earlier has committed (and likewise for the IQ/LQ/SQ rings), i.e. modelled
  occupancy can never exceed the configured capacity;
* **commit ordering** — commit cycles are non-decreasing in program order
  (in-order retirement) and no op commits before it completes;
* **store record sanity** — a store's address resolves no later than it
  executes, and it drains to the cache only after executing;
* **forwarding consistency** — every :class:`LoadResolution` is internally
  consistent: a forwarder is resolved, overlapping and covering; data is
  never ready before the load executes; violation stores are visible,
  unresolved and (with the FWD filter) younger than the forwarder.

A failed check raises :class:`SimInvariantError`, a *structured* error the
fault-tolerant harness records verbatim in its failure manifest (kind
``invariant``, never retried — the failure is deterministic).

This module is dependency-free (duck-typed over store records and
resolutions) so :mod:`repro.core.pipeline` and :mod:`repro.core.lsq` can
use it without an import cycle.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Mapping, Optional, Sequence, Type

from repro.core.probes import (
    OpCommitted,
    OpDispatched,
    Probe,
    ProbeEvent,
    RunFinished,
    StoreRecorded,
)
from repro.isa.microop import OpKind

#: Environment knob: any value other than ""/"0"/"false"/"no" enables
#: invariant checking in every pipeline built afterwards.
ENV_FLAG = "REPRO_CHECK_INVARIANTS"


def invariants_enabled() -> bool:
    """Whether the environment requests invariant checking."""
    value = os.environ.get(ENV_FLAG, "")
    return value.strip().lower() not in ("", "0", "false", "no")


class SimInvariantError(RuntimeError):
    """A simulator self-check failed; the run's statistics are untrustworthy.

    ``check`` is a stable machine-readable identifier (e.g.
    ``"rob-overflow"``, ``"forwarder-unresolved"``); ``context`` carries the
    offending cycle numbers / sequence numbers for the failure manifest.
    """

    def __init__(
        self,
        check: str,
        message: str,
        context: Optional[Dict[str, object]] = None,
    ) -> None:
        super().__init__(f"[{check}] {message}")
        self.check = check
        self.message = message
        self.context = dict(context or {})

    def to_dict(self) -> Dict[str, object]:
        return {
            "check": self.check,
            "message": self.message,
            "context": self.context,
        }


def _fail(check: str, message: str, **context: object) -> None:
    raise SimInvariantError(check, message, context)


class InvariantChecker:
    """Per-run validator driven by the pipeline's scheduling events.

    The pipeline calls the ``observe_*`` hooks as it processes each micro-op;
    each hook re-verifies a property the scheduling code is supposed to
    guarantee by construction, so any future regression (or memory
    corruption in a long campaign) trips a check instead of skewing IPC.
    """

    def __init__(
        self,
        rob_entries: int,
        iq_entries: int,
        lq_entries: int,
        sq_entries: int,
    ) -> None:
        self.rob_entries = rob_entries
        self.iq_entries = iq_entries
        self.lq_entries = lq_entries
        self.sq_entries = sq_entries
        self._last_commit_cycle = 0
        self._last_commit_seq = -1
        self.checks_run = 0

    # ------------------------------------------------------------ windows --

    def observe_dispatch(
        self,
        seq: int,
        dispatch_cycle: int,
        rob_free_cycle: int,
        iq_free_cycle: int,
    ) -> None:
        """An op dispatched; its ROB/IQ slots must already be free."""
        self.checks_run += 1
        if dispatch_cycle < rob_free_cycle:
            _fail(
                "rob-overflow",
                f"op {seq} dispatched at cycle {dispatch_cycle} before the op "
                f"{self.rob_entries} slots earlier committed (cycle {rob_free_cycle})",
                seq=seq,
                dispatch_cycle=dispatch_cycle,
                rob_free_cycle=rob_free_cycle,
                rob_entries=self.rob_entries,
            )
        if dispatch_cycle < iq_free_cycle:
            _fail(
                "iq-overflow",
                f"op {seq} dispatched at cycle {dispatch_cycle} before the op "
                f"{self.iq_entries} slots earlier issued (cycle {iq_free_cycle})",
                seq=seq,
                dispatch_cycle=dispatch_cycle,
                iq_free_cycle=iq_free_cycle,
                iq_entries=self.iq_entries,
            )

    def observe_load_slot(
        self, seq: int, dispatch_cycle: int, lq_free_cycle: int
    ) -> None:
        self.checks_run += 1
        if dispatch_cycle < lq_free_cycle:
            _fail(
                "lq-overflow",
                f"load {seq} dispatched at cycle {dispatch_cycle} before the load "
                f"{self.lq_entries} slots earlier committed (cycle {lq_free_cycle})",
                seq=seq,
                dispatch_cycle=dispatch_cycle,
                lq_free_cycle=lq_free_cycle,
                lq_entries=self.lq_entries,
            )

    def observe_store_slot(
        self, seq: int, dispatch_cycle: int, sq_free_cycle: int
    ) -> None:
        self.checks_run += 1
        if dispatch_cycle < sq_free_cycle:
            _fail(
                "sq-overflow",
                f"store {seq} dispatched at cycle {dispatch_cycle} before the store "
                f"{self.sq_entries} slots earlier drained (cycle {sq_free_cycle})",
                seq=seq,
                dispatch_cycle=dispatch_cycle,
                sq_free_cycle=sq_free_cycle,
                sq_entries=self.sq_entries,
            )

    # ------------------------------------------------------------- commit --

    def observe_commit(self, seq: int, commit_cycle: int, complete_cycle: int) -> None:
        """An op retired; retirement is in program order, after completion."""
        self.checks_run += 1
        if commit_cycle < self._last_commit_cycle:
            _fail(
                "commit-order",
                f"op {seq} commits at cycle {commit_cycle}, before op "
                f"{self._last_commit_seq} (cycle {self._last_commit_cycle}): "
                "retirement must be non-decreasing in program order",
                seq=seq,
                commit_cycle=commit_cycle,
                prev_seq=self._last_commit_seq,
                prev_commit_cycle=self._last_commit_cycle,
            )
        if commit_cycle <= complete_cycle:
            _fail(
                "commit-before-complete",
                f"op {seq} commits at cycle {commit_cycle} but completes at "
                f"cycle {complete_cycle}",
                seq=seq,
                commit_cycle=commit_cycle,
                complete_cycle=complete_cycle,
            )
        self._last_commit_cycle = commit_cycle
        self._last_commit_seq = seq

    # -------------------------------------------------------------- store --

    def observe_store_record(self, record: object) -> None:
        """A store entered the window: its lifecycle cycles must be ordered."""
        self.checks_run += 1
        addr_ready = record.addr_ready
        exec_cycle = record.exec_cycle
        drain_cycle = record.drain_cycle
        if exec_cycle < addr_ready:
            _fail(
                "store-exec-before-agu",
                f"store {record.seq} executes at cycle {exec_cycle} before its "
                f"address resolves at cycle {addr_ready}",
                seq=record.seq,
                addr_ready=addr_ready,
                exec_cycle=exec_cycle,
            )
        if drain_cycle <= exec_cycle:
            _fail(
                "store-drain-before-exec",
                f"store {record.seq} drains at cycle {drain_cycle}, not after "
                f"executing at cycle {exec_cycle}",
                seq=record.seq,
                exec_cycle=exec_cycle,
                drain_cycle=drain_cycle,
            )
        if record.size <= 0:
            _fail(
                "store-empty",
                f"store {record.seq} writes {record.size} bytes",
                seq=record.seq,
                size=record.size,
            )

    # ---------------------------------------------------------- resolution --

    def check_load_resolution(
        self,
        resolution: object,
        stores: Sequence[object],
        address: int,
        size: int,
        exec_cycle: int,
        forwarding_filter: bool,
    ) -> None:
        """Validate one LSQ disambiguation outcome against its inputs.

        ``resolution`` duck-types :class:`repro.core.lsq.LoadResolution`;
        ``stores`` are the candidate records handed to ``resolve_load``.
        """
        self.checks_run += 1
        kind = getattr(resolution.kind, "value", resolution.kind)
        forwarder = resolution.forwarder
        data_ready = resolution.data_ready

        if kind == "forward":
            if forwarder is None:
                _fail("forward-without-store", "FORWARD resolution has no forwarder")
            if forwarder.addr_ready > exec_cycle:
                _fail(
                    "forwarder-unresolved",
                    f"load at cycle {exec_cycle} forwards from store "
                    f"{forwarder.seq} whose address resolves at cycle "
                    f"{forwarder.addr_ready}",
                    exec_cycle=exec_cycle,
                    store_seq=forwarder.seq,
                    addr_ready=forwarder.addr_ready,
                )
            if not forwarder.covers(address, size):
                _fail(
                    "forwarder-partial",
                    f"store {forwarder.seq} forwards to a load it does not "
                    f"cover ([{address:#x}, {address + size:#x}))",
                    store_seq=forwarder.seq,
                    address=address,
                    size=size,
                )
            if forwarder.drain_cycle <= exec_cycle:
                _fail(
                    "forwarder-drained",
                    f"store {forwarder.seq} forwards after draining "
                    f"(drain {forwarder.drain_cycle} <= exec {exec_cycle})",
                    store_seq=forwarder.seq,
                    drain_cycle=forwarder.drain_cycle,
                    exec_cycle=exec_cycle,
                )
        elif kind == "cache":
            if forwarder is not None or data_ready is not None:
                _fail(
                    "cache-with-forwarder",
                    "CACHE resolution carries forwarding state",
                    exec_cycle=exec_cycle,
                )

        if data_ready is not None and data_ready < exec_cycle:
            _fail(
                "data-before-exec",
                f"load data ready at cycle {data_ready}, before the load "
                f"executes at cycle {exec_cycle}",
                data_ready=data_ready,
                exec_cycle=exec_cycle,
            )

        violators = [
            ("violation_store_commit", resolution.violation_store_commit),
            ("violation_store_detect", resolution.violation_store_detect),
        ]
        if resolution.violated:
            for label, store in violators:
                if store is None:
                    _fail(
                        "violation-without-store",
                        f"violated resolution has no {label}",
                        exec_cycle=exec_cycle,
                    )
                if not store.overlaps(address, size):
                    _fail(
                        "violation-disjoint",
                        f"{label} {store.seq} does not overlap the load's bytes",
                        store_seq=store.seq,
                        address=address,
                        size=size,
                    )
                if store.addr_ready <= exec_cycle:
                    _fail(
                        "violation-resolved-store",
                        f"{label} {store.seq} resolved at cycle "
                        f"{store.addr_ready}, before the load executed at "
                        f"cycle {exec_cycle} — a resolved store cannot cause "
                        "a violation",
                        store_seq=store.seq,
                        addr_ready=store.addr_ready,
                        exec_cycle=exec_cycle,
                    )
                if (
                    forwarding_filter
                    and forwarder is not None
                    and store.seq <= forwarder.seq
                ):
                    _fail(
                        "fwd-filter-leak",
                        f"{label} {store.seq} is not younger than forwarder "
                        f"{forwarder.seq}: the FWD filter should have "
                        "suppressed this violation (Fig. 3c)",
                        store_seq=store.seq,
                        forwarder_seq=forwarder.seq,
                    )
        else:
            for label, store in violators:
                if store is not None:
                    _fail(
                        "phantom-violation-store",
                        f"non-violated resolution carries {label} {store.seq}",
                        store_seq=store.seq,
                    )

    # ------------------------------------------------------------ wrap-up --

    def finalize(self, stats: object, expected_committed: int) -> None:
        """End-of-run aggregate consistency checks."""
        self.checks_run += 1
        if stats.committed_uops != expected_committed:
            _fail(
                "commit-count",
                f"committed {stats.committed_uops} micro-ops, expected "
                f"{expected_committed}",
                committed=stats.committed_uops,
                expected=expected_committed,
            )
        if stats.cycles <= 0:
            _fail("no-cycles", f"run finished with {stats.cycles} cycles")
        mix = stats.loads + stats.stores + stats.branches
        if mix > stats.committed_uops:
            _fail(
                "class-count",
                f"loads+stores+branches ({mix}) exceed committed micro-ops "
                f"({stats.committed_uops})",
                loads=stats.loads,
                stores=stats.stores,
                branches=stats.branches,
                committed=stats.committed_uops,
            )


class InvariantProbe(Probe):
    """Bus adapter: drives an :class:`InvariantChecker` from probe events.

    The pipeline attaches one when invariant checking is enabled; the
    checker's per-event hooks fire at the same sequence points as the old
    inline calls (dispatch, store-record insertion, retirement, end of run).
    The LSQ-level ``check_load_resolution`` hook is *not* bus-driven — it
    runs inside :func:`repro.core.lsq.resolve_load`, which receives the
    checker directly.

    ``stats`` is the run's :class:`~repro.core.pipeline.PipelineStats`. The
    loop adds its counters to it when each ``advance`` call returns and sets
    ``cycles`` in ``finish`` before emitting ``RunFinished``, so the
    end-of-run aggregate checks see the final totals.
    """

    __slots__ = ("checker", "stats")

    def __init__(self, checker: InvariantChecker, stats: object) -> None:
        self.checker = checker
        self.stats = stats

    def subscriptions(self) -> Mapping[Type[ProbeEvent], Callable]:
        return {
            OpDispatched: self._on_dispatched,
            StoreRecorded: self._on_store_recorded,
            OpCommitted: self._on_committed,
            RunFinished: self._on_run_finished,
        }

    def _on_dispatched(self, event: OpDispatched) -> None:
        checker = self.checker
        checker.observe_dispatch(
            event.index,
            event.dispatch_cycle,
            event.rob_free_cycle,
            event.iq_free_cycle,
        )
        if event.kind is OpKind.LOAD:
            checker.observe_load_slot(
                event.index, event.dispatch_cycle, event.slot_free_cycle
            )
        elif event.kind is OpKind.STORE:
            checker.observe_store_slot(
                event.index, event.dispatch_cycle, event.slot_free_cycle
            )

    def _on_store_recorded(self, event: StoreRecorded) -> None:
        self.checker.observe_store_record(event.record)

    def _on_committed(self, event: OpCommitted) -> None:
        self.checker.observe_commit(event.index, event.commit_cycle,
                                    event.complete_cycle)

    def _on_run_finished(self, event: RunFinished) -> None:
        self.checker.finalize(self.stats, event.measured_ops)
