"""Typed probe/event bus: observing the pipeline without touching its loop.

The scheduling loop (:meth:`repro.core.pipeline.PipelineRun.advance`)
emits *structured events* — one class per observable fact (an op
dispatched, a load resolved, a violation detected, the run finished) —
onto a :class:`ProbeBus`. Observers such as the invariant checker
(:class:`repro.sim.invariants.InvariantProbe`) or a user's tracer are
:class:`Probe` subscribers to the event types they care about. Statistics,
interval windows and predictor training are not probes: they are part of
the loop.

Design constraints, in priority order:

1. **Zero-subscriber fast path.** At ``advance`` entry every event type is
   pre-resolved via :meth:`ProbeBus.resolve` to either ``None`` (no
   subscribers) or a single dispatch callable. The loop guards each
   emission with ``if emit_x is not None`` — an event nobody listens to
   costs one ``None`` comparison and the event object is *never
   constructed*.
2. **Synchronous, ordered delivery.** Handlers run inline at the emission
   point, in subscription order, after the loop has applied the event to
   its own state (predictor training included).
3. **Cheap events.** Events are hand-written ``__slots__`` classes (about
   4x faster to construct than frozen dataclasses), because ``OpCommitted``
   is built once per committed micro-op when anyone subscribes.

This module is dependency-free within the package so that ``repro.mdp`` and
``repro.sim`` can both import it without cycles.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Type


class ProbeEvent:
    """Base class for all bus events; subclasses declare ``__slots__``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{type(self).__name__}({fields})"


class OpDispatched(ProbeEvent):
    """A micro-op claimed its dispatch slot.

    ``rob_free_cycle``/``iq_free_cycle`` are the freeing cycles of the ops
    being displaced from the ROB/IQ rings (occupancy is checkable right
    here); ``slot_free_cycle`` is the LQ/LQ-analogue value for loads and
    stores, 0 otherwise.
    """

    __slots__ = (
        "index",
        "kind",
        "dispatch_cycle",
        "rob_free_cycle",
        "iq_free_cycle",
        "slot_free_cycle",
        "measuring",
    )

    def __init__(
        self, index, kind, dispatch_cycle, rob_free_cycle, iq_free_cycle,
        slot_free_cycle, measuring,
    ):
        self.index = index
        self.kind = kind
        self.dispatch_cycle = dispatch_cycle
        self.rob_free_cycle = rob_free_cycle
        self.iq_free_cycle = iq_free_cycle
        self.slot_free_cycle = slot_free_cycle
        self.measuring = measuring


class LoadResolved(ProbeEvent):
    """One load execution attempt disambiguated against the store window.

    Emitted once per *attempt* — a squashed-and-replayed load resolves (and
    is counted) once per execution, like the pre-bus counters.
    ``resolution`` is the full :class:`repro.core.lsq.LoadResolution`.
    """

    __slots__ = ("index", "pc", "resolution", "exec_cycle", "complete_cycle",
                 "measuring")

    def __init__(self, index, pc, resolution, exec_cycle, complete_cycle, measuring):
        self.index = index
        self.pc = pc
        self.resolution = resolution
        self.exec_cycle = exec_cycle
        self.complete_cycle = complete_cycle
        self.measuring = measuring


class MultiStoreLoad(ProbeEvent):
    """Oracle analysis found a load whose bytes come from >= 2 stores (Fig. 4)."""

    __slots__ = ("index", "pc", "writers_inorder", "measuring")

    def __init__(self, index, pc, writers_inorder, measuring):
        self.index = index
        self.pc = pc
        self.writers_inorder = writers_inorder
        self.measuring = measuring


class DependencePredicted(ProbeEvent):
    """The MDP predicted a dependence for a dispatching load attempt."""

    __slots__ = ("index", "pc", "prediction", "wait_targets", "measuring")

    def __init__(self, index, pc, prediction, wait_targets, measuring):
        self.index = index
        self.pc = pc
        self.prediction = prediction
        self.wait_targets = wait_targets
        self.measuring = measuring


class Violation(ProbeEvent):
    """A memory-order violation was detected (the MDP training event).

    ``info`` is the :class:`repro.mdp.base.ViolationInfo` the predictor
    trains with; ``phantom`` marks wrong-path (never-committed) loads whose
    at-detection training pollutes predictors (Sec. IV-A1).
    """

    __slots__ = ("index", "pc", "info", "phantom", "measuring")

    def __init__(self, index, pc, info, phantom, measuring):
        self.index = index
        self.pc = pc
        self.info = info
        self.phantom = phantom
        self.measuring = measuring


class Squash(ProbeEvent):
    """A mis-speculated load squashed the window behind it and replays."""

    __slots__ = ("index", "pc", "squash_cycle", "attempt_dispatch_cycle",
                 "replay_dispatch_cycle", "measuring")

    def __init__(self, index, pc, squash_cycle, attempt_dispatch_cycle,
                 replay_dispatch_cycle, measuring):
        self.index = index
        self.pc = pc
        self.squash_cycle = squash_cycle
        self.attempt_dispatch_cycle = attempt_dispatch_cycle
        self.replay_dispatch_cycle = replay_dispatch_cycle
        self.measuring = measuring


class WrongPathLoad(ProbeEvent):
    """A phantom load was replayed from a mispredicted branch's other outcome."""

    __slots__ = ("index", "pc", "measuring")

    def __init__(self, index, pc, measuring):
        self.index = index
        self.pc = pc
        self.measuring = measuring


class StoreRecorded(ProbeEvent):
    """A store entered the in-flight window; ``record`` is its StoreRecord."""

    __slots__ = ("index", "record", "measuring")

    def __init__(self, index, record, measuring):
        self.index = index
        self.record = record
        self.measuring = measuring


class BranchResolved(ProbeEvent):
    """A branch executed; ``mispredicted`` reflects the front-end predictor."""

    __slots__ = ("index", "pc", "taken", "mispredicted", "measuring")

    def __init__(self, index, pc, taken, mispredicted, measuring):
        self.index = index
        self.pc = pc
        self.taken = taken
        self.mispredicted = mispredicted
        self.measuring = measuring


class LoadCommitted(ProbeEvent):
    """A load retired; ``info`` is the ground-truth LoadCommitInfo."""

    __slots__ = ("index", "info", "measuring")

    def __init__(self, index, info, measuring):
        self.index = index
        self.info = info
        self.measuring = measuring


class OpCommitted(ProbeEvent):
    """A micro-op retired (emitted for every op, warm-up included)."""

    __slots__ = ("index", "kind", "dispatch_cycle", "complete_cycle",
                 "commit_cycle", "measuring")

    def __init__(self, index, kind, dispatch_cycle, complete_cycle,
                 commit_cycle, measuring):
        self.index = index
        self.kind = kind
        self.dispatch_cycle = dispatch_cycle
        self.complete_cycle = complete_cycle
        self.commit_cycle = commit_cycle
        self.measuring = measuring


class RunFinished(ProbeEvent):
    """The trace ended; carries everything end-of-run observers need."""

    __slots__ = ("total_ops", "measured_ops", "warmup_ops",
                 "last_commit_cycle", "warmup_end_cycle")

    def __init__(self, total_ops, measured_ops, warmup_ops, last_commit_cycle,
                 warmup_end_cycle):
        self.total_ops = total_ops
        self.measured_ops = measured_ops
        self.warmup_ops = warmup_ops
        self.last_commit_cycle = last_commit_cycle
        self.warmup_end_cycle = warmup_end_cycle


class Probe:
    """Base class for bus subscribers.

    Subclasses override :meth:`subscriptions` to map event types to bound
    handlers.
    """

    def subscriptions(self) -> Mapping[Type[ProbeEvent], Callable]:
        return {}


class ProbeBus:
    """Synchronous typed event bus with a pre-resolved fast path."""

    def __init__(self) -> None:
        self._handlers: Dict[Type[ProbeEvent], List[Callable]] = {}
        self._probes: List[Probe] = []

    def subscribe(self, event_type: Type[ProbeEvent], handler: Callable) -> None:
        """Register one handler for one event type (delivery in order)."""
        self._handlers.setdefault(event_type, []).append(handler)

    def attach(self, probe: Probe) -> Probe:
        """Attach a probe: subscribe every (event type, handler) it declares."""
        for event_type, handler in probe.subscriptions().items():
            self.subscribe(event_type, handler)
        self._probes.append(probe)
        return probe

    @property
    def probes(self) -> List[Probe]:
        return list(self._probes)

    def has_subscribers(self, event_type: Type[ProbeEvent]) -> bool:
        return bool(self._handlers.get(event_type))

    def resolve(self, event_type: Type[ProbeEvent]) -> Optional[Callable]:
        """Pre-resolve one event type to its dispatch function.

        Returns ``None`` when nobody subscribes — the caller skips both the
        event construction and the call — and the single handler itself when
        exactly one subscribes (no fan-out indirection on the hot path).
        """
        handlers = self._handlers.get(event_type)
        if not handlers:
            return None
        if len(handlers) == 1:
            return handlers[0]
        chain = tuple(handlers)

        def fanout(event, _chain=chain):
            for handler in _chain:
                handler(event)

        return fanout
