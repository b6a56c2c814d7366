"""Probe bus semantics: resolution fast path, ordering, custom probes."""

from repro.core.config import CoreConfig
from repro.core.pipeline import Pipeline
from repro.core.probes import (
    BranchResolved,
    LoadResolved,
    OpCommitted,
    OpDispatched,
    Probe,
    ProbeBus,
    ProbeEvent,
    RunFinished,
    Violation,
)
from repro.isa.trace import Trace
from repro.mdp.ideal import AlwaysSpeculatePredictor
from repro.mdp.phast import PHASTPredictor
from repro.sim.invariants import InvariantProbe
from tests.core.test_pipeline import alu_block, overtaking_conflict_ops


class _Recorder(Probe):
    """Counts every event type it subscribes to, preserving arrival order."""

    def __init__(self, *event_types):
        self.seen = []
        self._types = event_types

    def subscriptions(self):
        return {event_type: self.seen.append for event_type in self._types}


class TestBusResolution:
    def test_zero_subscribers_resolve_to_none(self):
        bus = ProbeBus()
        assert bus.resolve(OpCommitted) is None
        assert not bus.has_subscribers(OpCommitted)

    def test_single_subscriber_resolves_to_the_handler_itself(self):
        bus = ProbeBus()

        def handler(event):
            pass

        bus.subscribe(OpCommitted, handler)
        assert bus.resolve(OpCommitted) is handler

    def test_multiple_subscribers_fan_out_in_attach_order(self):
        bus = ProbeBus()
        order = []
        bus.subscribe(Violation, lambda event: order.append("first"))
        bus.subscribe(Violation, lambda event: order.append("second"))
        dispatch = bus.resolve(Violation)
        dispatch(Violation(0, 0x400, None, False, True))
        assert order == ["first", "second"]

    def test_resolution_is_per_event_type(self):
        bus = ProbeBus()
        bus.subscribe(Violation, lambda event: None)
        assert bus.resolve(Violation) is not None
        assert bus.resolve(BranchResolved) is None


class TestPipelineIntegration:
    def test_invariant_probe_is_the_only_builtin(self):
        """Statistics and predictor training are part of the loop; the bus
        carries only observers."""
        assert Pipeline(CoreConfig(), PHASTPredictor()).bus.probes == []
        checked = Pipeline(CoreConfig(), PHASTPredictor(), check_invariants=True)
        assert [type(probe) for probe in checked.bus.probes] == [InvariantProbe]

    def test_custom_probe_sees_every_commit(self):
        recorder = _Recorder(OpCommitted, RunFinished)
        pipeline = Pipeline(
            CoreConfig(), AlwaysSpeculatePredictor(), probes=[recorder]
        )
        stats = pipeline.run(Trace(alu_block(200)), warmup_ops=50)
        commits = [e for e in recorder.seen if isinstance(e, OpCommitted)]
        finished = [e for e in recorder.seen if isinstance(e, RunFinished)]
        # OpCommitted fires for every op (warm-up included, flagged):
        assert len(commits) == 200
        assert sum(1 for e in commits if e.measuring) == stats.committed_uops == 150
        assert len(finished) == 1 and finished[0].warmup_ops == 50

    def test_attach_after_construction(self):
        recorder = _Recorder(OpDispatched)
        pipeline = Pipeline(CoreConfig(), AlwaysSpeculatePredictor())
        pipeline.attach(recorder)
        pipeline.run(Trace(alu_block(64)))
        assert len(recorder.seen) == 64

    def test_observer_probe_does_not_change_results(self):
        """A pure observer must leave the simulation bit-identical."""
        ops = overtaking_conflict_ops(20)
        bare = Pipeline(CoreConfig(), PHASTPredictor()).run(Trace(list(ops)))
        recorder = _Recorder(
            OpDispatched, LoadResolved, Violation, OpCommitted, RunFinished
        )
        observed = Pipeline(
            CoreConfig(), PHASTPredictor(), probes=[recorder]
        ).run(Trace(list(ops)))
        assert bare == observed
        assert recorder.seen  # it really was listening

    def test_unsubscribed_events_are_never_constructed(self):
        """The zero-subscriber fast path: with nobody listening, the loop
        must not build event objects at all."""
        constructed = []
        original = OpCommitted.__init__

        def tracing_init(self, *args):
            constructed.append(args)
            original(self, *args)

        OpCommitted.__init__ = tracing_init
        try:
            Pipeline(
                CoreConfig(), AlwaysSpeculatePredictor(), check_invariants=False
            ).run(Trace(alu_block(5000)))
            assert constructed == []
        finally:
            OpCommitted.__init__ = original

    def test_events_expose_slots_no_dict(self):
        event = OpCommitted(0, None, 0, 0, 0, True)
        assert not hasattr(event, "__dict__")
        assert isinstance(event, ProbeEvent)
