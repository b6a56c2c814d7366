"""Tests for the out-of-order pipeline timing engine."""

from dataclasses import replace

import pytest

from repro.core.config import CoreConfig
from repro.core.pipeline import Pipeline, PipelineStats, _PortPool
from repro.core.probes import OpCommitted, OpDispatched, Probe
from repro.frontend.branch_predictors import AlwaysTakenPredictor
from repro.isa.microop import MicroOp, OpKind
from repro.isa.trace import Trace
from repro.mdp.ideal import AlwaysSpeculatePredictor, AlwaysWaitPredictor, IdealPredictor
from repro.workloads.motifs import alu, cond_branch, load, store


def run(ops, predictor=None, config=None, branch_predictor=None):
    pipeline = Pipeline(
        config or CoreConfig(),
        predictor or AlwaysSpeculatePredictor(),
        branch_predictor=branch_predictor or AlwaysTakenPredictor(),
    )
    return pipeline.run(Trace(ops))


def alu_block(count, pc_base=0x400):
    return [alu(pc_base + 4 * i, dst=None, srcs=()) for i in range(count)]


class _Cycles(Probe):
    """Dispatch and commit cycle of every op, in program order."""

    def __init__(self):
        self.dispatch = []
        self.commit = []

    def subscriptions(self):
        return {
            OpDispatched: lambda event: self.dispatch.append(event.dispatch_cycle),
            OpCommitted: lambda event: self.commit.append(event.commit_cycle),
        }


def cycles_of(ops, **config_changes):
    probe = _Cycles()
    Pipeline(
        replace(CoreConfig(), **config_changes),
        AlwaysSpeculatePredictor(),
        branch_predictor=AlwaysTakenPredictor(),
        probes=[probe],
    ).run(Trace(ops))
    return probe


def div(pc):
    return MicroOp(pc=pc, kind=OpKind.DIV, dst_reg=None)


class TestWidthCursor:
    """Dispatch slots: at most ``dispatch_width`` ops per cycle, in order."""

    def test_packs_up_to_width(self):
        dispatch = cycles_of(alu_block(5), dispatch_width=2).dispatch
        assert [cycle - dispatch[0] for cycle in dispatch] == [0, 0, 1, 1, 2]

    def test_jumps_forward(self):
        # A 2-entry ROB: the third op waits for the DIV to commit, and the
        # dispatch cursor jumps straight to that cycle.
        ops = [div(0x400)] + alu_block(2, pc_base=0x404)
        cycles = cycles_of(ops, dispatch_width=2, rob_entries=2)
        assert cycles.dispatch[1] == cycles.dispatch[0]
        assert cycles.dispatch[2] == cycles.commit[0] > cycles.dispatch[0] + 1

    def test_never_goes_backwards(self):
        # The fourth op's ROB slot frees no later than the cursor's cycle,
        # which the third op filled: it takes the next cycle, not an
        # earlier one.
        ops = [div(0x400)] + alu_block(3, pc_base=0x404)
        cycles = cycles_of(ops, dispatch_width=1, rob_entries=2, commit_width=2)
        assert cycles.commit[1] <= cycles.dispatch[2]
        assert cycles.dispatch[3] == cycles.dispatch[2] + 1


class TestPortPool:
    def test_parallel_ports(self):
        pool = _PortPool(2)
        assert pool.allocate(0) == 0
        assert pool.allocate(0) == 0
        assert pool.allocate(0) == 1  # both ports busy at cycle 0

    def test_unpipelined_busy(self):
        pool = _PortPool(1)
        assert pool.allocate(0, busy_cycles=10) == 0
        assert pool.allocate(0) == 10


class TestBasicTiming:
    def test_ipc_bounded_by_dispatch_width(self):
        stats = run(alu_block(1200))
        assert stats.committed_uops == 1200
        assert stats.ipc <= CoreConfig().dispatch_width + 0.01
        assert stats.ipc > 1.0  # independent ALUs run wide

    def test_dependent_chain_is_serial(self):
        ops = [alu(0x400 + 4 * i, dst=10, srcs=(10,)) for i in range(600)]
        stats = run(ops)
        assert stats.ipc < 1.2  # one ALU per cycle at best

    def test_narrow_core_is_slower(self):
        wide = run(alu_block(2000))
        narrow = run(alu_block(2000), config=CoreConfig(dispatch_width=1, commit_width=1))
        assert narrow.ipc < wide.ipc
        assert narrow.ipc <= 1.01

    def test_determinism(self):
        ops = alu_block(500) + [load(0x900, 0x1000, 8, 5, ())] * 1
        a = run(list(ops))
        b = run(list(ops))
        assert a.cycles == b.cycles

    def test_max_ops_truncates(self):
        pipeline = Pipeline(CoreConfig(), AlwaysSpeculatePredictor())
        stats = pipeline.run(Trace(alu_block(100)), max_ops=10)
        assert stats.committed_uops == 10


class TestDegenerateStats:
    """Zero-commit consistency: every derived rate reads 0.0, like ``ipc``.

    The MPKI properties used to divide by ``max(1, committed_uops)`` while
    ``ipc`` guarded with ``if self.cycles``, so a zero-op stats record could
    report nonzero misses-per-kilo-op over zero committed ops.
    """

    def test_fresh_stats_rates_are_zero(self):
        stats = PipelineStats()
        assert stats.ipc == 0.0
        assert stats.violation_mpki == 0.0
        assert stats.false_positive_mpki == 0.0
        assert stats.total_mdp_mpki == 0.0
        assert stats.branch_mpki == 0.0

    def test_zero_commit_with_nonzero_events(self):
        # Events without commits (e.g. a window cut before any measured
        # commit) must not divide by the max(1, ...) stand-in denominator.
        stats = PipelineStats(violations=3, false_positives=2, branch_mispredicts=5)
        assert stats.violation_mpki == 0.0
        assert stats.false_positive_mpki == 0.0
        assert stats.branch_mpki == 0.0

    def test_interval_window_zero_commit(self):
        from repro.sim.intervals import IntervalWindow

        window = IntervalWindow(
            index=0,
            start_op=0,
            end_op=-1,
            cycles=10,
            committed_uops=0,
            violations=4,
            branch_mispredicts=4,
        )
        assert window.ipc == 0.0
        assert window.violation_mpki == 0.0
        assert window.branch_mpki == 0.0

    def test_empty_trace_still_rejected(self):
        # An empty run cannot silently produce the degenerate stats: the
        # pipeline refuses it (warmup 0 >= total 0), as test_warmup pins.
        pipeline = Pipeline(CoreConfig(), AlwaysSpeculatePredictor())
        with pytest.raises(ValueError):
            pipeline.run(Trace([]))

    def test_nonzero_commit_unchanged(self):
        stats = PipelineStats(committed_uops=2000, violations=3, branch_mispredicts=8)
        assert stats.violation_mpki == pytest.approx(1.5)
        assert stats.branch_mpki == pytest.approx(4.0)


class TestBranchHandling:
    def test_mispredicts_stall_frontend(self):
        # Alternating branches are hopeless for always-taken.
        ops = []
        for i in range(400):
            ops.append(cond_branch(0x400, taken=bool(i % 2), taken_target=0x800))
            ops.extend(alu_block(4, pc_base=0x500 + 16 * (i % 4)))
        predicted = run(list(ops))  # AlwaysTaken mispredicts half
        assert predicted.branch_mispredicts > 100
        perfect_ops = []
        for i in range(400):
            perfect_ops.append(cond_branch(0x400, taken=True, taken_target=0x800))
            perfect_ops.extend(alu_block(4, pc_base=0x500 + 16 * (i % 4)))
        perfect = run(perfect_ops)
        assert perfect.branch_mispredicts == 0
        assert perfect.ipc > predicted.ipc

    def test_branches_recorded_in_history(self):
        pipeline = Pipeline(CoreConfig(), AlwaysSpeculatePredictor(),
                            branch_predictor=AlwaysTakenPredictor())
        ops = [cond_branch(0x400 + 4 * i, True, 0x800) for i in range(10)]
        pipeline.run(Trace(ops))
        assert pipeline.history.snapshot() == 10
        assert len(pipeline.history.divergent) == 10


def overtaking_conflict_ops(repeats=40, miss_region=0x100000):
    """A store with a late address followed by a dependent load.

    The store's address register comes from a cache-missing load, so a
    speculating load overtakes it and violates; a waiting load does not.
    """
    ops = []
    for i in range(repeats):
        target = 0x1000  # the conflict address (same every iteration)
        setup_address = miss_region + i * 4096  # always a cold miss
        ops.append(load(0x400, setup_address, 8, 20, (0,)))
        ops.append(alu(0x404, 21, (20,)))
        ops.append(store(0x408, target, 8, addr_srcs=(21,), data_srcs=(0,)))
        ops.append(load(0x40C, target, 8, 22, (0,)))
        ops.append(alu(0x410, 23, (22,)))
        ops.extend(alu_block(10, pc_base=0x500))
    return ops


class TestMemoryDependences:
    def test_speculation_causes_violations(self):
        stats = run(overtaking_conflict_ops())
        assert stats.violations > 0

    def test_ideal_never_violates(self):
        stats = run(overtaking_conflict_ops(), predictor=IdealPredictor())
        assert stats.violations == 0
        assert stats.false_positives == 0

    def test_always_wait_never_violates(self):
        stats = run(overtaking_conflict_ops(), predictor=AlwaysWaitPredictor())
        assert stats.violations == 0

    def test_ideal_beats_blind_speculation(self):
        speculate = run(overtaking_conflict_ops(80))
        ideal = run(overtaking_conflict_ops(80), predictor=IdealPredictor())
        assert ideal.ipc > speculate.ipc

    def test_violation_replay_terminates_and_commits_all(self):
        stats = run(overtaking_conflict_ops(60))
        assert stats.committed_uops == len(overtaking_conflict_ops(60))

    def test_forwarding_counted(self):
        # Store resolves early (ready regs): the load forwards.
        ops = []
        for _ in range(20):
            ops.append(store(0x408, 0x1000, 8, addr_srcs=(0,), data_srcs=(0,)))
            ops.append(load(0x40C, 0x1000, 8, 22, (0,)))
            ops.extend(alu_block(6))
        stats = run(ops)
        assert stats.forwarded_loads > 0
        assert stats.violations == 0

    def test_violations_raise_cycle_count(self):
        ops = overtaking_conflict_ops(60)
        speculate = run(list(ops))
        ideal = run(list(ops), predictor=IdealPredictor())
        assert speculate.cycles > ideal.cycles
        assert speculate.reexecuted_uops > 0


class TestMultiStoreLoads:
    def test_partial_coverage_stalls_not_squashes(self):
        # Early-resolving narrow stores: the load sees resolved partial
        # coverage and stalls for the drains instead of violating.
        ops = []
        for i in range(10):
            for b in range(8):
                ops.append(
                    store(0x410 + 4 * b, 0x1000 + b, 1, addr_srcs=(0,), data_srcs=(0,))
                )
            ops.append(load(0x440, 0x1000, 8, 22, (0,)))
            ops.extend(alu_block(4))
        stats = run(ops)
        assert stats.partial_loads > 0
        assert stats.multi_store_loads > 0
        assert stats.violations == 0

    def test_late_multi_store_violates_once_then_reads_cache(self):
        # Late-resolving narrow stores: a speculating load violates, replays
        # after the writers drained, and reads the merged bytes from cache.
        ops = []
        for i in range(10):
            ops.append(load(0x400, 0x200000 + i * 4096, 8, 20, (0,)))
            ops.append(alu(0x404, 21, (20,)))
            for b in range(8):
                ops.append(
                    store(0x410 + 4 * b, 0x1000 + b, 1, addr_srcs=(21,), data_srcs=(0,))
                )
            ops.append(load(0x440, 0x1000, 8, 22, (0,)))
        stats = run(ops)
        assert stats.multi_store_loads > 0
        assert stats.violations > 0
        assert stats.committed_uops == len(ops)


class TestResourceLimits:
    def test_tiny_rob_hurts(self):
        ops = []
        for i in range(200):
            ops.append(load(0x400, 0x300000 + i * 4096, 8, 20, (0,)))  # misses
            ops.extend(alu_block(10))
        big = run(list(ops))
        small = run(list(ops), config=CoreConfig(rob_entries=8, iq_entries=8,
                                                 lq_entries=8, sq_entries=8))
        assert small.ipc < big.ipc

    def test_store_drain_rate_limits(self):
        ops = []
        for i in range(300):
            ops.append(store(0x400, 0x1000 + (i % 64) * 8, 8,
                             addr_srcs=(0,), data_srcs=(0,)))
        fast = run(list(ops), config=CoreConfig(store_drain_per_cycle=4))
        slow = run(list(ops), config=CoreConfig(store_drain_per_cycle=1, sq_entries=8))
        assert slow.cycles >= fast.cycles


class TestVerdictSite:
    """Where a branch's mispredict verdict is made: a plain TAGE predicts
    each plan chunk's branches as the chunk is built; any other front end
    observes inside the loop, in program order with the MDP hooks."""

    @staticmethod
    def _branch_flags(branch_predictor, predictor="phast"):
        from repro.core.pipeline import BRANCH
        from repro.sim.simulator import get_trace, make_predictor

        pipeline = Pipeline(
            CoreConfig(),
            predictor if not isinstance(predictor, str) else make_predictor(predictor),
            branch_predictor=branch_predictor,
        )
        run = pipeline.begin(get_trace("502.gcc_1", 3000))
        return [rec[4] for rec in run._plan(0, 3000) if rec[0] == BRANCH]

    def test_default_tage_plans_carry_verdicts(self):
        from repro.frontend.tage import TAGEPredictor

        for front_end in (None, TAGEPredictor(), TAGEPredictor(num_tables=4)):
            flags = self._branch_flags(front_end)
            assert flags and all(isinstance(flag, bool) for flag in flags)
            assert any(flags)

    def test_other_front_ends_observe_in_the_loop(self):
        from repro.frontend.branch_predictors import GSharePredictor
        from repro.mdp.omnipredictor import OmniPredictor

        omni = OmniPredictor()
        for front_end, predictor in (
            (GSharePredictor(), "phast"),
            (omni.branch_view, omni),
        ):
            flags = self._branch_flags(front_end, predictor)
            assert flags and all(flag is None for flag in flags)
