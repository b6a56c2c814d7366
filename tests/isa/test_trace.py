"""Tests for the Trace container."""

import pytest

from repro.isa.microop import BranchInfo, BranchKind, MemInfo, MicroOp, OpKind
from repro.isa.trace import Trace


def _ops():
    return [
        MicroOp(pc=0x400, kind=OpKind.ALU, dst_reg=1),
        MicroOp(pc=0x404, kind=OpKind.LOAD, dst_reg=2, mem=MemInfo(0x1000, 8)),
        MicroOp(
            pc=0x408,
            kind=OpKind.STORE,
            mem=MemInfo(0x1000, 8),
            store_data_regs=(2,),
        ),
        MicroOp(
            pc=0x40C,
            kind=OpKind.BRANCH,
            branch=BranchInfo(BranchKind.CONDITIONAL, True, 0x400),
        ),
        MicroOp(
            pc=0x410,
            kind=OpKind.BRANCH,
            branch=BranchInfo(BranchKind.CALL, True, 0x800),
        ),
    ]


class TestTrace:
    def test_len_and_indexing(self):
        trace = Trace(_ops(), name="t")
        assert len(trace) == 5
        assert trace[1].is_load
        assert trace[-1].is_branch

    def test_iteration(self):
        trace = Trace(_ops())
        assert sum(1 for _ in trace) == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Trace([])

    def test_stats(self):
        stats = Trace(_ops()).stats()
        assert stats.total_ops == 5
        assert stats.loads == 1
        assert stats.stores == 1
        assert stats.branches == 2
        assert stats.divergent_branches == 1  # the call is not divergent
        assert stats.unique_pcs == 5
        assert stats.load_fraction == pytest.approx(0.2)
        assert stats.store_fraction == pytest.approx(0.2)
        assert stats.branch_fraction == pytest.approx(0.4)

    def test_repr(self):
        assert "ops=5" in repr(Trace(_ops(), name="x"))
