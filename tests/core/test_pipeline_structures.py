"""Property and unit tests for the pipeline's internal structures."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.lsq import StoreRecord, multi_store_suppliers
from repro.core.pipeline import StoreWindow, _PortPool
from repro.isa.microop import MicroOp, OpKind
from tests.core.test_pipeline import cycles_of


def record(seq, address=0x1000, size=8, store_number=None, drain=10_000):
    return StoreRecord(
        seq=seq,
        pc=0x500 + seq * 4,
        address=address,
        size=size,
        store_number=store_number if store_number is not None else seq,
        addr_ready=5,
        exec_cycle=5,
        drain_cycle=drain,
        hist_snapshot=0,
    )


class TestPortPoolProperties:
    @given(st.lists(st.integers(0, 200), min_size=1, max_size=80), st.integers(1, 4))
    def test_never_oversubscribes_a_cycle(self, readies, ports):
        pool = _PortPool(ports)
        issues = [pool.allocate(ready) for ready in readies]
        for ready, issue in zip(readies, issues):
            assert issue >= ready
        from collections import Counter

        usage = Counter(issues)
        assert max(usage.values()) <= ports

    def test_late_op_takes_earlier_slot(self):
        """Out-of-order issue: a future booking must not block an early op."""
        pool = _PortPool(1)
        assert pool.allocate(100) == 100
        assert pool.allocate(3) == 3  # the early slot is still free

    @given(st.integers(1, 3), st.integers(2, 12))
    def test_unpipelined_op_blocks_its_span(self, ports, busy):
        pool = _PortPool(ports)
        start = pool.allocate(10, busy_cycles=busy)
        assert start == 10
        # Saturate the span; the next op of the same span must start after it.
        for _ in range(ports - 1):
            pool.allocate(10, busy_cycles=busy)
        assert pool.allocate(10, busy_cycles=busy) >= 10 + 1


class TestWidthCursorProperties:
    @given(
        st.lists(st.sampled_from([OpKind.ALU, OpKind.MUL, OpKind.DIV]),
                 min_size=1, max_size=60),
        st.integers(1, 6),
        st.integers(1, 8),
    )
    def test_monotone_and_bounded(self, kinds, width, rob):
        """Dispatch never precedes the op's ROB slot freeing, never moves
        backwards, and fills at most ``width`` slots per cycle."""
        ops = [
            MicroOp(pc=0x400 + 4 * i, kind=kind, dst_reg=i % 4, src_regs=((i + 1) % 4,))
            for i, kind in enumerate(kinds)
        ]
        cycles = cycles_of(ops, dispatch_width=width, rob_entries=rob)
        dispatch = cycles.dispatch
        for index in range(rob, len(ops)):
            assert dispatch[index] >= cycles.commit[index - rob]
        assert all(b >= a for a, b in zip(dispatch, dispatch[1:]))
        from collections import Counter

        assert max(Counter(dispatch).values()) <= width


class TestStoreWindow:
    def test_lookup_by_number_and_seq(self):
        window = StoreWindow(capacity=4)
        window.append(record(seq=3, store_number=0))
        assert window.by_number(0).seq == 3
        assert window.by_seq(3).store_number == 0
        assert window.by_number(9) is None
        assert window.by_seq(9) is None

    def test_capacity_eviction(self):
        window = StoreWindow(capacity=2)
        for seq in range(4):
            window.append(record(seq=seq, store_number=seq, address=0x1000 + seq * 8))
        assert len(window) == 2
        assert window.by_seq(0) is None
        assert window.by_seq(3) is not None

    def test_candidates_program_order(self):
        window = StoreWindow(capacity=8)
        for seq in (5, 2, 9):  # appended in this order; seq defines order
            window.append(record(seq=seq, store_number=seq))
        candidates = window.candidates(0x1000, 8)
        assert [c.seq for c in candidates] == [2, 5, 9]

    def test_candidates_filters_by_granule(self):
        window = StoreWindow(capacity=8)
        window.append(record(seq=0, address=0x1000))
        window.append(record(seq=1, address=0x2000))
        assert [c.seq for c in window.candidates(0x1000, 8)] == [0]
        assert [c.seq for c in window.candidates(0x3000, 8)] == []

    def test_spanning_store_in_both_granules(self):
        window = StoreWindow(capacity=8)
        window.append(record(seq=0, address=0x1004, size=8))  # spans two granules
        assert [c.seq for c in window.candidates(0x1000, 4)] == [0]
        assert [c.seq for c in window.candidates(0x1008, 4)] == [0]

    def test_eviction_cleans_granule_index(self):
        window = StoreWindow(capacity=1)
        window.append(record(seq=0, address=0x1000))
        window.append(record(seq=1, address=0x2000))
        assert window.candidates(0x1000, 8) == []


class TestMultiStoreSuppliers:
    def test_single_supplier(self):
        stores = [record(seq=0), record(seq=1)]  # both cover fully
        suppliers = multi_store_suppliers(stores, 0x1000, 8)
        assert [s.seq for s in suppliers] == [1]  # youngest wins every byte

    def test_partial_writers_all_supply(self):
        stores = [record(seq=i, address=0x1000 + i, size=1) for i in range(8)]
        suppliers = multi_store_suppliers(stores, 0x1000, 8)
        assert [s.seq for s in suppliers] == list(range(8))

    def test_overwritten_store_excluded(self):
        stores = [
            record(seq=0, address=0x1000, size=4),
            record(seq=1, address=0x1000, size=8),  # overwrites 0 completely
        ]
        suppliers = multi_store_suppliers(stores, 0x1000, 8)
        assert [s.seq for s in suppliers] == [1]

    def test_program_order_output(self):
        stores = [
            record(seq=0, address=0x1004, size=4),
            record(seq=1, address=0x1000, size=4),
        ]
        suppliers = multi_store_suppliers(stores, 0x1000, 8)
        assert [s.seq for s in suppliers] == [0, 1]

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.sampled_from([1, 2, 4, 8])),
            min_size=1,
            max_size=6,
        )
    )
    def test_suppliers_cover_exactly_the_written_bytes(self, layout):
        load_address, load_size = 2, 8
        stores = [
            record(seq=seq, address=addr, size=size)
            for seq, (addr, size) in enumerate(layout)
        ]
        overlapping = [s for s in stores if s.overlaps(load_address, load_size)]
        suppliers = multi_store_suppliers(overlapping, load_address, load_size)
        # Every supplier writes at least one byte the load reads that no
        # younger store overwrites.
        for supplier in suppliers:
            owns_a_byte = False
            for byte in range(load_address, load_address + load_size):
                if supplier.address <= byte < supplier.end:
                    younger = [
                        s for s in overlapping
                        if s.seq > supplier.seq and s.address <= byte < s.end
                    ]
                    if not younger:
                        owns_a_byte = True
                        break
            assert owns_a_byte
