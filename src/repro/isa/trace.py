"""Dynamic traces: ordered micro-op sequences plus summary statistics.

A :class:`Trace` is index addressable because memory-order-violation replay
restarts simulation from the squashed load's trace position (lazy squash,
Sec. IV-A1), so the pipeline needs random access into program order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence

from repro.isa.microop import MicroOp, OpKind


@dataclass(frozen=True)
class TraceStats:
    """Static mix of a trace, useful for sanity checks and workload reports."""

    total_ops: int
    loads: int
    stores: int
    branches: int
    divergent_branches: int
    unique_pcs: int

    @property
    def load_fraction(self) -> float:
        return self.loads / self.total_ops if self.total_ops else 0.0

    @property
    def store_fraction(self) -> float:
        return self.stores / self.total_ops if self.total_ops else 0.0

    @property
    def branch_fraction(self) -> float:
        return self.branches / self.total_ops if self.total_ops else 0.0


class Trace:
    """An immutable, index-addressable sequence of dynamic micro-ops."""

    def __init__(self, ops: Iterable[MicroOp], name: str = "anonymous") -> None:
        self._ops: List[MicroOp] = list(ops)
        self.name = name
        if not self._ops:
            raise ValueError("a trace must contain at least one micro-op")

    def __len__(self) -> int:
        return len(self._ops)

    def __getitem__(self, index: int) -> MicroOp:
        return self._ops[index]

    def __iter__(self) -> Iterator[MicroOp]:
        return iter(self._ops)

    @property
    def ops(self) -> Sequence[MicroOp]:
        return self._ops

    def stats(self) -> TraceStats:
        """Compute the static mix of the trace."""
        loads = stores = branches = divergent = 0
        pcs = set()
        for op in self._ops:
            pcs.add(op.pc)
            if op.kind is OpKind.LOAD:
                loads += 1
            elif op.kind is OpKind.STORE:
                stores += 1
            elif op.kind is OpKind.BRANCH:
                branches += 1
                if op.is_divergent_branch:
                    divergent += 1
        return TraceStats(
            total_ops=len(self._ops),
            loads=loads,
            stores=stores,
            branches=branches,
            divergent_branches=divergent,
            unique_pcs=len(pcs),
        )

    def __repr__(self) -> str:
        return f"Trace(name={self.name!r}, ops={len(self._ops)})"
