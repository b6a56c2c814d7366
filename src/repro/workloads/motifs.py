"""Dependence motifs: parameterised code fragments with known MDP behaviour.

Each motif allocates a static layout once (PCs, registers, data regions) and
then emits *dynamic activations* over it, exactly like iterations of a real
loop body. The motifs map one-to-one onto the phenomena the paper studies:

* :class:`ComputeFiller` — ALU/FP/branch/load filler; its optional
  unpredictable divergent branches are the "history noise" that pollutes
  predictors trained with longer-than-necessary histories (Sec. III-B).
* :class:`StableConflict` — a store with a late-resolving address followed at
  a fixed store distance by a dependent load; path-independent (the easy case
  every predictor must get right).
* :class:`PathDependentConflict` — a divergent branch selects which store
  (and at which distance) the load depends on; reproduces Fig. 5 and the
  511.povray indirect-branch example (Sec. III-C).
* :class:`DataDependentConflict` — store and load addresses collide only
  sometimes, with identical history either way; the 541.leela/510.parest
  behaviour that no path-based predictor can capture (Sec. VI-A).
* :class:`MultiStoreConflict` — several narrow in-order stores feeding one
  wide load (503.bwaves / 525.x264, Fig. 4).
* :class:`StoreSetStress` — several in-flight instances of the same static
  store with iteration-local dependences; Store Sets serialises the instances
  (the 500.perlbench_3 weakness, Sec. VI-C).
* :class:`CallHeavyConflict` — a stable conflict reached through call/return
  pairs, exercising the NoSQ predictor's call-PC history bits.

The conflicting stores' addresses resolve late (their address registers hang
off a cache-missing "setup" load), so a speculating load genuinely overtakes
them — the situation that makes memory dependence prediction necessary.
"""

from __future__ import annotations

import abc
import contextlib
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.rng import DeterministicRNG
from repro.isa.microop import BranchInfo, BranchKind, MemInfo, MicroOp, OpKind
from repro.workloads.layout import LayoutContext


# --------------------------------------------------------------------------- #
# Micro-op builders
# --------------------------------------------------------------------------- #


#: The op table of the build in progress: each builder's field tuple maps to
#: the one :class:`MicroOp` with those fields. ``build_trace`` installs a
#: fresh table per call (:func:`shared_ops`), so a built trace shares equal
#: ops exactly like a decoded one; outside a build (no table) every call
#: returns a fresh op. A context variable, not a module dict, so concurrent
#: builds on different threads never share a table.
_BUILD_OPS: ContextVar[Optional[Dict[tuple, MicroOp]]] = ContextVar(
    "build_ops", default=None
)


@contextlib.contextmanager
def shared_ops() -> Iterator[None]:
    """Share equal ops among every builder call inside the block."""
    token = _BUILD_OPS.set({})
    try:
        yield
    finally:
        _BUILD_OPS.reset(token)


def _op(
    key: tuple,
    kind: OpKind,
    pc: int,
    dst: Optional[int] = None,
    srcs: Tuple[int, ...] = (),
    mem: Optional[Tuple[int, int]] = None,
    branch: Optional[Tuple[BranchKind, bool, int]] = None,
    data: Tuple[int, ...] = (),
) -> MicroOp:
    # ``key`` is the builder's name plus its field tuple: a string and ints
    # hash in C, where the enums would hash in Python on every call.
    table = _BUILD_OPS.get()
    if table is not None:
        op = table.get(key)
        if op is not None:
            return op
    op = MicroOp(
        pc=pc,
        kind=kind,
        dst_reg=dst,
        src_regs=srcs,
        mem=None if mem is None else MemInfo(*mem),
        branch=None if branch is None else BranchInfo(*branch),
        store_data_regs=data,
    )
    if table is not None:
        table[key] = op
    return op


def alu(pc: int, dst: Optional[int], srcs: Sequence[int] = ()) -> MicroOp:
    srcs = tuple(srcs)
    return _op(("alu", pc, dst, srcs), OpKind.ALU, pc, dst, srcs)


def fp_op(pc: int, dst: Optional[int], srcs: Sequence[int] = ()) -> MicroOp:
    srcs = tuple(srcs)
    return _op(("fp", pc, dst, srcs), OpKind.FP, pc, dst, srcs)


def load(
    pc: int, address: int, size: int, dst: Optional[int], srcs: Sequence[int] = ()
) -> MicroOp:
    srcs = tuple(srcs)
    return _op(
        ("load", pc, address, size, dst, srcs),
        OpKind.LOAD,
        pc,
        dst,
        srcs,
        mem=(address, size),
    )


def store(
    pc: int,
    address: int,
    size: int,
    addr_srcs: Sequence[int] = (),
    data_srcs: Sequence[int] = (),
) -> MicroOp:
    addr_srcs = tuple(addr_srcs)
    data_srcs = tuple(data_srcs)
    return _op(
        ("store", pc, address, size, addr_srcs, data_srcs),
        OpKind.STORE,
        pc,
        srcs=addr_srcs,
        mem=(address, size),
        data=data_srcs,
    )


def cond_branch(pc: int, taken: bool, taken_target: int) -> MicroOp:
    target = taken_target if taken else pc + 4
    return _op(
        ("cond", pc, taken, target),
        OpKind.BRANCH,
        pc,
        branch=(BranchKind.CONDITIONAL, taken, target),
    )


def indirect_branch(pc: int, target: int) -> MicroOp:
    return _op(
        ("indirect", pc, target),
        OpKind.BRANCH,
        pc,
        branch=(BranchKind.INDIRECT, True, target),
    )


def call_branch(pc: int, target: int) -> MicroOp:
    return _op(
        ("call", pc, target), OpKind.BRANCH, pc, branch=(BranchKind.CALL, True, target)
    )


def return_branch(pc: int, target: int) -> MicroOp:
    return _op(
        ("return", pc, target),
        OpKind.BRANCH,
        pc,
        branch=(BranchKind.RETURN, True, target),
    )


# --------------------------------------------------------------------------- #
# Motif base
# --------------------------------------------------------------------------- #


class Motif(abc.ABC):
    """A static code fragment emitting dynamic activations."""

    def __init__(self, layout: LayoutContext) -> None:
        self._activations = 0

    @abc.abstractmethod
    def activate(self, rng: DeterministicRNG) -> List[MicroOp]:
        """Emit one dynamic instance of this motif."""

    def _next_activation(self) -> int:
        self._activations += 1
        return self._activations - 1

    def _loop_reg(self) -> int:
        """Loop-carried dependence source for the next activation's chain.

        Conflict motifs feed their consumer chain's final register into the
        next activation's address computation, the way real loop bodies feed
        loaded values into the next iteration's decisions. This is what makes
        a stalled conflict load *cost* cycles: without it, load delays hide
        in the commit shadow of the address-generating miss.
        """
        consumers = getattr(self, "_consumers", None)
        if consumers is not None:
            return consumers.final_reg
        return 0


class _ConsumerChain:
    """Dependent work fed by a conflict load's result.

    The loaded value is treated as a pointer: an ALU massages it and a second
    load dereferences it (into a small, cache-resident region so only the
    *dependence* costs cycles, not extra misses). This is what makes load
    delays — squashes and false dependences alike — propagate, as they do on
    real critical paths.
    """

    def __init__(self, layout: LayoutContext) -> None:
        self.alu_pc = layout.pcs.fresh()
        self.deref_pc = layout.pcs.fresh()
        self.final_pc = layout.pcs.fresh()
        self.region = layout.memory.region(4096)
        self.mid_reg = layout.regs.fresh()
        self.deref_reg = layout.regs.fresh()
        self.final_reg = layout.regs.fresh()
        self._cursor = 0

    def emit(self, value_reg: int) -> List[MicroOp]:
        self._cursor = (self._cursor + 8) % (self.region.size - 8)
        return [
            alu(self.alu_pc, self.mid_reg, (value_reg,)),
            load(self.deref_pc, self.region.base + self._cursor, 8,
                 self.deref_reg, (self.mid_reg,)),
            alu(self.final_pc, self.final_reg, (self.deref_reg,)),
        ]


class _LateAddressChain:
    """Shared helper: a load + ALU chain producing a late-ready address register.

    The chain's load mixes hot reuse with cold excursions into a
    ``footprint``-byte region. Larger footprints yield a higher cold-miss
    fraction (uniform sampling of a large region is essentially always cold
    within a trace, so the mix — not the raw region size — is what controls
    the *average* address-resolution delay of the downstream store, i.e. how
    far loads can overtake it):

    * <= 16 KiB  -> ~5%  cold accesses (mostly L1-resident pointer data)
    * <= 256 KiB -> ~20% (L2-class working set)
    * <= 2 MiB   -> ~40% (L3-class)
    * <= 8 MiB   -> ~65%
    * larger     -> ~85% (DRAM-bound pointer chasing)
    """

    _MISS_LADDER = (
        (16 * 1024, 0.05),
        (256 * 1024, 0.20),
        (2 * 1024 * 1024, 0.40),
        (8 * 1024 * 1024, 0.65),
    )

    def __init__(self, layout: LayoutContext, footprint: int) -> None:
        self.load_pc = layout.pcs.fresh()
        self.alu_pc = layout.pcs.fresh()
        self.region = layout.memory.region(footprint)
        self.temp_reg = layout.regs.fresh()
        self.addr_reg = layout.regs.fresh()
        self.miss_rate = 0.85
        for limit, rate in self._MISS_LADDER:
            if footprint <= limit:
                self.miss_rate = rate
                break
        self._hot_line: Optional[int] = None

    def emit(self, rng: DeterministicRNG, ready_reg: int) -> List[MicroOp]:
        lines = max(1, self.region.size // 64)
        if self._hot_line is None or rng.chance(self.miss_rate):
            self._hot_line = rng.randint(0, lines - 1)
        address = self.region.base + self._hot_line * 64
        return [
            load(self.load_pc, address, 8, self.temp_reg, (ready_reg,)),
            alu(self.alu_pc, self.addr_reg, (self.temp_reg,)),
        ]


# --------------------------------------------------------------------------- #
# Filler
# --------------------------------------------------------------------------- #


class ComputeFiller(Motif):
    """ALU/FP/branch/load filler between conflicts.

    ``random_branch_prob`` controls how many of its conditional branches are
    unpredictable coin flips; these divergent branches are the history noise
    that separates PHAST's exact-length training from fixed-length schemes.
    """

    def __init__(
        self,
        layout: LayoutContext,
        block_ops: int = 8,
        random_branch_prob: float = 0.3,
        biased_taken_prob: float = 0.96,
        load_fraction: float = 0.25,
        footprint: int = 32 * 1024,
        fp_fraction: float = 0.1,
        noise_persistence: float = 0.8,
        access_pattern: str = "stride",
        pattern_period: int = 0,
    ) -> None:
        super().__init__(layout)
        if access_pattern not in ("stride", "random"):
            raise ValueError(f"unknown access pattern {access_pattern!r}")
        if pattern_period < 0:
            raise ValueError(f"pattern_period must be >= 0, got {pattern_period}")
        self._access_pattern = access_pattern
        self._block_ops = block_ops
        # A purely periodic branch (period derived from the instance's layout
        # so replicas differ): mispredicted 1/period of the time by counters,
        # perfectly learnable by pattern/history predictors — the structure
        # that separates the branch-predictor eras in Fig. 1.
        self._pattern_period = pattern_period
        self._pattern_pc = layout.pcs.fresh()
        self._pattern_target = layout.pcs.fresh()
        if pattern_period == 0:
            self._pattern_period = 3 + (self._pattern_pc >> 2) % 5
        # Per-instance bias direction: some loop branches are mostly taken,
        # others mostly not — static predict-taken gets half of them wrong,
        # which is precisely what 2-bit counters fixed in the 1980s.
        self._bias_direction = (self._pattern_pc >> 3) % 2 == 0
        # Flips of the bias branch come in streaks (a Markov chain whose
        # stationary flip rate is 1 - biased_taken_prob): real rare-direction
        # episodes cluster, keeping global-history contexts mostly clean —
        # i.i.d. flips would corrupt a fraction of every history window and
        # cripple gshare/TAGE-era predictors unrealistically.
        self._bias_flipped = False
        exit_prob = 0.5
        flip_rate = max(1e-6, 1.0 - biased_taken_prob)
        self._bias_enter_prob = min(1.0, exit_prob * flip_rate / max(1e-6, 1.0 - flip_rate))
        self._bias_exit_prob = exit_prob
        self._random_branch_prob = random_branch_prob
        self._biased_taken_prob = biased_taken_prob
        self._load_fraction = load_fraction
        self._fp_fraction = fp_fraction
        # Noise outcomes are phase-persistent rather than white: real
        # hard-to-predict branches still run in streaks.
        self._noise_persistence = noise_persistence
        self._last_noise = False
        self._region = layout.memory.region(footprint)
        self._regs = layout.regs.fresh_block(3)
        self._ready = layout.regs.ready_reg
        self._alu_pcs = layout.pcs.fresh_block(block_ops)
        self._load_pcs = layout.pcs.fresh_block(4)
        self._fp_pcs = layout.pcs.fresh_block(2)
        self._branch_pc = layout.pcs.fresh()
        self._branch_target = layout.pcs.fresh()
        self._random_branch_pc = layout.pcs.fresh()
        self._random_branch_target = layout.pcs.fresh()
        self._cursor = 0

    def activate(self, rng: DeterministicRNG) -> List[MicroOp]:
        ops: List[MicroOp] = []
        reg_cycle = 0
        for index in range(self._block_ops):
            draw = rng.random()
            if draw < self._load_fraction:
                if self._access_pattern == "random":
                    # Pointer-chasing style: uniform within the footprint.
                    slots = max(1, self._region.size // 8)
                    self._cursor = rng.randint(0, slots - 1) * 8
                else:
                    # Streaming: sequential walk, friendly to the prefetcher.
                    self._cursor = (self._cursor + 8) % max(8, self._region.size - 8)
                ops.append(
                    load(
                        self._load_pcs[index % len(self._load_pcs)],
                        self._region.base + self._cursor,
                        8,
                        self._regs[reg_cycle % len(self._regs)],
                        (self._ready,),
                    )
                )
            elif draw < self._load_fraction + self._fp_fraction:
                ops.append(
                    fp_op(
                        self._fp_pcs[index % len(self._fp_pcs)],
                        self._regs[reg_cycle % len(self._regs)],
                        (self._regs[(reg_cycle + 1) % len(self._regs)],),
                    )
                )
            else:
                ops.append(
                    alu(
                        self._alu_pcs[index],
                        self._regs[reg_cycle % len(self._regs)],
                        (self._ready,),
                    )
                )
            reg_cycle += 1
        # One biased, well-predictable loop-style branch per block...
        if self._bias_flipped:
            if rng.chance(self._bias_exit_prob):
                self._bias_flipped = False
        elif rng.chance(self._bias_enter_prob):
            self._bias_flipped = True
        ops.append(
            cond_branch(
                self._branch_pc,
                self._bias_direction != self._bias_flipped,
                self._branch_target,
            )
        )
        # ...one periodic pattern branch (like a fixed-trip inner loop)...
        activation = self._next_activation()
        ops.append(
            cond_branch(
                self._pattern_pc,
                activation % self._pattern_period != 0,
                self._pattern_target,
            )
        )
        # ...and optionally an unpredictable divergent branch (history noise).
        if rng.chance(self._random_branch_prob):
            if not rng.chance(self._noise_persistence):
                self._last_noise = rng.chance(0.5)
            ops.append(
                cond_branch(
                    self._random_branch_pc, self._last_noise, self._random_branch_target
                )
            )
        return ops


# --------------------------------------------------------------------------- #
# Conflict motifs
# --------------------------------------------------------------------------- #


class StableConflict(Motif):
    """Store -> (distance fillers) -> load, same path every time.

    The leading fixed-outcome conditional branch is the motif's loop-branch
    stand-in: it is the "divergent branch previous to the store" that PHAST's
    N+1 window captures, and it is stable, so the dependence maps to exactly
    one path.
    """

    def __init__(
        self,
        layout: LayoutContext,
        distance: int = 0,
        setup_footprint: int = 4 * 1024 * 1024,
        access_size: int = 8,
        address_slots: int = 4,
        inter_branches: int = 1,
    ) -> None:
        super().__init__(layout)
        if distance < 0:
            raise ValueError(f"distance must be >= 0, got {distance}")
        self._distance = distance
        self._size = access_size
        self._chain = _LateAddressChain(layout, setup_footprint)
        self._lead_branch_pc = layout.pcs.fresh()
        self._lead_target = layout.pcs.fresh()
        self._inter = inter_branches
        self._inter_pcs = layout.pcs.fresh_block(max(1, inter_branches))
        self._inter_targets = layout.pcs.fresh_block(max(1, inter_branches))
        self._store_pc = layout.pcs.fresh()
        self._filler_store_pcs = layout.pcs.fresh_block(max(1, distance))
        self._filler_region = layout.memory.region(4096)
        self._data_region = layout.memory.region(max(access_size * address_slots, 64))
        self._load_pc = layout.pcs.fresh()
        self._use_pc = layout.pcs.fresh()
        self._dst_reg = layout.regs.fresh()
        self._use_reg = layout.regs.fresh()
        self._consumers = _ConsumerChain(layout)
        self._ready = layout.regs.ready_reg
        self._slots = address_slots

    def activate(self, rng: DeterministicRNG) -> List[MicroOp]:
        index = self._next_activation()
        address = self._data_region.slot(index % self._slots, self._size)
        ops = self._chain.emit(rng, self._loop_reg())
        ops.append(cond_branch(self._lead_branch_pc, True, self._lead_target))
        ops.append(
            store(
                self._store_pc,
                address,
                self._size,
                addr_srcs=(self._chain.addr_reg,),
                data_srcs=(self._ready,),
            )
        )
        for filler in range(self._distance):
            ops.append(
                store(
                    self._filler_store_pcs[filler],
                    self._filler_region.slot(filler, 8),
                    8,
                    addr_srcs=(self._ready,),
                    data_srcs=(self._ready,),
                )
            )
        for branch in range(self._inter):
            ops.append(cond_branch(self._inter_pcs[branch], True, self._inter_targets[branch]))
        ops.append(load(self._load_pc, address, self._size, self._dst_reg, (self._ready,)))
        ops.extend(self._consumers.emit(self._dst_reg))
        return ops


class PathDependentConflict(Motif):
    """A divergent branch selects which store the load depends on (Fig. 5).

    Path ``p`` writes the load's address from store PC ``p`` and inserts
    ``distances[p]`` unrelated stores before the load, so the correct store
    distance depends on the path. ``inter_branches`` fixed-outcome divergent
    branches sit between the store and the load; the minimum disambiguating
    history is therefore ``inter_branches + 1`` — the extra entry being the
    path-selecting branch itself, whose *target* differs per path.

    With ``indirect=True`` the selector is an indirect branch with one target
    per path (the 511.povray pattern); otherwise a conditional branch selects
    between two paths.
    """

    def __init__(
        self,
        layout: LayoutContext,
        distances: Sequence[int] = (0, 1),
        inter_branches: int = 1,
        indirect: bool = False,
        setup_footprint: int = 4 * 1024 * 1024,
        access_size: int = 8,
        path_weights: Optional[Sequence[float]] = None,
        conflict_prob: float = 1.0,
        persistence: float = 0.6,
        herald_bits: int = 0,
    ) -> None:
        super().__init__(layout)
        if not indirect and len(distances) != 2:
            raise ValueError("a conditional selector supports exactly 2 paths")
        if indirect and not 2 <= len(distances) <= 8:
            raise ValueError("indirect selector supports 2..8 paths")
        if not 0.0 <= persistence < 1.0:
            raise ValueError(f"persistence must be in [0, 1), got {persistence}")
        self._distances = tuple(distances)
        self._inter = inter_branches
        self._indirect = indirect
        self._size = access_size
        self._weights = tuple(path_weights) if path_weights else (1.0,) * len(distances)
        self._conflict_prob = conflict_prob
        # Real control flow is phased: the same path tends to repeat for a
        # while before switching. Persistence is the probability of repeating
        # the previous activation's path; PC-only predictors then mispredict
        # only at switches, as they do on real codes.
        self._persistence = persistence
        self._last_path: Optional[int] = None
        # Herald branches: conditionals *before* the selector whose outcomes
        # encode low bits of the chosen path — real indirect dispatches are
        # usually preceded by correlated range/type checks. They give
        # conditional-history predictors (NoSQ) partial visibility into the
        # path without changing PHAST's required N+1 length (they are older
        # than the divergent branch previous to the store).
        self._herald_bits = herald_bits
        self._herald_pcs = layout.pcs.fresh_block(max(1, herald_bits))
        self._herald_targets = layout.pcs.fresh_block(max(1, herald_bits))

        self._chain = _LateAddressChain(layout, setup_footprint)
        self._selector_pc = layout.pcs.fresh()
        # Distinct targets must differ within the predictor's 5 target bits:
        # consecutive 4-byte PCs do (paths < 8).
        self._targets = layout.pcs.fresh_block(len(distances))
        self._store_pcs = layout.pcs.fresh_block(len(distances))
        max_distance = max(distances) if distances else 0
        self._filler_store_pcs = layout.pcs.fresh_block(max(1, max_distance))
        self._filler_region = layout.memory.region(4096)
        self._data_region = layout.memory.region(64)
        self._other_region = layout.memory.region(64)
        self._inter_pcs = layout.pcs.fresh_block(max(1, inter_branches))
        self._inter_targets = layout.pcs.fresh_block(max(1, inter_branches))
        self._load_pc = layout.pcs.fresh()
        self._use_pc = layout.pcs.fresh()
        self._dst_reg = layout.regs.fresh()
        self._use_reg = layout.regs.fresh()
        self._consumers = _ConsumerChain(layout)
        self._ready = layout.regs.ready_reg

    @property
    def required_history_length(self) -> int:
        """The paper's N+1 for this motif's dependences."""
        return self._inter + 1

    def activate(self, rng: DeterministicRNG) -> List[MicroOp]:
        if self._last_path is not None and rng.chance(self._persistence):
            path = self._last_path
        else:
            path = rng.weighted_choice(list(range(len(self._distances))), self._weights)
        self._last_path = path
        conflicts = rng.chance(self._conflict_prob)
        address = self._data_region.slot(0, self._size)
        store_address = address if conflicts else self._other_region.slot(0, self._size)

        ops = self._chain.emit(rng, self._loop_reg())
        for bit in range(self._herald_bits):
            ops.append(
                cond_branch(
                    self._herald_pcs[bit],
                    bool((path >> bit) & 1),
                    self._herald_targets[bit],
                )
            )
        if self._indirect:
            ops.append(indirect_branch(self._selector_pc, self._targets[path]))
        else:
            ops.append(cond_branch(self._selector_pc, path == 1, self._targets[1]))
        ops.append(
            store(
                self._store_pcs[path],
                store_address,
                self._size,
                addr_srcs=(self._chain.addr_reg,),
                data_srcs=(self._ready,),
            )
        )
        for filler in range(self._distances[path]):
            ops.append(
                store(
                    self._filler_store_pcs[filler],
                    self._filler_region.slot(filler, 8),
                    8,
                    addr_srcs=(self._ready,),
                    data_srcs=(self._ready,),
                )
            )
        for branch in range(self._inter):
            ops.append(cond_branch(self._inter_pcs[branch], True, self._inter_targets[branch]))
        ops.append(load(self._load_pc, address, self._size, self._dst_reg, (self._ready,)))
        ops.extend(self._consumers.emit(self._dst_reg))
        return ops


class DataDependentConflict(Motif):
    """Occasional conflicts with *identical* history either way.

    The store picks a random slot; the load reads slot 0. They collide with
    probability ``1/address_slots`` regardless of any branch outcome — the
    pattern the paper identifies in 541.leela and 510.parest where PHAST's
    false positives come from (Sec. VI-A).
    """

    def __init__(
        self,
        layout: LayoutContext,
        address_slots: int = 4,
        distance: int = 0,
        setup_footprint: int = 1024 * 1024,
        access_size: int = 8,
    ) -> None:
        super().__init__(layout)
        if address_slots < 2:
            raise ValueError("need at least 2 slots for occasional conflicts")
        self._slots = address_slots
        self._distance = distance
        self._size = access_size
        self._chain = _LateAddressChain(layout, setup_footprint)
        self._lead_branch_pc = layout.pcs.fresh()
        self._lead_target = layout.pcs.fresh()
        self._inter_pc = layout.pcs.fresh()
        self._inter_target = layout.pcs.fresh()
        self._store_pc = layout.pcs.fresh()
        self._filler_store_pcs = layout.pcs.fresh_block(max(1, distance))
        self._filler_region = layout.memory.region(4096)
        self._data_region = layout.memory.region(access_size * address_slots)
        self._load_pc = layout.pcs.fresh()
        self._use_pc = layout.pcs.fresh()
        self._dst_reg = layout.regs.fresh()
        self._use_reg = layout.regs.fresh()
        self._consumers = _ConsumerChain(layout)
        self._ready = layout.regs.ready_reg

    def activate(self, rng: DeterministicRNG) -> List[MicroOp]:
        store_slot = rng.randint(0, self._slots - 1)
        load_address = self._data_region.slot(0, self._size)
        store_address = self._data_region.slot(store_slot, self._size)
        ops = self._chain.emit(rng, self._loop_reg())
        ops.append(cond_branch(self._lead_branch_pc, True, self._lead_target))
        ops.append(
            store(
                self._store_pc,
                store_address,
                self._size,
                addr_srcs=(self._chain.addr_reg,),
                data_srcs=(self._ready,),
            )
        )
        for filler in range(self._distance):
            ops.append(
                store(
                    self._filler_store_pcs[filler],
                    self._filler_region.slot(filler, 8),
                    8,
                    addr_srcs=(self._ready,),
                    data_srcs=(self._ready,),
                )
            )
        ops.append(cond_branch(self._inter_pc, True, self._inter_target))
        ops.append(load(self._load_pc, load_address, self._size, self._dst_reg, (self._ready,)))
        ops.extend(self._consumers.emit(self._dst_reg))
        return ops


class MultiStoreConflict(Motif):
    """Narrow in-order stores feeding one wide load (Fig. 4).

    All stores derive their addresses from the same register, so they execute
    in order (the paper measures 70% of multi-store writers do). The wide
    load is only partially covered by the youngest store, so it stalls until
    the writers drain — i.e. it executes in order with respect to them.
    """

    def __init__(
        self,
        layout: LayoutContext,
        num_stores: int = 8,
        store_size: int = 1,
        load_size: int = 8,
        setup_footprint: int = 256 * 1024,
    ) -> None:
        super().__init__(layout)
        if num_stores * store_size < load_size:
            raise ValueError("stores must cover the load")
        self._num_stores = num_stores
        self._store_size = store_size
        self._load_size = load_size
        self._chain = _LateAddressChain(layout, setup_footprint)
        self._store_pcs = layout.pcs.fresh_block(num_stores)
        self._data_region = layout.memory.region(64)
        self._load_pc = layout.pcs.fresh()
        self._use_pc = layout.pcs.fresh()
        self._dst_reg = layout.regs.fresh()
        self._use_reg = layout.regs.fresh()
        self._consumers = _ConsumerChain(layout)
        self._ready = layout.regs.ready_reg

    def activate(self, rng: DeterministicRNG) -> List[MicroOp]:
        base = self._data_region.slot(0, self._load_size)
        ops = self._chain.emit(rng, self._ready)
        for index in range(self._num_stores):
            ops.append(
                store(
                    self._store_pcs[index],
                    base + index * self._store_size,
                    self._store_size,
                    addr_srcs=(self._chain.addr_reg,),
                    data_srcs=(self._ready,),
                )
            )
        ops.append(load(self._load_pc, base, self._load_size, self._dst_reg, (self._ready,)))
        ops.extend(self._consumers.emit(self._dst_reg))
        return ops


class StoreSetStress(Motif):
    """A recurrence loop with several in-flight instances of one static store.

    Iteration ``k`` stores to slot ``k`` and loads slot ``k-1`` — the value
    the *previous* dynamic instance of the same static store produced. At
    each load's dispatch, the last fetched store of its set is the *youngest*
    in-flight instance (iteration ``k``'s own store), so Store Sets waits on
    the wrong, later-resolving instance and additionally serialises all the
    instances (Sec. VI-C, 500.perlbench_3). A distance predictor learns
    distance 1 once and waits only for the true producer.

    Each iteration carries its own late-address chain, so the instances
    resolve at staggered times and the serialisation genuinely costs cycles.
    """

    def __init__(
        self,
        layout: LayoutContext,
        iterations: int = 4,
        setup_footprint: int = 1024 * 1024,
        access_size: int = 8,
    ) -> None:
        super().__init__(layout)
        if iterations < 2:
            raise ValueError("need at least 2 iterations for the recurrence")
        self._iterations = iterations
        self._size = access_size
        self._chain = _LateAddressChain(layout, setup_footprint)
        self._loop_branch_pc = layout.pcs.fresh()
        self._loop_target = layout.pcs.fresh()
        self._store_pc = layout.pcs.fresh()
        self._load_pc = layout.pcs.fresh()
        self._use_pc = layout.pcs.fresh()
        self._data_region = layout.memory.region(access_size * (iterations + 1) * 2)
        self._dst_reg = layout.regs.fresh()
        self._use_reg = layout.regs.fresh()
        self._consumers = _ConsumerChain(layout)
        self._ready = layout.regs.ready_reg

    def activate(self, rng: DeterministicRNG) -> List[MicroOp]:
        ops: List[MicroOp] = []
        for iteration in range(self._iterations):
            store_address = self._data_region.slot(iteration + 1, self._size)
            load_address = self._data_region.slot(iteration, self._size)
            ops.append(cond_branch(self._loop_branch_pc, True, self._loop_target))
            ops.extend(self._chain.emit(rng, self._loop_reg()))
            ops.append(
                store(
                    self._store_pc,
                    store_address,
                    self._size,
                    addr_srcs=(self._chain.addr_reg,),
                    data_srcs=(self._ready,),
                )
            )
            if iteration > 0:
                # Reads what the previous instance of the same store wrote.
                ops.append(
                    load(self._load_pc, load_address, self._size, self._dst_reg, (self._ready,))
                )
                ops.extend(self._consumers.emit(self._dst_reg))
        return ops


class SpillChurn(Motif):
    """Interleaved spill/fill pairs whose pairing occasionally swaps.

    Two static stores write two slots and two static loads read them back.
    A visible conditional branch decides the pairing; when it flips (with
    probability ``swap_prob``), each load's producer — and therefore its
    store distance — changes. Over time every load conflicts with *both*
    stores, so Store Sets merges everything into one set: both stores
    serialise and both loads wait on the last-fetched store regardless of
    which one they actually need. Path-based distance predictors instead
    learn one entry per pairing.
    """

    def __init__(
        self,
        layout: LayoutContext,
        swap_prob: float = 0.25,
        setup_footprint: int = 2 * 1024 * 1024,
        access_size: int = 8,
    ) -> None:
        super().__init__(layout)
        if not 0.0 <= swap_prob <= 1.0:
            raise ValueError(f"swap_prob out of range: {swap_prob}")
        self._swap_prob = swap_prob
        self._size = access_size
        self._chain = _LateAddressChain(layout, setup_footprint)
        self._pair_branch_pc = layout.pcs.fresh()
        self._pair_target = layout.pcs.fresh()
        self._inter_pc = layout.pcs.fresh()
        self._inter_target = layout.pcs.fresh()
        self._store_pcs = layout.pcs.fresh_block(2)
        self._load_pcs = layout.pcs.fresh_block(2)
        self._use_pcs = layout.pcs.fresh_block(2)
        self._data_region = layout.memory.region(access_size * 4)
        self._dst_regs = layout.regs.fresh_block(2)
        self._use_regs = layout.regs.fresh_block(2)
        self._ready = layout.regs.ready_reg
        self._swapped = False

    def activate(self, rng: DeterministicRNG) -> List[MicroOp]:
        if rng.chance(self._swap_prob):
            self._swapped = not self._swapped
        slots = (1, 0) if self._swapped else (0, 1)
        ops = self._chain.emit(rng, self._loop_reg())
        ops.append(cond_branch(self._pair_branch_pc, self._swapped, self._pair_target))
        for index in range(2):
            ops.append(
                store(
                    self._store_pcs[index],
                    self._data_region.slot(slots[index], self._size),
                    self._size,
                    addr_srcs=(self._chain.addr_reg,),
                    data_srcs=(self._ready,),
                )
            )
        ops.append(cond_branch(self._inter_pc, True, self._inter_target))
        for index in range(2):
            ops.append(
                load(
                    self._load_pcs[index],
                    self._data_region.slot(index, self._size),
                    self._size,
                    self._dst_regs[index],
                    (self._ready,),
                )
            )
            ops.append(alu(self._use_pcs[index], self._use_regs[index], (self._dst_regs[index],)))
        return ops


class CallHeavyConflict(Motif):
    """A stable conflict reached through a call/return pair.

    Calls enter the NoSQ predictor's history view (2 PC bits per call) but are
    *not* divergent for PHAST; alternating call sites test whether call
    history helps or merely dilutes.
    """

    def __init__(
        self,
        layout: LayoutContext,
        num_call_sites: int = 2,
        distance: int = 0,
        setup_footprint: int = 1024 * 1024,
        access_size: int = 8,
    ) -> None:
        super().__init__(layout)
        self._chain = _LateAddressChain(layout, setup_footprint)
        self._call_pcs = layout.pcs.fresh_block(num_call_sites)
        self._callee_pc = layout.pcs.fresh()
        self._return_pc = layout.pcs.fresh()
        self._guard_pc = layout.pcs.fresh()
        self._guard_target = layout.pcs.fresh()
        self._inter_pc = layout.pcs.fresh()
        self._inter_target = layout.pcs.fresh()
        self._distance = distance
        self._size = access_size
        self._store_pc = layout.pcs.fresh()
        self._filler_store_pcs = layout.pcs.fresh_block(max(1, distance))
        self._filler_region = layout.memory.region(4096)
        self._data_region = layout.memory.region(64)
        self._load_pc = layout.pcs.fresh()
        self._use_pc = layout.pcs.fresh()
        self._dst_reg = layout.regs.fresh()
        self._use_reg = layout.regs.fresh()
        self._consumers = _ConsumerChain(layout)
        self._ready = layout.regs.ready_reg

    def activate(self, rng: DeterministicRNG) -> List[MicroOp]:
        call_site = rng.randint(0, len(self._call_pcs) - 1)
        address = self._data_region.slot(0, self._size)
        ops = self._chain.emit(rng, self._ready)
        ops.append(cond_branch(self._guard_pc, True, self._guard_target))
        ops.append(call_branch(self._call_pcs[call_site], self._callee_pc))
        ops.append(
            store(
                self._store_pc,
                address,
                self._size,
                addr_srcs=(self._chain.addr_reg,),
                data_srcs=(self._ready,),
            )
        )
        for filler in range(self._distance):
            ops.append(
                store(
                    self._filler_store_pcs[filler],
                    self._filler_region.slot(filler, 8),
                    8,
                    addr_srcs=(self._ready,),
                    data_srcs=(self._ready,),
                )
            )
        ops.append(cond_branch(self._inter_pc, True, self._inter_target))
        ops.append(load(self._load_pc, address, self._size, self._dst_reg, (self._ready,)))
        ops.append(
            return_branch(self._return_pc, self._call_pcs[call_site] + 4)
        )
        ops.extend(self._consumers.emit(self._dst_reg))
        return ops


class OverwriteConflict(Motif):
    """A slow store overwritten by a fast store before the load (Fig. 3c).

    Store 1's address resolves late (chain), store 2 overwrites the same
    location immediately with ready operands, and the load reads it. The
    load correctly forwards from store 2; when store 1 finally resolves, a
    simulator without the Sec. IV-A1 forwarding filter squashes the load
    even though its value is correct. This dead-store-overwrite pattern
    (initialise-then-update) is what makes the FWD filter worth several
    percent (Fig. 12), and PHAST the largest beneficiary: without the
    filter it learns the *older* store with a longer history, which then
    outranks the correct dependence.
    """

    def __init__(
        self,
        layout: LayoutContext,
        setup_footprint: int = 2 * 1024 * 1024,
        access_size: int = 8,
    ) -> None:
        super().__init__(layout)
        self._size = access_size
        self._chain = _LateAddressChain(layout, setup_footprint)
        self._lead_branch_pc = layout.pcs.fresh()
        self._lead_target = layout.pcs.fresh()
        self._slow_store_pc = layout.pcs.fresh()
        self._fast_store_pc = layout.pcs.fresh()
        self._inter_pc = layout.pcs.fresh()
        self._inter_target = layout.pcs.fresh()
        self._data_region = layout.memory.region(64)
        self._load_pc = layout.pcs.fresh()
        self._dst_reg = layout.regs.fresh()
        self._use_reg = layout.regs.fresh()
        self._consumers = _ConsumerChain(layout)
        self._ready = layout.regs.ready_reg

    def activate(self, rng: DeterministicRNG) -> List[MicroOp]:
        address = self._data_region.slot(0, self._size)
        ops = self._chain.emit(rng, self._ready)
        ops.append(cond_branch(self._lead_branch_pc, True, self._lead_target))
        # The slow initialising store: address hangs off the missing chain.
        ops.append(
            store(
                self._slow_store_pc,
                address,
                self._size,
                addr_srcs=(self._chain.addr_reg,),
                data_srcs=(self._ready,),
            )
        )
        # The fast overwriting store: ready operands, resolves immediately.
        ops.append(
            store(
                self._fast_store_pc,
                address,
                self._size,
                addr_srcs=(self._ready,),
                data_srcs=(self._ready,),
            )
        )
        ops.append(cond_branch(self._inter_pc, True, self._inter_target))
        ops.append(load(self._load_pc, address, self._size, self._dst_reg, (self._ready,)))
        ops.extend(self._consumers.emit(self._dst_reg))
        return ops
