"""Batched table kernels: trace-precomputed acceleration for the predictors.

The batch backend simulates many cells against one shared trace plan
(:class:`repro.core.pipeline.TracePrep`). For the table-indexed
predictors, most per-load work is *trace-determined*: folded branch
histories, history words and PC hashes depend only on the trace position,
never on per-cell timing. The kernels here hoist that work out of the hot
loop into per-trace plans, memoized on the shared ``TracePrep`` so a whole
batch group pays for each plan once.

Every kernel is a subclass of the predictor it accelerates: same tables,
same training policy, same statistics counters. The contract is exact —
**bit-identical** ``PipelineStats`` and ``MDPStats`` versus the reference
predictor on the reference backend, enforced per predictor by
``tests/core/test_hot_path_identity.py``. Kernels may only replace a
computation with a precomputed/memoized form of the same pure function.

The key enabling trick is closed-form folded history. A rolling
:class:`~repro.mdp.tables.ChunkedFoldedHistory` evolves as

    ``v_t = rotl(v_{t-1}, r) ^ c_t ^ rotl(c_{t-L}, s)``

which is linear over GF(2), so the whole sequence collapses to a prefix-XOR:
``v_t = rotl(prefix_t, r*t mod W)`` with ``prefix`` the running XOR of
``rotl(d_j, -r*j mod W)`` and ``d_j = c_j ^ rotl(c_{j-L}, s)``. NumPy
evaluates that for every history position of a trace in a handful of array
operations — the per-(length, width) fold table costs microseconds instead
of one rolling push per branch per cell.

Kernels exist for the predictors where precomputation pays:

* ``phast`` — per-length fold tables + snapshot-to-count table; the rolling
  fold catch-up in ``on_load_dispatch`` becomes one count lookup and one
  read per ladder length.
* ``mdp-tage`` / ``mdp-tage-s`` — per-position index/tag fold tables plus a
  PC hash memo; ``_sync`` degenerates to one table read.
* ``nosq`` — the 8-bit history word per snapshot, precomputed; sensitive /
  insensitive key hashes memoized per (pc, word).
* ``store-vector`` — decoded distance tuples memoized per vector value
  (prediction objects reused; vectors repeat heavily).

Store Sets and CHT had memoisation kernels (an SSIT hash memo; prediction
objects per distance); measured over the sweep-batch grid they were no
faster than the plain predictors, so those run unkerneled. The unlimited
limit-study predictors key on exact window tuples (no folds) and the
perceptron/omnipredictor entangle per-cell state with their hashing, so
they too run unkerneled on the shared plan.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as _np

from repro.common.bitops import mask, pc_hash_index, pc_hash_tag
from repro.mdp.base import NO_DEPENDENCE, MDPredictor, Prediction
from repro.mdp.mdp_tage import HISTORY_CHUNK_BITS, TARGET_BITS, MDPTagePredictor
from repro.mdp.nosq import NoSQPredictor
from repro.mdp.phast import PHASTPredictor
from repro.mdp.store_vector import StoreVectorPredictor
from repro.isa.microop import BranchKind


# ---------------------------------------------------------------------------
# Trace-level plans (memoized per TracePrep, shared by every cell of a group)
# ---------------------------------------------------------------------------


def _divergent_plan(prep) -> Tuple[List[int], List[int]]:
    """``(count_at, chunks)`` for the divergent history view.

    ``count_at[s]`` is ``view.count_before(s)`` for every master snapshot
    ``s``; ``chunks`` is each divergent record's PHAST/MDP-TAGE encoding
    (both use the same 7-bit chunk layout with 5 target bits).
    """

    def build(p):
        view = p.history.divergent
        positions = _np.asarray(view.positions(), dtype=_np.int64)
        snapshots = _np.arange(p.history.snapshot() + 1, dtype=_np.int64)
        count_at = _np.searchsorted(positions, snapshots, side="left").tolist()
        chunks = [
            record.encode(TARGET_BITS)
            for record in view.records_in_master_range(0, p.history.snapshot())
        ]
        return count_at, chunks

    return prep.kernel_plan("divergent", build)


def _fold_table(prep, length: int, width: int) -> List[int]:
    """``table[k]`` = rolling fold value after the first ``k`` divergent
    records, for a ``ChunkedFoldedHistory(length, 7, width)`` — computed in
    closed form (see module docstring)."""

    def build(p):
        if width < HISTORY_CHUNK_BITS:
            raise ValueError(
                f"fold width {width} narrower than the {HISTORY_CHUNK_BITS}-bit "
                "history chunk; the closed form assumes chunks are in range"
            )
        _, chunks = _divergent_plan(p)
        n = len(chunks)
        if n == 0:
            return [0]
        wmask = mask(width)
        rot_in = HISTORY_CHUNK_BITS % width
        rot_out = (HISTORY_CHUNK_BITS * length) % width
        c = _np.asarray(chunks, dtype=_np.int64)
        outgoing = _np.zeros(n, dtype=_np.int64)
        if length < n:
            outgoing[length:] = c[: n - length]
        if rot_out:
            outgoing = ((outgoing << rot_out) | (outgoing >> (width - rot_out))) & wmask
        d = c ^ outgoing
        t = _np.arange(1, n + 1, dtype=_np.int64)
        unrot = (-rot_in * t) % width
        e = ((d << unrot) | (d >> (width - unrot))) & wmask
        prefix = _np.bitwise_xor.accumulate(e)
        rerot = (rot_in * t) % width
        v = ((prefix << rerot) | (prefix >> (width - rerot))) & wmask
        return [0] + v.tolist()

    return prep.kernel_plan(f"fold:{length}:{width}", build)


def _nosq_word_plan(prep, num_bits: int) -> Tuple[List[int], List[int]]:
    """``(count_at, words)`` for the NoSQ history view.

    ``words[k]`` is :func:`~repro.mdp.nosq.nosq_history_bits` evaluated with
    the first ``k`` view records retired — each word only looks back at most
    ``num_bits`` records, so the whole table is one cheap pass.
    """

    def build(p):
        view = p.history.nosq
        positions = _np.asarray(view.positions(), dtype=_np.int64)
        snapshots = _np.arange(p.history.snapshot() + 1, dtype=_np.int64)
        count_at = _np.searchsorted(positions, snapshots, side="left").tolist()
        records = view.records_in_master_range(0, p.history.snapshot())
        word_mask = mask(num_bits)
        words = [0] * (len(records) + 1)
        for k in range(1, len(records) + 1):
            value = 0
            width = 0
            j = k - 1  # youngest first
            while j >= 0:
                record = records[j]
                if record.kind is BranchKind.CONDITIONAL:
                    value |= int(record.taken) << width
                    width += 1
                else:  # CALL
                    value |= ((record.pc >> 2) & 0b11) << width
                    width += 2
                if width >= num_bits:
                    break
                j -= 1
            words[k] = value & word_mask
        return count_at, words

    return prep.kernel_plan(f"nosq-word:{num_bits}", build)


# ---------------------------------------------------------------------------
# Kernel predictors
# ---------------------------------------------------------------------------


class _KernelPHAST(PHASTPredictor):
    """PHAST with the rolling folds replaced by precomputed fold tables."""

    def __init__(self, prep) -> None:
        super().__init__()
        count_at, _ = _divergent_plan(prep)
        self._count_at = count_at
        self._fold_tables: Dict[int, List[int]] = {
            length: _fold_table(prep, length, self._fold_width)
            for length in self._lengths
            if length > 0
        }
        self._fold_table_list = list(self._fold_tables.values())

    # Same functions as the rolling/stale reference paths: the fold of the
    # last `length` divergent records before `snapshot`.

    def _fold_at(self, history, snapshot, length):
        return self._fold_tables[length][self._count_at[snapshot]]

    def _folds_at(self, history, snapshot):
        count = self._count_at[snapshot]
        return self._zero_folds + [table[count] for table in self._fold_table_list]


class _KernelMDPTage(MDPTagePredictor):
    """MDP-TAGE(-S) with fold tables and a per-PC hash memo.

    ``_sync`` no longer replays records into 2x11 rolling folds; it reads
    one precomputed count. ``_keys`` XORs memoized PC hashes with table
    lookups. Monotonicity of ``_sync`` holds by construction in the timing
    loop (program-order dispatch), so the reference's guard is dropped.
    """

    def __init__(self, prep, **kwargs) -> None:
        super().__init__(**kwargs)
        count_at, _ = _divergent_plan(prep)
        self._count_at = count_at
        self._kcount = 0
        self._imask = mask(self._index_bits)
        self._tag_masks = [mask(config.tag_bits) for config in self._tables]
        self._fold_pairs: List[Optional[Tuple[List[int], List[int]]]] = [
            (
                None
                if config.history_length == 0
                else (
                    _fold_table(prep, config.history_length, self._index_bits),
                    _fold_table(prep, config.history_length, config.tag_bits),
                )
            )
            for config in self._tables
        ]
        self._pc_memo: Dict[int, Tuple[int, Tuple[int, ...]]] = {}

    def _sync(self, history, snapshot):
        self._synced = snapshot
        self._kcount = self._count_at[snapshot]

    def _keys(self, pc, position):
        memo = self._pc_memo.get(pc)
        if memo is None:
            memo = (
                pc_hash_index(pc, self._index_bits),
                tuple(
                    pc_hash_tag(pc, config.tag_bits) for config in self._tables
                ),
            )
            self._pc_memo[pc] = memo
        pair = self._fold_pairs[position]
        if pair is None:
            return memo[0], memo[1][position]
        k = self._kcount
        return (
            (memo[0] ^ pair[0][k]) & self._imask,
            (memo[1][position] ^ pair[1][k]) & self._tag_masks[position],
        )


class _KernelNoSQ(NoSQPredictor):
    """NoSQ with the history word precomputed and key hashes memoized."""

    def __init__(self, prep) -> None:
        super().__init__()
        count_at, words = _nosq_word_plan(prep, self._history_bits)
        self._count_at = count_at
        self._words = words
        self._insens_memo: Dict[int, Tuple[int, int]] = {}
        self._sens_memo: Dict[Tuple[int, int], Tuple[int, int]] = {}

    def _history_word(self, history, snapshot: int) -> int:
        return self._words[self._count_at[snapshot]]

    def _insensitive_keys(self, pc):
        keys = self._insens_memo.get(pc)
        if keys is None:
            keys = NoSQPredictor._insensitive_keys(self, pc)
            self._insens_memo[pc] = keys
        return keys

    def _sensitive_keys(self, pc, history_word):
        keys = self._sens_memo.get((pc, history_word))
        if keys is None:
            keys = NoSQPredictor._sensitive_keys(self, pc, history_word)
            self._sens_memo[(pc, history_word)] = keys
        return keys


class _KernelStoreVector(StoreVectorPredictor):
    """Store Vectors with decoded distance tuples memoized per vector."""

    def __init__(self, prep) -> None:
        super().__init__()
        self._decode_memo: Dict[int, Prediction] = {}

    def on_load_dispatch(self, load):
        self.stats.load_predictions += 1
        self.stats.table_reads += 1
        self._tick()
        vector = self._vectors[self._index(load.pc)]
        if vector == 0:
            return NO_DEPENDENCE
        self.stats.dependences_predicted += 1
        prediction = self._decode_memo.get(vector)
        if prediction is None:
            prediction = Prediction(
                distances=tuple(
                    distance
                    for distance in range(self._vector_bits)
                    if vector & (1 << distance)
                )
            )
            self._decode_memo[vector] = prediction
        return prediction


def _make_mdp_tage_s(prep) -> _KernelMDPTage:
    # Mirror MDPTagePredictor.tage_s()'s construction exactly.
    return _KernelMDPTage(
        prep,
        history_lengths=(0, 2, 4, 6, 8, 12, 16, 32),
        total_entries=4096,
        ways=4,
        tag_bits_range=(16, 16),
        name="mdp-tage-s",
    )


_KERNELS = {
    "phast": _KernelPHAST,
    "mdp-tage": _KernelMDPTage,
    "mdp-tage-s": _make_mdp_tage_s,
    "nosq": _KernelNoSQ,
    "store-vector": _KernelStoreVector,
}

#: Predictor names with a batched kernel (the rest run unkerneled).
KERNEL_NAMES: Tuple[str, ...] = tuple(sorted(_KERNELS))


def make_kernel_predictor(name: str, prep) -> Optional[MDPredictor]:
    """A kernel-accelerated predictor for ``name``, or ``None``.

    ``None`` means "no kernel for this predictor": the caller builds it
    from the registry. A built-in name whose registry entry was replaced
    (``register_predictor(..., replace=True)``) gets no kernel, since the
    kernels were checked against the built-in factories only. Returned
    predictors are only valid for cells simulated against ``prep``'s trace.
    """
    from repro.sim.simulator import BUILTIN_PREDICTORS, PREDICTOR_FACTORIES

    factory = _KERNELS.get(name)
    # A restored classmethod factory is a new bound-method object: compare
    # the entries for equality, not identity.
    if factory is None or PREDICTOR_FACTORIES.get(name) != BUILTIN_PREDICTORS[name]:
        return None
    return factory(prep)
