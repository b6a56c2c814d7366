"""TAGE branch predictor (Seznec), used as the pipeline front end.

The paper's core uses TAGE-SC-L; this is a faithful plain TAGE — a bimodal
base predictor plus tagged components indexed with geometrically increasing
folded global history. The statistical corrector and loop predictor of
TAGE-SC-L buy a few percent of accuracy that does not change any MDP
conclusion, so they are omitted (documented fidelity note in DESIGN.md).

The folded histories depend only on the conditional-branch outcomes, which
a trace fixes in advance, so the hot callers (reference plans, the batch
backend's ``TracePrep`` and functional warming) hand the predictor a
stretch of branches at once (:meth:`TAGEPredictor.observe_stretch`): one
loop per component computes a slice's keys, then the slice trains branch
by branch. Observing one branch is a stretch of one.

The implementation also doubles as the structural template the paper reuses
for prediction tables searched in parallel at several history lengths
(Sec. IV-B: "Tables are searched in parallel on each prediction, similar to
the structure of a TAGE branch prediction").
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.common.bitops import mask
from repro.common.rng import DeterministicRNG
from repro.frontend.branch_predictors import BranchPredictor
from repro.isa.microop import BranchKind


#: Branches per slice of :meth:`TAGEPredictor.observe_stretch`: the keys of
#: one slice (two ints per component and branch) are held at once. Longer
#: slices were no faster (0.33-0.34 s at 512 against 0.35 s at 2048 over
#: 505.mcf's 64,814 branches) and hold four times the keys.
SLICE_BRANCHES = 512


def geometric_history_lengths(minimum: int, maximum: int, count: int) -> List[int]:
    """The classic TAGE geometric series of history lengths.

    ``L(i) = round(minimum * (maximum/minimum)^(i/(count-1)))``, deduplicated
    and strictly increasing.
    """
    if count < 2:
        raise ValueError("need at least two components")
    if minimum <= 0 or maximum <= minimum:
        raise ValueError("require 0 < minimum < maximum")
    lengths: List[int] = []
    ratio = (maximum / minimum) ** (1.0 / (count - 1))
    value = float(minimum)
    for _ in range(count):
        length = int(round(value))
        if lengths and length <= lengths[-1]:
            length = lengths[-1] + 1
        lengths.append(length)
        value *= ratio
    return lengths


class TAGEPredictor(BranchPredictor):
    """Plain TAGE with ``num_tables`` tagged components.

    All state is plain ints. Tagged component ``t`` is three parallel lists
    indexed by its table index: ``_tags[t]`` (``-1`` marks an invalid
    entry), ``_ctrs[t]`` (3-bit signed prediction counters) and
    ``_useful[t]``. The bimodal base is a list of 2-bit signed counters,
    ``_use_alt`` a 4-bit signed int, and each component's folded global
    history is one packed int in ``_folds``. A signed counter predicts
    taken when it is ``>= 0``.
    """

    name = "tage"
    year = 2006

    def __init__(
        self,
        num_tables: int = 8,
        min_history: int = 4,
        max_history: int = 640,
        table_index_bits: int = 10,
        tag_bits: int = 11,
        useful_bits: int = 2,
        reset_period: int = 256 * 1024,
        seed: int = 0x7A6E,
    ) -> None:
        super().__init__()
        if table_index_bits < 1 or tag_bits < 2:
            raise ValueError("need table_index_bits >= 1 and tag_bits >= 2")
        self._lengths = geometric_history_lengths(min_history, max_history, num_tables)
        self._index_bits = table_index_bits
        self._tag_bits = tag_bits
        self._index_mask = mask(table_index_bits)
        self._tag_mask = mask(tag_bits)
        self._useful_max = (1 << useful_bits) - 1
        self._useful_bits = useful_bits
        self._reset_period = reset_period
        self._rng = DeterministicRNG(seed)

        self._bimodal: List[int] = [0] * (1 << 12)
        size = 1 << table_index_bits
        self._tags: List[List[int]] = [[-1] * size for _ in self._lengths]
        self._ctrs: List[List[int]] = [[0] * size for _ in self._lengths]
        self._useful: List[List[int]] = [[0] * size for _ in self._lengths]
        # Alternate-prediction preference counter (USE_ALT_ON_NA).
        self._use_alt = 0
        # PC shift of each component's index hash.
        self._pc_shifts = [table_index_bits - table for table in range(num_tables)]
        # Global history as a fixed circular buffer: ``_history[(head + i) %
        # len]`` is history bit ``i`` (0 = youngest). A plain list with
        # ``insert(0)`` costs O(max_history) per branch; the cursor is O(1).
        self._hist_size = max(self._lengths) + 1
        self._history: List[int] = [0] * self._hist_size
        self._hist_head = 0
        # Folded history registers. fold(history[0:length], width) is kept
        # incrementally: shifting a bit in masks to ``width`` bits, then the
        # bit leaving the window is XORed back in at ``length % width``.
        # Each component needs three folds of its history: the index
        # (index_bits wide) and two tag folds (tag_bits and tag_bits - 1).
        # They shift the same bits, so one int per component packs them as
        # fields [index | tag0 | tag1] from bit 0 and all three update at once.
        widths = (table_index_bits, tag_bits, tag_bits - 1)
        bases = (0, table_index_bits, table_index_bits + tag_bits)
        self._tag0_base = bases[1]
        self._tag1_base = bases[2]
        self._folds = [0] * num_tables
        # Bit 0 of every field takes the new bit; bits carried out of a
        # field's top into the next field's bit 0 are masked off.
        self._fold_insert = sum(1 << base for base in bases)
        self._fold_keep = mask(sum(widths)) & ~self._fold_insert
        self._fold_outgoing = [
            sum(1 << (base + length % width) for base, width in zip(bases, widths))
            for length in self._lengths
        ]
        self._branch_count = 0

    # -- indexing -----------------------------------------------------------

    def _slice_keys(
        self, pcs: Sequence[int], bits: Sequence[int]
    ) -> Tuple[List[Tuple[Tuple[int, ...], Tuple[int, ...]]], List[int]]:
        """Each branch's per-component (indices, tags), and the folds after.

        ``pcs`` and ``bits`` are a slice of conditional branches and their
        history bits (``taken ^ (pc & 1)``), oldest first. A branch's keys
        read the folds before its own bit shifts in. The bit leaving
        component ``t``'s window at slice step ``j`` is the one shifted in
        ``length_t`` branches earlier: from the ring before the slice, from
        ``bits`` after it. Nothing here mutates the predictor.
        """
        history = self._history
        head = self._hist_head
        span = self._hist_size - 1  # the longest history length
        ring = history[head:] + history[:head]  # youngest first
        # The last ``span`` bits before the slice, oldest first, then the slice.
        stream = ring[span - 1 :: -1] + list(bits)
        count = len(pcs)
        index_mask = self._index_mask
        tag_mask = self._tag_mask
        tag0 = self._tag0_base
        tag1 = self._tag1_base
        keep = self._fold_keep
        insert = self._fold_insert
        adds = [insert if bit else 0 for bit in bits]
        table_indices = []
        table_tags = []
        folds = []
        for fold, length, outgoing, shift in zip(
            self._folds, self._lengths, self._fold_outgoing, self._pc_shifts
        ):
            indices = []
            tags = []
            index_append = indices.append
            tag_append = tags.append
            first = span - length
            for pc, add, out in zip(pcs, adds, stream[first : first + count]):
                index_append((pc ^ (pc >> shift) ^ fold) & index_mask)
                tag_append((pc ^ (fold >> tag0) ^ ((fold >> tag1) << 1)) & tag_mask)
                fold = ((fold << 1) & keep) ^ add
                if out:
                    fold ^= outgoing
            table_indices.append(indices)
            table_tags.append(tags)
            folds.append(fold)
        return list(zip(zip(*table_indices), zip(*table_tags))), folds

    def _predict_at(
        self, pc: int, indices: Sequence[int], tags: Sequence[int]
    ) -> Tuple[Optional[int], bool, bool]:
        """(provider, alternate prediction, final prediction) at one
        branch's keys. The provider is the longest-history tag match (None:
        the bimodal base provides), the alternate the next one. A
        just-allocated-looking provider (weakest counter, not yet useful)
        defers to the alternate while ``_use_alt >= 0``."""
        table_tags = self._tags
        ctrs = self._ctrs
        provider = alternate = None
        for table in range(len(table_tags) - 1, -1, -1):
            if table_tags[table][indices[table]] == tags[table]:
                if provider is not None:
                    alternate = table
                    break
                provider = table
        if alternate is not None:
            alt_taken = ctrs[alternate][indices[alternate]] >= 0
        else:
            alt_taken = self._bimodal[pc & 0xFFF] >= 0
        if provider is None:
            return None, alt_taken, alt_taken
        index = indices[provider]
        counter = ctrs[provider][index]
        if (
            self._use_alt >= 0
            and counter in (0, -1)
            and self._useful[provider][index] == 0
        ):
            return provider, alt_taken, alt_taken
        return provider, alt_taken, counter >= 0

    # -- BranchPredictor interface -------------------------------------------

    def predict(self, pc: int) -> bool:
        (indices, tags), = self._slice_keys((pc,), (0,))[0]
        return self._predict_at(pc, indices, tags)[2]

    def update(self, pc: int, taken: bool) -> None:
        self.observe_stretch(((pc, BranchKind.CONDITIONAL, taken, 0),))

    def observe(self, pc: int, kind, taken: bool, target: int) -> bool:
        """Predict-then-train one branch: a stretch of one."""
        return self.observe_stretch(((pc, kind, taken, target),))[0]

    def observe_stretch(
        self, branches: Iterable[Tuple[int, BranchKind, bool, int]]
    ) -> List[bool]:
        """Observe a stretch of branches in order; True for each mispredicted one.

        Each branch is ``(pc, kind, taken, target)``, as :meth:`observe`
        takes it, and the stretch leaves the predictor exactly as observing
        them one by one would. The folded histories depend only on the
        conditional outcomes, so the stretch goes in slices of at most
        :data:`SLICE_BRANCHES` branches: one loop per component computes
        every conditional branch's keys (:meth:`_slice_keys`), then the
        slice trains branch by branch. Other kinds keep the base class's
        handling, in order. ``branches`` may be a generator; a slice at a
        time bounds the branches and keys held.
        """
        verdicts: List[bool] = []
        append = verdicts.append
        conditional = BranchKind.CONDITIONAL
        other = BranchPredictor.observe
        train = self._train
        branches = iter(branches)
        while True:
            part = list(islice(branches, SLICE_BRANCHES))
            if not part:
                return verdicts
            pcs = []
            bits = []
            for pc, kind, taken, _ in part:
                if kind is conditional:
                    pcs.append(pc)
                    bits.append(taken ^ (pc & 1))
            keys = iter(())
            if pcs:
                keys, self._folds = self._slice_keys(pcs, bits)
                self._shift_in(bits)
                keys = iter(keys)
            for pc, kind, taken, target in part:
                if kind is conditional:
                    append(train(pc, taken, *next(keys)))
                else:
                    append(other(self, pc, kind, taken, target))

    # -- internals -----------------------------------------------------------

    def _train(
        self, pc: int, taken: bool, indices: Sequence[int], tags: Sequence[int]
    ) -> bool:
        """Predict and train one conditional branch at its keys; True if
        mispredicted. The keys serve the search, the prediction, the
        training and the allocation."""
        provider, alt_taken, prediction = self._predict_at(pc, indices, tags)
        if provider is not None:
            index = indices[provider]
            ctrs = self._ctrs[provider]
            counter = ctrs[index]
            provider_taken = counter >= 0
            if provider_taken != alt_taken:
                # Track whether the alternate would have been better for
                # weak entries.
                useful = self._useful[provider]
                if counter in (0, -1) and useful[index] == 0:
                    if alt_taken == taken:
                        if self._use_alt < 7:
                            self._use_alt += 1
                    elif self._use_alt > -8:
                        self._use_alt -= 1
                # Usefulness: provider correct where the alternate was wrong.
                if provider_taken == taken:
                    if useful[index] < self._useful_max:
                        useful[index] += 1
                elif useful[index] > 0:
                    useful[index] -= 1
            if taken:
                if counter < 3:
                    ctrs[index] = counter + 1
            elif counter > -4:
                ctrs[index] = counter - 1
        else:
            bimodal = self._bimodal
            slot = pc & 0xFFF
            counter = bimodal[slot]
            if taken:
                if counter < 1:
                    bimodal[slot] = counter + 1
            elif counter > -2:
                bimodal[slot] = counter - 1

        # Allocate on misprediction in a longer-history table.
        if prediction != taken:
            start = 0 if provider is None else provider + 1
            self._allocate(indices, tags, taken, start)

        self._branch_count += 1
        if self._branch_count % self._reset_period == 0:
            for useful in self._useful:
                useful[:] = [0] * len(useful)
        return prediction != taken

    def _allocate(
        self,
        indices: Sequence[int],
        tags: Sequence[int],
        taken: bool,
        start_table: int,
    ) -> None:
        useful = self._useful
        candidates = [
            table
            for table in range(start_table, len(useful))
            if useful[table][indices[table]] == 0
        ]
        if not candidates:
            # Decay usefulness so future allocations can succeed.
            for table in range(start_table, len(useful)):
                if useful[table][indices[table]] > 0:
                    useful[table][indices[table]] -= 1
            return
        # Prefer the shortest candidate, with a 1/2 chance of skipping to the
        # next (Seznec's anti-ping-pong allocation randomisation).
        chosen = candidates[0]
        if len(candidates) > 1 and self._rng.one_in(2):
            chosen = candidates[1]
        index = indices[chosen]
        self._tags[chosen][index] = tags[chosen]
        self._ctrs[chosen][index] = 0 if taken else -1
        useful[chosen][index] = 0

    def _shift_in(self, bits: Sequence[int]) -> None:
        """Push a slice's history bits into the ring, oldest first."""
        history = self._history
        head = self._hist_head
        size = self._hist_size
        for bit in bits:
            head = (head - 1) % size
            history[head] = bit
        self._hist_head = head

    def storage_bits(self) -> int:
        tagged = len(self._lengths) * (1 << self._index_bits) * (
            self._tag_bits + 3 + self._useful_bits
        )
        return tagged + len(self._bimodal) * 2 + max(self._lengths)
