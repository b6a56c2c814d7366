"""TAGE branch predictor (Seznec), used as the pipeline front end.

The paper's core uses TAGE-SC-L; this is a faithful plain TAGE — a bimodal
base predictor plus tagged components indexed with geometrically increasing
folded global history. The statistical corrector and loop predictor of
TAGE-SC-L buy a few percent of accuracy that does not change any MDP
conclusion, so they are omitted (documented fidelity note in DESIGN.md).

The implementation also doubles as the structural template the paper reuses
for prediction tables searched in parallel at several history lengths
(Sec. IV-B: "Tables are searched in parallel on each prediction, similar to
the structure of a TAGE branch prediction").
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.bitops import mask
from repro.common.rng import DeterministicRNG
from repro.frontend.branch_predictors import BranchPredictor
from repro.isa.microop import BranchKind


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

    def _keys(self, pc: int) -> Tuple[List[int], List[int]]:
        """Each component's (index, tag) for ``pc`` at the current history."""
        index_mask = self._index_mask
        tag_mask = self._tag_mask
        tag0_base = self._tag0_base
        tag1_base = self._tag1_base
        folds = self._folds
        indices = [
            (pc ^ (pc >> shift) ^ fold) & index_mask
            for shift, fold in zip(self._pc_shifts, folds)
        ]
        tags = [
            (pc ^ (fold >> tag0_base) ^ ((fold >> tag1_base) << 1)) & tag_mask
            for fold in folds
        ]
        return indices, tags

    def _lookup(
        self, indices: List[int], tags: List[int]
    ) -> Tuple[Optional[int], Optional[int]]:
        """Return (provider_table, alternate_table), longest-history match first."""
        provider = None
        table_tags = self._tags
        for table in range(len(table_tags) - 1, -1, -1):
            if table_tags[table][indices[table]] == tags[table]:
                if provider is not None:
                    return provider, table
                provider = table
        return provider, None

    def _alt_taken(self, pc: int, indices: List[int], alternate: Optional[int]) -> bool:
        if alternate is None:
            return self._bimodal[pc & 0xFFF] >= 0
        return self._ctrs[alternate][indices[alternate]] >= 0

    def _weak_new(self, table: int, index: int) -> bool:
        """A just-allocated-looking provider: weakest counter, not yet useful."""
        return self._ctrs[table][index] in (0, -1) and self._useful[table][index] == 0

    # -- BranchPredictor interface -------------------------------------------

    def _final_prediction(
        self,
        pc: int,
        indices: List[int],
        provider: Optional[int],
        alternate: Optional[int],
    ) -> bool:
        """The TAGE prediction given an already-computed :meth:`_lookup`."""
        if provider is None:
            return self._bimodal[pc & 0xFFF] >= 0
        index = indices[provider]
        if self._use_alt >= 0 and self._weak_new(provider, index):
            return self._alt_taken(pc, indices, alternate)
        return self._ctrs[provider][index] >= 0

    def predict(self, pc: int) -> bool:
        indices, tags = self._keys(pc)
        provider, alternate = self._lookup(indices, tags)
        return self._final_prediction(pc, indices, provider, alternate)

    def update(self, pc: int, taken: bool) -> None:
        self._resolve(pc, taken)

    def observe(self, pc: int, kind, taken: bool, target: int) -> bool:
        """Predict-then-train with the table search shared between the two.

        The base-class ``observe`` calls ``predict`` then ``update``, which
        would search the tagged tables twice. Nothing mutates between the
        two phases, so each component's index and tag are computed once and
        serve the search, the prediction, the training and the allocation.
        """
        if kind is BranchKind.CONDITIONAL:
            return self._resolve(pc, taken)
        return super().observe(pc, kind, taken, target)

    def _resolve(self, pc: int, taken: bool) -> bool:
        """Predict and train one conditional branch; True if mispredicted."""
        indices, tags = self._keys(pc)
        provider, alternate = self._lookup(indices, tags)
        prediction = self._final_prediction(pc, indices, provider, alternate)
        if provider is not None:
            index = indices[provider]
            ctrs = self._ctrs[provider]
            counter = ctrs[index]
            provider_taken = counter >= 0
            alt_taken = self._alt_taken(pc, indices, alternate)
            if provider_taken != alt_taken:
                # Track whether the alternate would have been better for
                # weak entries.
                if self._weak_new(provider, index):
                    if alt_taken == taken:
                        if self._use_alt < 7:
                            self._use_alt += 1
                    elif self._use_alt > -8:
                        self._use_alt -= 1
                # Usefulness: provider correct where the alternate was wrong.
                useful = self._useful[provider]
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

        self._shift_history(pc, taken)
        self._branch_count += 1
        if self._branch_count % self._reset_period == 0:
            for useful in self._useful:
                useful[:] = [0] * len(useful)
        return prediction != taken

    # -- internals -----------------------------------------------------------

    def _allocate(
        self, indices: List[int], tags: List[int], taken: bool, start_table: int
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

    def _shift_history(self, pc: int, taken: bool) -> None:
        history = self._history
        head = self._hist_head
        size = self._hist_size
        folds = self._folds
        keep = self._fold_keep
        new_bit = int(taken) ^ (pc & 1)
        insert = self._fold_insert if new_bit else 0
        for table, (length, outgoing) in enumerate(
            zip(self._lengths, self._fold_outgoing)
        ):
            fold = ((folds[table] << 1) & keep) | insert
            if history[(head + length - 1) % size]:
                fold ^= outgoing
            folds[table] = fold
        head = (head - 1) % size
        history[head] = new_bit
        self._hist_head = head

    def storage_bits(self) -> int:
        tagged = len(self._lengths) * (1 << self._index_bits) * (
            self._tag_bits + 3 + self._useful_bits
        )
        return tagged + len(self._bimodal) * 2 + max(self._lengths)
