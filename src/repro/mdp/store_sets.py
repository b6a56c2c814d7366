"""Store Sets memory dependence predictor (Chrysos & Emer, ISCA 1998).

Two tagless tables (Sec. II-A):

* **SSIT** (Store Set Identifier Table), indexed by load/store PC: a valid
  bit plus an SSID.
* **LFST** (Last Fetched Store Table), indexed by SSID: a valid bit plus the
  dynamic id of the most recently fetched store of the set.

On a memory-order violation the load and store PCs are placed in the same
set, creating a new SSID or merging existing ones (both take the smaller
SSID). Dispatching stores look up their SSID, become dependent on the last
fetched store of the set (serialising the set), and then leave their own id
in the LFST. Dispatching loads become dependent on the last fetched store of
their set. The tables are cleared periodically to undo pathological merging.

Weaknesses the paper measures: set merging converges unrelated stores into
one serialised set, and with multiple in-flight instances of one static
store, loads always wait on the *youngest* instance (Sec. VI-C).
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.bitops import ceil_log2, mask
from repro.mdp.base import (
    NO_DEPENDENCE,
    LoadDispatchInfo,
    MDPredictor,
    Prediction,
    StoreDispatchInfo,
    ViolationInfo,
)


class StoreSetsPredictor(MDPredictor):
    """Store Sets with the paper's Table II configuration by default."""

    name = "store-sets"
    trains_at_commit = False

    def __init__(
        self,
        ssit_entries: int = 8192,
        lfst_entries: int = 4096,
        ssid_bits: int = 12,
        store_id_bits: int = 10,
        reset_interval: int = 262_144,
    ) -> None:
        super().__init__()
        self._ssit_entries = ssit_entries
        self._ssit_shift = ceil_log2(ssit_entries)
        self._lfst_entries = lfst_entries
        self._ssid_bits = ssid_bits
        self._ssid_mask = mask(ssid_bits)
        self._store_id_bits = store_id_bits
        self._reset_interval = reset_interval

        self._ssit: List[Optional[int]] = [None] * ssit_entries  # SSID or None
        self._lfst: List[Optional[int]] = [None] * lfst_entries  # store seq or None
        self._next_ssid = 0
        self._accesses = 0

    # -- indexing --------------------------------------------------------------

    def _ssit_index(self, pc: int) -> int:
        return (pc ^ (pc >> self._ssit_shift)) % self._ssit_entries

    def _lfst_index(self, ssid: int) -> int:
        return ssid % self._lfst_entries

    def _tick(self) -> None:
        self._accesses += 1
        if self._accesses % self._reset_interval == 0:
            self._ssit = [None] * self._ssit_entries
            self._lfst = [None] * self._lfst_entries

    def _allocate_ssid(self) -> int:
        ssid = self._next_ssid
        self._next_ssid = (self._next_ssid + 1) & self._ssid_mask
        return ssid

    # -- predictor interface -----------------------------------------------------

    def on_load_dispatch(self, load: LoadDispatchInfo) -> Prediction:
        self.stats.load_predictions += 1
        self.stats.table_reads += 1  # SSIT
        self._tick()
        ssid = self._ssit[self._ssit_index(load.pc)]
        if ssid is None:
            return NO_DEPENDENCE
        self.stats.table_reads += 1  # LFST
        store_seq = self._lfst[self._lfst_index(ssid)]
        if store_seq is None:
            return NO_DEPENDENCE
        self.stats.dependences_predicted += 1
        return Prediction(store_seqs=(store_seq,))

    def on_store_dispatch(self, store: StoreDispatchInfo) -> Prediction:
        self.stats.table_reads += 1  # SSIT
        self._tick()
        ssid = self._ssit[self._ssit_index(store.pc)]
        if ssid is None:
            return NO_DEPENDENCE
        lfst_index = self._lfst_index(ssid)
        self.stats.table_reads += 1  # LFST
        previous = self._lfst[lfst_index]
        self._lfst[lfst_index] = store.seq
        self.stats.table_writes += 1
        if previous is None:
            return NO_DEPENDENCE
        # Serialise the set: this store waits for the previous one.
        return Prediction(store_seqs=(previous,))

    def on_store_commit(self, store_seq: int, store_pc: int) -> None:
        """Invalidate the LFST slot if it still names this (now done) store.

        The pipeline's program-order processing cannot deliver this at the
        right *simulated* moment, so it does not call it; stale LFST entries
        instead expire naturally — the pipeline ignores waits on stores that
        have left the in-flight window, which is when real hardware would
        have invalidated the slot. The hook remains for unit tests and for
        event-driven hosts.
        """
        ssid = self._ssit[self._ssit_index(store_pc)]
        if ssid is None:
            return
        index = self._lfst_index(ssid)
        if self._lfst[index] == store_seq:
            self._lfst[index] = None
            self.stats.table_writes += 1

    def on_violation(self, violation: ViolationInfo) -> None:
        self.stats.trainings += 1
        load_index = self._ssit_index(violation.load_pc)
        store_index = self._ssit_index(violation.store_pc)
        load_ssid = self._ssit[load_index]
        store_ssid = self._ssit[store_index]
        if load_ssid is None and store_ssid is None:
            ssid = self._allocate_ssid()
            self._ssit[load_index] = ssid
            self._ssit[store_index] = ssid
        elif load_ssid is None:
            self._ssit[load_index] = store_ssid
        elif store_ssid is None:
            self._ssit[store_index] = load_ssid
        else:
            # The paper's merge rule: both sets converge on one SSID (the
            # declared rule picks the smaller identifier).
            winner = min(load_ssid, store_ssid)
            self._ssit[load_index] = winner
            self._ssit[store_index] = winner
        self.stats.table_writes += 2

    def storage_bits(self) -> int:
        ssit_bits = self._ssit_entries * (1 + self._ssid_bits)
        lfst_bits = self._lfst_entries * (1 + self._store_id_bits)
        return ssit_bits + lfst_bits
