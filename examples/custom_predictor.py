#!/usr/bin/env python3
"""Register a custom memory dependence predictor and sweep it by name.

Implements the simplest trainable MDP — a PC-indexed blacklist: a load
that has ever violated waits for all older stores forever after (a
degenerate one-entry-per-PC Store Sets). It is deliberately naive; the
point is the plumbing:

1. subclass ``repro.mdp.base.MDPredictor``;
2. ``register_predictor("pc-blacklist", PCBlacklistPredictor)``;
3. every name-based API — ``simulate``, ``RunSpec``, sweep cells, the
   figure helpers (``repro.analysis.figures.run_grid``) — can now run it
   like a built-in. Keyword arguments of a factory become predictor
   variants: ``"pc-blacklist(k=v)"``, as with ``"phast(target_bits=0)"``.

Usage:
    python examples/custom_predictor.py [workload] [num_ops]
"""

import sys

from repro import RunSpec, register_predictor, run_spec
from repro.analysis.report import format_table
from repro.mdp.base import NO_DEPENDENCE, MDPredictor, Prediction


class PCBlacklistPredictor(MDPredictor):
    """Loads that ever violated wait for every older store, forever."""

    name = "pc-blacklist"

    def __init__(self) -> None:
        super().__init__()
        self._bad_pcs = set()

    def on_load_dispatch(self, load) -> Prediction:
        self.stats.load_predictions += 1
        self.stats.table_reads += 1
        if load.pc in self._bad_pcs:
            self.stats.dependences_predicted += 1
            return Prediction(wait_all_older=True)
        return NO_DEPENDENCE

    def on_violation(self, violation) -> None:
        self.stats.trainings += 1
        self.stats.table_writes += 1
        self._bad_pcs.add(violation.load_pc)

    def storage_bits(self) -> int:
        # One 64-bit PC per blacklisted load (an unlimited-storage study
        # predictor; a real design would hash into a fixed table).
        return 64 * len(self._bad_pcs)


register_predictor("pc-blacklist", PCBlacklistPredictor)


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "511.povray"
    num_ops = int(sys.argv[2]) if len(sys.argv) > 2 else 30_000

    spec = RunSpec(workload=workload, predictor="ideal", num_ops=num_ops)
    rows = []
    for name in ("ideal", "pc-blacklist", "always-speculate", "store-sets"):
        result = run_spec(spec.with_overrides(predictor=name))
        rows.append(
            [
                name,
                result.ipc,
                result.violation_mpki,
                result.false_positive_mpki,
            ]
        )
    print(
        format_table(
            ["predictor", "IPC", "viol MPKI", "false-dep MPKI"],
            rows,
            title=f"{workload}, {num_ops} ops — custom predictor via registry",
        )
    )


if __name__ == "__main__":
    main()
