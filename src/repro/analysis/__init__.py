"""Result analysis: figure/table computation and plain-text rendering.

Each ``figNN_*`` function in :mod:`repro.analysis.figures` computes the data
behind one figure of the paper, running its cells through a
:class:`~repro.harness.sweep.SweepRunner` (:func:`~repro.analysis.figures.run_grid`),
and :mod:`repro.analysis.report` renders aligned text tables — the benchmark
harness prints exactly these.
"""

from repro.analysis.report import format_table
from repro.analysis import figures

__all__ = ["format_table", "figures"]
