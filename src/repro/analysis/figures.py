"""Computation behind every figure and table of the paper.

Each function takes a :class:`~repro.harness.sweep.SweepRunner`, the
workload list and the trace length, runs its cells through
:func:`run_grid` and returns plain data structures the benchmark harness
formats and asserts on. The runner's result store holds every finished
cell, so figures sharing cells — e.g. the ideal baseline — simulate them
once. Parameter sweeps are predictor variants (``"phast(target_bits=0)"``,
:func:`~repro.sim.simulator.predictor_variant`), each its own stored cell.

Figure index (paper -> function):

* Fig. 1  -> :func:`fig01_mpki_history`
* Fig. 2  -> :func:`fig02_generations`
* Fig. 4  -> :func:`fig04_multi_store`
* Fig. 6  -> :func:`fig06_unlimited_sweep`
* Fig. 7/8/9 -> :func:`fig07_09_unlimited_phast`
* Fig. 10 -> :func:`fig10_conflict_length_histogram`
* Fig. 11 -> :func:`fig11_max_history`
* Fig. 12 -> :func:`fig12_forwarding_filter`
* Fig. 13 -> :func:`fig13_storage_tradeoff`
* Fig. 14/15 -> :func:`fig14_15_per_application`
* Fig. 16 -> :func:`fig16_energy`
* Table II -> :mod:`repro.mdp.storage`
* headline numbers (Sec. VI-C) -> :func:`headline_summary`
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.stats import Histogram, geometric_mean
from repro.core.config import GENERATIONS, CoreConfig
from repro.frontend.branch_predictors import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    BranchPredictor,
    CombiningPredictor,
    GSharePredictor,
    PerceptronPredictor,
    TwoLevelLocalPredictor,
)
from repro.frontend.tage import TAGEPredictor
from repro.harness.sweep import SweepRunner, build_cells
from repro.isa.trace import Trace
from repro.mdp.energy import EnergyModel
from repro.mdp.unlimited import UnlimitedPHASTPredictor
from repro.sim.metrics import SimResult
from repro.sim.simulator import get_trace, make_predictor, predictor_variant

#: (workload, predictor label) -> result, for one core configuration.
Grid = Dict[Tuple[str, str], SimResult]

#: The five limited predictors of the main evaluation (Figs. 13-16).
MAIN_PREDICTORS: Tuple[str, ...] = (
    "store-sets",
    "nosq",
    "mdp-tage",
    "mdp-tage-s",
    "phast",
)

#: The historical roster of branch predictors for Fig. 1's gray circles.
BRANCH_PREDICTOR_ROSTER: Tuple[Callable[[], BranchPredictor], ...] = (
    AlwaysTakenPredictor,
    BimodalPredictor,
    TwoLevelLocalPredictor,
    GSharePredictor,
    CombiningPredictor,
    PerceptronPredictor,
    TAGEPredictor,
)


def run_grid(
    runner: SweepRunner,
    workloads: Sequence[str],
    predictors: Sequence[str],
    num_ops: int,
    config: Optional[CoreConfig] = None,
) -> Grid:
    """Run every (workload, predictor) cell through ``runner``.

    Cells run on the batch backend, so every cell of a trace shares one
    plan; cells the runner's store already holds are read back, not
    simulated. The runner finishes a sweep with whatever succeeded; a
    figure missing a cell would be silently wrong, so any failed cell
    raises, naming them.
    """
    cells = build_cells(
        workloads, dict.fromkeys(predictors), config, num_ops, backend="batch"
    )
    report = runner.run(cells)
    if report.failures:
        raise RuntimeError(
            f"{len(report.failures)} of {len(cells)} cells failed: "
            + "; ".join(
                f"{f.cell.get('workload')}/{f.cell.get('predictor')}: {f.message}"
                for f in report.failures
            )
        )
    return report.results


def normalize_to_ideal(
    results: Dict[str, SimResult], ideal: Dict[str, SimResult]
) -> Dict[str, float]:
    """Per-workload IPC normalised to the ideal predictor's IPC."""
    return {name: result.ipc / ideal[name].ipc for name, result in results.items()}


def mean_normalized_ipc(grid: Grid, workloads: Sequence[str], predictor: str) -> float:
    """Geometric-mean IPC normalised to the ideal predictor (paper metric)."""
    return geometric_mean(
        [grid[name, predictor].ipc / grid[name, "ideal"].ipc for name in workloads]
    )


def mean_mpki(
    grid: Grid, workloads: Sequence[str], predictor: str
) -> Tuple[float, float]:
    """(mean violation MPKI, mean false-positive MPKI) over workloads."""
    results = [grid[name, predictor] for name in workloads]
    return (
        sum(result.violation_mpki for result in results) / len(results),
        sum(result.false_positive_mpki for result in results) / len(results),
    )


# --------------------------------------------------------------------------- #
# Fig. 1 — 30 years of MPKI
# --------------------------------------------------------------------------- #


def standalone_branch_mpki(predictor: BranchPredictor, trace: Trace) -> float:
    """Branch MPKI of a predictor replayed over a trace's branch stream."""
    mispredicts = 0
    for op in trace:
        if op.is_branch:
            branch = op.branch
            if predictor.observe(op.pc, branch.kind, branch.taken, branch.target):
                mispredicts += 1
    return mispredicts * 1000.0 / len(trace)


@dataclass(frozen=True)
class Fig01Point:
    name: str
    year: int
    kind: str  # "branch" or "mdp"
    mpki: float  # direction/violation MPKI
    false_dep_mpki: float = 0.0  # MDP only (the dotted green extension)


def fig01_mpki_history(
    runner: SweepRunner, workloads: Sequence[str], num_ops: int
) -> List[Fig01Point]:
    """Fig. 1: branch- and memory-dependence-predictor MPKI over the years.

    Branch predictors replay the suite's branch streams standalone; memory
    dependence predictors run in the Nehalem-like pipeline (the paper reports
    MDP MPKI on a Nehalem-like core for this figure).
    """
    points: List[Fig01Point] = []
    for factory in BRANCH_PREDICTOR_ROSTER:
        mpkis = []
        for name in workloads:
            trace = get_trace(name, num_ops)
            mpkis.append(standalone_branch_mpki(factory(), trace))
        sample = factory()
        points.append(
            Fig01Point(
                name=sample.name,
                year=sample.year,
                kind="branch",
                mpki=sum(mpkis) / len(mpkis),
            )
        )
    mdp_years = {
        "store-sets": 1998,
        "cht": 1999,
        "store-vector": 2006,
        "nosq": 2006,
        "mdp-tage": 2018,
        "phast": 2024,
    }
    grid = run_grid(runner, workloads, list(mdp_years), num_ops, GENERATIONS["nehalem"])
    for predictor, year in mdp_years.items():
        violations, false_deps = mean_mpki(grid, workloads, predictor)
        points.append(
            Fig01Point(
                name=predictor,
                year=year,
                kind="mdp",
                mpki=violations,
                false_dep_mpki=false_deps,
            )
        )
    return points


# --------------------------------------------------------------------------- #
# Fig. 2 — processor generations
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig02Row:
    generation: str
    year: int
    predictor: str
    violation_mpki: float
    false_dep_mpki: float
    gap_vs_ideal_percent: float


def fig02_generations(
    runner: SweepRunner,
    workloads: Sequence[str],
    num_ops: int,
    predictors: Sequence[str] = ("store-sets", "nosq", "mdp-tage", "phast"),
) -> List[Fig02Row]:
    """Fig. 2: MDP MPKI (a) and gap to ideal (b) across core generations."""
    rows: List[Fig02Row] = []
    for gen_name, config in GENERATIONS.items():
        grid = run_grid(runner, workloads, [*predictors, "ideal"], num_ops, config)
        for predictor in predictors:
            violations, false_deps = mean_mpki(grid, workloads, predictor)
            normalized = mean_normalized_ipc(grid, workloads, predictor)
            rows.append(
                Fig02Row(
                    generation=gen_name,
                    year=config.year,
                    predictor=predictor,
                    violation_mpki=violations,
                    false_dep_mpki=false_deps,
                    gap_vs_ideal_percent=(1.0 - normalized) * 100.0,
                )
            )
    return rows


# --------------------------------------------------------------------------- #
# Fig. 4 — loads depending on multiple stores
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig04Row:
    workload: str
    multi_store_percent: float  # of executed loads
    in_order_percent: float  # of multi-store loads whose writers ran in order


def fig04_multi_store(
    runner: SweepRunner, workloads: Sequence[str], num_ops: int
) -> List[Fig04Row]:
    """Fig. 4: percentage of loads that depend on multiple stores."""
    grid = run_grid(runner, workloads, ["ideal"], num_ops)
    rows: List[Fig04Row] = []
    for name in workloads:
        result = grid[name, "ideal"]
        stats = result.pipeline
        multi = stats.multi_store_loads
        rows.append(
            Fig04Row(
                workload=name,
                multi_store_percent=100.0 * multi / max(1, stats.loads),
                in_order_percent=100.0 * stats.multi_store_inorder / max(1, multi),
            )
        )
    return rows


# --------------------------------------------------------------------------- #
# Fig. 6 — unlimited predictor study
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig06Point:
    label: str
    normalized_ipc: float
    mean_paths: float


def fig06_unlimited_sweep(
    runner: SweepRunner,
    workloads: Sequence[str],
    num_ops: int,
    nosq_lengths: Sequence[int] = (1, 2, 4, 6, 8, 12, 16),
) -> List[Fig06Point]:
    """Fig. 6: UnlimitedNoSQ history sweep vs UnlimitedMDPTAGE vs UnlimitedPHAST."""
    variants = {
        f"unlimited-nosq-h{length}": predictor_variant(
            "unlimited-nosq", history_branches=length
        )
        for length in nosq_lengths
    }
    variants["unlimited-mdp-tage"] = "unlimited-mdp-tage"
    variants["unlimited-phast"] = "unlimited-phast"
    grid = run_grid(runner, workloads, [*variants.values(), "ideal"], num_ops)
    points: List[Fig06Point] = []
    for label, predictor in variants.items():
        paths = [grid[w, predictor].paths_tracked or 0 for w in workloads]
        points.append(
            Fig06Point(
                label,
                mean_normalized_ipc(grid, workloads, predictor),
                sum(paths) / len(paths),
            )
        )
    return points


# --------------------------------------------------------------------------- #
# Figs. 7, 8, 9 — UnlimitedPHAST per application
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class UnlimitedPhastRow:
    workload: str
    normalized_ipc: float  # Fig. 7
    violation_mpki: float  # Fig. 8 (red)
    false_dep_mpki: float  # Fig. 8 (green)
    paths: int  # Fig. 9


def fig07_09_unlimited_phast(
    runner: SweepRunner, workloads: Sequence[str], num_ops: int
) -> List[UnlimitedPhastRow]:
    """Figs. 7-9: UnlimitedPHAST IPC, MPKI and path count per application."""
    grid = run_grid(runner, workloads, ["unlimited-phast", "ideal"], num_ops)
    rows: List[UnlimitedPhastRow] = []
    for name in workloads:
        result = grid[name, "unlimited-phast"]
        ideal = grid[name, "ideal"]
        rows.append(
            UnlimitedPhastRow(
                workload=name,
                normalized_ipc=result.ipc / ideal.ipc,
                violation_mpki=result.violation_mpki,
                false_dep_mpki=result.false_positive_mpki,
                paths=result.paths_tracked or 0,
            )
        )
    return rows


# --------------------------------------------------------------------------- #
# Fig. 10 — conflicts per history length
# --------------------------------------------------------------------------- #


def fig10_conflict_length_histogram(
    workloads: Sequence[str], num_ops: int
) -> Histogram:
    """Fig. 10: unique conflicts per required history length (suite-wide).

    Runs UnlimitedPHAST (which records the exact N+1 of every unique conflict
    before clamping) and merges the per-application histograms.
    """
    from repro.sim.simulator import simulate
    from repro.sim.spec import RunSpec

    merged = Histogram()
    for name in workloads:
        predictor = UnlimitedPHASTPredictor()
        simulate(RunSpec(workload=name, predictor=predictor, num_ops=num_ops))
        merged.merge(predictor.conflict_length_histogram)
    return merged


# --------------------------------------------------------------------------- #
# Fig. 11 — max history length clamp
# --------------------------------------------------------------------------- #


def fig11_max_history(
    runner: SweepRunner,
    workloads: Sequence[str],
    num_ops: int,
    clamps: Sequence[Optional[int]] = (4, 8, 16, 32, 64, None),
) -> Dict[str, float]:
    """Fig. 11: UnlimitedPHAST IPC at several maximum history lengths."""
    variants = {
        f"unlimited-phast-max{'inf' if clamp is None else clamp}": (
            predictor_variant("unlimited-phast", max_history=clamp)
        )
        for clamp in clamps
    }
    grid = run_grid(runner, workloads, [*variants.values(), "ideal"], num_ops)
    return {
        label: mean_normalized_ipc(grid, workloads, predictor)
        for label, predictor in variants.items()
    }


# --------------------------------------------------------------------------- #
# Fig. 12 — forwarding filter
# --------------------------------------------------------------------------- #


def fig12_forwarding_filter(
    runner: SweepRunner,
    workloads: Sequence[str],
    num_ops: int,
    predictors: Sequence[str] = ("store-sets", "nosq", "mdp-tage", "phast"),
) -> Dict[str, Dict[str, float]]:
    """Fig. 12: normalised IPC with and without the Sec. IV-A1 FWD filter.

    Both modes are normalised to the FWD-on ideal predictor, as in the paper.
    """
    base_config = CoreConfig()
    # The ideal predictor itself, without the filter (strictness relaxed).
    nofwd_ideal = predictor_variant("ideal", strict=False)
    fwd = run_grid(runner, workloads, [*predictors, "ideal"], num_ops, base_config)
    nofwd = run_grid(
        runner,
        workloads,
        [*predictors, nofwd_ideal],
        num_ops,
        base_config.with_forwarding_filter(False),
    )

    def normalized(grid: Grid, predictor: str) -> float:
        return geometric_mean(
            [grid[w, predictor].ipc / fwd[w, "ideal"].ipc for w in workloads]
        )

    series: Dict[str, Dict[str, float]] = {
        predictor: {
            "fwd": normalized(fwd, predictor),
            "nofwd": normalized(nofwd, predictor),
        }
        for predictor in predictors
    }
    series["ideal"] = {"fwd": 1.0, "nofwd": normalized(nofwd, nofwd_ideal)}
    return series


# --------------------------------------------------------------------------- #
# Fig. 13 — performance versus storage
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig13Point:
    predictor: str
    storage_kb: float
    normalized_ipc: float


#: Fig. 13's size variants: the parameters that scale each predictor's
#: tables by ``f`` (``f = 1`` is the Table II configuration).
SCALED_PARAMETERS: Dict[str, Callable[[float], Dict[str, int]]] = {
    "store-sets": lambda f: {
        "ssit_entries": max(64, int(8192 * f)),
        "lfst_entries": max(32, int(4096 * f)),
    },
    "nosq": lambda f: {"entries_per_table": max(64, int(2048 * f))},
    "mdp-tage": lambda f: {"total_entries": max(96, int(16384 * f))},
    "mdp-tage-s": lambda f: {"total_entries": max(64, int(4096 * f))},
    "phast": lambda f: {"sets_per_table": max(8, int(128 * f))},
}


def scaled_variant(name: str, factor: float) -> str:
    """The label of ``name`` with its tables scaled by ``factor`` (Fig. 13)."""
    return predictor_variant(name, **SCALED_PARAMETERS[name](factor))


def fig13_storage_tradeoff(
    runner: SweepRunner,
    workloads: Sequence[str],
    num_ops: int,
    factors: Sequence[float] = (0.5, 1.0, 2.0),
) -> List[Fig13Point]:
    """Fig. 13: geometric-mean IPC vs storage for size-scaled predictors."""
    variants = [
        (name, scaled_variant(name, factor))
        for name in SCALED_PARAMETERS
        for factor in factors
    ]
    labels = [label for _, label in variants]
    grid = run_grid(runner, workloads, [*labels, "ideal"], num_ops)
    return [
        Fig13Point(
            name,
            make_predictor(label).storage_kb(),
            mean_normalized_ipc(grid, workloads, label),
        )
        for name, label in variants
    ]


# --------------------------------------------------------------------------- #
# Figs. 14 & 15 — per-application MPKI and IPC
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class PerAppRow:
    workload: str
    predictor: str
    violation_mpki: float
    false_dep_mpki: float
    normalized_ipc: float


def fig14_15_per_application(
    runner: SweepRunner,
    workloads: Sequence[str],
    num_ops: int,
    predictors: Sequence[str] = MAIN_PREDICTORS,
) -> List[PerAppRow]:
    """Figs. 14/15: per-application MPKI and ideal-normalised IPC."""
    grid = run_grid(runner, workloads, ["ideal", *predictors], num_ops)
    rows: List[PerAppRow] = []
    for predictor in predictors:
        for name in workloads:
            result = grid[name, predictor]
            rows.append(
                PerAppRow(
                    workload=name,
                    predictor=predictor,
                    violation_mpki=result.violation_mpki,
                    false_dep_mpki=result.false_positive_mpki,
                    normalized_ipc=result.ipc / grid[name, "ideal"].ipc,
                )
            )
    return rows


# --------------------------------------------------------------------------- #
# Fig. 16 — energy
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig16Row:
    predictor: str
    read_nj: float
    write_nj: float

    @property
    def total_nj(self) -> float:
        return self.read_nj + self.write_nj


def fig16_energy(
    runner: SweepRunner,
    workloads: Sequence[str],
    num_ops: int,
    predictors: Sequence[str] = MAIN_PREDICTORS,
) -> List[Fig16Row]:
    """Fig. 16: predictor energy (reads/writes) over the suite."""
    model = EnergyModel.calibrated()
    grid = run_grid(runner, workloads, predictors, num_ops)
    rows: List[Fig16Row] = []
    for predictor in predictors:
        reads = writes = 0
        for name in workloads:
            result = grid[name, predictor]
            reads += result.mdp.table_reads
            writes += result.mdp.table_writes
        read_nj, write_nj = model.total_energy_nj(predictor, reads, writes)
        rows.append(Fig16Row(predictor, read_nj, write_nj))
    return rows


# --------------------------------------------------------------------------- #
# Headline numbers (abstract / Sec. VI-C)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class HeadlineSummary:
    phast_gap_percent: float  # paper: 1.50
    unlimited_phast_gap_percent: float  # paper: 0.47
    speedup_vs_store_sets: float  # paper: 5.05
    speedup_vs_nosq: float  # paper: 1.29
    speedup_vs_mdp_tage: float  # paper: 3.04
    speedup_vs_mdp_tage_s: float  # paper: 2.10
    phast_total_mpki: float  # paper: 0.766
    mpki_reduction_vs_nosq_percent: float  # paper: 62.0


def headline_summary(
    runner: SweepRunner, workloads: Sequence[str], num_ops: int
) -> HeadlineSummary:
    """The abstract's quantitative claims, measured on this reproduction."""
    predictors = [*MAIN_PREDICTORS, "unlimited-phast"]
    grid = run_grid(runner, workloads, [*predictors, "ideal"], num_ops)
    normalized = {
        predictor: mean_normalized_ipc(grid, workloads, predictor)
        for predictor in predictors
    }
    phast = normalized["phast"]

    def speedup(baseline: str) -> float:
        return (phast / normalized[baseline] - 1.0) * 100.0

    phast_viol, phast_fp = mean_mpki(grid, workloads, "phast")
    nosq_viol, nosq_fp = mean_mpki(grid, workloads, "nosq")
    phast_total = phast_viol + phast_fp
    nosq_total = nosq_viol + nosq_fp
    return HeadlineSummary(
        phast_gap_percent=(1.0 - phast) * 100.0,
        unlimited_phast_gap_percent=(1.0 - normalized["unlimited-phast"]) * 100.0,
        speedup_vs_store_sets=speedup("store-sets"),
        speedup_vs_nosq=speedup("nosq"),
        speedup_vs_mdp_tage=speedup("mdp-tage"),
        speedup_vs_mdp_tage_s=speedup("mdp-tage-s"),
        phast_total_mpki=phast_total,
        mpki_reduction_vs_nosq_percent=(1.0 - phast_total / nosq_total) * 100.0
        if nosq_total > 0
        else 0.0,
    )
