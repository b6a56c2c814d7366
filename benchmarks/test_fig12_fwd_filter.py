"""Fig. 12 — effect of filtering squashes through forwarding (Sec. IV-A1).

Paper shape: every predictor improves with the FWD filter; single-store
distance predictors gain ~2%, and PHAST gains the most (~5%) because without
the filter it learns older incorrect dependences with longer histories.
"""

from benchmarks.conftest import BENCH_OPS, SUBSET, run_once
from repro.analysis import figures
from repro.analysis.report import format_table

PREDICTORS = ("store-sets", "nosq", "mdp-tage", "phast")


def test_fig12_forwarding_filter(runner, emit, benchmark):
    series = run_once(
        benchmark,
        lambda: figures.fig12_forwarding_filter(
            runner, SUBSET, BENCH_OPS, predictors=PREDICTORS
        ),
    )

    emit(
        "fig12_fwd_filter",
        format_table(
            ["predictor", "FWD", "No FWD", "benefit %"],
            [
                [name, values["fwd"], values["nofwd"],
                 (values["fwd"] / values["nofwd"] - 1.0) * 100.0]
                for name, values in series.items()
            ],
            title="Fig. 12: IPC vs ideal with and without the forwarding filter",
        ),
    )

    # Every predictor benefits from (or is unharmed by) the filter.
    for name in PREDICTORS:
        assert series[name]["fwd"] >= series[name]["nofwd"] - 0.004, name

    # PHAST benefits at least as much as Store Sets (the paper's biggest
    # winner is PHAST at ~5% vs <1% for Store Sets).
    benefit = {
        name: series[name]["fwd"] - series[name]["nofwd"] for name in PREDICTORS
    }
    assert benefit["phast"] >= benefit["store-sets"] - 0.005

    # Even the ideal wait pattern loses something without the filter
    # (Fig. 3c squashes are unavoidable then).
    assert series["ideal"]["nofwd"] <= 1.0 + 1e-9
