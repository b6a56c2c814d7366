"""Simulation orchestration: one-call runs, metrics and the predictor registry."""

from repro.sim.intervals import IntervalWindow
from repro.sim.metrics import SimResult
from repro.sim.simulator import (
    PREDICTOR_FACTORIES,
    available_predictors,
    clear_trace_cache,
    default_num_ops,
    default_warmup_ops,
    get_trace,
    make_predictor,
    parse_predictor,
    predictor_variant,
    register_predictor,
    run_spec,
    simulate,
    trace_cache_info,
    unregister_predictor,
)
from repro.sim.spec import RunSpec

__all__ = [
    "SimResult",
    "RunSpec",
    "simulate",
    "run_spec",
    "make_predictor",
    "parse_predictor",
    "predictor_variant",
    "register_predictor",
    "unregister_predictor",
    "available_predictors",
    "PREDICTOR_FACTORIES",
    "default_num_ops",
    "default_warmup_ops",
    "get_trace",
    "clear_trace_cache",
    "trace_cache_info",
    "IntervalWindow",
]

