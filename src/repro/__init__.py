"""repro — reproduction of "Effective Context-Sensitive Memory Dependence
Prediction" (PHAST, Kim & Ros, HPCA 2024).

Public API tour (the supported surface is re-exported by :mod:`repro.api`):

>>> from repro.api import RunSpec, simulate
>>> result = simulate(RunSpec("511.povray", "phast"))
>>> result.ipc > 0
True

* :func:`repro.simulate` — run one :class:`~repro.sim.spec.RunSpec`.
* :class:`repro.api.SweepClient` — submit specs/grids to a ``repro serve``
  instance over the versioned v1 wire API.
* :mod:`repro.mdp` — PHAST, Store Sets, Store Vectors, CHT, NoSQ, MDP-TAGE,
  the unlimited study predictors and the ideal/blind oracles.
* :mod:`repro.workloads` — the synthetic SPEC CPU 2017-like suite.
* :mod:`repro.core` — the out-of-order pipeline timing model (Table I).
* :mod:`repro.sim` — one-call runs, the predictor registry and variants.
* :mod:`repro.analysis` — the computation behind every figure of the paper.

See DESIGN.md for the system inventory and EXPERIMENTS.md for paper-versus-
measured results on every table and figure.
"""

from repro.core.config import GENERATIONS, CoreConfig
from repro.mdp import (
    CHTPredictor,
    IdealPredictor,
    MDPredictor,
    MDPTagePredictor,
    NoSQPredictor,
    PHASTPredictor,
    StoreSetsPredictor,
    StoreVectorPredictor,
    UnlimitedMDPTagePredictor,
    UnlimitedNoSQPredictor,
    UnlimitedPHASTPredictor,
)
from repro.sim.metrics import SimResult
from repro.sim.simulator import (
    PREDICTOR_FACTORIES,
    available_predictors,
    make_predictor,
    predictor_variant,
    register_predictor,
    run_spec,
    simulate,
    unregister_predictor,
)
from repro.sim.spec import RunSpec
from repro.workloads.spec2017 import SPEC_PROFILES, spec_suite, workload

__version__ = "1.0.0"

__all__ = [
    "simulate",
    "run_spec",
    "RunSpec",
    "make_predictor",
    "predictor_variant",
    "register_predictor",
    "unregister_predictor",
    "available_predictors",
    "PREDICTOR_FACTORIES",
    "SimResult",
    "CoreConfig",
    "GENERATIONS",
    "MDPredictor",
    "PHASTPredictor",
    "StoreSetsPredictor",
    "StoreVectorPredictor",
    "CHTPredictor",
    "NoSQPredictor",
    "MDPTagePredictor",
    "IdealPredictor",
    "UnlimitedPHASTPredictor",
    "UnlimitedNoSQPredictor",
    "UnlimitedMDPTagePredictor",
    "SPEC_PROFILES",
    "spec_suite",
    "workload",
    "__version__",
]
