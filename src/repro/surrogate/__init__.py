"""Learned IPC/MPKI surrogate: dataset, model, triage, serving.

Layer map:

* :mod:`repro.surrogate.features` — the frozen, versioned feature schema.
* :mod:`repro.surrogate.dataset` — deterministic, content-addressed
  dataset artifacts built from a ResultStore or provenance export.
* :mod:`repro.surrogate.model` — the bagged-ridge ensemble with conformal
  confidence intervals (numpy; everything else is pure Python).
* :mod:`repro.surrogate.triage` — the planner tier that settles tight-CI
  cells as tagged estimates and passes the rest to the simulator.

Model-layer names are re-exported lazily so importing the package (or the
dataset layer) never pulls in numpy.
"""

from repro.surrogate.dataset import (
    Dataset,
    SourceRecord,
    build_dataset,
    build_store_dataset,
    extract_store_records,
    load_dataset,
    records_from_provenance,
)
from repro.surrogate.features import FEATURE_SCHEMA_VERSION, feature_names
from repro.surrogate.triage import (
    SurrogateEstimate,
    SurrogateStore,
    SurrogateTier,
    load_tier,
)

__all__ = [
    "Dataset",
    "FEATURE_SCHEMA_VERSION",
    "SourceRecord",
    "SurrogateError",
    "SurrogateEstimate",
    "SurrogateModel",
    "SurrogateStore",
    "SurrogateTier",
    "build_dataset",
    "build_store_dataset",
    "extract_store_records",
    "feature_names",
    "load_dataset",
    "load_model",
    "load_tier",
    "records_from_provenance",
    "train_model",
]

_MODEL_NAMES = {"SurrogateError", "SurrogateModel", "load_model", "train_model"}


def __getattr__(name: str):
    if name in _MODEL_NAMES:
        from repro.surrogate import model

        return getattr(model, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
