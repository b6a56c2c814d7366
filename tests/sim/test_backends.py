"""The execution-backend registry and its environment plumbing.

The contract under test here is the *dispatch* layer, not simulation
semantics (the golden fixtures in ``tests/core`` own bit-identity): lookup
by name, ``REPRO_SIM_BACKEND`` validation by name, call-time resolution of
environment knobs, a numpy-free reference path, batch runs of every kind
of spec, and heartbeat streaming through ``run_many``.
"""

from __future__ import annotations

import pytest

from repro.common.env import EnvVarError
from repro.sim.backends import (
    ENV_BACKEND,
    available_backends,
    default_backend_name,
    get_backend,
    validate_backend_name,
)
from repro.sim.spec import RunSpec


def _same_on_both_backends(make_spec) -> dict:
    """Run a fresh ``make_spec()`` on each backend (a spec may hold stateful
    objects); assert equal records and return one."""
    batch = get_backend("batch").run(make_spec()).to_record()
    assert get_backend("reference").run(make_spec()).to_record() == batch
    return batch


class TestRegistry:
    def test_builtins_registered(self):
        assert available_backends() == ("batch", "reference")
        for name in available_backends():
            assert get_backend(name).name == name
            # instances are cached per name
            assert get_backend(name) is get_backend(name)

    def test_validate_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown backend 'bogus'"):
            validate_backend_name("bogus")
        with pytest.raises(ValueError, match="unknown backend 'bogus'"):
            get_backend("bogus")


class TestEnvironmentKnob:
    def test_default_is_reference(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        assert default_backend_name() == "reference"

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "batch")
        assert default_backend_name() == "batch"
        spec = RunSpec("511.povray", "phast")
        assert spec.resolved_backend() == "batch"

    def test_unknown_env_value_rejected_by_name(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "bogus")
        with pytest.raises(EnvVarError, match="REPRO_SIM_BACKEND") as excinfo:
            default_backend_name()
        # The error names the knob, the bad value, and the valid choices.
        message = str(excinfo.value)
        assert "bogus" in message
        assert "reference" in message

    def test_env_resolved_at_call_time(self, monkeypatch):
        """The knob is read per call, not captured at import or spec build."""
        spec = RunSpec("511.povray", "phast")
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        assert spec.resolved_backend() == "reference"
        monkeypatch.setenv(ENV_BACKEND, "batch")
        assert spec.resolved_backend() == "batch"

    def test_spec_field_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "batch")
        spec = RunSpec("511.povray", "phast", backend="reference")
        assert spec.resolved_backend() == "reference"

    def test_spec_backend_excluded_from_key(self):
        """Backend choice must not fragment result stores."""
        plain = RunSpec("511.povray", "phast")
        batch = RunSpec("511.povray", "phast", backend="batch")
        assert plain.key() == batch.key()


def _run_without_numpy(predictor: str) -> None:
    """A reference run of ``predictor`` in a fresh interpreter, asserting
    that it never loads numpy."""
    import os
    import subprocess
    import sys

    import repro

    code = (
        "import sys\n"
        "from repro.sim.backends import get_backend\n"
        "from repro.sim.spec import RunSpec\n"
        "result = get_backend('reference').run(\n"
        f"    RunSpec('511.povray', {predictor!r}, num_ops=1500, warmup_ops=200)\n"
        ")\n"
        "assert result.pipeline.committed_uops > 0\n"
        "assert 'numpy' not in sys.modules, 'the reference path imported numpy'\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestNumpyGuard:
    def test_reference_backend_runs_without_numpy(self):
        """Only the history tables' bulk build (a stretch of at least
        ``BULK_RECORDS`` branch records: a whole-trace plan, a warming
        span) and the surrogate model import numpy, so a reference run (a
        solo sweep worker) never loads the array stack."""
        _run_without_numpy("store-sets")

    def test_history_tables_grow_without_numpy_on_the_reference_path(self):
        # The reference plan grows a chunk at a time, below the bulk size.
        from repro.core.pipeline import PLAN_CHUNK_OPS
        from repro.frontend.history import BULK_RECORDS

        assert PLAN_CHUNK_OPS < BULK_RECORDS
        for predictor in ("phast", "mdp-tage", "nosq"):
            _run_without_numpy(predictor)


class TestBatchCoverage:
    """The batch backend runs every spec, with the reference result."""

    def test_probes_are_covered(self):
        from repro.core.probes import OpCommitted, Probe

        class Counter(Probe):
            def __init__(self):
                self.commits = 0

            def subscriptions(self):
                return {OpCommitted: self._count}

            def _count(self, event):
                self.commits += 1

        batch = get_backend("batch")
        counter = Counter()
        spec = RunSpec(
            "511.povray",
            "phast",
            num_ops=1500,
            check_invariants=False,
            probes=(counter,),
        )
        batch.run(spec)
        assert counter.commits == 1500

    def test_front_end_override_is_covered(self):
        # It plans with its own front end; tests/core/test_timing_envelope.py
        # holds more of its results to the reference backend's.
        from repro.frontend.branch_predictors import GSharePredictor

        def spec():
            return RunSpec(
                "511.povray", "phast", num_ops=1500, branch_predictor=GSharePredictor()
            )

        assert _same_on_both_backends(spec)["pipeline"]["committed_uops"] == 1500

    def test_invariant_checking_is_covered(self):
        def spec():
            return RunSpec("511.povray", "phast", num_ops=1500, check_invariants=True)

        assert _same_on_both_backends(spec)["pipeline"]["committed_uops"] == 1500

    def test_predictor_instances_run_on_the_shared_plan(self):
        from repro.mdp.phast import PHASTPredictor

        record = _same_on_both_backends(
            lambda: RunSpec(
                "511.povray", PHASTPredictor(), num_ops=1500, warmup_ops=200
            )
        )
        assert record["predictor"] == PHASTPredictor.name

    def test_store_sets_instance_runs_on_the_shared_plan(self):
        from repro.mdp.store_sets import StoreSetsPredictor

        record = _same_on_both_backends(
            lambda: RunSpec(
                "511.povray", StoreSetsPredictor(), num_ops=1500, warmup_ops=200
            )
        )
        assert record["predictor"] == StoreSetsPredictor.name
        assert record["pipeline"]["committed_uops"] > 0


@pytest.mark.parametrize("backend", ["reference", "batch"])
def test_heartbeats_stream_the_specs_own_windows(monkeypatch, backend):
    """A worker-path run streams heartbeats, and its interval windows are cut
    at the spec's cadence however often the heartbeat knob asks."""
    from repro.sim.intervals import HEARTBEAT_ENV, heartbeat_interval_ops
    from repro.sim.simulator import simulate

    monkeypatch.setenv(HEARTBEAT_ENV, "1000")
    spec = RunSpec(
        "502.gcc_1", "phast", num_ops=6000, warmup_ops=500, interval_ops=2500,
        backend=backend,
    )
    beats = []
    (result,) = get_backend(backend).run_many(
        [spec],
        on_heartbeat=lambda index, window: beats.append((index, window)),
        heartbeat_ops=heartbeat_interval_ops(),
    )
    expected = simulate(spec).intervals
    assert result.intervals == expected
    assert [window.end_op for window in expected] == [2999, 5499, 5999]
    assert beats == [(0, window.to_dict()) for window in expected]
