"""The execution-backend registry and its environment plumbing.

The contract under test here is the *dispatch* layer, not simulation
semantics (the golden fixtures in ``tests/core`` own bit-identity):
registration and lookup, ``REPRO_SIM_BACKEND`` validation by name,
call-time resolution of environment knobs, a numpy-free reference path,
batch coverage, and heartbeat streaming through ``run_many``.
"""

from __future__ import annotations

import pytest

from repro.common.env import EnvVarError
from repro.sim.backends import (
    ENV_BACKEND,
    Backend,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
    unregister_backend,
    validate_backend_name,
)
from repro.sim.metrics import SimResult
from repro.sim.spec import RunSpec


class _NullBackend(Backend):
    name = "null-test"

    def run(self, spec: RunSpec) -> SimResult:  # pragma: no cover - not run
        raise NotImplementedError


class TestRegistry:
    def test_builtins_registered(self):
        assert "reference" in available_backends()
        assert "batch" in available_backends()

    def test_register_and_unregister(self):
        register_backend("null-test", _NullBackend)
        try:
            assert "null-test" in available_backends()
            assert isinstance(get_backend("null-test"), _NullBackend)
            # instances are cached per name
            assert get_backend("null-test") is get_backend("null-test")
        finally:
            unregister_backend("null-test")
        assert "null-test" not in available_backends()

    def test_duplicate_registration_requires_replace(self):
        register_backend("null-test", _NullBackend)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_backend("null-test", _NullBackend)
            register_backend("null-test", _NullBackend, replace=True)
        finally:
            unregister_backend("null-test")

    def test_validate_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown backend 'bogus'"):
            validate_backend_name("bogus")

    def test_bad_registrations_rejected(self):
        with pytest.raises(ValueError):
            register_backend("", _NullBackend)
        with pytest.raises(TypeError):
            register_backend("not-callable", object())


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


class TestNumpyGuard:
    def test_reference_backend_runs_without_numpy(self):
        """Only the batch kernels and the surrogate model import numpy, so a
        reference run (a solo sweep worker) never loads the array stack."""
        import os
        import subprocess
        import sys

        import repro

        code = (
            "import sys\n"
            "from repro.sim.backends import get_backend\n"
            "from repro.sim.spec import RunSpec\n"
            "result = get_backend('reference').run(\n"
            "    RunSpec('511.povray', 'store-sets', num_ops=1500, warmup_ops=200)\n"
            ")\n"
            "assert result.pipeline.committed_uops > 0\n"
            "assert 'numpy' not in sys.modules, 'the reference path imported numpy'\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestBatchCoverage:
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
        assert batch.covers(spec)
        batch.run(spec)
        assert counter.commits == 1500

    def test_front_end_override_is_covered(self):
        # It plans with its own front end; tests/core/test_timing_envelope.py
        # holds its results to the reference backend's.
        from repro.frontend.branch_predictors import GSharePredictor

        spec = RunSpec("511.povray", "phast", branch_predictor=GSharePredictor())
        assert get_backend("batch").covers(spec)

    def test_invariant_checking_is_covered(self):
        batch = get_backend("batch")
        assert batch.covers(RunSpec("511.povray", "phast", check_invariants=True))

    def test_predictor_instances_disqualify(self):
        from repro.mdp.phast import PHASTPredictor

        batch = get_backend("batch")
        spec = RunSpec("511.povray", PHASTPredictor(), check_invariants=False)
        assert not batch.covers(spec)

    def test_uncovered_run_falls_back_not_raises(self):
        from repro.mdp.store_sets import StoreSetsPredictor

        batch = get_backend("batch")
        spec = RunSpec(
            "511.povray",
            StoreSetsPredictor(),
            num_ops=1500,
            warmup_ops=200,
        )
        assert not batch.covers(spec)
        result = batch.run(spec)
        assert result.pipeline.committed_uops > 0

    def test_describe_reports_kernels(self):
        from repro.mdp.kernels import KERNEL_NAMES

        row = get_backend("batch").describe()
        assert row["available"] is True
        for name in KERNEL_NAMES:
            assert name in row["kernels"]
        # Store Sets and CHT run unkerneled: their memo kernels did not pay.
        assert set(KERNEL_NAMES) == {
            "mdp-tage",
            "mdp-tage-s",
            "nosq",
            "phast",
            "store-vector",
        }


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
