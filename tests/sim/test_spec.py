"""Tests for RunSpec and the spec-only simulate() entry point."""

import pytest

from repro.core.config import CoreConfig
from repro.harness.store import cell_key
from repro.isa.artifacts import trace_key
from repro.sim.simulator import default_num_ops, make_predictor, run_spec, simulate
from repro.sim.spec import RunSpec
from repro.workloads.spec2017 import workload

OPS = 800


class TestValidation:
    def test_rejects_nonpositive_num_ops(self):
        with pytest.raises(ValueError):
            RunSpec(workload="511.povray", predictor="ideal", num_ops=0)

    def test_rejects_negative_warmup(self):
        with pytest.raises(ValueError):
            RunSpec(workload="511.povray", predictor="ideal", warmup_ops=-1)

    def test_probes_coerced_to_tuple(self):
        spec = RunSpec(workload="511.povray", predictor="ideal", probes=[])
        assert spec.probes == ()

    def test_frozen(self):
        spec = RunSpec(workload="511.povray", predictor="ideal")
        with pytest.raises(AttributeError):
            spec.num_ops = 5


class TestResolution:
    def test_workload_name_from_string_and_profile(self):
        assert RunSpec(workload="511.povray", predictor="ideal").workload_name == (
            "511.povray"
        )
        profile = workload("502.gcc_2", seed=3)
        assert RunSpec(workload=profile, predictor="ideal").workload_name == (
            "502.gcc_2"
        )

    def test_predictor_label_from_instance(self):
        instance = make_predictor("ideal")
        spec = RunSpec(workload="511.povray", predictor=instance)
        assert spec.predictor_label == instance.name

    def test_seed_override_applies_to_profile(self):
        profile = workload("511.povray", seed=1)
        spec = RunSpec(workload=profile, predictor="ideal", seed=9)
        assert spec.resolved_profile().seed == 9

    def test_resolved_num_ops_defaults(self):
        spec = RunSpec(workload="511.povray", predictor="ideal")
        assert spec.resolved_num_ops() == default_num_ops()
        assert spec.with_overrides(num_ops=123).resolved_num_ops() == 123


class TestKeys:
    def test_key_matches_cell_key(self):
        config = CoreConfig()
        spec = RunSpec(
            workload="511.povray", predictor="phast", config=config,
            num_ops=OPS, seed=4,
        )
        assert spec.key() == cell_key("511.povray", "phast", config, OPS, 4)

    def test_key_uses_raw_num_ops_for_back_compat(self):
        spec = RunSpec(workload="511.povray", predictor="phast")
        assert spec.key() == cell_key("511.povray", "phast", CoreConfig(), 0, None)

    def test_trace_key_uses_resolved_num_ops(self):
        spec = RunSpec(workload="511.povray", predictor="phast", num_ops=OPS)
        assert spec.trace_key() == trace_key(workload("511.povray"), OPS)

    def test_execution_fields_do_not_change_key(self):
        base = RunSpec(workload="511.povray", predictor="phast", num_ops=OPS)
        varied = base.with_overrides(
            warmup_ops=10, check_invariants=True, interval_ops=100,
            trace_dir="/tmp/nowhere",
        )
        assert varied.key() == base.key()


class TestWithOverrides:
    def test_returns_new_spec(self):
        base = RunSpec(workload="511.povray", predictor="ideal")
        changed = base.with_overrides(num_ops=OPS)
        assert changed is not base
        assert changed.num_ops == OPS
        assert base.num_ops is None


class TestLegacyShim:
    """The legacy kwargs form is gone: simulate is run_spec, spec only."""

    def test_spec_plus_predictor_kwarg_rejected(self):
        assert simulate is run_spec
        spec = RunSpec(workload="511.povray", predictor="ideal")
        with pytest.raises(TypeError):
            simulate("511.povray", "phast")
        with pytest.raises(TypeError):
            simulate(spec, "phast")