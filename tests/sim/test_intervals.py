"""Interval (windowed) metrics: window math, reconciliation, round trips."""

import json

import pytest

from repro.analysis.export import intervals_to_csv, intervals_to_records
from repro.sim.intervals import (
    DEFAULT_INTERVAL_OPS,
    HEARTBEAT_ENV,
    IntervalWindow,
    heartbeat_interval_ops,
)
from repro.sim.metrics import SimResult
from repro.sim.simulator import simulate
from repro.sim.spec import RunSpec


def probe_run(num_ops=12000, interval_ops=2000, warmup_ops=0, predictor="phast"):
    return simulate(
        RunSpec(
            workload="511.povray",
            predictor=predictor,
            num_ops=num_ops,
            warmup_ops=warmup_ops,
            interval_ops=interval_ops,
        )
    )


class TestIntervalWindow:
    def test_derived_metrics(self):
        window = IntervalWindow(
            index=0, start_op=0, end_op=1999, cycles=4000,
            committed_uops=2000, violations=3, branch_mispredicts=40,
            rob_residency=400_000,
        )
        assert window.ipc == pytest.approx(0.5)
        assert window.violation_mpki == pytest.approx(1.5)
        assert window.branch_mpki == pytest.approx(20.0)
        assert window.occupancy == pytest.approx(100.0)

    def test_dict_round_trip(self):
        window = IntervalWindow(
            index=3, start_op=6000, end_op=7999, cycles=2500,
            committed_uops=2000, violations=1, branch_mispredicts=7,
            rob_residency=123_456, partial=True,
        )
        payload = json.loads(json.dumps(window.to_dict()))
        assert IntervalWindow.from_dict(payload) == window
        # Derived metrics travel in the payload for schema-free consumers.
        assert payload["ipc"] == pytest.approx(window.ipc)

    def test_spec_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError, match="interval_ops"):
            RunSpec("511.povray", "phast", interval_ops=0)
        with pytest.raises(ValueError, match="interval_ops"):
            RunSpec("511.povray", "phast", interval_ops=-5)


class TestReconciliation:
    """The windows must partition the measured region exactly."""

    def test_windows_sum_to_aggregate_stats(self):
        result = probe_run()
        stats = result.pipeline
        windows = result.intervals
        assert sum(w.committed_uops for w in windows) == stats.committed_uops
        assert sum(w.violations for w in windows) == stats.violations
        assert (
            sum(w.branch_mispredicts for w in windows) == stats.branch_mispredicts
        )
        assert sum(w.cycles for w in windows) == stats.cycles

    def test_windows_partition_the_op_range(self):
        result = probe_run(num_ops=10000, interval_ops=3000)
        windows = result.intervals
        assert windows[0].start_op == 0
        for before, after in zip(windows, windows[1:]):
            assert after.start_op == before.end_op + 1
        assert windows[-1].end_op == 9999
        assert windows[-1].partial  # 10000 % 3000 != 0
        assert all(not w.partial for w in windows[:-1])

    def test_warmup_region_not_windowed(self):
        result = probe_run(num_ops=12000, warmup_ops=5000)
        windows = result.intervals
        assert windows[0].start_op == 5000
        assert sum(w.committed_uops for w in windows) == 7000
        assert sum(w.cycles for w in windows) == result.pipeline.cycles

    def test_observing_intervals_leaves_results_bit_identical(self):
        bare = simulate(RunSpec(workload="511.povray", predictor="phast", num_ops=12000))
        probed = probe_run()
        assert bare.pipeline == probed.pipeline


class TestSimResultPlumbing:
    def test_intervals_default_to_none(self):
        result = simulate(RunSpec(workload="511.povray", predictor="phast", num_ops=6000))
        assert result.intervals is None
        assert "intervals" not in result.to_record()

    def test_record_round_trip_preserves_windows(self):
        result = probe_run(num_ops=8000)
        payload = json.loads(json.dumps(result.to_record()))
        restored = SimResult.from_record(payload)
        assert restored.intervals == result.intervals

    def test_export_helpers(self):
        result = probe_run(num_ops=8000)
        records = intervals_to_records(result)
        assert len(records) == len(result.intervals)
        assert records[0]["workload"] == "511.povray"
        assert records[0]["predictor"] == "phast"
        csv = intervals_to_csv([result])
        header = csv.splitlines()[0].split(",")
        assert {"workload", "ipc", "violation_mpki", "occupancy"} <= set(header)
        assert len(csv.splitlines()) == len(records) + 1

    def test_export_rejects_results_without_intervals(self):
        result = simulate(RunSpec(workload="511.povray", predictor="phast", num_ops=6000))
        with pytest.raises(ValueError):
            intervals_to_records(result)


class TestHeartbeatKnob:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(HEARTBEAT_ENV, raising=False)
        assert heartbeat_interval_ops() == DEFAULT_INTERVAL_OPS

    def test_override_and_disable(self, monkeypatch):
        monkeypatch.setenv(HEARTBEAT_ENV, "500")
        assert heartbeat_interval_ops() == 500
        monkeypatch.setenv(HEARTBEAT_ENV, "0")
        assert heartbeat_interval_ops() == 0

    def test_negative_rejected(self, monkeypatch):
        monkeypatch.setenv(HEARTBEAT_ENV, "-3")
        with pytest.raises(ValueError, match=HEARTBEAT_ENV):
            heartbeat_interval_ops()

    def test_garbage_rejected_with_variable_name(self, monkeypatch):
        # A typo used to be silently replaced by the default; now it is a
        # hard error naming the knob.
        monkeypatch.setenv(HEARTBEAT_ENV, "soon")
        with pytest.raises(ValueError, match=HEARTBEAT_ENV):
            heartbeat_interval_ops()
