"""Smoke tests for every figure-computation function on a tiny grid.

These validate structure and invariants; the full-size reproductions (with
shape assertions against the paper) live in benchmarks/.
"""

import pytest

from repro.analysis import figures

WORKLOADS = ["511.povray", "541.leela"]
NUM_OPS = 2500


class TestFig01:
    def test_points(self, runner):
        points = figures.fig01_mpki_history(runner, WORKLOADS, NUM_OPS)
        kinds = {point.kind for point in points}
        assert kinds == {"branch", "mdp"}
        years = [point.year for point in points]
        assert min(years) <= 1985 and max(years) >= 2024
        assert all(point.mpki >= 0 for point in points)

    def test_branch_roster_complete(self, runner):
        points = figures.fig01_mpki_history(runner, WORKLOADS, NUM_OPS)
        branch_names = {p.name for p in points if p.kind == "branch"}
        assert "always-taken" in branch_names
        assert "tage" in branch_names


class TestFig02:
    def test_rows_cover_generations(self, runner):
        rows = figures.fig02_generations(runner, WORKLOADS, NUM_OPS, predictors=("phast",))
        generations = {row.generation for row in rows}
        assert "nehalem" in generations and "alderlake" in generations
        assert all(row.gap_vs_ideal_percent >= -2.0 for row in rows)


class TestFig04:
    def test_percentages_bounded(self, runner):
        rows = figures.fig04_multi_store(runner, WORKLOADS, NUM_OPS)
        for row in rows:
            assert 0.0 <= row.multi_store_percent <= 100.0
            assert 0.0 <= row.in_order_percent <= 100.0


class TestFig06:
    def test_sweep_points(self, runner):
        points = figures.fig06_unlimited_sweep(runner, WORKLOADS, NUM_OPS, nosq_lengths=(2, 8))
        labels = [point.label for point in points]
        assert "unlimited-nosq-h2" in labels
        assert "unlimited-phast" in labels
        assert all(0 < p.normalized_ipc <= 1.05 for p in points)


class TestFig07to09:
    def test_rows(self, runner):
        rows = figures.fig07_09_unlimited_phast(runner, WORKLOADS, NUM_OPS)
        assert {row.workload for row in rows} == set(WORKLOADS)
        for row in rows:
            assert 0 < row.normalized_ipc <= 1.05
            assert row.paths >= 0


class TestFig10:
    def test_histogram(self):
        histogram = figures.fig10_conflict_length_histogram(WORKLOADS, num_ops=2500)
        assert all(key >= 1 for key in histogram.counts)


class TestFig11:
    def test_clamp_series(self, runner):
        series = figures.fig11_max_history(runner, WORKLOADS, NUM_OPS, clamps=(4, None))
        assert set(series) == {"unlimited-phast-max4", "unlimited-phast-maxinf"}
        assert all(0 < value <= 1.05 for value in series.values())


class TestFig12:
    def test_fwd_series(self, runner):
        series = figures.fig12_forwarding_filter(runner, WORKLOADS, NUM_OPS, predictors=("phast",))
        assert series["ideal"]["fwd"] == 1.0
        assert 0 < series["phast"]["fwd"] <= 1.05
        assert 0 < series["phast"]["nofwd"] <= 1.05


class TestFig13:
    def test_points_have_sizes(self, runner):
        points = figures.fig13_storage_tradeoff(runner, WORKLOADS, NUM_OPS, factors=(1.0,))
        names = {point.predictor for point in points}
        assert names == set(figures.MAIN_PREDICTORS)
        for point in points:
            assert point.storage_kb > 0


class TestFig14to15:
    def test_rows(self, runner):
        rows = figures.fig14_15_per_application(runner, WORKLOADS, NUM_OPS, predictors=("phast",))
        assert len(rows) == len(WORKLOADS)
        for row in rows:
            assert row.violation_mpki >= 0
            assert row.false_dep_mpki >= 0


class TestFig16:
    def test_energy_rows(self, runner):
        rows = figures.fig16_energy(runner, WORKLOADS, NUM_OPS, predictors=("phast", "mdp-tage"))
        by_name = {row.predictor: row for row in rows}
        assert by_name["phast"].total_nj >= 0
        assert by_name["mdp-tage"].read_nj >= 0


class TestHeadline:
    def test_summary_fields(self, runner):
        summary = figures.headline_summary(runner, WORKLOADS, NUM_OPS)
        assert summary.phast_gap_percent < 60
        assert summary.phast_total_mpki >= 0
