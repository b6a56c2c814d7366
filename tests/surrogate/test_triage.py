"""Triage semantics: modes, thresholds, the estimate store, and the sweep.

The sweep tests drive the real :class:`SweepRunner` with the fabricating
executor from the server test doubles — triage behaviour is a planner
property, not a simulator one, and this keeps the bit-identity assertions
about store bytes, not floating-point luck.
"""

import json
import logging

import pytest

from repro.api.wire import WireGrid
from repro.common.env import EnvVarError
from repro.core.config import CoreConfig
from repro.harness.store import ResultStore
from repro.harness.sweep import SweepRunner, build_cells
from repro.sim.spec import RunSpec
from repro.surrogate.features import feature_names
from repro.surrogate.triage import (
    SurrogateEstimate,
    SurrogateStore,
    SurrogateTier,
    default_max_ci_ipc,
    default_members,
    default_mode,
    load_tier,
)

from tests.server.stubs import FabricatingExecutor
from tests.surrogate.conftest import NUM_OPS, PREDICTORS, WORKLOADS


def _cells(predictors=PREDICTORS, workloads=None):
    return build_cells(workloads or WORKLOADS, predictors, num_ops=NUM_OPS)


def _runner(root) -> SweepRunner:
    return SweepRunner(
        ResultStore(root), executor=FabricatingExecutor(), precompile=False
    )


class TestEnvKnobs:
    def test_invalid_mode_fails_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_SURROGATE", "triagee")
        with pytest.raises(EnvVarError, match="REPRO_SURROGATE"):
            default_mode()

    def test_invalid_members_fails_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_SURROGATE_MEMBERS", "eight")
        with pytest.raises(EnvVarError, match="REPRO_SURROGATE_MEMBERS"):
            default_members()

    def test_threshold_env_is_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_SURROGATE_MAX_CI_IPC", "0.25")
        assert default_max_ci_ipc() == 0.25


class TestTierSemantics:
    def test_off_never_settles_and_only_always_settles(self, trained):
        _, _, model = trained
        cells = _cells()
        assert SurrogateTier(model, mode="off").triage(cells) == {}
        only = SurrogateTier(model, mode="only", store=None).triage(cells)
        assert len(only) == len(cells)

    def test_triage_settles_tight_cells_and_blocks_novel(self, trained):
        _, _, model = trained
        tier = SurrogateTier(
            model, mode="triage", max_ci_ipc=1e9, max_ci_mpki=1e9
        )
        cells = _cells()
        settled = tier.triage(cells)
        # Exactly the in-support cells settle: a workload whose every cell
        # fell into the held-out split never reached the fit, so it is
        # out-of-support too — infinite thresholds must not rescue it.
        expected = {
            cell.key().digest
            for cell in cells
            if not model.is_novel(cell.workload, cell.predictor)
        }
        assert set(settled) == expected
        assert expected  # the fixture grid trains on most of itself
        # 'ideal' never appeared in training: spuriously tight intervals,
        # so even infinite thresholds must not settle it.
        novel = tier.triage(_cells(predictors=["ideal"]))
        assert novel == {}

    def test_tight_thresholds_settle_nothing(self, trained):
        _, _, model = trained
        tier = SurrogateTier(model, mode="triage", max_ci_ipc=0.0, max_ci_mpki=0.0)
        assert tier.triage(_cells()) == {}

    def test_predict_all_scores_everything(self, trained):
        _, _, model = trained
        tier = SurrogateTier(model, mode="triage", max_ci_ipc=0.0, max_ci_mpki=0.0)
        estimates = tier.predict_all(_cells(predictors=["phast", "ideal"]))
        assert len(estimates) == len(WORKLOADS) * 2
        assert all(e.to_dict()["surrogate"] is True for e in estimates)

    def test_default_config_scores_like_an_explicit_one(self, trained):
        # The model reads config=None as "unknown config" (cfg_unknown) and
        # takes the store key's raw op count, 0 for "the default length".
        # A model trained on known configs only gives cfg_unknown no weight,
        # so the arguments themselves are checked, not just the estimates.
        _, _, model = trained
        calls = []

        class Recording:
            def predict_cells(self, rows):
                calls.extend(rows)
                return model.predict_cells(rows)

        tier = SurrogateTier(Recording(), mode="off")
        implicit = tier.estimate(RunSpec(WORKLOADS[0], "phast"))
        explicit = tier.estimate(
            RunSpec(WORKLOADS[0], "phast", config=CoreConfig(), num_ops=None)
        )
        assert implicit == explicit
        assert calls[0] == calls[1] == (WORKLOADS[0], "phast", CoreConfig(), 0, None)

    def test_wire_grid_scores_exactly_like_explicit_default_cells(self, trained):
        """A served grid carries no config; the rows the model sees must
        build the very matrix of build_cells' default-config cells, with
        cfg_unknown down on every row."""
        _, _, model = trained
        rows = []

        class Recording:
            def predict_cells(self, batch):
                rows.append(list(batch))
                return model.predict_cells(batch)

        tier = SurrogateTier(Recording(), mode="off")
        predictors = PREDICTORS + ["ideal"]
        grid = WireGrid(tuple(WORKLOADS), tuple(predictors), num_ops=NUM_OPS)
        wire_cells = grid.specs()
        assert all(cell.config is None for cell in wire_cells)
        served = tier.predict_all(wire_cells)
        local = tier.predict_all(_cells(predictors=predictors))
        wire_rows, local_rows = rows

        wire_matrix = model.feature_matrix(wire_rows)
        local_matrix = model.feature_matrix(local_rows)
        assert wire_matrix.shape == (len(wire_cells), len(feature_names()))
        assert (wire_matrix == local_matrix).all()
        unknown = feature_names().index("cfg_unknown")
        assert (wire_matrix[:, unknown] == 0.0).all()
        assert served == local

    def test_bulk_scores_match_per_cell_scores(self, trained):
        _, _, model = trained
        rows = [
            (cell.workload, cell.predictor, CoreConfig(), cell.num_ops, cell.seed)
            for cell in _cells(predictors=PREDICTORS + ["ideal"])
        ]
        rows.append((WORKLOADS[0], "phast", None, 0, 7))  # unknown config
        bulk = model.predict_cells(rows)
        assert len(bulk) == len(rows)
        for row, scored in zip(rows, bulk):
            single = model.predict_cell(*row)
            assert scored.keys() == single.keys()
            for name, value in single.items():
                if isinstance(value, float):
                    assert scored[name] == pytest.approx(value, rel=1e-12, abs=0)
                else:
                    assert scored[name] == value
        assert model.predict_cells([]) == []

    def test_estimates_carry_the_cells_store_keys(self, trained):
        _, _, model = trained
        cells = _cells() + [RunSpec(WORKLOADS[0], "phast", seed=3)]
        estimates = SurrogateTier(model, mode="off").predict_all(cells)
        assert [e.digest for e in estimates] == [c.key().digest for c in cells]
        assert [(e.workload, e.predictor) for e in estimates] == [
            (c.workload, c.predictor) for c in cells
        ]

    def test_load_tier_rejects_missing_model(self, tmp_path):
        from repro.surrogate.model import SurrogateError

        with pytest.raises(SurrogateError):
            load_tier(tmp_path / "no-model.json")


class TestSurrogateStore:
    def _estimate(self, digest="a" * 64) -> SurrogateEstimate:
        return SurrogateEstimate(
            workload="511.povray",
            predictor="phast",
            digest=digest,
            ipc=1.5,
            ipc_ci=0.05,
            violation_mpki=0.4,
            violation_mpki_ci=0.2,
            level=0.8,
            model_sha256="f" * 64,
        )

    def test_round_trip_in_surrogate_namespace(self, tmp_path):
        store = SurrogateStore(tmp_path)
        estimate = self._estimate()
        path = store.put(estimate)
        assert path is not None and path.parent == tmp_path / "surrogate"
        assert store.get(estimate.digest) == estimate
        assert store.count() == 1

    def test_corruption_reads_as_miss(self, tmp_path):
        store = SurrogateStore(tmp_path)
        estimate = self._estimate()
        path = store.put(estimate)

        assert store.get("b" * 64) is None

        entry = json.loads(path.read_text())
        entry["estimate"]["ipc"] = 9.9
        path.write_text(json.dumps(entry))
        assert store.get(estimate.digest) is None

        path.write_text(path.read_text()[:25])
        assert store.get(estimate.digest) is None

    def test_refused_write_is_logged(self, tmp_path, caplog):
        # A file where the namespace directory should be makes every put
        # fail with an OSError.
        (tmp_path / "surrogate").write_text("not a directory")
        store = SurrogateStore(tmp_path)
        estimate = self._estimate()
        with caplog.at_level(logging.WARNING, logger="repro.surrogate.triage"):
            assert store.put(estimate) is None
        (record,) = caplog.records
        assert str(tmp_path) in record.getMessage()
        assert estimate.digest[:12] in record.getMessage()

    def test_detagged_record_is_rejected(self, tmp_path):
        record = self._estimate().to_dict()
        record["surrogate"] = False
        with pytest.raises(ValueError):
            SurrogateEstimate.from_dict(record)


class TestSweepIntegration:
    def test_triage_skips_known_cells_and_keeps_rest_bit_identical(
        self, trained, tmp_path
    ):
        _, _, model = trained
        predictors = PREDICTORS + ["ideal"]
        cells = _cells(predictors=predictors)

        full = _runner(tmp_path / "full")
        full_report = full.run(cells)
        assert full_report.completed == len(cells)

        triaged = _runner(tmp_path / "triaged")
        tier = SurrogateTier(
            model,
            mode="triage",
            max_ci_ipc=1e9,
            max_ci_mpki=1e9,
            store=SurrogateStore(triaged.store.root),
        )
        report = triaged.run(cells, surrogate=tier)

        in_support = [
            cell
            for cell in cells
            if not model.is_novel(cell.workload, cell.predictor)
        ]
        settled = len(in_support)
        assert settled >= len(cells) // 2  # triage skips most of the grid
        assert report.surrogate == settled
        assert report.simulated == len(cells) - settled
        assert report.failed == 0
        assert len(report.outcomes) == len(cells)
        assert f"surrogate={settled}" in report.summary()

        # Simulated remainder: byte-identical store entries to the full run.
        settled_digests = {cell.key().digest for cell in in_support}
        for cell in cells:
            digest = cell.key().digest
            triaged_path = triaged.store.results_dir / f"{digest}.json"
            if digest in settled_digests:
                # Settled cells live only in the surrogate namespace.
                assert not triaged_path.exists()
                assert tier.store.get(digest) is not None
            else:
                assert triaged_path.read_bytes() == (
                    full.store.results_dir / f"{digest}.json"
                ).read_bytes()
        assert tier.store.count() == settled

        # Estimates are tagged and distinct from results everywhere.
        assert set(report.results) == {
            (cell.workload, cell.predictor)
            for cell in cells
            if cell.key().digest not in settled_digests
        }
        assert len(report.estimates) == settled
        for estimate in report.estimates.values():
            assert estimate.to_dict()["surrogate"] is True

        manifest = triaged.store.read_manifest()
        assert manifest["surrogate"] == {
            "mode": "triage",
            "settled": settled,
            "model_sha256": model.content_sha256,
        }

    def test_cached_cells_beat_the_surrogate(self, trained, tmp_path):
        """A durable detailed result is never replaced by a prediction."""
        _, _, model = trained
        cells = _cells(predictors=["phast"])
        runner = _runner(tmp_path / "store")
        runner.run(cells)  # populate detailed results

        tier = SurrogateTier(
            model,
            mode="only",
            store=SurrogateStore(runner.store.root),
        )
        report = runner.run(cells, resume=True, surrogate=tier)
        assert report.surrogate == 0
        assert report.cached == len(cells)
        assert tier.store.count() == 0

    def test_only_mode_simulates_nothing(self, trained, tmp_path):
        _, _, model = trained
        cells = _cells(predictors=["phast", "ideal"])
        runner = _runner(tmp_path / "store")
        executor = runner.executor
        report = runner.run(
            cells, surrogate=SurrogateTier(model, mode="only")
        )
        assert report.surrogate == len(cells)
        assert report.simulated == 0
        assert executor.executed == []
        assert len(runner.store) == 0

    def test_progress_sees_estimate_outcomes(self, trained, tmp_path):
        _, _, model = trained
        cells = _cells(predictors=["phast"])
        seen = []
        _runner(tmp_path / "store").run(
            cells,
            progress=seen.append,
            surrogate=SurrogateTier(model, mode="only"),
        )
        assert len(seen) == len(cells)
        assert all(outcome.estimate is not None for outcome in seen)
        assert all(
            outcome.result is None and outcome.failure is None
            for outcome in seen
        )
