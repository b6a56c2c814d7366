"""Model training, calibration, persistence, and the novelty guard."""

import json
import re

import pytest

from repro.core.config import CoreConfig
from repro.surrogate.dataset import build_dataset, extract_store_records
from repro.surrogate.model import (
    SurrogateError,
    load_model,
    train_model,
)
from tests.surrogate.conftest import NUM_OPS, PREDICTORS, WORKLOADS


class TestTraining:
    def test_training_is_deterministic(self, trained):
        _, dataset, model = trained
        again = train_model(dataset)
        assert again.content_sha256 == model.content_sha256

    def test_conformal_calibration_covers_heldout(self, trained):
        """The reason the subsystem is trustworthy: empirical CI coverage on
        a split neither the fit nor the calibration ever saw must reach the
        nominal level. The conformal guarantee is marginal, so realized
        coverage on n rows is only 1/n-granular — allow exactly that
        finite-sample slack and nothing more."""
        _, dataset, model = trained
        metrics = model.evaluate(dataset, split="heldout")
        for target in ("ipc", "violation_mpki"):
            rows = metrics[target]["rows"]
            assert rows >= 1
            assert metrics[target]["coverage"] >= model.level - 1.0 / rows
            assert metrics[target]["mae"] >= 0.0

    def test_heldout_point_error_is_small_on_structured_grid(self, trained):
        _, dataset, model = trained
        metrics = model.evaluate(dataset, split="heldout")
        assert metrics["ipc"]["mape"] < 0.25

    def test_conformal_metadata_is_recorded(self, trained):
        _, _, model = trained
        for target in ("ipc", "violation_mpki"):
            conformal = model.payload["conformal"][target]
            assert conformal["q"] > 0.0
            assert conformal["epsilon"] > 0.0
            assert conformal["source"] == "calib"
            assert conformal["n_calib"] >= 1

    def test_too_few_train_rows_raises(self, seeded_store):
        records, _ = extract_store_records(seeded_store.root)
        with pytest.raises(SurrogateError):
            train_model(build_dataset(records[:1]))

    def test_invalid_level_and_members_raise(self, trained):
        _, dataset, _ = trained
        with pytest.raises(SurrogateError):
            train_model(dataset, level=0.2)
        with pytest.raises(SurrogateError):
            train_model(dataset, level=1.0)
        with pytest.raises(SurrogateError):
            train_model(dataset, members=1)


class TestPrediction:
    def test_predictions_carry_interval_and_tag_fields(self, trained):
        _, _, model = trained
        predicted = model.predict_cell(
            WORKLOADS[0], PREDICTORS[0], CoreConfig(), NUM_OPS, None
        )
        assert predicted["ipc"] >= 0.0
        assert predicted["ipc_ci"] > 0.0
        assert predicted["violation_mpki"] >= 0.0
        assert predicted["violation_mpki_ci"] > 0.0
        assert predicted["level"] == model.level
        assert predicted["model_sha256"] == model.content_sha256
        assert predicted["novel"] is False

    def test_unseen_predictor_or_workload_is_novel(self, trained):
        _, _, model = trained
        assert model.predict_cell(
            WORKLOADS[0], "ideal", CoreConfig(), NUM_OPS, None
        )["novel"]
        assert model.predict_cell(
            "541.leela", PREDICTORS[0], CoreConfig(), NUM_OPS, None
        )["novel"]

    def test_unknown_config_still_predicts(self, trained):
        """An unrecognised CoreConfig degrades to the cfg_unknown path, it
        must never crash the serving endpoint."""
        _, _, model = trained
        predicted = model.predict_cell(
            WORKLOADS[0], PREDICTORS[0], None, NUM_OPS, None
        )
        assert predicted["ipc_ci"] > 0.0


class TestArtifact:
    def test_save_load_round_trip_predicts_identically(self, trained, tmp_path):
        _, _, model = trained
        path = model.save(tmp_path)
        assert path.name == f"model-{model.content_sha256[:12]}.json"
        loaded = load_model(path)
        assert loaded is not None
        assert loaded.content_sha256 == model.content_sha256
        for workload in WORKLOADS[:2]:
            for predictor in PREDICTORS:
                assert loaded.predict_cell(
                    workload, predictor, CoreConfig(), NUM_OPS, None
                ) == model.predict_cell(
                    workload, predictor, CoreConfig(), NUM_OPS, None
                )

    def test_corruption_loads_as_miss(self, trained, tmp_path):
        _, _, model = trained
        path = model.save(tmp_path / "model.json")
        clean = path.read_text()

        assert load_model(tmp_path / "absent.json") is None

        path.write_text(clean[: len(clean) // 2])
        assert load_model(path) is None

        tampered = json.loads(clean)
        tampered["weights"]["ipc"][0][0] += 1.0
        path.write_text(json.dumps(tampered, sort_keys=True))
        assert load_model(path) is None

        stale = json.loads(clean)
        stale["schema"] = 999
        path.write_text(json.dumps(stale, sort_keys=True))
        assert load_model(path) is None


class TestPredictCommand:
    """``repro surrogate predict`` checks its grid like ``sweep`` does."""

    def _predict(self, trained, tmp_path, *flags):
        from repro.cli import main

        _, _, model = trained
        path = model.save(tmp_path / "model.json")
        return main(["surrogate", "predict", "--model", str(path), *flags])

    def test_scores_a_known_grid(self, trained, tmp_path, capsys):
        flags = ["--workloads", WORKLOADS[0], "--predictors", "phast,nosq"]
        assert self._predict(trained, tmp_path, *flags, "--json") == 0
        rows = json.loads(capsys.readouterr().out)
        assert [(row["workload"], row["predictor"]) for row in rows] == [
            (WORKLOADS[0], "phast"),
            (WORKLOADS[0], "nosq"),
        ]

    @pytest.mark.parametrize(
        "label, message",
        [
            ("phsat", "unknown predictor 'phsat'"),
            ("phast(bogus=1)", "bogus"),
        ],
    )
    def test_refuses_a_bad_predictor(self, trained, tmp_path, label, message):
        flags = ["--workloads", WORKLOADS[0], "--predictors", label]
        with pytest.raises(SystemExit, match=re.escape(message)):
            self._predict(trained, tmp_path, *flags)

    def test_refuses_an_unknown_workload(self, trained, tmp_path):
        flags = ["--workloads", f"{WORKLOADS[0]},nosuchwl", "--predictors", "phast"]
        with pytest.raises(SystemExit, match="unknown workload 'nosuchwl'"):
            self._predict(trained, tmp_path, *flags)
