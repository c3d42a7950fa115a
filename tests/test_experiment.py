import json

import numpy as np
import pytest

from helpers import traced_peak_mb
from tta_align import data, network, stats
from tta_align.adapt import TtaConfig
from tta_align.config import ExperimentConfig, ModelConfig, PretrainConfig
from tta_align.data import SyntheticSpec
from tta_align.errors import ConfigInvalid, StatsIoError, TrainingDiverged
from tta_align.experiment import (
    SUMMARY_FIELDS,
    MethodSummary,
    evaluate_accuracy,
    final_quarter_mean,
    pretrain_source,
    rebuild_report,
    run_experiment,
    write_summary_files,
)


@pytest.fixture(scope="module")
def default_result():
    """One full default-experiment run (seed 0), shared across tests."""
    cfg = ExperimentConfig.default(seed=0)
    return cfg, run_experiment(cfg)


class TestPretrain:
    def test_default_spec_reaches_95(self, default_result):
        _, result = default_result
        assert result.source_holdout_accuracy >= 0.95

    def test_linearly_separable_two_class(self):
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(
                n_classes=2,
                input_dim=2,
                mean_scale=3.0,  # two classes: means at -m and +m, |m| = 3
                cov_scales=[0.5, 0.5],
                n_train_per_class=200,
                n_test_per_class=200,
                seed=0,
            ),
            model=ModelConfig(hidden_dims=[8]),
            # the default 30 epochs: 10 (60 steps) reach 0.98-1.0, depending
            # on the direction data.GEOMETRY_SEED gives the means
            pretrain=PretrainConfig(epochs=30),
            methods=[TtaConfig(method="source", steps_per_batch=0)],
        )
        assert pretrain_source(cfg).holdout_accuracy >= 0.99

    def test_single_class_rejected(self):
        cfg = ExperimentConfig.default()
        cfg.synthetic.n_classes = 1
        with pytest.raises(ConfigInvalid):
            pretrain_source(cfg)

    def test_divergence_detected(self):
        cfg = ExperimentConfig.default()
        cfg.pretrain.learning_rate = 1e200
        cfg.pretrain.epochs = 1
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged):
                pretrain_source(cfg)


class TestSetUpMemory:
    """The set-up's gradient-free forwards keep one block of rows alive, not
    the N x 128 activations of the whole holdout or training set."""

    @pytest.fixture(scope="class")
    def wide(self):
        rng = np.random.default_rng(43)
        model = network.init_model(16, [128, 64], 10, rng)
        return model, rng.normal(size=(12_800, 16)), rng.integers(0, 10, size=12_800)

    def test_holdout_accuracy(self, wide):
        # one forward over all rows held two 12,800 x 128 arrays: 25 MiB
        model, x, y = wide
        assert traced_peak_mb(lambda: evaluate_accuracy(model, x, y)) < 4.0

    def test_source_statistics(self, wide):
        # the 5,000 x 64 features stay (the fit reads them); 9.8 MiB before
        model, x, y = wide
        x, y = x[:5_000], np.arange(5_000) % 10
        assert traced_peak_mb(lambda: stats.estimate_source_stats(model, x, y)) < 7.0


class TestFinalQuarterMean:
    def test_takes_last_quarter(self):
        values = np.array([0.0] * 6 + [1.0, 1.0])
        assert final_quarter_mean(values) == 1.0

    def test_short_streams_use_last_value(self):
        assert final_quarter_mean(np.array([0.2, 0.8])) == 0.8


class TestRunExperiment:
    def test_draws_each_part_once_in_order(self, monkeypatch):
        # the training set, holdout and target are each drawn once: a part
        # read before those ahead of it would draw them a second time
        draw = data.Dataset._draw
        parts = []

        def counted(self, part, rng):
            parts.append(part)
            return draw(self, part, rng)

        monkeypatch.setattr(data.Dataset, "_draw", counted)
        cfg = ExperimentConfig.default(seed=0)
        cfg.pretrain.epochs = 1
        run_experiment(cfg)
        assert parts == [data.TRAIN, data.TEST, data.TARGET]

    def test_zero_shift_methods_agree(self):
        # nothing to fix: adaptation may not move accuracy more than 2 points
        cfg = ExperimentConfig.default(seed=0)
        cfg.shift = None
        cfg.synthetic.n_test_per_class = 320
        cfg.methods = [
            TtaConfig(method="source", steps_per_batch=0),
            TtaConfig(method="cafa", steps_per_batch=2),
        ]
        result = run_experiment(cfg)
        mean = {s.name: s.mean_accuracy for s in result.summaries}
        assert abs(mean["cafa"] - mean["source"]) < 0.02

    def test_records_emitted_for_every_method(self, default_result):
        cfg, result = default_result
        assert set(result.records) == {m.run_name for m in cfg.methods}
        for record in result.records.values():
            assert len(record.rows) == 60
            assert all(0.0 <= r.accuracy <= 1.0 for r in record.rows)

    def test_cafa_inter_distance_exceeds_global_fa(self, default_result):
        _, result = default_result
        summaries = {s.name: s for s in result.summaries}
        assert (
            summaries["cafa"].final_mean_inter
            > summaries["global_fa"].final_mean_inter
        )

    @pytest.mark.xfail(
        reason="at this scale the pull-only and entropy baselines edge out the "
        "class-aware loss by a fraction of a point; the distance-trajectory "
        "claims hold but the full accuracy ordering does not transfer",
        strict=False,
    )
    def test_cafa_tops_final_half_accuracy(self, default_result):
        _, result = default_result
        halves = {}
        for name, record in result.records.items():
            acc = record.accuracies()
            halves[name] = float(np.mean(acc[len(acc) // 2 :]))
        assert all(halves["cafa"] >= v for v in halves.values())

    def test_adaptation_beats_source(self, default_result):
        _, result = default_result
        fq = {s.name: s.final_quarter_accuracy for s in result.summaries}
        assert fq["cafa"] > fq["source"]
        assert fq["bn"] > fq["source"]


class TestReportFiles:
    def test_outputs_and_rebuild_bit_identical(self, tmp_path):
        # the records, then the manifest and summaries of these runs; a
        # rebuild writes the summaries again byte for byte
        cfg = ExperimentConfig.default()
        cfg.pretrain.epochs = 1
        cfg.methods = [TtaConfig(method="source", steps_per_batch=0), TtaConfig(method="cafa")]
        out = tmp_path / "runs"
        result = run_experiment(cfg, out_dir=str(out))
        records = [f"run_{n}{suffix}" for n in ("source", "cafa") for suffix in (".csv", ".json")]
        expected = ["manifest.json", "summary.csv", "summary.txt", *records]
        assert sorted(p.name for p in out.iterdir()) == sorted(expected)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["methods"] == ["source", "cafa"]
        assert manifest["source_holdout_accuracy"] == result.source_holdout_accuracy
        before = {n: (out / n).read_bytes() for n in expected}
        (out / "summary.csv").unlink()
        (out / "summary.txt").unlink()
        assert rebuild_report(str(out)) == result.summaries
        for name in expected:
            assert (out / name).read_bytes() == before[name]

    def test_empty_out_dir_is_refused_before_any_file_is_removed(self, tmp_path, monkeypatch):
        # "" joins with a file name to the bare name, a file of the working
        # directory, which the writer would remove and replace
        monkeypatch.chdir(tmp_path)
        (tmp_path / "manifest.json").write_text("{}")
        cfg = ExperimentConfig.default()
        cfg.pretrain.epochs = 1
        cfg.methods = [TtaConfig(method="source", steps_per_batch=0)]
        with pytest.raises(ConfigInvalid, match="out_dir must name a directory"):
            run_experiment(cfg, out_dir="")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]
        assert (tmp_path / "manifest.json").read_text() == "{}"

    def test_summary_header_splits_into_fields(self, tmp_path):
        write_summary_files([MethodSummary("cafa", 0.5, 0.5, 1.0, 2.0)], str(tmp_path))
        header = (tmp_path / "summary.txt").read_text().splitlines()[0]
        assert header.split() == list(SUMMARY_FIELDS)

    def test_long_run_names_keep_their_columns_apart(self, tmp_path):
        # `scripts/sweep_steps.py` names its runs cafa_steps_1, cafa_steps_2, ...
        names = ["cafa_steps_1", "a_twenty_two_char_name"]
        write_summary_files([MethodSummary(n, 0.8031, 0.5, 1.0, 2.0) for n in names], str(tmp_path))
        lines = (tmp_path / "summary.txt").read_text().splitlines()
        assert [line.split()[0] for line in lines] == ["method", *names]
        assert all(len(line.split()) == len(SUMMARY_FIELDS) for line in lines)

    def test_rebuild_missing_manifest(self, tmp_path):
        # a run directory without its manifest is malformed (exit 3); a
        # run directory that does not exist is a usage error (exit 1)
        with pytest.raises(StatsIoError):
            rebuild_report(str(tmp_path))
        with pytest.raises(ConfigInvalid):
            rebuild_report(str(tmp_path / "nowhere"))
