import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tta_align
from helpers import key_twice, rewrite_archive
from tta_align import cli
from tta_align.adapt import TtaConfig
from tta_align.config import ExperimentConfig
from tta_align.experiment import read_run_record
from tta_align.stats import load_stats


def tiny_config(tmp_path, **overrides):
    """A seconds-scale experiment document for CLI round trips."""
    doc = {
        "synthetic": {
            "n_classes": 3,
            "input_dim": 4,
            "n_train_per_class": 40,
            "n_test_per_class": 64,
            "seed": 0,
            "cov_scales": [0.2, 0.6, 1.5],
        },
        "shift": {
            "severity": 5,
            "transforms": [{"kind": "gaussian_noise"}],
        },
        "model": {"hidden_dims": [8]},
        "pretrain": {"epochs": 3, "batch_size": 16, "eps_scale": 1e-3},
        "methods": [
            {"method": "source", "steps_per_batch": 0, "batch_size": 16},
            {"method": "global_fa", "batch_size": 16},
            {"method": "cafa", "steps_per_batch": 2, "batch_size": 16},
        ],
        "output_dir": str(tmp_path / "runs"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


FOUR_CLASSES = {"n_classes": 4, "cov_scales": [0.2, 0.6, 1.5, 1.0]}


# configs that do not describe the `pretrained` checkpoint or its stats file;
# the `pretrain` fit settings are the stats file's, which `stats` refits
MISFITS = {
    "n_classes": {"synthetic": FOUR_CLASSES},
    "input_dim": {"synthetic": {"input_dim": 6}},
    "hidden_dims": {"model": {"hidden_dims": [5]}},
    "covariance_mode": {"pretrain": {"covariance_mode": "tied"}},
    "eps_scale": {"pretrain": {"eps_scale": 0.5}},
}


def config_with(config, tmp_path, **sections):
    """A copy of the config document at `config` with some fields of its
    sections replaced."""
    doc = json.loads(config.read_text())
    for section, values in sections.items():
        doc[section].update(values)
    path = tmp_path / "other.json"
    path.write_text(json.dumps(doc))
    return path


STATS_V1 = os.path.join(os.path.dirname(__file__), "data", "stats_v1.bin")


def first_class_mean(value):
    """A stats edit of `rewrite_archive`: the first entry of the first class
    mean set to `value`."""

    def edit(arrays, header):
        arrays["class_mus"][0, 0] = value

    return edit


ALL_METHODS = [
    {"method": "source", "steps_per_batch": 0, "batch_size": 16},
    {"method": "bn", "steps_per_batch": 0, "batch_size": 16},
    {"method": "pl", "batch_size": 16},
    {"method": "entropy", "batch_size": 16},
    {"method": "global_fa", "batch_size": 16},
    {"method": "intra", "batch_size": 16},
    {"method": "cafa", "steps_per_batch": 2, "batch_size": 16},
]


@pytest.fixture(scope="module")
def compared(tmp_path_factory):
    """One `pretrain` and one `compare` of every method into one directory."""
    tmp = tmp_path_factory.mktemp("compared")
    config = tiny_config(tmp, methods=ALL_METHODS)
    out = tmp / "cmp"
    for command in ("pretrain", "compare"):
        assert cli.main([command, "--config", str(config), "--out-dir", str(out)]) == 0
    return config, out


@pytest.fixture()
def pretrained(tmp_path):
    config = tiny_config(tmp_path)
    out = tmp_path / "runs"
    assert cli.main(["pretrain", "--config", str(config), "--out-dir", str(out)]) == 0
    return config, out


class TestPretrainCommand:
    def test_emits_checkpoint_and_stats(self, pretrained, capsys):
        _, out = pretrained
        assert (out / "checkpoint.npz").exists()
        assert (out / "stats.bin").exists()

    def test_prints_holdout_accuracy(self, tmp_path, capsys):
        config = tiny_config(tmp_path)
        cli.main(["pretrain", "--config", str(config)])
        captured = capsys.readouterr()
        assert "source holdout accuracy" in captured.out

    def test_prints_stats_warnings(self, tmp_path, capsys):
        # 40 training samples per class against 64 features: rank-deficient
        config = tiny_config(tmp_path, model={"hidden_dims": [64]})
        assert cli.main(["pretrain", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "warning: class 0:" in out
        assert "rank-deficient" in out


    def test_batch_larger_than_training_set_is_config_error(self, tmp_path, capsys):
        # 3 classes x 40 samples: a batch of 121 would leave pretraining
        # without a step and the checkpoint untrained
        config = tiny_config(tmp_path, pretrain={"epochs": 3, "batch_size": 121})
        out = tmp_path / "out"
        assert cli.main(["pretrain", "--config", str(config), "--out-dir", str(out)]) == 1
        assert "pretrain batch_size 121 exceeds the 120 training samples" in capsys.readouterr().err
        assert not out.exists()


class TestStatsCommand:
    def test_recomputes_stats(self, pretrained):
        config, out = pretrained
        target = out / "stats2.bin"
        code = cli.main(
            [
                "stats",
                "--config",
                str(config),
                "--checkpoint",
                str(out / "checkpoint.npz"),
                "--out",
                str(target),
            ]
        )
        assert code == 0
        # refitted bit for bit, so a stats file of another version is refused
        # rather than read
        assert target.read_bytes() == (out / "stats.bin").read_bytes()


class TestAdaptCommand:
    def test_runs_one_method(self, pretrained, capsys):
        config, out = pretrained
        code = cli.main(
            [
                "adapt",
                "--config",
                str(config),
                "--checkpoint",
                str(out / "checkpoint.npz"),
                "--stats",
                str(out / "stats.bin"),
                "--method",
                "cafa",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "run_cafa.csv").exists()
        assert (out / "run_cafa.json").exists()
        assert "final-quarter accuracy" in capsys.readouterr().out

    @pytest.mark.parametrize("method", [m["method"] for m in ALL_METHODS])
    def test_record_equals_compare_record(self, compared, tmp_path, method):
        # one runner behind both commands: the same checkpoint, stats and
        # stream give the same bytes
        config, out = compared
        code = cli.main(
            [
                "adapt",
                "--config",
                str(config),
                "--checkpoint",
                str(out / "checkpoint.npz"),
                "--stats",
                str(out / "stats.bin"),
                "--method",
                method,
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        for suffix in (".csv", ".json"):
            name = f"run_{method}{suffix}"
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()

    def test_unknown_method_is_config_error(self, pretrained, capsys):
        config, out = pretrained
        code = cli.main(
            [
                "adapt",
                "--config",
                str(config),
                "--checkpoint",
                str(out / "checkpoint.npz"),
                "--stats",
                str(out / "stats.bin"),
                "--method",
                "tent",
            ]
        )
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["checksum_byte", "nan_class_mean"])
    @pytest.mark.parametrize("method", ["bn", "cafa"])
    def test_corrupt_stats_is_io_error(self, pretrained, tmp_path, capsys, method, damage):
        config, out = pretrained
        doc = json.loads(config.read_text())
        doc["methods"].append({"method": "bn", "steps_per_batch": 0, "batch_size": 16})
        config.write_text(json.dumps(doc))
        path = out / "stats.bin"
        if damage == "checksum_byte":  # a byte of a class mean: the entry fails its CRC-32
            blob = bytearray(path.read_bytes())
            blob[blob.find(load_stats(path).class_mus.tobytes()) + 3] ^= 0xFF
            path.write_bytes(bytes(blob))
        else:  # inside a valid archive
            rewrite_archive(path, edit_arrays=first_class_mean(np.nan))
        code = cli.main(
            [
                "adapt",
                "--config",
                str(config),
                "--checkpoint",
                str(out / "checkpoint.npz"),
                "--stats",
                str(path),
                "--method",
                method,
                "--out-dir",
                str(tmp_path / "adapt"),
            ]
        )
        assert code == 3
        assert "i/o error" in capsys.readouterr().err
        assert not (tmp_path / "adapt").exists()

    @pytest.mark.parametrize("method", ["source", "cafa"])
    def test_stats_without_finite_precision_are_io_error(
        self, pretrained, tmp_path, capsys, method
    ):
        # a finite but subnormal class covariance inside a valid archive:
        # its Cholesky factor exists, its precision overflows
        config, out = pretrained
        path = out / "stats.bin"

        def subnormal_sigma(arrays, header):
            arrays["class_sigmas"][0] = 1e-310 * np.eye(header["feature_dim"])

        rewrite_archive(path, edit_arrays=subnormal_sigma)
        args = ["adapt", "--config", str(config), "--checkpoint", str(out / "checkpoint.npz")]
        args += ["--stats", str(path), "--method", method, "--out-dir", str(tmp_path / "adapt")]
        assert cli.main(args) == 3
        err = capsys.readouterr().err
        assert "i/o error" in err and "have no precision" in err
        assert not (tmp_path / "adapt").exists()

    @pytest.mark.parametrize("method", ["source", "bn", "cafa"])
    def test_checkpoint_with_absurd_weights_is_numerical_failure(
        self, pretrained, tmp_path, method
    ):
        # finite block-0 dense weights 1e300 times the trained ones inside a
        # valid archive: the distance report (source) or the forward (bn,
        # cafa) overflows; each exited 0, source with nan distances, bn and
        # cafa with a RuntimeWarning and recorded accuracies
        config, out = pretrained
        doc = json.loads(config.read_text())
        doc["methods"].append({"method": "bn", "steps_per_batch": 0, "batch_size": 16})
        config.write_text(json.dumps(doc))
        path = out / "checkpoint.npz"

        def absurd(arrays, header):
            arrays["block0.dense.weight"] *= 1e300

        rewrite_archive(path, edit_arrays=absurd)
        args = ["adapt", "--config", str(config), "--checkpoint", str(path)]
        args += ["--stats", str(out / "stats.bin"), "--method", method]
        args += ["--out-dir", str(tmp_path / "adapt")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, err = run_quietly(args)
        assert code == 2
        failures = [line for line in err.splitlines() if line.startswith("numerical failure: ")]
        assert len(failures) == 1 and "overflowed" in failures[0], err
        assert "Traceback" not in err and "Warning" not in err, err

    @pytest.mark.parametrize("method", ["source", "cafa"])
    def test_stats_with_absurd_class_mean_are_io_error(self, pretrained, tmp_path, method):
        # a finite first mean entry of 1e200 inside a valid archive: every
        # Mahalanobis form of that class overflows (source wrote inf and nan
        # distances with exit 0, cafa a nan loss with exit 2)
        config, out = pretrained
        path = out / "stats.bin"
        rewrite_archive(path, edit_arrays=first_class_mean(1e200))
        args = ["adapt", "--config", str(config), "--checkpoint", str(out / "checkpoint.npz")]
        args += ["--stats", str(path), "--method", method, "--out-dir", str(tmp_path / "adapt")]
        code, err = run_quietly(args)
        assert code == 3
        assert err.count("\n") == 1 and err.startswith("i/o error"), err
        assert not (tmp_path / "adapt").exists()

    def test_stats_of_format_v1_are_io_error(self, pretrained, tmp_path):
        # the binary frame of version 1 is refused as such, not read
        config, out = pretrained
        args = ["adapt", "--config", str(config), "--checkpoint", str(out / "checkpoint.npz")]
        args += ["--stats", STATS_V1, "--method", "cafa", "--out-dir", str(tmp_path / "adapt")]
        code, err = run_quietly(args)
        assert code == 3
        assert err.count("\n") == 1 and err.startswith("i/o error"), err
        assert "version-1 stats file" in err and "tta-align stats" in err
        assert not (tmp_path / "adapt").exists()

    def test_batch_larger_than_target_stream_is_config_error(self, pretrained, tmp_path, capsys):
        # 3 classes x 64 samples: a batch of 193 would leave the method no batch
        config, out = pretrained
        doc = json.loads(config.read_text())
        doc["methods"][2]["batch_size"] = 193  # cafa
        config.write_text(json.dumps(doc))
        args = ["adapt", "--config", str(config), "--checkpoint", str(out / "checkpoint.npz")]
        args += ["--stats", str(out / "stats.bin"), "--method", "cafa"]
        args += ["--out-dir", str(tmp_path / "adapt")]
        assert cli.main(args) == 1
        assert "method 'cafa' batch_size 193 exceeds the 192 target samples" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "adapt").exists()

    @pytest.mark.parametrize(
        "damage",
        [
            "missing_key",
            "wrong_shape",
            "garbage_bytes",
            "nan_weight",
            "complex_running_mean",
            "complex_gamma",
            "bool_running_mean",
            "float32_weight",
        ],
    )
    def test_malformed_checkpoint_is_io_error(self, pretrained, capsys, damage):
        config, out = pretrained
        path = out / "checkpoint.npz"

        def edit(arrays, header):
            if damage == "missing_key":
                del arrays["classifier.bias"]
            elif damage == "wrong_shape":
                arrays["classifier.weight"] = arrays["classifier.weight"][:, :-1]
            elif damage == "nan_weight":  # loads with a consistent layout
                arrays["block0.dense.weight"][0, 0] = np.nan
            # entries of a dtype no writer produces; loaded, a complex running
            # mean breaks the forward with a traceback, a complex gamma loses
            # its imaginary part, a bool running mean reads as 0/1 and float32
            # widens
            elif damage == "complex_running_mean":
                mean = arrays["block0.bn.running_mean"]
                arrays["block0.bn.running_mean"] = mean.astype(complex)
            elif damage == "complex_gamma":
                arrays["block0.bn.gamma"] = arrays["block0.bn.gamma"] + 1j
            elif damage == "bool_running_mean":
                arrays["block0.bn.running_mean"] = arrays["block0.bn.running_mean"] > 0
            elif damage == "float32_weight":
                arrays["block0.dense.weight"] = arrays["block0.dense.weight"].astype(np.float32)

        rewrite_archive(path, edit_arrays=edit)
        if damage == "garbage_bytes":  # not an archive at all
            path.write_bytes(b"\x00garbage" * 16)
        code = cli.main(
            [
                "adapt",
                "--config",
                str(config),
                "--checkpoint",
                str(path),
                "--stats",
                str(out / "stats.bin"),
                "--method",
                "cafa",
            ]
        )
        assert code == 3
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "misfit, command",
        [
            pytest.param(misfit, command, id=f"{misfit}-{command}")
            for misfit, sections in MISFITS.items()
            for command in ("adapt", "stats")
            if command == "adapt" or "pretrain" not in sections
        ],
    )
    def test_config_that_does_not_fit_checkpoint_is_config_error(
        self, pretrained, tmp_path, capsys, misfit, command
    ):
        # refused before any data is generated: no output is written
        config, out = pretrained
        other = config_with(config, tmp_path, **MISFITS[misfit])
        args = [command, "--config", str(other), "--checkpoint", str(out / "checkpoint.npz")]
        if command == "adapt":
            args += ["--stats", str(out / "stats.bin"), "--method", "cafa"]
            args += ["--out-dir", str(tmp_path / "adapt")]
        else:
            args += ["--out", str(out / "stats2.bin")]
        assert cli.main(args) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "adapt").exists() and not (out / "stats2.bin").exists()

    @pytest.mark.parametrize(
        "section, values",
        [("model", {"hidden_dims": [8, 4]}), ("synthetic", FOUR_CLASSES)],
        ids=["feature_dim", "n_classes"],
    )
    def test_stats_that_do_not_fit_checkpoint_are_io_error(
        self, pretrained, tmp_path, capsys, section, values
    ):
        config, out = pretrained
        other = tmp_path / "other"
        other_config = config_with(config, tmp_path, **{section: values})
        assert cli.main(["pretrain", "--config", str(other_config), "--out-dir", str(other)]) == 0
        code = cli.main(
            [
                "adapt",
                "--config",
                str(config),
                "--checkpoint",
                str(out / "checkpoint.npz"),
                "--stats",
                str(other / "stats.bin"),
                "--method",
                "cafa",
                "--out-dir",
                str(tmp_path / "adapt"),
            ]
        )
        assert code == 3
        assert "i/o error" in capsys.readouterr().err
        assert not (tmp_path / "adapt").exists()

    def test_non_finite_loss_keeps_partial_record(self, pretrained, capsys):
        config, out = pretrained
        doc = json.loads(config.read_text())
        doc["methods"][1]["learning_rate"] = 1e150  # global_fa
        config.write_text(json.dumps(doc))
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(
                [
                    "adapt",
                    "--config",
                    str(config),
                    "--checkpoint",
                    str(out / "checkpoint.npz"),
                    "--stats",
                    str(out / "stats.bin"),
                    "--method",
                    "global_fa",
                    "--out-dir",
                    str(out),
                ]
            )
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err
        rows = read_run_record(str(out), "global_fa").rows
        assert 1 <= len(rows) < 12  # 192 target samples in batches of 16
        header = json.loads((out / "run_global_fa.json").read_text())
        assert header["config"]["learning_rate"] == 1e150


class TestCompareCommand:
    def test_writes_full_report(self, tmp_path, capsys):
        config = tiny_config(tmp_path)
        out = tmp_path / "cmp"
        assert cli.main(["compare", "--config", str(config), "--out-dir", str(out)]) == 0
        for name in (
            "manifest.json",
            "summary.csv",
            "summary.txt",
            "run_source.csv",
            "run_global_fa.csv",
            "run_cafa.csv",
            "accuracy_trajectories.csv",
        ):
            assert (out / name).exists()
        assert "cafa" in capsys.readouterr().out

    def test_batch_larger_than_target_stream_is_config_error(self, tmp_path, capsys):
        doc = json.loads(tiny_config(tmp_path).read_text())
        doc["methods"][1]["batch_size"] = 193  # global_fa; 3 x 64 target samples
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "cmp"
        assert cli.main(["compare", "--config", str(config), "--out-dir", str(out)]) == 1
        assert "method 'global_fa' batch_size 193 exceeds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("steps, partial_rows", [(1, range(1, 12)), (2, [0])])
    def test_non_finite_loss_keeps_partial_records(self, tmp_path, capsys, steps, partial_rows):
        config = tiny_config(tmp_path)
        doc = json.loads(config.read_text())
        # global_fa diverges: at steps 1 on a later batch, at steps 2 on the
        # second step of the first batch, which leaves it no finished row
        doc["methods"][1].update(learning_rate=1e150, steps_per_batch=steps)
        config.write_text(json.dumps(doc))
        out = tmp_path / "cmp"
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["compare", "--config", str(config), "--out-dir", str(out)])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err
        assert len(read_run_record(str(out), "source").rows) == 12
        assert len(read_run_record(str(out), "global_fa").rows) in partial_rows
        header = json.loads((out / "run_global_fa.json").read_text())
        assert header["config"]["learning_rate"] == 1e150
        # the method after the failing one never ran, and no summary claims a result
        assert not (out / "run_cafa.csv").exists()
        assert not (out / "summary.csv").exists()

    def test_draws_data_once(self, tmp_path, monkeypatch):
        # pretraining and every method read one draw: train and holdout come
        # first from the generator, so the shifted draw holds them too
        draw = tta_align.data.generate_dataset
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("shift"))
            return draw(*args, **kwargs)

        monkeypatch.setattr(tta_align.data, "generate_dataset", counted)
        config = tiny_config(tmp_path)
        assert cli.main(["compare", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
        assert len(calls) == 1 and calls[0] is not None

    def test_two_runs_bitwise_identical(self, tmp_path):
        config = tiny_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(["compare", "--config", str(config), "--out-dir", str(out_a)]) == 0
        assert cli.main(["compare", "--config", str(config), "--out-dir", str(out_b)]) == 0
        for path_a in sorted(out_a.glob("*.csv")):
            path_b = out_b / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()


UNIQUE_RUN_NAMES = '"methods" must list one or more unique run names'


class TestReportCommand:
    def test_rebuilds_summaries(self, tmp_path, capsys):
        config = tiny_config(tmp_path)
        out = tmp_path / "rep"
        cli.main(["compare", "--config", str(config), "--out-dir", str(out)])
        before = (out / "summary.csv").read_bytes()
        (out / "summary.csv").unlink()
        (out / "summary.txt").unlink()
        assert cli.main(["report", "--run-dir", str(out)]) == 0
        assert (out / "summary.csv").read_bytes() == before

    def test_missing_run_dir(self, tmp_path, capsys):
        code = cli.main(["report", "--run-dir", str(tmp_path / "nowhere")])
        assert code == 1

    @pytest.mark.parametrize(
        "damage",
        [
            "manifest_not_json",
            "no_methods",
            "empty_methods",
            "text_cell",
            "no_rows",
            "no_header",
            "header_not_json",
            "header_without_config",
            "header_unknown_key",
            "header_mistyped",
            "header_invalid",
            "header_of_other_run",
            "accuracy_nan",
            "accuracy_above_one",
            "batch_index_out_of_order",
            "no_manifest",
            "loss_nan",
            "loss_of_loss_free_run",
            "mean_intra_inf",
            "mean_inter_negative",
            "distance_nan_in_one_row",
            "header_removed_key",
            "n_batches_missing",
            "n_batches_not_integer",
            "last_row_cut",
            "repeated_column",
            "extra_field",
            "extra_column",
            "reordered_columns",
            "oversized_cell",
            "batch_index_padded",
            "loss_with_underscore",
            "mean_intra_with_underscore",
            "manifest_unknown_key",
            "manifest_accuracy_not_a_number",
            "header_unknown_top_level_key",
            "manifest_repeated_key",
            "header_repeated_key",
        ],
    )
    def test_malformed_run_dir_is_io_error(self, tmp_path, capsys, damage):
        header = "batch_index,accuracy,loss,mean_intra,mean_inter\n"
        rows = "0,0.5,0.1,2.0,3.0\n1,0.5,0.1,2.0,3.0\n"
        run_csv = header + rows
        config = TtaConfig(method="cafa").to_dict()
        run_header = {"config": config, "n_batches": 2}
        (tmp_path / "manifest.json").write_text(json.dumps({"methods": ["cafa"]}))
        (tmp_path / "run_cafa.csv").write_text(run_csv)
        (tmp_path / "run_cafa.json").write_text(json.dumps(run_header))
        assert cli.main(["report", "--run-dir", str(tmp_path)]) == 0
        damaged = {
            "manifest_not_json": ("manifest.json", "{broken"),
            "no_methods": ("manifest.json", json.dumps({"runs": ["cafa"]})),
            "empty_methods": ("manifest.json", json.dumps({"methods": []})),
            "text_cell": ("run_cafa.csv", run_csv.replace("0.5", "high")),
            "no_rows": ("run_cafa.csv", header),
            "no_header": ("run_cafa.json", None),
            "header_not_json": ("run_cafa.json", "{broken"),
            "header_without_config": ("run_cafa.json", json.dumps({"cfg": {}})),
            "header_unknown_key": (
                "run_cafa.json",
                json.dumps({"config": {"method": "cafa", "speed": 2}}),
            ),
            "header_mistyped": (
                "run_cafa.json",
                json.dumps(
                    {"config": {"method": "cafa", "steps_per_batch": "2", "learning_rate": "fast"}}
                ),
            ),
            "header_invalid": (
                "run_cafa.json",
                json.dumps({"config": {"method": "tent", "learning_rate": -1.0}}),
            ),
            "header_of_other_run": (
                "run_cafa.json",
                json.dumps({"config": TtaConfig(method="bn", steps_per_batch=0).to_dict()}),
            ),
            # batches of 64 (the header's batch_size) score a whole number of
            # hits out of 64, and count up from 0
            "accuracy_nan": ("run_cafa.csv", run_csv.replace("0.5", "nan")),
            "accuracy_above_one": ("run_cafa.csv", run_csv.replace("0.5", "7.5")),
            "batch_index_out_of_order": (
                "run_cafa.csv",
                header + "1,0.5,0.1,2.0,3.0\n0,0.5,0.1,2.0,3.0\n",
            ),
            "no_manifest": ("manifest.json", None),
            # an optimizing run's loss is finite, a loss-free run's nan; each
            # distance column is finite and >= 0, or nan throughout
            "loss_nan": ("run_cafa.csv", run_csv.replace("0.1", "nan", 1)),
            "loss_of_loss_free_run": (
                "run_cafa.json",
                json.dumps(
                    {
                        "config": TtaConfig(method="bn", name="cafa", steps_per_batch=0).to_dict(),
                        "n_batches": 2,
                    }
                ),
            ),
            "mean_intra_inf": ("run_cafa.csv", run_csv.replace("2.0", "inf")),
            "mean_inter_negative": ("run_cafa.csv", run_csv.replace("3.0", "-3.0")),
            "distance_nan_in_one_row": ("run_cafa.csv", run_csv.replace("2.0", "nan", 1)),
            "header_removed_key": (
                "run_cafa.json",
                json.dumps({"config": {**config, "adam_beta1": 0.9}, "n_batches": 2}),
            ),
            # the header counts the rows, so a cut CSV is detectable
            "n_batches_missing": ("run_cafa.json", json.dumps({"config": config})),
            "n_batches_not_integer": (
                "run_cafa.json",
                json.dumps({"config": config, "n_batches": 2.0}),
            ),
            "last_row_cut": ("run_cafa.csv", header + "0,0.5,0.1,2.0,3.0\n"),
            # the columns are the writer's, in its order, in every row
            "repeated_column": (
                "run_cafa.csv",
                header.replace("\n", ",accuracy\n") + rows.replace("\n", ",0.0\n"),
            ),
            "extra_field": ("run_cafa.csv", run_csv.replace("3.0\n", "3.0,9\n", 1)),
            "extra_column": (
                "run_cafa.csv",
                header.replace("\n", ",note\n") + rows.replace("\n", ",x\n"),
            ),
            "reordered_columns": (
                "run_cafa.csv",
                run_csv.replace("mean_intra,mean_inter", "mean_inter,mean_intra"),
            ),
            # past the csv module's field size limit
            "oversized_cell": ("run_cafa.csv", run_csv.replace("0.1", "0" * 200_000, 1)),
            # every cell is the writer's form of its number: the repr of a
            # float, the str of the batch index
            "batch_index_padded": ("run_cafa.csv", header + " 0 " + rows[1:]),
            "loss_with_underscore": ("run_cafa.csv", run_csv.replace("0.1", "1_0", 1)),
            "mean_intra_with_underscore": ("run_cafa.csv", run_csv.replace("2.0", "2_000.0")),
            # the manifest and the run header are read by the config walk
            "manifest_unknown_key": ("manifest.json", json.dumps({"methods": ["cafa"], "x": 1})),
            "manifest_accuracy_not_a_number": (
                "manifest.json",
                json.dumps({"methods": ["cafa"], "source_holdout_accuracy": "lots"}),
            ),
            "header_unknown_top_level_key": (
                "run_cafa.json",
                json.dumps({"config": config, "n_batches": 2, "note": "x"}),
            ),
            # json would keep the last of the two
            "manifest_repeated_key": (
                "manifest.json",
                key_twice({"methods": ["cafa"]}, "methods"),
            ),
            "header_repeated_key": ("run_cafa.json", key_twice(run_header, "n_batches")),
        }
        name, text = damaged[damage]
        if text is None:
            (tmp_path / name).unlink()
        else:
            (tmp_path / name).write_text(text)
        assert cli.main(["report", "--run-dir", str(tmp_path)]) == 3
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "methods, message",
        [
            (["cafa", "cafa"], UNIQUE_RUN_NAMES),
            ("cafa", "field 'methods' in section 'manifest.json' must be a JSON list, got 'cafa'"),
            (["cafa", "../cafa"], UNIQUE_RUN_NAMES),
            (
                ["cafa", 5],
                "field 'methods' in section 'manifest.json' must be a JSON list "
                "with each entry a string, got ['cafa', 5]",
            ),
        ],
        ids=["duplicate", "string", "path", "number"],
    )
    def test_manifest_methods_must_be_unique_run_names(self, tmp_path, capsys, methods, message):
        # a method listed twice would collapse into one summary row, and a
        # string would be read one character at a time; the walk refuses a
        # value that is not a list of strings
        (tmp_path / "run_cafa.csv").write_text(
            "batch_index,accuracy,loss,mean_intra,mean_inter\n0,0.5,0.1,2.0,3.0\n"
        )
        (tmp_path / "run_cafa.json").write_text(
            json.dumps({"config": TtaConfig(method="cafa").to_dict(), "n_batches": 1})
        )
        (tmp_path / "manifest.json").write_text(json.dumps({"methods": methods}))
        assert cli.main(["report", "--run-dir", str(tmp_path)]) == 3
        assert message in capsys.readouterr().err


class TestErrorExitCodes:
    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"epochs": 5}))
        assert cli.main(["pretrain", "--config", str(path)]) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["pretrain", "--config", str(tmp_path / "absent.json")]) == 1

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{broken")
        assert cli.main(["pretrain", "--config", str(path)]) == 1

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        config = tiny_config(tmp_path)
        doc = json.loads(config.read_text())
        doc["pretrain"]["learning_rate"] = 1e200
        config.write_text(json.dumps(doc))
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["pretrain", "--config", str(config)])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err


def run_quietly(argv) -> tuple[int, str]:
    """`cli.main(argv)`'s exit code and what it printed to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


def assert_fails_closed(code: int, err: str) -> None:
    """Exit 0, or 1 or 3 with one error line; exit 2 only for a loss that
    went non-finite or a forward or distance report that overflowed."""
    if code == 2:
        assert "numerical failure" in err, err
        assert "loss evaluated to" in err or "overflowed" in err, err
    else:
        assert code in (0, 1, 3), err
        assert code == 0 or err.count("\n") == 1, err


@pytest.fixture(scope="module")
def fuzz_artifacts(tmp_path_factory):
    """A pretrained tiny config: its config path, checkpoint bytes and stats."""
    tmp = tmp_path_factory.mktemp("fuzz")
    config = tiny_config(tmp)
    assert cli.main(["pretrain", "--config", str(config), "--out-dir", str(tmp)]) == 0
    return config, (tmp / "checkpoint.npz").read_bytes(), tmp / "stats.bin"


@pytest.mark.parametrize(
    "offset, value",
    [(8, 0x01), (10, 99), (6, 99)],
    ids=["encrypted_flag", "compression_method", "zip_version"],
)
def test_checkpoint_entry_zipfile_cannot_read_is_io_error(fuzz_artifacts, tmp_path, offset, value):
    # a field of the first central directory entry that makes zipfile refuse
    # the entry; the archive itself opens
    config, good, stats = fuzz_artifacts
    blob = bytearray(good)
    blob[blob.find(b"PK\x01\x02") + offset] = value
    (tmp_path / "checkpoint.npz").write_bytes(bytes(blob))
    code = cli.main(
        [
            "adapt",
            "--config",
            str(config),
            "--checkpoint",
            str(tmp_path / "checkpoint.npz"),
            "--stats",
            str(stats),
            "--method",
            "source",
        ]
    )
    assert code == 3


@pytest.mark.parametrize("name", ["checkpoint.npz", "stats.bin"])
@settings(max_examples=40, deadline=None)
@given(
    cut=st.none() | st.integers(0, 1 << 16),
    flips=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)), max_size=3),
    rewrite=st.booleans(),
)
def test_damaged_archive_fails_closed(
    fuzz_artifacts, tmp_path_factory, name, cut, flips, rewrite
):
    # a checkpoint or stats file with flipped bits, cut short or not, or, with
    # `rewrite`, with the bits flipped in its array values inside a valid
    # archive: `adapt` runs (the damage missed everything it reads), or
    # fails closed
    config, checkpoint, stats = fuzz_artifacts
    tmp = tmp_path_factory.mktemp("archive")
    paths = {"checkpoint.npz": tmp / "checkpoint.npz", "stats.bin": tmp / "stats.bin"}
    paths["checkpoint.npz"].write_bytes(checkpoint)
    paths["stats.bin"].write_bytes(stats.read_bytes())
    path = paths[name]
    if rewrite:

        def flip_values(arrays, header):
            for i, mask in flips:  # a byte of one array's values
                values = list(arrays.values())[i % len(arrays)].reshape(-1).view(np.uint8)
                values[i // len(arrays) % values.size] ^= mask

        rewrite_archive(path, edit_arrays=flip_values)
    else:
        blob = bytearray(path.read_bytes())
        for i, mask in flips:
            blob[i % len(blob)] ^= mask
        if cut is not None:
            del blob[cut % (len(blob) + 1) :]
        path.write_bytes(bytes(blob))
    args = ["adapt", "--config", str(config), "--checkpoint", str(paths["checkpoint.npz"])]
    args += ["--stats", str(paths["stats.bin"]), "--method", "cafa"]
    args += ["--out-dir", str(tmp / "adapt")]
    with np.errstate(over="ignore", invalid="ignore"):
        assert_fails_closed(*run_quietly(args))


RUN_FILES = [f"run_{m['method']}{suffix}" for m in ALL_METHODS for suffix in (".csv", ".json")]


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(RUN_FILES),
    cut=st.integers(0, 1 << 12),
    flips=st.lists(st.tuples(st.integers(0, 1 << 12), st.integers(1, 255)), max_size=3),
)
def test_damaged_run_dir_fails_closed(compared, tmp_path_factory, name, cut, flips):
    # one run CSV or run header of a `compare` directory cut short or with
    # flipped bits: `report` summarizes accuracies in [0, 1], or exits 3 with
    # one error line
    _, good = compared
    tmp = tmp_path_factory.mktemp("report")
    for kept in ["manifest.json", *RUN_FILES]:
        shutil.copyfile(good / kept, tmp / kept)
    blob = bytearray((good / name).read_bytes())
    for i, mask in flips:
        blob[i % len(blob)] ^= mask
    del blob[cut % (len(blob) + 1) :]
    (tmp / name).write_bytes(bytes(blob))
    code, err = run_quietly(["report", "--run-dir", str(tmp)])
    assert code in (0, 3), err
    if code == 3:
        assert err.startswith("i/o error") and err.count("\n") == 1, err
    else:
        with open(tmp / "summary.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                for key in ("mean_accuracy", "final_quarter_accuracy"):
                    assert 0.0 <= float(row[key]) <= 1.0, row


def tiny_default_document() -> dict:
    """The default config document on tiny data: 20 training and 64 target
    samples per class, one epoch of batches of 16."""
    doc = ExperimentConfig.default().to_dict()
    doc["synthetic"].update(n_train_per_class=20, n_test_per_class=64)
    doc["pretrain"].update(epochs=1, batch_size=16)
    return doc


def document_paths(node, prefix=()):
    """The key path of every value nested in a JSON document."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in children:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from document_paths(value, prefix + (key,))


CONFIG_PATHS = list(document_paths(tiny_default_document()))
# bounded integers: a size field as large as the type allows is a run that
# does not fit in memory, not a malformed document
CONFIG_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 70),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.integers(-3, 70) | st.floats(-1e3, 1e3), max_size=4),
)


@settings(max_examples=60, deadline=None)
@given(edits=st.dictionaries(st.sampled_from(CONFIG_PATHS), CONFIG_VALUES, min_size=1, max_size=3))
@example(edits={("pretrain", "batch_size"): 61})
@example(edits={("methods", 6, "batch_size"): 193})
@example(edits={("synthetic", "seed"): -1})
@example(edits={("synthetic", "cov_scales", 0): 1e300})
@example(edits={("synthetic", "mean_scale"): 1.7e308})
@example(edits={("pretrain", "eps_scale"): 1e-320})
@example(edits={("methods", 0, "name"): "\x00"})
def test_config_values_fail_closed(tmp_path_factory, edits):
    # values of the default document replaced; a deeper path is edited before
    # any section that holds it, so every edit lands
    doc = tiny_default_document()
    for path, value in sorted(edits.items(), key=lambda e: -len(e[0])):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    tmp = tmp_path_factory.mktemp("config")
    (tmp / "config.json").write_text(json.dumps(doc))
    with np.errstate(over="ignore", invalid="ignore"):
        code, err = run_quietly(
            ["compare", "--config", str(tmp / "config.json"), "--out-dir", str(tmp / "out")]
        )
    assert_fails_closed(code, err)


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(tta_align.__file__))
    check = "import sys, tta_align.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", check],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
