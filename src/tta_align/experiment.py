"""Experiment drivers: source pre-training and method comparisons.

Every method in one experiment consumes the identical target stream; each
method adapts its own copy of the pretrained model.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from . import adapt, data, losses, network, stats as stats_mod
from .adapt import RunRecord, adapt_stream
from .config import ExperimentConfig, tta_config_from_dict, valid_run_name
from .errors import (
    ConfigInvalid,
    NonFiniteLoss,
    NotPositiveDefinite,
    StatsIoError,
    TrainingDiverged,
)
from .network import AdaptiveModel, StatMode
from .stats import SourceStats


@dataclass
class PretrainResult:
    """What adaptation reads of the source side. The training set is not
    kept: a caller that needs it again passes it to `pretrain_source`."""

    model: AdaptiveModel
    stats: SourceStats
    holdout_accuracy: float


def evaluate_accuracy(model: AdaptiveModel, x, y) -> float:
    preds = network.predict(model, x, StatMode.RUNNING_EVAL)
    return float(np.mean(preds == np.asarray(y)))


def pretrain_source(cfg: ExperimentConfig, dataset: data.Dataset | None = None) -> PretrainResult:
    """Train the desk model on source data and fit the source Gaussians."""
    cfg.synthetic.validate()
    cfg.model.validate()
    cfg.pretrain.validate()
    if dataset is None:
        dataset = data.generate_dataset(cfg.synthetic, shift=None)

    rng = np.random.default_rng(cfg.model.seed)
    model = network.init_model(
        cfg.synthetic.input_dim,
        [int(w) for w in cfg.model.hidden_dims],
        cfg.synthetic.n_classes,
        rng,
        bn_momentum=cfg.model.bn_momentum,
    )
    adam = adapt.AdamState()
    shuffle_rng = np.random.default_rng(cfg.pretrain.seed)

    n = dataset.train_x.shape[0]
    bs = cfg.pretrain.batch_size
    for _ in range(cfg.pretrain.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n - bs + 1, bs):
            idx = order[start : start + bs]
            xb = dataset.train_x[idx]
            yb = dataset.train_y[idx]
            spec = losses.CrossEntropy(labels=yb)
            try:
                _, grad, _ = network.loss_and_grad_named(
                    model, xb, StatMode.TRAIN_UPDATE, spec, None
                )
            except NonFiniteLoss as exc:
                raise TrainingDiverged(f"pretraining diverged: {exc}") from exc
            adapt.adam_step(model.flat, grad, adam, cfg.pretrain.learning_rate)

    holdout = evaluate_accuracy(model, dataset.test_x, dataset.test_y)
    source_stats = source_statistics(cfg, model, dataset)
    return PretrainResult(model, source_stats, holdout)


def source_statistics(
    cfg: ExperimentConfig, model: AdaptiveModel, dataset: data.Dataset
) -> SourceStats:
    """The source Gaussians of `model`'s features on the training set, as the
    pretrain section configures them. A covariance that the configured
    eps_scale leaves without a finite precision is a config error."""
    try:
        return stats_mod.estimate_source_stats(
            model,
            dataset.train_x,
            dataset.train_y,
            mode=cfg.pretrain.covariance_mode,
            eps_scale=cfg.pretrain.eps_scale,
        )
    except NotPositiveDefinite as exc:
        raise ConfigInvalid(
            f"pretrain eps_scale {cfg.pretrain.eps_scale} leaves a source covariance "
            f"without a precision: {exc}"
        ) from exc


# -- comparison runs -----------------------------------------------------------


@dataclass
class MethodSummary:
    name: str
    mean_accuracy: float
    final_quarter_accuracy: float
    final_mean_intra: float
    final_mean_inter: float


@dataclass
class ExperimentResult:
    records: dict[str, RunRecord]
    summaries: list[MethodSummary]
    source_holdout_accuracy: float


def final_quarter_mean(values: np.ndarray) -> float:
    n = len(values)
    start = n - max(1, n // 4)
    return float(np.mean(values[start:]))


def summarize_record(name: str, record: RunRecord) -> MethodSummary:
    acc = record.accuracies()
    return MethodSummary(
        name=name,
        mean_accuracy=float(np.mean(acc)),
        final_quarter_accuracy=final_quarter_mean(acc),
        final_mean_intra=record.rows[-1].mean_intra,
        final_mean_inter=record.rows[-1].mean_inter,
    )


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | None = None,
    pretrained: PretrainResult | None = None,
) -> ExperimentResult:
    """Pretrain (unless given), build one shared stream, run every method."""
    cfg.validate()
    if pretrained is None:
        pretrained = pretrain_source(cfg)

    shifted = data.generate_dataset(cfg.synthetic, shift=cfg.shift)
    records: dict[str, RunRecord] = {}
    summaries: list[MethodSummary] = []
    for mcfg in cfg.methods:
        batches = data.batch_stream(shifted.target_x, shifted.target_y, mcfg.batch_size)
        model = pretrained.model.copy()
        try:
            _, record = adapt_stream(model, pretrained.stats, batches, mcfg)
        except NonFiniteLoss as exc:
            if out_dir is not None:
                # keep the finished methods and the batches this one finished
                write_run_records({**records, mcfg.run_name: exc.record}, out_dir)
            raise
        records[mcfg.run_name] = record
        summaries.append(summarize_record(mcfg.run_name, record))

    result = ExperimentResult(
        records=records,
        summaries=summaries,
        source_holdout_accuracy=pretrained.holdout_accuracy,
    )
    if out_dir is not None:
        write_experiment_outputs(result, out_dir)
    return result


# -- report files ----------------------------------------------------------------


def write_run_records(records: dict[str, RunRecord], out_dir: str) -> None:
    """`run_<name>.csv` and `run_<name>.json` for every record."""
    os.makedirs(out_dir, exist_ok=True)
    for name, record in records.items():
        adapt.write_run_record(
            record,
            os.path.join(out_dir, f"run_{name}.csv"),
            os.path.join(out_dir, f"run_{name}.json"),
        )


def write_experiment_outputs(result: ExperimentResult, out_dir: str) -> None:
    names = list(result.records)
    write_run_records(result.records, out_dir)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(
            {
                "methods": names,
                "source_holdout_accuracy": result.source_holdout_accuracy,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    write_summary_files(result.summaries, out_dir)
    write_trajectory_files(result.records, out_dir)


SUMMARY_FIELDS = (
    "method",
    "mean_accuracy",
    "final_quarter_accuracy",
    "final_mean_intra",
    "final_mean_inter",
)


def write_summary_files(summaries: list[MethodSummary], out_dir: str) -> None:
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_FIELDS)
        for s in summaries:
            writer.writerow(
                [
                    s.name,
                    repr(s.mean_accuracy),
                    repr(s.final_quarter_accuracy),
                    repr(s.final_mean_intra),
                    repr(s.final_mean_inter),
                ]
            )
    widths = [12, 15, 24, 18, 18]  # each wider than its header
    lines = ["".join(f"{h:<{w}}" for h, w in zip(SUMMARY_FIELDS, widths))]
    for s in summaries:
        cells = [
            s.name,
            f"{s.mean_accuracy:.4f}",
            f"{s.final_quarter_accuracy:.4f}",
            f"{s.final_mean_intra:.4f}",
            f"{s.final_mean_inter:.4f}",
        ]
        lines.append("".join(f"{c:<{w}}" for c, w in zip(cells, widths)))
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trajectory_files(records: dict[str, RunRecord], out_dir: str) -> None:
    """Plot-data CSVs: batch index on x, one column per method."""
    names = list(records)
    columns = {
        "accuracy_trajectories.csv": "accuracy",
        "intra_distance_trajectories.csv": "mean_intra",
        "inter_distance_trajectories.csv": "mean_inter",
        "loss_trajectories.csv": "loss",
    }
    n_batches = min(len(r.rows) for r in records.values())
    for filename, attr in columns.items():
        with open(os.path.join(out_dir, filename), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["batch_index"] + names)
            for i in range(n_batches):
                writer.writerow(
                    [i] + [repr(getattr(records[n].rows[i], attr)) for n in names]
                )


def rebuild_report(run_dir: str) -> list[MethodSummary]:
    """Regenerate summary files from the RunRecord CSVs in a run directory.

    A `run_dir` that is not a directory is a usage error (ConfigInvalid); a
    run directory with a missing or malformed file is an I/O error.
    """
    if not os.path.isdir(run_dir):
        raise ConfigInvalid(f"run directory {run_dir} does not exist")
    manifest_path = os.path.join(run_dir, "manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:  # missing, unreadable or not JSON
        raise StatsIoError(f"cannot read {manifest_path}: {exc}") from exc
    methods = manifest.get("methods") if isinstance(manifest, dict) else None
    if (
        not isinstance(methods, list)
        or not methods
        or not all(map(valid_run_name, methods))
        or len(set(methods)) != len(methods)
    ):
        raise StatsIoError(
            f"{manifest_path}: \"methods\" must list one or more unique run names, "
            f"got {methods!r}"
        )
    records: dict[str, RunRecord] = {}
    try:
        for name in methods:
            rows = adapt.read_run_record_rows(os.path.join(run_dir, f"run_{name}.csv"))
            if not rows:
                raise StatsIoError(f"run_{name}.csv in {run_dir} holds no batch rows")
            with open(os.path.join(run_dir, f"run_{name}.json")) as fh:
                header = json.load(fh)["config"]
            config = tta_config_from_dict(header, f"run_{name}.json config")
            config.validate()
            records[name] = RunRecord(config=config, rows=rows)
    except (OSError, KeyError, TypeError, ValueError, ConfigInvalid) as exc:
        raise StatsIoError(f"malformed run directory {run_dir}: {exc!r}") from exc
    summaries = [summarize_record(n, r) for n, r in records.items()]
    write_summary_files(summaries, run_dir)
    write_trajectory_files(records, run_dir)
    return summaries
