"""Experiment drivers: source pre-training, method runs and the run directory.

Every method in one experiment consumes the identical target stream; each
method adapts its own copy of the pretrained model. This module is the only
code that writes or reads a run directory.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections.abc import Iterable
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import adapt, data, network, stats as stats_mod
from .adapt import BatchRow, RunRecord, adapt_stream
from .config import (
    NO_LOSS_METHODS,
    ExperimentConfig,
    Manifest,
    RunHeader,
    TtaConfig,
    parse_json,
    plain,
    read,
    valid_run_name,
)
from .errors import (
    ConfigInvalid,
    NonFiniteLoss,
    NotPositiveDefinite,
    StatsIoError,
    TrainingDiverged,
)
from .network import AdaptiveModel, StatMode
from .stats import SourceStats

# the model's initial weights and the order of its training batches are the
# same for every data seed
INIT_SEED = 0
SHUFFLE_SEED = 0


@dataclass
class PretrainResult:
    """What adaptation reads of the source side. The training set is not
    kept: a caller that needs it again passes it to `pretrain_source`."""

    model: AdaptiveModel
    stats: SourceStats
    holdout_accuracy: float


def evaluate_accuracy(model: AdaptiveModel, x, y) -> float:
    preds = network.predict(model, x, StatMode.RUNNING_EVAL)
    return float(np.mean(preds == network.as_labels(y, preds.size, model.n_classes)))


def pretrain_source(cfg: ExperimentConfig, dataset: data.Dataset | None = None) -> PretrainResult:
    """Train the desk model on source data and fit the source Gaussians."""
    cfg.synthetic.validate()
    cfg.model.validate()
    cfg.pretrain.validate()
    if dataset is None:
        dataset = data.generate_dataset(cfg.synthetic, shift=None)

    rng = np.random.default_rng(INIT_SEED)
    model = network.init_model(
        cfg.synthetic.input_dim,
        cfg.model.hidden_dims,
        cfg.synthetic.n_classes,
        rng,
    )
    adam = adapt.AdamState()
    shuffle_rng = np.random.default_rng(SHUFFLE_SEED)

    train_x, train_y = dataset.train_x, dataset.train_y
    n = train_x.shape[0]
    bs = cfg.pretrain.batch_size
    for _ in range(cfg.pretrain.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n - bs + 1, bs):
            idx = order[start : start + bs]
            xb = train_x[idx]
            yb = train_y[idx]
            try:
                _, grad, _ = network.loss_and_grad_named(
                    model, xb, StatMode.TRAIN_UPDATE, None, "pl", labels=yb
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


def run_methods(
    methods: list[TtaConfig],
    model: AdaptiveModel,
    stats: SourceStats,
    dataset: data.Dataset,
    out_dir: str | None = None,
) -> dict[str, RunRecord]:
    """Run each method on its own copy of `model` over `dataset`'s target
    stream, and write each record to `out_dir` when one is given. A loss that
    goes non-finite writes the finished records and the failing method's
    partial one, then raises."""
    records: dict[str, RunRecord] = {}
    for mcfg in methods:
        batches = data.batch_stream(dataset.target_x, dataset.target_y, mcfg.batch_size)
        try:
            _, records[mcfg.run_name] = adapt_stream(model.copy(), stats, batches, mcfg)
        except NonFiniteLoss as exc:
            if out_dir is not None:
                # keep the finished methods and the batches this one finished
                write_run_records([*records.values(), exc.record], out_dir)
            raise
    if out_dir is not None:
        write_run_records(records.values(), out_dir)
    return records


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> ExperimentResult:
    """Pretrain and run every method on one shared stream, all from one draw
    of the data."""
    cfg.validate()
    dataset = data.generate_dataset(cfg.synthetic, shift=cfg.shift)
    # every part is read in draw order, so each is drawn once, and before any
    # training, so a target that draws non-finite samples is refused first
    _ = dataset.train_x, dataset.test_x, dataset.target_x
    pretrained = pretrain_source(cfg, dataset)
    records = run_methods(cfg.methods, pretrained.model, pretrained.stats, dataset, out_dir)
    result = ExperimentResult(
        records=records,
        summaries=[summarize_record(n, r) for n, r in records.items()],
        source_holdout_accuracy=pretrained.holdout_accuracy,
    )
    if out_dir is not None:
        write_report(result, out_dir)
    return result


# -- the run directory -----------------------------------------------------------

CSV_FIELDS = tuple(f.name for f in fields(BatchRow))
SUMMARY_FIELDS = ("method",) + tuple(f.name for f in fields(MethodSummary))[1:]


def run_path(run_dir: str, name: str, suffix: str) -> str:
    """`run_<name>.csv` (the batch rows) or `run_<name>.json` (the header)."""
    return os.path.join(run_dir, f"run_{name}{suffix}")


def write_run_records(records: Iterable[RunRecord], out_dir: str) -> None:
    """`run_<name>.csv` and `run_<name>.json` for every record, each named
    by its config's run name."""
    os.makedirs(out_dir, exist_ok=True)
    for record in records:
        name = record.config.run_name
        with open(run_path(out_dir, name, ".csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_FIELDS)
            for r in record.rows:
                writer.writerow([r.batch_index] + [repr(v) for v in astuple(r)[1:]])
        with open(run_path(out_dir, name, ".json"), "w") as fh:
            header = RunHeader(record.config, len(record.rows))
            json.dump(plain(header), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _cell(text: str, kind: type):
    """The number a run-CSV cell holds, refused (ValueError) unless the cell
    is its `repr`, as the writer writes it: no padding, `_` or `+`."""
    value = kind(text)
    if repr(value) != text:
        raise ValueError(f"cell {text!r} is not the writer's form of {value!r}")
    return value


def read_run_record(run_dir: str, name: str) -> RunRecord:
    """The record of run `name`, refused (StatsIoError) where no run could
    have written it: a header that is not a valid config of that run or
    whose `n_batches` is not the number of rows, a CSV whose header row is
    not CSV_FIELDS or whose rows hold another number of fields, a cell that
    is not the writer's form of the number it parses to, or rows whose
    batch indices do not count 0..n-1, whose accuracy is not a whole number
    of hits out of the header's batch size, whose loss is not finite (nan for
    a loss-free method), or whose distance columns are not each finite and
    >= 0 in every row or nan in every row."""
    try:
        with open(run_path(run_dir, name, ".json")) as fh:
            header = read(RunHeader, parse_json(fh.read()), f"run_{name}.json")
        config = header.config
        config.validate()
        with open(run_path(run_dir, name, ".csv"), newline="") as fh:
            columns, *cells = csv.reader(fh)
        if tuple(columns) != CSV_FIELDS or any(len(c) != len(CSV_FIELDS) for c in cells):
            raise ValueError(f"run_{name}.csv does not hold exactly the columns {CSV_FIELDS}")
        rows = [BatchRow(_cell(c[0], int), *(_cell(v, float) for v in c[1:])) for c in cells]
    except (OSError, ValueError, csv.Error, ConfigInvalid) as exc:
        raise StatsIoError(f"malformed run directory {run_dir}: {exc!r}") from exc
    if config.run_name != name:
        raise StatsIoError(f"run_{name}.json in {run_dir} describes run {config.run_name!r}")
    if header.n_batches != len(rows):
        raise StatsIoError(
            f"run_{name}.json in {run_dir}: n_batches {header.n_batches} is not the "
            f"{len(rows)} rows of run_{name}.csv"
        )
    bs = config.batch_size
    for i, r in enumerate(rows):
        if r.batch_index != i:
            raise StatsIoError(
                f"run_{name}.csv in {run_dir}: row {i} has batch_index {r.batch_index}"
            )
        # batch_stream yields full batches: accuracy is hits / batch_size, rounded once
        hits = round(r.accuracy * bs) if math.isfinite(r.accuracy) else -1
        if not (0 <= hits <= bs and r.accuracy == hits / bs):
            raise StatsIoError(
                f"run_{name}.csv in {run_dir}: batch {i} accuracy {r.accuracy!r} is not "
                f"a whole number of hits out of {bs}"
            )
    loss = np.array([r.loss for r in rows])
    loss_free = config.method in NO_LOSS_METHODS
    if not (np.isnan(loss) if loss_free else np.isfinite(loss)).all():
        raise StatsIoError(
            f"run_{name}.csv in {run_dir}: a loss of method {config.method!r} is not "
            + ("nan" if loss_free else "finite")
        )
    for field in ("mean_intra", "mean_inter"):
        # nan throughout when the run had no source statistics
        v = np.array([getattr(r, field) for r in rows])
        if not (np.isnan(v).all() or (np.isfinite(v) & (v >= 0)).all()):
            raise StatsIoError(
                f"run_{name}.csv in {run_dir}: {field} is neither finite and >= 0 "
                "in every row nor nan in every row"
            )
    return RunRecord(config=config, rows=rows)


def write_report(result: ExperimentResult, out_dir: str) -> None:
    """The manifest, summary and trajectory files of a run directory whose
    records are written."""
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        manifest = Manifest(list(result.records), result.source_holdout_accuracy)
        json.dump(plain(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_summary_files(result.summaries, out_dir)
    write_trajectory_files(result.records, out_dir)


def write_summary_files(summaries: list[MethodSummary], out_dir: str) -> None:
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_FIELDS)
        for s in summaries:
            writer.writerow([s.name] + [repr(v) for v in astuple(s)[1:]])
    rows = [SUMMARY_FIELDS] + [[s.name] + [f"{v:.4f}" for v in astuple(s)[1:]] for s in summaries]
    # each column at least two wider than its longest cell, and never
    # narrower than these
    widths = [max(w, 2 + max(map(len, col))) for w, col in zip([12, 15, 24, 18, 18], zip(*rows))]
    lines = ["".join(f"{c:<{w}}" for c, w in zip(row, widths)) for row in rows]
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trajectory_files(records: dict[str, RunRecord], out_dir: str) -> None:
    """Plot-data CSVs, one per batch-row value: batch index on x, one column
    per method (`accuracy_trajectories.csv`, `intra_distance_trajectories.csv`
    for `mean_intra`, and so on). Each holds the rows of the shortest record
    only: runs of different `batch_size` keep their longer tails in their
    run CSVs alone."""
    names = list(records)
    n_batches = min(len(r.rows) for r in records.values())
    for field in CSV_FIELDS[1:]:
        stem = f"{field.removeprefix('mean_')}_distance" if field.startswith("mean_") else field
        with open(os.path.join(out_dir, f"{stem}_trajectories.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["batch_index"] + names)
            for i in range(n_batches):
                writer.writerow([i] + [repr(getattr(records[n].rows[i], field)) for n in names])


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
            methods = read(Manifest, parse_json(fh.read()), "manifest.json").methods
    except (OSError, ValueError, ConfigInvalid) as exc:  # missing, not JSON or malformed
        raise StatsIoError(f"cannot read {manifest_path}: {exc}") from exc
    if not methods or not all(map(valid_run_name, methods)) or len(set(methods)) != len(methods):
        raise StatsIoError(
            f"{manifest_path}: \"methods\" must list one or more unique run names, "
            f"got {methods!r}"
        )
    records: dict[str, RunRecord] = {}
    for name in methods:
        records[name] = read_run_record(run_dir, name)
        if not records[name].rows:
            raise StatsIoError(f"run_{name}.csv in {run_dir} holds no batch rows")
    summaries = [summarize_record(n, r) for n, r in records.items()]
    write_summary_files(summaries, run_dir)
    write_trajectory_files(records, run_dir)
    return summaries
