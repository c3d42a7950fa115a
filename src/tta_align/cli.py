"""Command-line harness.

Subcommands:
  pretrain  train the source model, emit checkpoint + stats files
  stats     recompute source statistics from a checkpoint
  adapt     run a single adaptation method over the shifted stream
  compare   run every configured method and write the comparison report
  report    regenerate summary/plot-data files from RunRecord CSVs

Exit codes: 0 ok, 1 config error, 2 numerical failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import data, experiment, network, stats as stats_mod
from .config import ExperimentConfig
from .errors import (
    ConfigInvalid,
    NonFiniteLoss,
    NotPositiveDefinite,
    StatsIoError,
    TrainingDiverged,
    TtaError,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


def _check_fits(cfg: ExperimentConfig, model, stats=None) -> None:
    """Refuse, before any data is generated, a checkpoint or stats that the
    config does not describe (ConfigInvalid) and stats not fitted on the
    checkpoint's features (StatsIoError)."""
    widths = (cfg.synthetic.input_dim, *cfg.model.hidden_dims, cfg.synthetic.n_classes)
    if widths != model.widths:
        raise ConfigInvalid(
            f"config widths {list(widths)} (input_dim, *hidden_dims, n_classes) vs checkpoint "
            f"{list(model.widths)}"
        )
    if stats is None:
        return
    fit = cfg.pretrain
    if (stats.covariance_mode, stats.eps_scale) != (fit.covariance_mode, fit.eps_scale):
        raise ConfigInvalid(
            f"config covariance_mode {fit.covariance_mode}, eps_scale {fit.eps_scale} "
            f"vs stats {stats.covariance_mode}, {stats.eps_scale}"
        )
    if (stats.feature_dim, stats.n_classes) != model.widths[-2:]:
        raise StatsIoError(
            f"stats feature_dim {stats.feature_dim}, n_classes {stats.n_classes} vs checkpoint "
            f"feature_dim {model.feature_dim}, n_classes {model.n_classes}"
        )


def cmd_pretrain(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    out_dir = args.out_dir or cfg.output_dir
    result = experiment.pretrain_source(cfg)
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "checkpoint.npz")
    stats_path = os.path.join(out_dir, "stats.bin")
    network.save_checkpoint(result.model, ckpt_path)
    stats_mod.save_stats(result.stats, stats_path)
    print(f"checkpoint: {ckpt_path}")
    print(f"stats: {stats_path}")
    print(f"source holdout accuracy: {result.holdout_accuracy:.4f}")
    for w in result.stats.warnings:
        print(f"warning: {w}")
    return EXIT_OK


def cmd_stats(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    model = network.load_checkpoint(args.checkpoint)
    _check_fits(cfg, model)
    dataset = data.generate_dataset(cfg.synthetic, shift=None)
    stats = experiment.source_statistics(cfg, model, dataset)
    stats_mod.save_stats(stats, args.out)
    print(f"stats: {args.out} ({stats.n_classes} classes, d={stats.feature_dim})")
    for w in stats.warnings:
        print(f"warning: {w}")
    return EXIT_OK


def cmd_adapt(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    matching = [m for m in cfg.methods if m.run_name == args.method]
    if not matching:
        raise ConfigInvalid(
            f"method {args.method!r} not in config "
            f"(available: {[m.run_name for m in cfg.methods]})"
        )
    mcfg = matching[0]
    model = network.load_checkpoint(args.checkpoint)
    stats = stats_mod.load_stats(args.stats)
    _check_fits(cfg, model, stats)
    shifted = data.generate_dataset(cfg.synthetic, shift=cfg.shift)
    out_dir = args.out_dir or cfg.output_dir
    csv_path = experiment.run_path(out_dir, mcfg.run_name, ".csv")
    try:
        records = experiment.run_methods([mcfg], model, stats, shifted, out_dir)
    except NonFiniteLoss:
        print(f"partial run record: {csv_path}", file=sys.stderr)
        raise
    summary = experiment.summarize_record(mcfg.run_name, records[mcfg.run_name])
    print(f"run record: {csv_path}")
    print(f"mean accuracy: {summary.mean_accuracy:.4f}")
    print(f"final-quarter accuracy: {summary.final_quarter_accuracy:.4f}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    out_dir = args.out_dir or cfg.output_dir
    try:
        experiment.run_experiment(cfg, out_dir=out_dir)
    except NonFiniteLoss:
        print(f"partial run records: {out_dir}", file=sys.stderr)
        raise
    print(f"outputs: {out_dir}")
    with open(os.path.join(out_dir, "summary.txt")) as fh:
        print(fh.read(), end="")
    return EXIT_OK


def cmd_report(args) -> int:
    experiment.rebuild_report(args.run_dir)
    with open(os.path.join(args.run_dir, "summary.txt")) as fh:
        print(fh.read(), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tta-align",
        description="Class-aware feature alignment test-time adaptation benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="train source model, emit checkpoint + stats")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("stats", help="recompute source statistics from a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("adapt", help="run one adaptation method")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--method", required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("compare", help="run all configured methods and report")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="rebuild summary files from run records")
    p.add_argument("--run-dir", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonFiniteLoss, NotPositiveDefinite, TrainingDiverged) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (StatsIoError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TtaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
