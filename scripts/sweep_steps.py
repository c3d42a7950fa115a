#!/usr/bin/env python3
"""Sweep steps_per_batch for the class-aware method on the default benchmark.

Usage: python3 scripts/sweep_steps.py [--seed N] [--steps 1 2 3] [--out-dir DIR]
"""

import argparse
import os

from tta_align.adapt import TtaConfig
from tta_align.config import ExperimentConfig
from tta_align.experiment import run_experiment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="data sampling seed")
    parser.add_argument("--steps", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--out-dir", default="runs/steps_sweep")
    args = parser.parse_args()

    cfg = ExperimentConfig.default(seed=args.seed)
    cfg.methods = [TtaConfig(method="source", steps_per_batch=0)] + [
        TtaConfig(method="cafa", name=f"cafa_steps_{k}", steps_per_batch=k)
        for k in args.steps
    ]
    run_experiment(cfg, out_dir=args.out_dir)
    print(f"outputs: {args.out_dir}")
    with open(os.path.join(args.out_dir, "summary.txt")) as fh:
        print(fh.read(), end="")


if __name__ == "__main__":
    main()
