#!/usr/bin/env python3
"""Sweep steps_per_batch for the class-aware method on the default benchmark.

Usage: python3 scripts/sweep_steps.py [--seed N] [--steps 1 2 3] [--out-dir DIR]

Runs `tta-align compare` on the default config with `source` and one `cafa`
run per step count, and exits with its code: a config it refuses (say
`--steps 0` or an empty `--out-dir`) is one `config error:` line, exit 1.
"""

import argparse
import json
import os
import sys
import tempfile

from tta_align import cli
from tta_align.adapt import TtaConfig
from tta_align.config import ExperimentConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="data sampling seed")
    parser.add_argument("--steps", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--out-dir", default="runs/steps_sweep")
    args = parser.parse_args()

    cfg = ExperimentConfig.default(seed=args.seed)
    cfg.methods = [TtaConfig(method="source", steps_per_batch=0)] + [
        TtaConfig(method="cafa", name=f"cafa_steps_{k}", steps_per_batch=k)
        for k in args.steps
    ]
    cfg.output_dir = args.out_dir
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w") as fh:
            json.dump(cfg.to_dict(), fh)
        return cli.main(["compare", "--config", config])


if __name__ == "__main__":
    sys.exit(main())
