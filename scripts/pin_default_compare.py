#!/usr/bin/env python3
"""Pin the default `compare` output: the sha256 of every file that
`tta-align pretrain` and `tta-align compare` write for
ExperimentConfig.default(seed=0), with the NumPy and BLAS they ran on.

Usage: python3 scripts/pin_default_compare.py [--out FILE]

FILE defaults to tests/data/default_compare_sha256.json, which
tests/test_scripts.py compares a fresh run against. Re-pin only for a change
that moves rounding on purpose, and record in CHANGES.md which files moved
and by how much.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from tta_align import cli
from tta_align.config import ExperimentConfig

PINS = os.path.normpath(
    os.path.join(os.path.dirname(__file__), "..", "tests", "data", "default_compare_sha256.json")
)


def digests() -> dict[str, str]:
    """sha256 of every file that `pretrain` and `compare` write from the
    default config at seed 0."""
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        run_dir = os.path.join(tmp, "run")
        with open(config, "w") as fh:
            json.dump(ExperimentConfig.default(seed=0).to_dict(), fh)
        for command in ("pretrain", "compare"):
            if cli.main([command, "--config", config, "--out-dir", run_dir]) != 0:
                sys.exit(f"tta-align {command} failed")
        out = {}
        for name in sorted(os.listdir(run_dir)):
            with open(os.path.join(run_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=PINS)
    args = parser.parse_args()

    files = digests()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    pins = {
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "sha256": files,
    }
    with open(args.out, "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(files)} files to {args.out}")


if __name__ == "__main__":
    main()
