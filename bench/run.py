#!/usr/bin/env python3
"""End-to-end benchmark of online test-time adaptation.

Run from the repository root:

    python3 bench/run.py --workload default --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload wide_cafa --write-reference

The benchmark drives the package through its public calls only:
`data.generate_dataset`, `experiment.pretrain_source` and
`adapt.adapt_stream`, fed by an iterator that the benchmark owns. The stream
is a closed loop: batch i+1 is handed over only after the adapter has
finished with batch i. Every pass is checked against the reference
trajectories in `bench/reference/`. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See
bench/README.md for the metrics and how to read a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_DIR, "src")

OUT_DIR = os.path.join(REPO_DIR, ".bench_out")
# one BLAS thread: the matrices are small, and the 2-core box it was tuned on
# runs OpenBLAS (built for 64 threads) steadier on one
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    """BENCHMARK.json: the workloads and the metrics with their units."""
    with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as fh:
        return json.load(fh)


def result_stem(workload: str, seed: int, trace: int) -> str:
    """Path, less its suffix, of a run's result file and span files."""
    return os.path.join(OUT_DIR, f"{workload}_seed{seed}_trace{trace}")


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads + ["all"])
    p.add_argument("--seed", type=int, default=0, help="workload seed")
    p.add_argument("--seconds", type=float, default=20.0, help="timed stream passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--max-batches",
        type=int,
        default=0,
        help="cut every stream to its first N batches (smoke runs); 0 = whole stream",
    )
    p.add_argument(
        "--write-reference",
        action="store_true",
        help="regenerate the reference trajectories of the workload and exit",
    )
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.max_batches < 0:
        p.error("--seconds must be positive and --max-batches not negative")
    if args.write_reference and args.workload == "all":
        p.error("--write-reference takes one workload at a time")
    return args


def main(argv=None) -> int:
    workloads = [w["name"] for w in load_spec()["workloads"]]
    args = parse_args(argv, workloads)
    if args.workload == "all":
        return run_all(args, workloads)
    # BLAS reads its thread count when NumPy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC_DIR, "tta_align", "__init__.py")):
        print(f"error: package source not found under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    sys.path.insert(0, BENCH_DIR)
    import harness  # needs the paths and the BLAS setting above

    return harness.run(args)


def run_all(args, workloads) -> int:
    """Run every workload in its own process and print one table."""
    results, tables = {}, {}
    for name in workloads:
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--max-batches", str(args.max_batches),
        ]  # fmt: skip
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        # the result file also holds failed_batch_ratio, which the line leaves out
        with open(result_stem(name, args.seed, args.trace) + ".json") as fh:
            tables[name] = json.load(fh)
    first = tables[workloads[0]]
    print()
    print(f"{'metric':<40}{'unit':<7}" + "".join(f"{w:>16}" for w in workloads))
    for m, row in first["table"].items():
        cells = "".join(f"{tables[w]['table'][m]['value']:>16.6g}" for w in workloads)
        print(f"{m:<40}{row['unit']:<7}{cells}")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{m}": r["metrics"][m] for w, r in results.items() for m in r["metrics"]
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
