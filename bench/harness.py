"""The measuring half of the benchmark; `run.py` imports it once the BLAS
thread setting is in the environment and `src/` is on the path."""

from __future__ import annotations

import contextlib
import ctypes
import gc
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from run import BLAS_THREAD_VARS, OUT_DIR, REPO_DIR, load_spec, result_stem
from tracing import BATCH_SPAN, Tracer
from tta_align import adapt, data, experiment
from workloads import WORKLOADS

REFERENCE_DIR = os.path.join(REPO_DIR, "bench", "reference")
SETUP_REPEATS = 3  # set-ups per untraced run; setup_s is their median
DATA_SEEDS = 16  # references are stored for data seeds 0..DATA_SEEDS-1
REL_TOL = 1e-9  # distance-report tolerance against the reference

# Printed with the end-to-end metrics of BENCHMARK.json but left out of the
# result line. failed_batch_ratio is 0 on correct code; the line carries it as
# failed / attempted. The median-based timings follow the host's speed, which
# switches between states about 1.5x apart for seconds to minutes: across
# runs they spread by 18 to 32 %, more than the largest bound allows.
PRINTED_ONLY = {
    "adapt_samples_per_s": ("1/s", "higher"),
    "batch_ms.p50": ("ms", "lower"),
    "failed_batch_ratio": ("ratio", "lower"),
}


# -- machine ------------------------------------------------------------------


def _openblas():
    """Thread-count and config getters of the scipy-openblas64 library that
    NumPy wheels bundle, or None when NumPy uses another BLAS."""
    numpy_libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(numpy_libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        get_config = getattr(lib, "scipy_openblas_get_config64_", None)
        if get_threads is not None and get_config is not None:
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            return get_threads, get_config
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def machine_info() -> dict:
    blas_build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": f"{blas_build.get('name')} {blas_build.get('version')}",
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }
    blas = _openblas()
    if blas is not None:
        get_threads, get_config = blas
        info["blas_threads"] = get_threads()
        info["blas_runtime_config"] = get_config().decode()
    return info


# -- the stream ---------------------------------------------------------------


class Stream:
    """Closed-loop iterator over one method's batches.

    A batch's time runs from when it is yielded to when the adapter asks for
    the next one, so it covers exactly the adapter's work on that batch.
    """

    def __init__(self, batches, tracer: Tracer | None, first_batch_id: int):
        self.batches = batches
        self.times: list[float] = []
        self._tracer = tracer
        self._next_id = first_batch_id
        self._i = 0
        self._t = 0.0
        self._span = -1

    def __iter__(self):
        return self

    def __next__(self):
        now = time.perf_counter()
        if self._i > 0:
            self.times.append(now - self._t)
        tracer = self._tracer
        if tracer is not None and self._span >= 0:
            tracer.close(self._span)
            tracer.batch = None
            self._span = -1
        if self._i == len(self.batches):
            raise StopIteration
        batch = self.batches[self._i]
        self._i += 1
        if tracer is not None:
            tracer.batch = self._next_id
            self._span = tracer.open(BATCH_SPAN)
        self._next_id += 1
        self._t = time.perf_counter()
        return batch


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    samples: int = 0  # target samples of batches the adapter finished
    wall_s: float = 0.0  # summed adapt_stream wall time
    batch_s: dict[str, list[float]] = field(default_factory=dict)  # per method
    accuracies: list[float] = field(default_factory=list)


def set_up(cfg):
    """Dataset generation, pretraining and source-stats fit; timed together."""
    t0 = time.perf_counter()
    source = data.generate_dataset(cfg.synthetic, shift=None)
    target = data.generate_dataset(cfg.synthetic, shift=cfg.shift)
    pre = experiment.pretrain_source(cfg, source)
    streams = {
        m.run_name: data.batch_stream(target.target_x, target.target_y, m.batch_size)
        for m in cfg.methods
    }
    return pre, streams, time.perf_counter() - t0


def run_pass(cfg, pre, streams, reference, tracer=None, first_batch_id=0) -> PassResult:
    """Adapt a fresh copy of the pretrained model with every method in turn."""
    res = PassResult()
    batch_id = first_batch_id
    for mcfg in cfg.methods:
        batches = streams[mcfg.run_name]
        stream = Stream(batches, tracer, batch_id)
        batch_id += len(batches)
        model = pre.model.copy()
        record = None
        t0 = time.perf_counter()
        try:
            _, record = adapt.adapt_stream(model, pre.stats, stream, mcfg)
        except Exception:  # a raising batch counts as failed; keep measuring
            traceback.print_exc(file=sys.stderr)
        res.wall_s += time.perf_counter() - t0
        rows = record.rows if record is not None else []
        res.attempted += len(batches)
        res.failed += count_failed(rows, reference.get(mcfg.run_name), len(batches))
        res.samples += len(stream.times) * mcfg.batch_size
        res.batch_s.setdefault(mcfg.run_name, []).extend(stream.times)
        res.accuracies.extend(r.accuracy for r in rows)
    return res


# -- output check ---------------------------------------------------------------


def count_failed(rows, ref, n_batches: int) -> int:
    """Batches whose output misses, or differs from, the reference.

    Accuracy must match bit for bit; the batch-mean intra and inter
    distances within REL_TOL relative.
    """
    if ref is None:
        return n_batches
    ok = 0
    for i, row in enumerate(rows):
        if (
            i < len(ref["accuracy"])
            and float(row.accuracy).hex() == float(ref["accuracy"][i]).hex()
            and math.isclose(row.mean_intra, ref["mean_intra"][i], rel_tol=REL_TOL, abs_tol=0.0)
            and math.isclose(row.mean_inter, ref["mean_inter"][i], rel_tol=REL_TOL, abs_tol=0.0)
        ):
            ok += 1
    return n_batches - ok


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str, data_seed: int) -> dict:
    """Method -> trajectory name -> float64 array, for one data seed.

    Arrays rather than lists of floats keep the benchmark's own heap small,
    so the program's garbage collections do not pay for it.
    """
    with open(reference_path(workload)) as fh:
        doc = json.load(fh)
    if doc["data_seeds"] != DATA_SEEDS:
        raise ValueError(f"reference holds {doc['data_seeds']} data seeds, expected {DATA_SEEDS}")
    return {
        method: {key: np.array(values, dtype=np.float64) for key, values in traj.items()}
        for method, traj in doc["runs"][str(data_seed)].items()
    }


def write_reference(workload: str) -> None:
    """Record every method's trajectories for data seeds 0..DATA_SEEDS-1."""
    runs = {}
    for data_seed in range(DATA_SEEDS):
        cfg = WORKLOADS[workload].config(data_seed)
        pre, streams, _ = set_up(cfg)
        methods = {}
        for mcfg in cfg.methods:
            _, record = adapt.adapt_stream(pre.model.copy(), pre.stats, iter(streams[mcfg.run_name]), mcfg)
            methods[mcfg.run_name] = {
                key: [getattr(r, key) for r in record.rows]
                for key in ("accuracy", "mean_intra", "mean_inter")
            }
        runs[str(data_seed)] = methods
        print(f"{workload}: data seed {data_seed} recorded", file=sys.stderr)
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_DIR, capture_output=True, text=True, check=False
        ).stdout.strip()
    except OSError:  # no git on the machine
        commit = ""
    doc = {
        "workload": workload,
        "generated_from_commit": commit or "unknown",
        "machine": machine_info(),
        "data_seeds": DATA_SEEDS,
        "runs": runs,
    }
    with open(reference_path(workload), "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


# -- metrics --------------------------------------------------------------------


def tail(times_ms: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(times_ms)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def per_method(batch_s: dict[str, list[float]], percentile: float) -> float:
    """Each method's batch time at `percentile`, then the median over methods, in ms.

    Methods differ in cost, so pooled batch times form one cluster per
    method. With two methods a pooled median falls in the gap between their
    clusters and jumps from run to run; taken per method, it does not.
    """
    return statistics.median(
        tail([1e3 * t for t in times], percentile)[0] for times in batch_s.values() if times
    )


def min_passes(workload: str, streams) -> int:
    """Timed passes needed for at least ten samples beyond the tail rank."""
    per_pass = sum(len(b) for b in streams.values())
    need = math.ceil(10 / (1.0 - WORKLOADS[workload].tail_percentile / 100.0)) + 1
    return max(2, math.ceil(need / per_pass))


def layer_metrics(setup: Tracer, stream: Tracer, counted: Tracer, counted_batches: int,
                  traced_s: dict, untraced_s: dict) -> dict:
    s = stream.totals()
    n = s[BATCH_SPAN]["calls"]
    c = {name: calls / counted_batches for name, calls in counted.counts.items()}
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def per_call_ms(name, key="s"):
        t = s.get(name, zero)
        return 1e3 * t[key] / t["calls"] if t["calls"] else 0.0

    loop_self = s[BATCH_SPAN]["self_s"] + s["adapt.adapt_stream"]["self_s"]
    st = setup.totals()
    return {
        "losses.distance_report.ms_per_batch": 1e3 * s.get("losses.distance_report", zero)["s"] / n,
        "losses.mahalanobis.calls_per_batch": c.get("losses.mahalanobis", 0.0),
        "autograd.backward.ms_per_call": per_call_ms("autograd.backward"),
        "autograd.backward.calls_per_batch": s.get("autograd.backward", zero)["calls"] / n,
        "autograd.tensors_per_batch": c.get("autograd.tensors", 0.0),
        "losses.loss_tensor.ms_per_call": per_call_ms("losses.loss_tensor"),
        "network.loss_and_grad_named.self_ms": per_call_ms("network.loss_and_grad_named", "self_s"),
        "network.forward_features.ms_per_call": per_call_ms("network.forward_features"),
        "adapt.adam_step.ms_per_call": per_call_ms("adapt.adam_step"),
        "adapt.adapt_stream.self_ms_per_batch": 1e3 * loop_self / n,
        "experiment.pretrain_source.s": st["experiment.pretrain_source"]["s"],
        "stats.estimate_source_stats.s": st["stats.estimate_source_stats"]["s"],
        "data.generate_dataset.s": st["data.generate_dataset"]["s"],
        "setup.autograd.backward.s": st["autograd.backward"]["s"],
        "setup.adapt.adam_step.calls": st["adapt.adam_step"]["calls"],
        "trace.batch_ms.p50": per_method(traced_s, 50.0),
        "trace.overhead_ms_per_batch": per_method(traced_s, 50.0) - per_method(untraced_s, 50.0),
    }


# -- the run --------------------------------------------------------------------


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    if args.write_reference:
        write_reference(workload.name)
        return 0
    data_seed = args.seed % DATA_SEEDS
    cfg = workload.config(data_seed)
    try:
        reference = load_reference(workload.name, data_seed)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: no reference for {workload.name} data seed {data_seed}: {exc}", file=sys.stderr)
        return 2
    machine = machine_info()
    deadline_s = args.seconds

    setup_tracer = Tracer() if args.trace else None
    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        with setup_tracer or contextlib.nullcontext():
            pre, streams, dt = set_up(cfg)
        setup_times.append(dt)
    if args.max_batches:
        streams = {k: v[: args.max_batches] for k, v in streams.items()}
    gc.collect()

    # warm-up pass: checked, counted, not timed; it also gives mean_accuracy
    warm = run_pass(cfg, pre, streams, reference)
    attempted, failed = warm.attempted, warm.failed
    timed = PassResult()
    traced = PassResult()
    stream_tracer = Tracer() if args.trace else None
    n_min = min_passes(workload.name, streams)
    passes = 0
    pass_rates = []  # samples per second of each timed pass
    batch_id = 0
    t_start = time.perf_counter()
    while passes < n_min or time.perf_counter() - t_start < deadline_s:
        res = run_pass(cfg, pre, streams, reference)
        _merge(timed, res)
        pass_rates.append(res.samples / res.wall_s)
        passes += 1
        if stream_tracer is not None:
            # traced passes interleave with untraced ones, for the overhead
            with stream_tracer:
                res = run_pass(cfg, pre, streams, reference, stream_tracer, batch_id)
            batch_id += res.attempted
            _merge(traced, res)
    if args.trace:
        # one pass with the call counters alone; counts repeat exactly per pass
        count_tracer = Tracer(spans=False)
        with count_tracer:
            counted = run_pass(cfg, pre, streams, reference)
        _merge(traced, counted)
    attempted += timed.attempted + traced.attempted
    failed += timed.failed + traced.failed

    untraced_ms = [1e3 * t for times in timed.batch_s.values() for t in times]
    p_tail, beyond = tail(untraced_ms, workload.tail_percentile)
    values = {
        "setup_s": statistics.median(setup_times),
        "adapt_samples_per_s": statistics.median(pass_rates),
        "batch_ms.p50": per_method(timed.batch_s, 50.0),
        "batch_ms.tail": p_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_batch_ratio": failed / attempted,
        "mean_accuracy": statistics.fmean(warm.accuracies) if warm.accuracies else 0.0,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "adapt_samples_per_s": f"median of {passes} timed passes, {len(cfg.methods)} methods each",
        "batch_ms.p50": f"per method, median over {len(cfg.methods)} methods; {len(untraced_ms)} batches",
        "batch_ms.tail": f"p{workload.tail_percentile:g} of {len(untraced_ms)} batches, {beyond} beyond",
        "failed_batch_ratio": f"{failed} of {attempted} batches",
        "mean_accuracy": "pre-update, all batches and methods",
    }
    spec = load_spec()
    end_to_end, per_layer = (
        {m["name"]: (m["unit"], m["better"]) for m in spec[key]} for key in ("end_to_end", "per_layer")
    )
    units = {**end_to_end, **PRINTED_ONLY}
    table = {
        name: {"value": value, "unit": units[name][0], "better": units[name][1]}
        for name, value in values.items()
    }
    if args.trace:
        layers = layer_metrics(
            setup_tracer, stream_tracer, count_tracer, counted.attempted, traced.batch_s, timed.batch_s
        )
        for name, value in layers.items():
            unit, better = per_layer[name]
            table[name] = {"value": value, "unit": unit, "better": better}
        notes["setup_s"] = "one traced set-up"
        notes["adapt.adapt_stream.self_ms_per_batch"] = "span self time: duration minus child spans"
        notes["trace.overhead_ms_per_batch"] = "traced minus untraced batch_ms.p50, interleaved passes"
    result_names = per_layer if args.trace else end_to_end
    metrics = {name: {k: table[name][k] for k in ("value", "unit")} for name in result_names}

    print(f"workload {workload.name}  seed {args.seed} (data seed {data_seed})  trace {args.trace}")
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    for name, m in table.items():
        print(
            f"  {name:<40}{m['value']:>14.6g} {m['unit']:<6}"
            f"{m['better']:>7} is better  {notes.get(name, '')}"
        )

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = result_stem(workload.name, args.seed, args.trace)
    header = {
        "workload": workload.name,
        "seed": args.seed,
        "data_seed": data_seed,
        "seconds": args.seconds,
        "machine": machine,
    }
    with open(stem + ".json", "w") as fh:
        json.dump({**header, "table": table, "notes": notes}, fh, indent=1)
        fh.write("\n")
    if args.trace:
        setup_tracer.write(stem + "_setup_spans.json", header)
        counts = {"batches": counted.attempted, "calls": dict(count_tracer.counts)}
        stream_tracer.write(stem + "_stream_spans.json", {**header, "counted_pass": counts})
    print(f"result written to {os.path.relpath(stem, REPO_DIR)}*.json")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def _merge(into: PassResult, res: PassResult) -> None:
    into.attempted += res.attempted
    into.failed += res.failed
    for method, times in res.batch_s.items():
        into.batch_s.setdefault(method, []).extend(times)
