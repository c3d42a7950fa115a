"""The benchmark's tracing contract with the package, checked in tier-1.

`bench/tracing.py` patches package functions by name, and
`bench/harness.py` indexes some of their spans directly. A rename in the
package would otherwise show only when the benchmark runs with `--trace 1`.
It only reads `bench/`.
"""

import inspect
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import harness  # noqa: E402
import tracing  # noqa: E402
from tta_align import adapt, data, experiment, network, stats  # noqa: E402
from tta_align.config import ExperimentConfig, TtaConfig  # noqa: E402


def indexed_spans(source: str, table: str) -> set[str]:
    """Span names that `layer_metrics` reads as `table["..."]`, which raise
    if the span was never recorded."""
    return set(re.findall(table + r'\["([^"]+)"\]', source))


def test_every_traced_name_resolves():
    for owner, attr, _ in tracing.SPANS + tracing.COUNTS:
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"


def test_traced_set_up_records_every_indexed_span():
    cfg = ExperimentConfig.default(seed=0)
    cfg.pretrain.epochs = 1
    tracer = tracing.Tracer()
    with tracer:
        harness.set_up(cfg)
    wanted = indexed_spans(inspect.getsource(harness.layer_metrics), "st")
    assert {"autograd.backward", "adapt.adam_step", "experiment.pretrain_source"} <= wanted
    assert wanted <= set(tracer.totals())
    # one backward and one Adam step per pretraining batch
    steps = tracer.totals()["adapt.adam_step"]["calls"]
    assert steps == tracer.totals()["autograd.backward"]["calls"] > 0


def test_loss_free_stream_records_no_backward():
    cfg = ExperimentConfig.default(seed=0)
    cfg.pretrain.epochs = 1
    pre, _, _ = harness.set_up(cfg)
    shifted = data.generate_dataset(cfg.synthetic, shift=cfg.shift)
    batches = data.batch_stream(shifted.target_x, shifted.target_y, 64)[:3]
    spans = {}
    for method, steps in (("bn", 0), ("cafa", 1)):
        tracer = tracing.Tracer()
        with tracer:
            mcfg = TtaConfig(method=method, steps_per_batch=steps, batch_size=64)
            adapt.adapt_stream(pre.model.copy(), pre.stats, batches, mcfg)
        spans[method] = tracer.totals()
    assert indexed_spans(inspect.getsource(harness.layer_metrics), "s") <= set(spans["bn"])
    assert "autograd.backward" not in spans["bn"]
    for name in ("autograd.backward", "adapt.adam_step", "losses.loss_tensor"):
        assert spans["cafa"][name]["calls"] == len(batches)


def test_forward_features_span_covers_every_row_block():
    # the row blocks of a running-statistics forward stay inside one
    # `network.forward_features` call: one per loss-free batch, which
    # `harness.layer_metrics` reads as `network.forward_features.ms_per_call`
    # from the stream tracer, and one per source-statistics fit, which no
    # metric reads (only this last assertion and the raw trace file see it)
    cfg = ExperimentConfig.default(seed=0)
    cfg.pretrain.epochs = 1
    source = data.generate_dataset(cfg.synthetic, shift=None)
    pre = experiment.pretrain_source(cfg, source)
    n = network.EVAL_ROWS + 3
    shifted = data.generate_dataset(cfg.synthetic, shift=cfg.shift)
    batches = data.batch_stream(shifted.target_x, shifted.target_y, n)
    assert len(batches) >= 2 and source.train_x.shape[0] > network.EVAL_ROWS
    for method in ("source", "bn"):
        tracer = tracing.Tracer()
        with tracer:
            mcfg = TtaConfig(method=method, steps_per_batch=0, batch_size=n)
            adapt.adapt_stream(pre.model.copy(), pre.stats, batches, mcfg)
        assert tracer.totals()["network.forward_features"]["calls"] == len(batches)
    tracer = tracing.Tracer()
    with tracer:
        stats.estimate_source_stats(pre.model, source.train_x, source.train_y)
    assert tracer.totals()["network.forward_features"]["calls"] == 1
