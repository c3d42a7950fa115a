"""Acceptance suite: one test per release criterion.

Every test prints a single PASS/FAIL line (bypassing capture) with the
measured quantities, then asserts. Tolerances are stated inline.
"""

import time

import numpy as np
import pytest

from helpers import (
    chain_grad,
    exact_precision,
    fd_grad,
    fit_source_stats,
    gauss_jordan_inverse,
    loss_fn,
    max_rel_error,
    model_state,
    random_spd,
    random_stats,
    small_model,
    states_equal,
)
from tta_align import cli, data, losses, network
from tta_align.adapt import TtaConfig, adapt_stream
from tta_align.config import ExperimentConfig
from tta_align.errors import SingleClass
from tta_align.experiment import (
    final_quarter_mean,
    pretrain_source,
    run_experiment,
    write_run_records,
)
from tta_align.network import StatMode
from tta_align.stats import estimate_source_stats


def report(capsys, criterion, ok, detail):
    with capsys.disabled():
        print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def pretrained_seed0():
    cfg = ExperimentConfig.default(seed=0)
    source = data.generate_dataset(cfg.synthetic, shift=None)
    pre = pretrain_source(cfg, source)
    shifted = data.generate_dataset(cfg.synthetic, shift=cfg.shift)
    batches = data.batch_stream(shifted.target_x, shifted.target_y, 64)
    return cfg, pre, source, batches


def test_criterion_1_gradient_correctness(capsys):
    """Analytic BN-parameter gradients match central finite differences
    (h=1e-5) within 1e-4 relative error for every loss, 3 seeds. Pseudo-labels
    are frozen at the unperturbed argmax, so no difference flips one."""
    start = time.perf_counter()
    worst = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        model = small_model(rng, input_dim=6, hidden_dims=(8, 5), n_classes=4)
        stats = random_stats(rng, 4, 5)
        x = rng.normal(size=(16, 6))
        logits = network.forward_features(model, x, StatMode.BATCH_ONLY).logits
        frozen = network.argmax_rows(logits)
        cases = [  # (method, labels)
            ("global_fa", None),
            ("intra", frozen),
            ("cafa", frozen),
            ("entropy", None),
            ("pl", frozen),  # pseudo-label CE
            ("pl", rng.integers(0, 4, size=16)),
        ]
        for method, labels in cases:
            fn = loss_fn(method, stats, labels)
            _, analytic = chain_grad(model, x, StatMode.BATCH_ONLY, fn, "bn_only")
            fd = fd_grad(model, x, StatMode.BATCH_ONLY, fn, "bn_only")
            worst = max(worst, max_rel_error(analytic, fd))
    elapsed = time.perf_counter() - start
    report(
        capsys,
        "criterion 1",
        worst < 1e-4 and elapsed < 30.0,
        f"max relative gradient error {worst:.2e} (tol 1e-4), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_mahalanobis_oracle(capsys):
    """200 random cases at d in {2,3,6} vs an independent Gauss-Jordan
    inverse within 1e-9 relative; x=mu gives 0 within 1e-12."""
    rng = np.random.default_rng(42)
    worst_rel = 0.0
    worst_zero = 0.0
    for i in range(200):
        d = (2, 3, 6)[i % 3]
        mu = rng.normal(size=d)
        sigma = random_spd(rng, d)
        precision = exact_precision(sigma)
        x = rng.normal(size=d)
        ref = float((x - mu) @ gauss_jordan_inverse(sigma) @ (x - mu))
        value = losses.mahalanobis(x, mu, precision)
        worst_rel = max(worst_rel, abs(value - ref) / abs(ref))
        worst_zero = max(worst_zero, abs(losses.mahalanobis(mu, mu, precision)))
    report(
        capsys,
        "criterion 2",
        worst_rel < 1e-9 and worst_zero < 1e-12,
        f"max relative error {worst_rel:.2e} (tol 1e-9), "
        f"max |D(mu)| {worst_zero:.2e} (tol 1e-12)",
    )


def test_criterion_3_statistics_oracles(capsys):
    """Per-class estimates match two-pass computation within 1e-12; pooling
    and total-covariance identities hold within 1e-8; tied mode on identical
    per-class data equals class-wise exactly."""
    rng = np.random.default_rng(7)
    feats = np.concatenate([rng.normal(loc=2.0 * c, size=(80, 4)) for c in range(3)])
    labels = np.repeat(np.arange(3), 80)
    stats = fit_source_stats(feats, labels)

    two_pass_err = 0.0
    for c in range(3):
        x = feats[labels == c]
        mu = np.zeros(4)
        for row in x:
            mu += row
        mu /= len(x)
        cov = np.zeros((4, 4))
        for row in x:
            cov += np.outer(row - mu, row - mu)
        cov /= len(x)
        two_pass_err = max(
            two_pass_err,
            float(np.max(np.abs(stats.class_mus[c] - mu))),
            float(np.max(np.abs(stats.class_sigmas[c] - cov))),
        )

    n = len(labels)
    pooled_mu = sum(n_c * mu for n_c, mu in zip(stats.class_counts, stats.class_mus)) / n
    total_cov = np.zeros((4, 4))
    for n_c, mu, sigma in zip(stats.class_counts, stats.class_mus, stats.class_sigmas):
        gap = mu - stats.global_mu
        total_cov += n_c * (sigma + np.outer(gap, gap))
    total_cov /= n
    identity_err = max(
        float(np.max(np.abs(stats.global_mu - pooled_mu))),
        float(np.max(np.abs(stats.global_sigma - total_cov))),
    )

    x = rng.normal(size=(50, 3))
    dup_feats = np.concatenate([x, x])
    dup_labels = np.repeat([0, 1], 50)
    tied = fit_source_stats(dup_feats, dup_labels, mode="tied")
    cw = fit_source_stats(dup_feats, dup_labels, mode="class_wise")
    tied_exact = np.array_equal(tied.class_sigmas, cw.class_sigmas) and np.array_equal(
        tied.class_precisions, cw.class_precisions
    )

    report(
        capsys,
        "criterion 3",
        two_pass_err < 1e-12 and identity_err < 1e-8 and tied_exact,
        f"two-pass error {two_pass_err:.2e} (tol 1e-12), pooling/total-cov error "
        f"{identity_err:.2e} (tol 1e-8), tied-of-equals exact={tied_exact}",
    )


def test_criterion_4_degeneracy(capsys):
    """C=1 makes the ratio loss exactly 0; the distance report raises
    SingleClass."""
    rng = np.random.default_rng(3)
    stats = random_stats(rng, 1, 4)
    logits = np.zeros((8, 1))  # one class: every pseudo-label is 0
    zeros = all(
        losses.loss_tensor("cafa", rng.normal(size=(8, 4)), logits, stats)[0] == 0.0
        for _ in range(5)
    )
    try:
        losses.distance_report(np.zeros((1, 4)), np.zeros(1, dtype=int), stats)
        raised = False
    except SingleClass:
        raised = True
    report(
        capsys,
        "criterion 4",
        zeros and raised,
        f"single-class loss exactly zero={zeros}, SingleClass raised={raised}",
    )


def test_criterion_5_end_to_end_direction(capsys):
    """Default experiment, severity-5 noise, 60 batches, 3 seeds: CAFA beats
    Source by >= 5 points, matches global_fa, and moves the distances the
    right way."""
    start = time.perf_counter()
    fq = {"source": [], "global_fa": [], "cafa": []}
    first_intra, last_intra, last_inter = [], [], {"global_fa": [], "cafa": []}
    for seed in (0, 1, 2):
        cfg = ExperimentConfig.default(seed=seed)
        cfg.methods = [m for m in cfg.methods if m.method in fq]
        result = run_experiment(cfg)
        for name, record in result.records.items():
            fq[name].append(final_quarter_mean(record.accuracies()))
            if name == "cafa":
                first_intra.append(record.rows[0].mean_intra)
                last_intra.append(record.rows[-1].mean_intra)
            if name in last_inter:
                last_inter[name].append(record.rows[-1].mean_inter)
    elapsed = time.perf_counter() - start

    d_source = float(np.mean(fq["cafa"]) - np.mean(fq["source"]))
    d_gfa = float(np.mean(fq["cafa"]) - np.mean(fq["global_fa"]))
    intra_drop = float(np.mean(first_intra) - np.mean(last_intra))
    inter_gap = float(np.mean(last_inter["cafa"]) - np.mean(last_inter["global_fa"]))
    ok = (
        d_source >= 0.05
        and d_gfa >= 0.0
        and intra_drop > 0.0
        and inter_gap > 0.0
        and elapsed < 120.0
    )
    report(
        capsys,
        "criterion 5",
        ok,
        f"cafa-source {d_source:+.4f} (>= +0.05), cafa-global_fa {d_gfa:+.4f} "
        f"(>= 0), intra drop {intra_drop:+.1f} (> 0), inter gap {inter_gap:+.1f} "
        f"(> 0), {elapsed:.0f}s (< 120s)",
    )


def test_criterion_6_online_protocol(capsys, pretrained_seed0):
    """Prediction-before-update via replay; parameter-group containment
    bitwise; loss-free baselines leave the model bitwise unchanged."""
    _, pre, _, batches = pretrained_seed0
    short = batches[:6]
    cfg = TtaConfig(method="cafa", steps_per_batch=2)

    _, record = adapt_stream(pre.model.copy(), pre.stats, short, cfg)
    replay_ok = True
    for i in range(len(short)):
        prefix = pre.model.copy()
        adapt_stream(prefix, pre.stats, short[:i], cfg)
        x, y = short[i]
        preds = network.predict(prefix, x, StatMode.BATCH_ONLY)
        replay_ok &= record.rows[i].accuracy == float(np.mean(preds == y))

    adapted = pre.model.copy()
    before = model_state(adapted)
    adapt_stream(adapted, pre.stats, short, cfg)
    after = model_state(adapted)
    frozen = [k for k in before if "bn.gamma" not in k and "bn.beta" not in k]
    containment_ok = states_equal(before, after, frozen) and not states_equal(
        before, after
    )

    noop_ok = True
    for method in ("source", "bn"):
        model = pre.model.copy()
        adapt_stream(
            model, pre.stats, short, TtaConfig(method=method, steps_per_batch=0)
        )
        noop_ok &= states_equal(model_state(pre.model), model_state(model))

    report(
        capsys,
        "criterion 6",
        replay_ok and containment_ok and noop_ok,
        f"replay={replay_ok}, containment={containment_ok}, "
        f"loss-free no-op={noop_ok}",
    )


def test_criterion_7_determinism(capsys, tmp_path):
    """`compare` run twice with one config gives bitwise-identical CSVs."""
    import json

    cfg = ExperimentConfig.default(seed=0)
    cfg.synthetic.n_test_per_class = 320
    cfg.pretrain.epochs = 8
    cfg.methods = [m for m in cfg.methods if m.method in ("source", "global_fa", "cafa")]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg.to_dict()))

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli.main(["compare", "--config", str(config_path), "--out-dir", str(out_a)])
    code_b = cli.main(["compare", "--config", str(config_path), "--out-dir", str(out_b)])
    csvs = sorted(p.name for p in out_a.glob("*.csv"))
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in csvs
    )
    report(
        capsys,
        "criterion 7",
        code_a == 0 and code_b == 0 and len(csvs) >= 7 and identical,
        f"{len(csvs)} CSV files bitwise identical across runs={identical}",
    )


def test_criterion_8_ablation_plumbing(capsys, tmp_path, pretrained_seed0):
    """Tied covariance, full-feature updates, and steps 1..3 all run to
    completion on the default experiment and emit full-length records."""
    cfg, pre, dataset, batches = pretrained_seed0
    runs = {}

    tied_stats = estimate_source_stats(
        pre.model,
        dataset.train_x,
        dataset.train_y,
        mode="tied",
        eps_scale=cfg.pretrain.eps_scale,
    )
    _, runs["tied"] = adapt_stream(
        pre.model.copy(),
        tied_stats,
        batches,
        TtaConfig(method="cafa", name="tied", steps_per_batch=2),
    )
    _, runs["feature_full"] = adapt_stream(
        pre.model.copy(),
        pre.stats,
        batches,
        TtaConfig(
            method="cafa",
            name="feature_full",
            steps_per_batch=2,
            param_group="feature_full",
        ),
    )
    for steps in (1, 2, 3):
        _, runs[f"steps_{steps}"] = adapt_stream(
            pre.model.copy(),
            pre.stats,
            batches,
            TtaConfig(method="cafa", name=f"steps_{steps}", steps_per_batch=steps),
        )

    write_run_records(runs.values(), str(tmp_path))
    ok = True
    for name, record in runs.items():
        ok &= (tmp_path / f"run_{name}.csv").exists()
        ok &= len(record.rows) == len(batches)
        ok &= all(
            np.isfinite([r.accuracy, r.loss, r.mean_intra, r.mean_inter]).all()
            for r in record.rows
        )
    report(
        capsys,
        "criterion 8",
        ok,
        f"{len(runs)} ablation runs emitted {len(batches)}-row records "
        f"with finite metrics",
    )
