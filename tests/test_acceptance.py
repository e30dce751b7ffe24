"""Acceptance suite: one test per criterion, printing a pass line each.

The heavyweight synthetic study (500 products, 20 categories, 200 weeks)
is built once per module and shared by the criteria that need it, on the
reference panel (seed 20240901) and on a held-out panel (seed 7): criteria
3, 4, 7 and 10 must hold on both with the same bounds.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from demandcast import cli, gbt, ingest
from demandcast.cli import main
from demandcast.core import Catalog, SalesPanel
from demandcast.evaluation import weighted_mae, weighted_rmse
from demandcast.features import life_at_issue
from demandcast.ingest import RunConfig
from demandcast.preprocess import detect_fake_zeros, preprocess_panel, repair_fake_zeros, smooth_panel
from demandcast.seasonal import MIN_YEAR_WEEKS, category_seasonality, fit_seasonality
from demandcast.synth import N_SHAPES, SynthSpec, generate_panel

from .oracles import (
    finite_diff_grad_hess,
    oracle_fit_tree,
    poisson_pointwise,
    scalar_smooth,
    squared_pointwise,
)
from .test_gbt import assert_same_tree, grow_tree

SEED = 20240901
HELD_OUT_SEED = 7
HELD_OUT = f" on the held-out panel (seed {HELD_OUT_SEED})"


def ok(criterion: str) -> None:
    print(f"ACCEPTANCE PASS: {criterion}")


def run_study(seed: int, data: Path) -> dict:
    """`cli.run` of the boosted model on the synthetic panel of seed at the
    reference size, written to CSV files in data as `synth` writes them,
    plus the ES reference on its test keys. The repaired panel that `run`
    scores against, and each test row's panel row and life, are rebuilt
    from the same sales file."""
    t0 = time.monotonic()
    spec = SynthSpec(
        n_products=500, n_categories=20, n_weeks=200, lifetime_median=30.0, seed=seed
    )
    config = RunConfig(
        train_len=160,
        valid_len=14,
        test_len=26,
        learning_rate=0.15,
        rounds=1000,
        early_stop_patience=30,
        seed=seed,
    )
    config.validate()
    panel, catalog, covariates, truth = generate_panel(spec)
    sources = (str(data / "sales.csv"), str(data / "catalog.csv"), str(data / "covariates.csv"))
    ingest.write_sales(panel, sources[0])
    ingest.write_catalog(catalog, sources[1])
    ingest.write_covariates(covariates, sources[2])
    run = cli.run(config, sources)
    loaded = ingest.load_sales(sources[0])
    repaired = repair_fake_zeros(loaded, detect_fake_zeros(loaded))
    preprocessed, _ = preprocess_panel(loaded, config.smooth_window, config.cap_gamma)
    assert repaired.products == preprocessed.products
    for name in ("y", "on_sale_mask", "stock_flag"):
        assert np.array_equal(getattr(repaired, name), getattr(preprocessed, name))
    rows = np.array([repaired.index[pid] for pid in run.pids])
    # the ES reference as `pipeline --model es` runs it, on the run's own test keys
    es_pred, es_fallback = cli.forecast_es(run.pids, run.weeks, repaired, catalog, config)
    return {
        "panel": panel,
        "truth": truth,
        "run": run,
        "y": repaired.y[rows, run.weeks].astype(float),
        "life": life_at_issue(repaired.on_sale_mask, rows, run.weeks, config.horizon),
        "es_pred": es_pred,
        "es_fallback": es_fallback,
        "prices": np.array([catalog.price[pid] for pid in run.pids]),
        "elapsed": time.monotonic() - t0,
    }


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """The reference panel's run, shared by criteria 3, 4, 7 and 10."""
    return run_study(SEED, tmp_path_factory.mktemp("study"))


@pytest.fixture(scope="module")
def held_out(tmp_path_factory):
    """The held-out panel's run (the benchmark's --panel-seed 7), on which
    criteria 3, 4, 7 and 10 must hold with the same bounds."""
    return run_study(HELD_OUT_SEED, tmp_path_factory.mktemp("held_out"))


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    pointwise = {"poisson": poisson_pointwise, "squared": squared_pointwise}
    for loss in ("poisson", "squared"):
        for y in np.arange(10, dtype=float):
            for raw in np.linspace(-2.0, 2.0, 10):
                g, h = gbt.grad_hess(loss, np.array([y]), np.array([raw]))
                g_ref, h_ref = finite_diff_grad_hess(pointwise[loss], y, raw)
                assert g[0] == pytest.approx(g_ref, rel=1e-6, abs=1e-9)
                assert h[0] == pytest.approx(h_ref, rel=1e-6, abs=1e-9)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    ok(f"1 gradient correctness vs finite differences ({elapsed:.2f}s)")


def test_criterion_2_tree_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    for trial in range(50):
        n = int(rng.integers(4, 65))
        p = int(rng.integers(1, 5))
        x = rng.normal(size=(n, p))
        for j in range(p):
            if rng.random() < 0.5:
                x[:, j] = np.round(x[:, j] * 2) / 2
        x[rng.random(x.shape) < 0.15] = np.nan
        if trial % 2 == 0:
            y = rng.normal(size=n) * 3
            g, h = gbt.grad_hess("squared", y, rng.normal(size=n))
        else:
            y = rng.poisson(3.0, size=n).astype(float)
            g, h = gbt.grad_hess("poisson", y, rng.normal(scale=0.5, size=n))
        lam = float(rng.choice([0.0, 1.0]))
        msl = float(rng.choice([0.0, 0.05]))
        depth = int(rng.integers(2, 5))
        tree = grow_tree(x, g, h, max_depth=depth, reg_lambda=lam, min_split_loss=msl)
        oracle = oracle_fit_tree(x, g, h, max_depth=depth, reg_lambda=lam, min_split_loss=msl)
        assert_same_tree(tree, oracle)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    ok(f"2 exact-greedy trees match brute-force oracle on 50 matrices ({elapsed:.1f}s)")


def test_criterion_3_global_model_beats_local_baseline(study):
    ok(criterion_3(study))


def test_criterion_3_on_the_held_out_panel(held_out):
    ok(criterion_3(held_out) + HELD_OUT)


def criterion_3(study) -> str:
    y, prices, run = study["y"], study["prices"], study["run"]
    rmse_gbt = weighted_rmse(y, run.forecasts, prices)
    rmse_es = weighted_rmse(y, study["es_pred"], prices)
    mae_gbt = weighted_mae(y, run.forecasts, prices)
    mae_es = weighted_mae(y, study["es_pred"], prices)
    # the bounds below hold for the numbers `pipeline` writes to report.csv
    assert run.report.overall.rmse == pytest.approx(rmse_gbt, rel=1e-12)
    assert run.report.overall.mae == pytest.approx(mae_gbt, rel=1e-12)
    assert rmse_gbt <= 0.90 * rmse_es, f"RMSE ratio {rmse_gbt / rmse_es:.3f}"
    assert mae_gbt <= 0.95 * mae_es, f"MAE ratio {mae_gbt / mae_es:.3f}"
    assert study["elapsed"] < 300.0
    return (
        "3 global boosted model vs per-series baseline: "
        f"RMSE ratio {rmse_gbt / rmse_es:.3f} (<=0.90), "
        f"MAE ratio {mae_gbt / mae_es:.3f} (<=0.95), study {study['elapsed']:.0f}s"
    )


def test_criterion_4_cold_start(study):
    ok(criterion_4(study))


def test_criterion_4_on_the_held_out_panel(held_out):
    ok(criterion_4(held_out) + HELD_OUT)


def criterion_4(study) -> str:
    run = study["run"]
    cold = study["life"] < 12
    assert cold.sum() >= 30, "panel must contain cold-start rows"
    y = study["y"][cold]
    prices = study["prices"][cold]
    rmse_gbt = weighted_rmse(y, run.forecasts[cold], prices)
    rmse_es = weighted_rmse(y, study["es_pred"][cold], prices)
    assert rmse_gbt < rmse_es
    # the baseline needs its documented fallback below two observations,
    # while the boosted model stays model-based everywhere
    tiny = study["life"] < 2
    assert tiny.sum() >= 1
    assert study["es_fallback"][tiny].all()
    assert np.isfinite(run.forecasts).all()
    assert (run.forecasts > 0).all()
    return (
        f"4 cold start (<12 weeks history, {int(cold.sum())} rows): "
        f"RMSE {rmse_gbt:.2f} < baseline {rmse_es:.2f}; "
        f"{int(tiny.sum())} sub-2-obs rows used the category-mean fallback"
    )


def test_criterion_5_seasonality_recovery():
    # dedicated recovery panel: multiplicative seasonality with 40 products
    # per category and long-lived products, no global event shocks (in a
    # 4-year panel those alias onto seasonal positions and are not part of
    # the curves being recovered)
    spec = SynthSpec(
        n_products=800, n_categories=20, n_weeks=200,
        lifetime_median=104.0, level_median=12.0, bump_amplitude=(0.5, 0.9),
        event_rate=0.0, seed=SEED,
    )
    panel, catalog, _, truth = generate_panel(spec)
    repaired, smoothed = preprocess_panel(panel, 8, 3.0)
    model = fit_seasonality(
        smoothed, repaired, catalog, tau=52, k=N_SHAPES, seed=SEED, end_week=160
    )
    members: dict[str, int] = {}
    for pid in panel.products:
        members[catalog.category_of[pid]] = members.get(catalog.category_of[pid], 0) + 1
    checked = 0
    worst = 1.0
    for category, count in sorted(members.items()):
        if count < 20:
            continue
        pattern = model.patterns[model.assignment[category]]
        true_curve = truth.category_curve[category]
        r = float(np.corrcoef(pattern, true_curve)[0, 1])
        worst = min(worst, r)
        assert r >= 0.9, f"category {category}: r={r:.3f}"
        checked += 1
    assert checked == 20
    ok(f"5 seasonality recovery: {checked} categories, worst Pearson r={worst:.3f} (>=0.9)")


def test_criterion_6_standardization_identity():
    # 1000 one-year products, each its category's only one, so each category
    # curve holds its product's standardized year at the on-sale positions
    rng = np.random.default_rng(SEED)
    tau = 52
    on_sale = rng.random((1000, tau)) < rng.uniform(0.15, 1.0, (1000, 1))
    x = np.where(on_sale, rng.uniform(0.1, 50.0, on_sale.shape), 0.0)
    panel = SalesPanel(
        tuple(f"p{i:04d}" for i in range(1000)), on_sale.astype(np.int64), on_sale, on_sale
    )
    catalog = Catalog({pid: f"c_{pid}" for pid in panel.products}, {}, {})
    base = smooth_panel(panel, window=8, gamma=1000.0)
    out, _ = category_seasonality(replace(base, x=x), panel, catalog, tau, tau)
    kept = on_sale.sum(axis=1) >= MIN_YEAR_WEEKS
    assert [f"c_{panel.products[i]}" for i in np.flatnonzero(kept)] == list(out)
    for i in np.flatnonzero(kept):
        year = out[f"c_{panel.products[i]}"][on_sale[i]]
        assert abs(year.sum() - on_sale[i].sum() / tau) < 1e-9
    for scale in (0.25, 2.0, 64.0):
        rescaled, _ = category_seasonality(replace(base, x=x * scale), panel, catalog, tau, tau)
        for cat, curve in out.items():
            assert np.array_equal(rescaled[cat], curve)
    ok(
        f"6 standardization sum identity (1e-9) and exact scale invariance, "
        f"{int(kept.sum())} years"
    )


def test_criterion_7_fake_zero_detection(study):
    ok(criterion_7(study))


def test_criterion_7_on_the_held_out_panel(held_out):
    ok(criterion_7(held_out) + HELD_OUT)


def criterion_7(study) -> str:
    panel = study["panel"]
    truth = study["truth"]
    detected = detect_fake_zeros(panel)
    stockouts = truth.stockout_mask
    assert stockouts.sum() >= 100
    true_positive = int((detected & stockouts).sum())
    recall = true_positive / int(stockouts.sum())
    precision = true_positive / int(detected.sum())
    assert recall >= 0.90, f"recall {recall:.3f}"
    assert precision >= 0.80, f"precision {precision:.3f}"
    return f"7 fake-zero detection: recall {recall:.3f} (>=0.90), precision {precision:.3f} (>=0.80)"


def test_criterion_8_smoothing_oracle():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(1000):
        n_weeks = int(rng.integers(3, 11))
        y = rng.poisson(rng.uniform(1, 25), size=(1, n_weeks))
        on_sale = rng.random((1, n_weeks)) > 0.15
        y[~on_sale] = 0
        panel = SalesPanel(("p0",), y, on_sale, np.ones_like(on_sale))
        window = int(rng.integers(2, 9))
        gamma = float(rng.uniform(0.5, 4.0))
        smoothed = smooth_panel(panel, window, gamma)
        x_ref, capped_ref = scalar_smooth(y[0], on_sale[0], window, gamma)
        assert smoothed.x[0].tolist() == x_ref
        assert smoothed.capped_mask[0].tolist() == capped_ref
    ok("8 smoothing matches independent scalar rule exactly on 1000 series")


def test_criterion_9_pipeline_determinism(tmp_path):
    data = tmp_path / "data"
    assert (
        main(
            [
                "synth", "--out-dir", str(data),
                "--products", "60", "--categories", "6", "--weeks", "90", "--seed", "11",
            ]
        )
        == 0
    )
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "train_len = 60\nvalid_len = 10\ntest_len = 20\nrounds = 40\n"
        "learning_rate = 0.2\nearly_stop_patience = 10\nn_patterns = 3\n"
        "override_bounds = true\nseed = 11\n"
    )
    outputs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = main(
            [
                "pipeline", "--config", str(cfg),
                "--sales", str(data / "sales.csv"),
                "--catalog", str(data / "catalog.csv"),
                "--covariates", str(data / "covariates.csv"),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        outputs.append(out)
    pred1 = (outputs[0] / "predictions.csv").read_bytes()
    pred2 = (outputs[1] / "predictions.csv").read_bytes()
    rep1 = (outputs[0] / "report.csv").read_bytes()
    rep2 = (outputs[1] / "report.csv").read_bytes()
    assert pred1 == pred2
    assert rep1 == rep2
    ok("9 pipeline run twice with same seed/config: byte-identical predictions and report")


def test_criterion_10_early_stopping_and_monotone_loss(study):
    ok(criterion_10(study))


def test_criterion_10_on_the_held_out_panel(held_out):
    # pinned as perfbench/workloads/study.json pins the reference panel's 76 and 46
    booster = held_out["run"].model
    assert (len(booster.trees), booster.best_round) == (107, 77)
    ok(criterion_10(held_out) + HELD_OUT)


def criterion_10(study) -> str:
    booster = study["run"].model
    valid = np.array(booster.valid_loss)
    assert booster.best_round == int(np.argmin(valid))
    assert valid[booster.best_round] == valid.min()
    train_losses = np.array(booster.train_loss)
    assert (np.diff(train_losses) <= 1e-9).all()
    return (
        f"10 early stopping: best_round {booster.best_round}/{len(booster.trees)} attains "
        "min validation loss; training loss monotone (1e-9)"
    )


def test_criterion_11_metric_algebra():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        y = rng.poisson(6.0, n).astype(float)
        y_hat = np.maximum(rng.poisson(6.0, n), 1).astype(float)
        prices = rng.uniform(0.5, 30.0, n)
        c = float(rng.uniform(0.1, 10.0))
        assert weighted_rmse(y, y_hat, c * prices) == pytest.approx(
            c * weighted_rmse(y, y_hat, prices), rel=1e-12
        )
        assert weighted_mae(y, y_hat, c * prices) == pytest.approx(
            weighted_mae(y, y_hat, prices), rel=1e-12
        )
        assert weighted_rmse(y_hat, y_hat, prices) == 0.0
        assert weighted_mae(y_hat, y_hat, prices) == 0.0
        if not np.array_equal(y, y_hat):
            assert weighted_rmse(y, y_hat, prices) > 0.0
            assert weighted_mae(y, y_hat, prices) > 0.0
    ok("11 metric algebra: RMSE scales with price, MAE invariant, zero iff exact")
