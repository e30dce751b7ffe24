"""Acceptance suite: one test per criterion, printing a pass line each.

The heavyweight synthetic study (500 products, 20 categories, 200 weeks)
is built once per module and shared by the criteria that need it.
"""

import time

import numpy as np
import pytest

from demandcast import cli, gbt
from demandcast.cli import main
from demandcast.core import SalesPanel
from demandcast.evaluation import weighted_mae, weighted_rmse
from demandcast.ingest import RunConfig
from demandcast.preprocess import detect_fake_zeros, preprocess_panel, smooth_panel
from demandcast.seasonal import fit_seasonality, standardize_year
from demandcast.synth import SynthSpec, generate_panel

from .oracles import (
    finite_diff_grad_hess,
    oracle_fit_tree,
    poisson_pointwise,
    scalar_smooth,
    squared_pointwise,
)
from .test_gbt import assert_same_tree

SEED = 20240901


def ok(criterion: str) -> None:
    print(f"ACCEPTANCE PASS: {criterion}")


@pytest.fixture(scope="module")
def study():
    """Full pipeline on the reference synthetic panel; shared by criteria 3-5, 10."""
    t0 = time.monotonic()
    spec = SynthSpec(
        n_products=500, n_categories=20, n_weeks=200, lifetime_median=30.0, seed=SEED
    )
    config = RunConfig(
        train_len=160,
        valid_len=14,
        test_len=26,
        learning_rate=0.15,
        rounds=1000,
        early_stop_patience=30,
        seed=SEED,
    )
    config.validate()
    panel, catalog, covariates, truth = generate_panel(spec)
    repaired, smoothed = cli.preprocess(panel, config)
    seasonal_model = cli.fit_seasonal(smoothed, repaired, catalog, config)
    train_rows, valid_rows, test_rows = cli.split_matrices(
        repaired, smoothed, catalog, seasonal_model, covariates, config
    )
    gbt_pred, booster, _ = cli.fit_forecast(
        "gbt", 0, config, train_rows, valid_rows, test_rows, repaired, catalog
    )
    es_pred, es_fallback = cli.forecast_es(test_rows, repaired, catalog, config)

    prices = np.array([catalog.price[pid] for pid in test_rows.product_ids])
    return {
        "panel": panel,
        "truth": truth,
        "booster": booster,
        "test_rows": test_rows,
        "gbt_pred": gbt_pred,
        "es_pred": es_pred,
        "es_fallback": es_fallback,
        "prices": prices,
        "elapsed": time.monotonic() - t0,
    }


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
        tree = gbt.fit_tree(x, g, h, max_depth=depth, reg_lambda=lam, min_split_loss=msl)
        oracle = oracle_fit_tree(x, g, h, max_depth=depth, reg_lambda=lam, min_split_loss=msl)
        assert_same_tree(tree, oracle)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    ok(f"2 exact-greedy trees match brute-force oracle on 50 matrices ({elapsed:.1f}s)")


def test_criterion_3_global_model_beats_local_baseline(study):
    y = study["test_rows"].targets
    prices = study["prices"]
    rmse_gbt = weighted_rmse(y, study["gbt_pred"], prices)
    rmse_es = weighted_rmse(y, study["es_pred"], prices)
    mae_gbt = weighted_mae(y, study["gbt_pred"], prices)
    mae_es = weighted_mae(y, study["es_pred"], prices)
    assert rmse_gbt <= 0.90 * rmse_es, f"RMSE ratio {rmse_gbt / rmse_es:.3f}"
    assert mae_gbt <= 0.95 * mae_es, f"MAE ratio {mae_gbt / mae_es:.3f}"
    assert study["elapsed"] < 300.0
    ok(
        "3 global boosted model vs per-series baseline: "
        f"RMSE ratio {rmse_gbt / rmse_es:.3f} (<=0.90), "
        f"MAE ratio {mae_gbt / mae_es:.3f} (<=0.95), study {study['elapsed']:.0f}s"
    )


def test_criterion_4_cold_start(study):
    test_rows = study["test_rows"]
    cold = test_rows.life_at_forecast < 12
    assert cold.sum() >= 30, "panel must contain cold-start rows"
    y = test_rows.targets[cold]
    prices = study["prices"][cold]
    rmse_gbt = weighted_rmse(y, study["gbt_pred"][cold], prices)
    rmse_es = weighted_rmse(y, study["es_pred"][cold], prices)
    assert rmse_gbt < rmse_es
    # the baseline needs its documented fallback below two observations,
    # while the boosted model stays model-based everywhere
    tiny = test_rows.life_at_forecast < 2
    assert tiny.sum() >= 1
    assert study["es_fallback"][tiny].all()
    assert np.isfinite(study["gbt_pred"]).all()
    assert (study["gbt_pred"] > 0).all()
    ok(
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
        smoothed, repaired, catalog, tau=52, k=spec.n_shapes, seed=SEED, end_week=160
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
    rng = np.random.default_rng(SEED)
    tau = 52
    for _ in range(1000):
        on_sale = rng.random(tau) < rng.uniform(0.15, 1.0)
        if not on_sale.any():
            on_sale[int(rng.integers(tau))] = True
        x = np.where(on_sale, rng.uniform(0.1, 50.0, tau), 0.0)
        out = standardize_year(x, on_sale)
        assert abs(np.nansum(out) - on_sale.sum() / tau) < 1e-9
        for scale in (0.25, 2.0, 64.0):
            rescaled = standardize_year(x * scale, on_sale)
            assert np.array_equal(rescaled[on_sale], out[on_sale])
    ok("6 standardization sum identity (1e-9) and exact scale invariance, 1000 years")


def test_criterion_7_fake_zero_detection(study):
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
    ok(f"7 fake-zero detection: recall {recall:.3f} (>=0.90), precision {precision:.3f} (>=0.80)")


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
    booster = study["booster"]
    valid = np.array(booster.valid_loss)
    assert booster.best_round == int(np.argmin(valid))
    assert valid[booster.best_round] == valid.min()
    train_losses = np.array(booster.train_loss)
    assert (np.diff(train_losses) <= 1e-9).all()
    ok(
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
