import hashlib

import numpy as np
import pytest

from demandcast import ingest
from demandcast.cli import main
from demandcast.preprocess import detect_fake_zeros
from demandcast.synth import SynthSpec, generate_panel, write_ground_truth

from .oracles import covariate_dicts, loop_write_ground_truth

# sha256 of the files `synth --products 40 --weeks 80 --seed 9` writes
SYNTH_SHA256 = {
    "catalog.csv": "8c70821006e0a8a5fb6e82c48f8333a81b1ed7c1c11521ad7df12de25346fea1",
    "covariates.csv": "f5828f4d6bd062a4ccd8617e7fe02204772a7471695e413775c46857b495c9a9",
    "ground_truth.csv": "158f9036dfcb8cf2e4894d4b0675cdf38e5f53ec705959fa406caea50b3619c2",
    "ground_truth_curves.csv": "0ad7ca15e3dc5d1e41145bb77c8a01754f33d5c31b5be945aa91f20b7405181f",
    "sales.csv": "97f314070589e55981f20847d65ab68b0ceac4345512b4b1ddf6a59ada8d7ea9",
}


def flat_spec(**kw):
    """No promos, no stockouts, no seasonality, no trend: pure Poisson."""
    defaults = dict(
        n_products=50,
        n_categories=5,
        n_weeks=60,
        bump_amplitude=(0.0, 0.0),
        category_strength=(1.0, 1.0),
        level_median=10.0,
        level_sigma=0.0,
        trend_range=(0.0, 0.0),
        promo_prob=0.0,
        stockout_prob=0.0,
        event_lift=1.0,
        seed=0,
    )
    defaults.update(kw)
    return SynthSpec(**defaults)


class TestDeterminism:
    def test_same_seed_identical(self):
        a_panel, a_cat, a_cov, a_truth = generate_panel(SynthSpec(n_products=40, n_weeks=80, seed=9))
        b_panel, b_cat, b_cov, b_truth = generate_panel(SynthSpec(n_products=40, n_weeks=80, seed=9))
        assert np.array_equal(a_panel.y, b_panel.y)
        assert np.array_equal(a_panel.stock_flag, b_panel.stock_flag)
        assert a_cat.price == b_cat.price
        assert covariate_dicts(a_cov) == covariate_dicts(b_cov)
        assert np.array_equal(a_truth.lam, b_truth.lam)

    def test_synth_command_bytes_pinned(self, tmp_path):
        # any change to the generator's draws or to its writers moves a digest
        assert main(["synth", "--out-dir", str(tmp_path), "--products", "40", "--weeks", "80",
                     "--seed", "9"]) == 0
        assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in tmp_path.iterdir()} == SYNTH_SHA256

    def test_different_seed_differs(self):
        a_panel, *_ = generate_panel(SynthSpec(n_products=40, n_weeks=80, seed=1))
        b_panel, *_ = generate_panel(SynthSpec(n_products=40, n_weeks=80, seed=2))
        assert not np.array_equal(a_panel.y, b_panel.y)


class TestStatisticalShape:
    def test_poisson_mean_within_three_sigma(self):
        panel, _, _, truth = generate_panel(flat_spec())
        live = panel.on_sale_mask
        n_obs = int(live.sum())
        assert n_obs > 1000
        sample_mean = panel.y[live].mean()
        # mean of n Poisson(10) draws: sd = sqrt(10/n)
        sigma = np.sqrt(10.0 / n_obs)
        assert abs(sample_mean - 10.0) < 3 * sigma

    def test_equidispersion_no_promo_weeks(self):
        panel, _, _, truth = generate_panel(flat_spec(n_products=200, n_weeks=120, seed=4))
        live = panel.on_sale_mask
        values = panel.y[live].astype(float)
        ratio = values.var() / values.mean()
        assert 0.9 < ratio < 1.1

    def test_lam_matches_emitted_series(self):
        panel, _, _, truth = generate_panel(flat_spec(seed=5))
        live = panel.on_sale_mask & ~truth.stockout_mask
        assert np.allclose(truth.lam[live], 10.0)


class TestStructure:
    def test_panel_passes_ingest_validations(self, tmp_path):
        panel, catalog, covariates, _ = generate_panel(SynthSpec(n_products=30, n_weeks=70, seed=3))
        ingest.write_sales(panel, tmp_path / "sales.csv")
        ingest.write_catalog(catalog, tmp_path / "catalog.csv")
        ingest.write_covariates(covariates, tmp_path / "cov.csv")
        panel2 = ingest.load_sales(tmp_path / "sales.csv")
        catalog2 = ingest.load_catalog(tmp_path / "catalog.csv")
        ingest.load_covariates(tmp_path / "cov.csv", panel2)
        catalog2.validate_covers(panel2)
        assert np.array_equal(panel2.y, panel.y)

    def test_stockout_weeks_forced(self):
        panel, _, _, truth = generate_panel(SynthSpec(n_products=80, n_weeks=100, seed=6))
        assert truth.stockout_mask.any()
        assert (panel.y[truth.stockout_mask] == 0).all()
        assert not panel.stock_flag[truth.stockout_mask].any()
        assert panel.on_sale_mask[truth.stockout_mask].all()

    def test_ground_truth_stockouts_satisfy_detection_preconditions(self):
        panel, _, _, truth = generate_panel(SynthSpec(n_products=120, n_weeks=150, seed=7))
        mask = detect_fake_zeros(panel)
        # every detected week is a true stockout (stock flag only drops there)
        assert (~mask | truth.stockout_mask).all()

    def test_promos_lift_intensity(self):
        panel, _, _, truth = generate_panel(SynthSpec(n_products=150, n_weeks=150, seed=8))
        promo = truth.promo_mask & ~truth.stockout_mask
        quiet = panel.on_sale_mask & ~truth.promo_mask & ~truth.stockout_mask
        assert truth.lam[promo].mean() > 1.5 * truth.lam[quiet].mean()

    def test_curves_have_unit_mean(self):
        _, _, _, truth = generate_panel(SynthSpec(n_products=20, n_weeks=60, seed=9))
        for curve in truth.category_curve.values():
            assert curve.mean() == pytest.approx(1.0, rel=1e-9)

    def test_covariates_cover_live_weeks(self):
        panel, _, covariates, truth = generate_panel(SynthSpec(n_products=25, n_weeks=60, seed=10))
        covariates = covariate_dicts(covariates)
        for i, pid in enumerate(panel.products):
            for t in range(int(truth.launch[i]), int(truth.end[i])):
                assert (pid, t) in covariates.mixed["promo"]
                assert (pid, t) in covariates.mixed["price_week"]

    def test_ground_truth_bytes_equal_the_week_loop(self, tmp_path):
        panel, _, _, truth = generate_panel(SynthSpec(n_products=40, n_weeks=60, stockout_prob=0.1, seed=12))
        assert truth.promo_mask.any() and truth.stockout_mask.any()
        write_ground_truth(truth, panel, tmp_path / "truth.csv")
        loop_write_ground_truth(truth, panel, tmp_path / "loop.csv")
        assert (tmp_path / "truth.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            generate_panel(SynthSpec(promo_prob=1.5))
        with pytest.raises(ValueError):
            generate_panel(SynthSpec(n_weeks=5))
