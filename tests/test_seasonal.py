import numpy as np
import pytest

from demandcast.core import Catalog
from demandcast.preprocess import smooth_panel
from demandcast.seasonal import (
    SeasonalityModel,
    category_seasonality,
    cluster_seasonalities,
    fit_seasonality,
    standardize_year,
    trend_features,
)

from .oracles import brute_force_two_partition
from .test_core import make_panel

TAU = 52


class TestStandardizeYear:
    def test_constant_full_year(self):
        out = standardize_year(np.full(TAU, 7.0), np.ones(TAU, dtype=bool))
        assert np.allclose(out, 1 / TAU)

    def test_constant_half_year(self):
        on_sale = np.zeros(TAU, dtype=bool)
        on_sale[:26] = True
        x = np.where(on_sale, 3.0, 0.0)
        out = standardize_year(x, on_sale)
        assert np.allclose(out[:26], 1 / TAU)
        assert np.isnan(out[26:]).all()

    def test_sum_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            on_sale = rng.random(TAU) > 0.4
            x = np.where(on_sale, rng.uniform(0.5, 30, TAU), 0.0)
            if not on_sale.any():
                continue
            out = standardize_year(x, on_sale)
            total = np.nansum(out)
            assert abs(total - on_sale.sum() / TAU) < 1e-9

    def test_scale_invariance_exact_for_binary_scales(self):
        rng = np.random.default_rng(1)
        on_sale = rng.random(TAU) > 0.3
        x = np.where(on_sale, rng.uniform(1, 9, TAU), 0.0)
        base = standardize_year(x, on_sale)
        for scale in (0.125, 2.0, 128.0):
            scaled = standardize_year(x * scale, on_sale)
            assert np.array_equal(
                scaled[on_sale], base[on_sale]
            ), f"scale {scale} changed the standardized values"

    def test_all_zero_year_rejected(self):
        with pytest.raises(ValueError):
            standardize_year(np.zeros(TAU), np.ones(TAU, dtype=bool))

    def test_no_on_sale_weeks_rejected(self):
        with pytest.raises(ValueError):
            standardize_year(np.ones(TAU), np.zeros(TAU, dtype=bool))


def full_year_setup(values_by_product, categories):
    """Panel of constant (or given per-week) full-year sellers."""
    y = np.array(values_by_product, dtype=np.int64)
    panel = make_panel(y)
    smoothed = smooth_panel(panel, window=8, gamma=1000.0)  # effectively no capping
    catalog = Catalog(
        {f"p{i}": categories[i] for i in range(len(values_by_product))},
        {f"p{i}": 1.0 for i in range(len(values_by_product))},
        {},
    )
    return panel, smoothed, catalog


class TestCategorySeasonality:
    def test_single_constant_product(self):
        panel, smoothed, catalog = full_year_setup([[5] * TAU], ["a"])
        curves, variances = category_seasonality(smoothed, panel, catalog, TAU)
        assert np.allclose(curves["a"], 1 / TAU)
        assert np.allclose(variances["a"], 0.0)

    def test_identical_products_zero_variance(self):
        week = np.arange(TAU)
        values = (10 + 5 * np.sin(2 * np.pi * week / TAU)).astype(int)
        panel, smoothed, catalog = full_year_setup([values, values], ["a", "a"])
        curves, variances = category_seasonality(smoothed, panel, catalog, TAU)
        assert np.allclose(variances["a"], 0.0)

    def test_pointwise_mean_of_two_products(self):
        a = [2] * TAU
        b = [4] * 26 + [0] * 26
        on_sale = np.ones((2, TAU), dtype=bool)
        on_sale[1, 26:] = False
        panel = make_panel(np.array([a, b]), on_sale=on_sale)
        smoothed = smooth_panel(panel, window=8, gamma=1000.0)
        catalog = Catalog({"p0": "c", "p1": "c"}, {"p0": 1.0, "p1": 1.0}, {})
        curves, _ = category_seasonality(smoothed, panel, catalog, TAU)
        # product a contributes 1/52 everywhere, product b 1/52 on its half
        assert np.allclose(curves["c"][:26], 1 / TAU)
        assert np.allclose(curves["c"][26:], 1 / TAU)

    def test_gap_positions_interpolated(self):
        on_sale = np.zeros((1, TAU), dtype=bool)
        on_sale[0, :20] = True
        on_sale[0, 30:40] = True
        y = np.where(on_sale, 6, 0).astype(np.int64)
        panel = make_panel(y, on_sale=on_sale)
        smoothed = smooth_panel(panel, window=8, gamma=1000.0)
        catalog = Catalog({"p0": "c"}, {"p0": 1.0}, {})
        curves, _ = category_seasonality(smoothed, panel, catalog, TAU)
        assert not np.isnan(curves["c"]).any()

    def test_short_product_years_excluded(self):
        on_sale = np.zeros((1, TAU), dtype=bool)
        on_sale[0, :3] = True  # below the 4-week floor
        y = np.where(on_sale, 6, 0).astype(np.int64)
        panel = make_panel(y, on_sale=on_sale)
        smoothed = smooth_panel(panel, window=8, gamma=1000.0)
        catalog = Catalog({"p0": "c"}, {"p0": 1.0}, {})
        curves, _ = category_seasonality(smoothed, panel, catalog, TAU)
        assert curves == {}


def bump_curve(center, amp=0.8, width=8):
    pos = np.arange(TAU)
    dist = np.abs((pos - center + TAU / 2) % TAU - TAU / 2)
    curve = 1 + np.where(dist <= width, amp * np.cos(np.pi * dist / (2 * width)) ** 2, 0.0)
    curve = curve / curve.mean() / TAU
    return curve


class TestClustering:
    def test_k1_weighted_mean(self):
        curves = {"a": bump_curve(10), "b": bump_curve(40)}
        variances = {"a": np.full(TAU, 1.0), "b": np.zeros(TAU)}
        patterns, assignment = cluster_seasonalities(curves, variances, k=1, seed=0)
        w_a, w_b = 1 / 2, 1.0
        expected = (curves["a"] * w_a + curves["b"] * w_b) / (w_a + w_b)
        expected = expected * (1 / TAU) / expected.mean()
        assert np.allclose(patterns[0], expected)
        assert assignment == {"a": 0, "b": 0}

    def test_two_separated_groups_match_brute_force(self):
        rng = np.random.default_rng(2)
        names, curves, variances = [], {}, {}
        for idx in range(6):
            center = 8 if idx < 3 else 38
            name = f"c{idx}"
            names.append(name)
            curves[name] = bump_curve(center) + rng.normal(0, 1e-4, TAU)
            variances[name] = np.full(TAU, float(rng.uniform(0, 0.5)))
        patterns, assignment = cluster_seasonalities(curves, variances, k=2, seed=3)
        labels = np.array([assignment[n] for n in names])
        matrix = np.stack([curves[n] for n in names])
        weights = np.array([1 / (1 + variances[n].mean()) for n in names])
        best_mask = brute_force_two_partition(matrix, weights)
        # clustering must reproduce the optimal bipartition (up to label swap)
        assert (labels == labels[0]).tolist() == (best_mask == best_mask[0]).tolist()

    def test_identical_curves_collapse(self):
        curve = bump_curve(20)
        curves = {f"c{i}": curve.copy() for i in range(4)}
        variances = {f"c{i}": np.zeros(TAU) for i in range(4)}
        patterns, assignment = cluster_seasonalities(curves, variances, k=3, seed=1)
        for name, idx in assignment.items():
            assert np.allclose(patterns[idx], patterns[0])

    def test_determinism(self):
        rng = np.random.default_rng(5)
        curves = {f"c{i}": bump_curve(int(rng.integers(0, TAU))) for i in range(8)}
        variances = {name: np.full(TAU, float(rng.uniform(0, 1))) for name in curves}
        first = cluster_seasonalities(curves, variances, k=3, seed=9)
        second = cluster_seasonalities(curves, variances, k=3, seed=9)
        assert first[1] == second[1]
        for p1, p2 in zip(first[0], second[0]):
            assert np.array_equal(p1, p2)

    def test_k_exceeds_categories(self):
        curves = {"a": bump_curve(5)}
        with pytest.raises(ValueError):
            cluster_seasonalities(curves, {"a": np.zeros(TAU)}, k=2, seed=0)

    def test_patterns_mean_normalized(self):
        rng = np.random.default_rng(6)
        curves = {f"c{i}": bump_curve(int(rng.integers(0, TAU))) * rng.uniform(0.5, 2) for i in range(6)}
        variances = {name: np.zeros(TAU) for name in curves}
        patterns, _ = cluster_seasonalities(curves, variances, k=2, seed=0)
        for pattern in patterns:
            assert pattern.mean() == pytest.approx(1 / TAU, rel=1e-12)


class TestProductSeasonality:
    """A product's seasonal values are its category's pattern, read by values_at."""

    def model(self):
        patterns = [bump_curve(10), bump_curve(40)]
        return SeasonalityModel(
            tau=TAU,
            patterns=patterns,
            assignment={"toys": 0, "garden": 1},
            global_pattern=np.full(TAU, 1.0 / TAU),
        )

    def period_of(self, model, categories, row):
        """Row `row`'s values over one period, starting a period late to show the wrap."""
        weeks = np.arange(TAU, 2 * TAU)
        return model.values_at(categories, np.full(TAU, row), weeks)

    def test_lookup(self):
        model = self.model()
        categories = ["garden", "toys"]
        assert np.array_equal(self.period_of(model, categories, 0), model.patterns[1])
        assert np.array_equal(self.period_of(model, categories, 1), model.patterns[0])

    def test_cold_start_same_pattern(self):
        # the last product is new to the catalog; its category is known
        model = self.model()
        categories = ["toys", "garden", "toys"]
        assert np.array_equal(self.period_of(model, categories, 2), model.patterns[0])

    def test_unknown_category_falls_back(self):
        model = self.model()
        categories = ["toys", "mystery"]
        assert np.array_equal(self.period_of(model, categories, 1), model.global_pattern)


class TestTrendFeatures:
    def test_constant_series_zero(self):
        panel, smoothed, _ = full_year_setup([[5] * TAU], ["a"])
        annual, local = trend_features(smoothed, panel, np.array([0]), np.array([40]))
        assert (annual.tolist(), local.tolist()) == ([0.0], [0.0])

    def test_linear_series_annual_slope(self):
        values = list(range(TAU))
        on_sale = np.ones((1, TAU), dtype=bool)
        on_sale[0, 0] = True
        panel = make_panel(np.array([values]), on_sale=on_sale)
        smoothed = smooth_panel(panel, window=8, gamma=1000.0)
        annual, local = trend_features(smoothed, panel, np.array([0]), np.array([TAU - 1]))
        assert annual[0] == pytest.approx(1 / 25.5, rel=1e-9)
        assert local[0] > 0

    def test_too_few_points(self):
        on_sale = np.zeros((1, 20), dtype=bool)
        on_sale[0, 15:20] = True
        y = np.where(on_sale, np.arange(20) + 1, 0).astype(np.int64)
        panel = make_panel(y, on_sale=on_sale)
        smoothed = smooth_panel(panel, window=8, gamma=1000.0)
        annual, local = trend_features(smoothed, panel, np.array([0]), np.array([19]))
        assert annual[0] == 0.0  # 5 on-sale weeks < 8
        assert local[0] != 0.0


class TestFitSeasonality:
    def test_fit_produces_patterns_for_all_categories(self):
        week = np.arange(TAU)
        rows, cats = [], []
        for i in range(6):
            shift = 0 if i < 3 else 26
            rows.append((10 + 8 * np.cos(2 * np.pi * (week - shift) / TAU)).astype(int))
            cats.append("early" if i < 3 else "late")
        panel, smoothed, catalog = full_year_setup(rows, cats)
        model = fit_seasonality(smoothed, panel, catalog, TAU, k=2, seed=0)
        assert set(model.assignment) == {"early", "late"}
        assert model.assignment["early"] != model.assignment["late"]
        # wraps around the period
        categories = [catalog.category_of[pid] for pid in panel.products]
        value = model.values_at(categories, np.array([0]), np.array([TAU + 3]))[0]
        assert value == pytest.approx(model.patterns[model.assignment["early"]][3])
