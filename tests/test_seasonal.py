from dataclasses import replace

import numpy as np
import pytest

from demandcast.core import Catalog
from demandcast.preprocess import smooth_panel
from demandcast.seasonal import (
    MIN_YEAR_WEEKS,
    SeasonalityModel,
    category_seasonality,
    cluster_seasonalities,
    fit_seasonality,
    trend_features,
)
from demandcast.synth import SynthSpec, generate_panel

from .oracles import brute_force_two_partition, loop_category_seasonality
from .test_core import make_panel

TAU = 52


def standardized(x, on_sale):
    """The year x, on sale at on_sale, as category_seasonality standardizes it.

    The year is its category's only one, so the category curve equals the
    standardized values at the on-sale positions; None when the fit drops
    the year.
    """
    on_sale = np.asarray(on_sale, dtype=bool)[None, :]
    panel = make_panel(on_sale.astype(np.int64), on_sale=on_sale)
    smoothed = replace(smooth_panel(panel, window=8, gamma=1000.0), x=np.array([x], dtype=float))
    catalog = Catalog({"p0": "c"}, {"p0": 1.0}, {})
    curves, _ = category_seasonality(smoothed, panel, catalog, on_sale.shape[1], on_sale.shape[1])
    return curves.get("c")


class TestStandardizeYear:
    def test_constant_full_year(self):
        out = standardized(np.full(TAU, 7.0), np.ones(TAU, dtype=bool))
        assert np.allclose(out, 1 / TAU)

    def test_constant_half_year(self):
        on_sale = np.zeros(TAU, dtype=bool)
        on_sale[:26] = True
        x = np.where(on_sale, 3.0, 0.0)
        out = standardized(x, on_sale)
        assert np.allclose(out[:26], 1 / TAU)
        assert np.allclose(out[26:], 1 / TAU)  # interpolated around the circle

    def test_sum_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            on_sale = rng.random(TAU) > 0.4
            x = np.where(on_sale, rng.uniform(0.5, 30, TAU), 0.0)
            out = standardized(x, on_sale)
            if on_sale.sum() < MIN_YEAR_WEEKS:
                assert out is None
                continue
            assert abs(out[on_sale].sum() - on_sale.sum() / TAU) < 1e-9

    def test_scale_invariance_exact_for_binary_scales(self):
        rng = np.random.default_rng(1)
        on_sale = rng.random(TAU) > 0.3
        x = np.where(on_sale, rng.uniform(1, 9, TAU), 0.0)
        base = standardized(x, on_sale)
        for scale in (0.125, 2.0, 128.0):
            scaled = standardized(x * scale, on_sale)
            assert np.array_equal(
                scaled[on_sale], base[on_sale]
            ), f"scale {scale} changed the standardized values"

    def test_all_zero_year_rejected(self):
        assert standardized(np.zeros(TAU), np.ones(TAU, dtype=bool)) is None

    def test_no_on_sale_weeks_rejected(self):
        assert standardized(np.ones(TAU), np.zeros(TAU, dtype=bool)) is None


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
        curves, variances = category_seasonality(smoothed, panel, catalog, TAU, TAU)
        assert np.allclose(curves["a"], 1 / TAU)
        assert np.allclose(variances["a"], 0.0)

    def test_identical_products_zero_variance(self):
        week = np.arange(TAU)
        values = (10 + 5 * np.sin(2 * np.pi * week / TAU)).astype(int)
        panel, smoothed, catalog = full_year_setup([values, values], ["a", "a"])
        curves, variances = category_seasonality(smoothed, panel, catalog, TAU, TAU)
        assert np.allclose(variances["a"], 0.0)

    def test_pointwise_mean_of_two_products(self):
        a = [2] * TAU
        b = [4] * 26 + [0] * 26
        on_sale = np.ones((2, TAU), dtype=bool)
        on_sale[1, 26:] = False
        panel = make_panel(np.array([a, b]), on_sale=on_sale)
        smoothed = smooth_panel(panel, window=8, gamma=1000.0)
        catalog = Catalog({"p0": "c", "p1": "c"}, {"p0": 1.0, "p1": 1.0}, {})
        curves, _ = category_seasonality(smoothed, panel, catalog, TAU, TAU)
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
        curves, _ = category_seasonality(smoothed, panel, catalog, TAU, TAU)
        assert not np.isnan(curves["c"]).any()

    def test_short_product_years_excluded(self):
        on_sale = np.zeros((1, TAU), dtype=bool)
        on_sale[0, :3] = True  # below the 4-week floor
        y = np.where(on_sale, 6, 0).astype(np.int64)
        panel = make_panel(y, on_sale=on_sale)
        smoothed = smooth_panel(panel, window=8, gamma=1000.0)
        catalog = Catalog({"p0": "c"}, {"p0": 1.0}, {})
        curves, _ = category_seasonality(smoothed, panel, catalog, TAU, TAU)
        assert curves == {}


def edge_panel(tau, n_weeks=150, seed=0):
    """A panel whose product-years cover the fit's edge cases for period tau.

    Random products in three categories, plus one category each whose years
    have MIN_YEAR_WEEKS - 1 on-sale weeks ("under"), exactly MIN_YEAR_WEEKS
    ("at"), or sales of zero ("zero"); a category of one product on sale in
    its first year only, so each of its positions is seen once ("once"); and
    a product the catalog lacks. n_weeks is no multiple of the tested periods,
    so the last year is partial.
    """
    rng = np.random.default_rng(seed)
    n_random = 30
    on_sale = rng.random((n_random, n_weeks)) < rng.uniform(0.05, 1.0, (n_random, 1))
    y = np.where(on_sale, rng.integers(0, 30, (n_random, n_weeks)), 0)
    categories = [f"c{i % 3}" for i in range(n_random)]
    offsets = np.arange(n_weeks) % tau
    special = {
        "under": offsets < MIN_YEAR_WEEKS - 1,
        "at": offsets < MIN_YEAR_WEEKS,
        "zero": np.ones(n_weeks, dtype=bool),
        "once": np.arange(n_weeks) < tau,
        "missing": np.ones(n_weeks, dtype=bool),
    }
    for name, listed in special.items():
        on_sale = np.vstack([on_sale, listed])
        sales = 0 if name == "zero" else rng.integers(1, 30, n_weeks)
        y = np.vstack([y, np.where(listed, sales, 0)])
        categories.append(name)
    panel = make_panel(y, on_sale=on_sale)
    smoothed = smooth_panel(panel, window=8, gamma=2.0)
    listed = [pid for pid, cat in zip(panel.products, categories) if cat != "missing"]
    catalog = Catalog(
        {pid: cat for pid, cat in zip(panel.products, categories) if cat != "missing"},
        {pid: 1.0 for pid in listed},
        {},
    )
    return panel, smoothed, catalog


def assert_same_fit(got, expected):
    """Curves and variances equal bit for bit, categories in the same order."""
    (curves, variances), (ref_curves, ref_variances) = got, expected
    assert list(curves) == list(ref_curves)
    assert list(variances) == list(ref_variances)
    for cat in ref_curves:
        assert np.array_equal(curves[cat], ref_curves[cat]), cat
        assert np.array_equal(variances[cat], ref_variances[cat]), cat


class TestAgainstLoop:
    """category_seasonality equals the one-year-at-a-time loop bit for bit."""

    @pytest.mark.parametrize("end_week", [None, 100])  # None: the whole panel
    @pytest.mark.parametrize("tau", [7, 13, 52, 139])
    def test_edge_panel(self, tau, end_week):
        panel, smoothed, catalog = edge_panel(tau)
        end_week = panel.n_weeks if end_week is None else end_week
        got = category_seasonality(smoothed, panel, catalog, tau, end_week)
        assert_same_fit(got, loop_category_seasonality(smoothed, panel, catalog, tau, end_week))
        curves, variances = got
        assert {"c0", "c1", "c2", "at", "once"} <= set(curves)
        assert not {"under", "zero"} & set(curves)
        assert (variances["once"] == 0).all()

    @pytest.mark.parametrize("end_week", [None, 80])  # None: the whole panel
    def test_synth_panel(self, end_week):
        spec = SynthSpec(n_products=200, n_categories=6, n_weeks=130, seed=11)
        end_week = spec.n_weeks if end_week is None else end_week
        panel, catalog, _, _ = generate_panel(spec)
        smoothed = smooth_panel(panel, window=8, gamma=3.0)
        assert_same_fit(
            category_seasonality(smoothed, panel, catalog, TAU, end_week),
            loop_category_seasonality(smoothed, panel, catalog, TAU, end_week),
        )

    @pytest.mark.parametrize("end_week", [0, -5])
    def test_no_weeks_fit_nothing(self, end_week):
        panel, smoothed, catalog = edge_panel(TAU)
        assert category_seasonality(smoothed, panel, catalog, TAU, end_week) == ({}, {})
        assert loop_category_seasonality(smoothed, panel, catalog, TAU, end_week) == ({}, {})


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
        model = fit_seasonality(smoothed, panel, catalog, TAU, k=2, seed=0, end_week=TAU)
        assert set(model.assignment) == {"early", "late"}
        assert model.assignment["early"] != model.assignment["late"]
        # wraps around the period
        categories = [catalog.category_of[pid] for pid in panel.products]
        value = model.values_at(categories, np.array([0]), np.array([TAU + 3]))[0]
        assert value == pytest.approx(model.patterns[model.assignment["early"]][3])
