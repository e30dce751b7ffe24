import numpy as np
import pytest

from demandcast.baselines import ESBaseline, es_fit_forecast, es_grid_select
from demandcast.core import Catalog

from .test_core import make_panel


class TestFitForecast:
    def test_alpha_one_is_naive(self):
        assert es_fit_forecast([3, 7, 2], alpha=1.0) == 2

    def test_constant_series_fixed_point(self):
        for alpha in (0.1, 0.5, 1.0):
            assert es_fit_forecast([5, 5, 5], alpha) == 5

    def test_half_alpha(self):
        assert es_fit_forecast([0, 4], alpha=0.5) == 2.0

    def test_empty_series(self):
        with pytest.raises(ValueError, match="empty"):
            es_fit_forecast([], alpha=0.5)

    def test_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            es_fit_forecast([1.0], alpha=0.0)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            series = rng.normal(size=rng.integers(1, 12))
            shift = float(rng.normal())
            base = es_fit_forecast(series, 0.3)
            assert es_fit_forecast(series + shift, 0.3) == pytest.approx(base + shift, abs=1e-12)

    def test_bounded_by_series_range(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            series = rng.uniform(-5, 5, size=rng.integers(1, 15))
            value = es_fit_forecast(series, float(rng.uniform(0.05, 1.0)))
            assert series.min() - 1e-12 <= value <= series.max() + 1e-12


class TestGridSelect:
    def test_constant_series_smallest_alpha(self):
        assert es_grid_select([5.0] * 10) == 0.1

    def test_level_shift_prefers_large_alpha(self):
        series = [5.0] * 10 + [20.0] * 5
        chosen = es_grid_select(series)
        # exhaustive check: the chosen alpha truly minimizes holdout error
        def holdout_err(alpha):
            return sum(
                (series[t] - es_fit_forecast(series[:t], alpha)) ** 2
                for t in range(len(series) - 4, len(series))
            )
        grid = [round(0.1 * k, 1) for k in range(1, 10)]
        best = min(grid, key=lambda a: (holdout_err(a), a))
        assert chosen == best
        assert chosen >= 0.5

    def test_short_series_default(self):
        # no longer than the SELECT_HOLDOUT (4) weeks: nothing to score on
        assert es_grid_select([1.0, 2.0, 3.0, 4.0]) == 0.3
        # one week more and the grid is searched: a steady climb wants the fastest alpha
        assert es_grid_select([1.0, 2.0, 3.0, 4.0, 5.0]) == 0.9


class TestESBaseline:
    def test_fallback_for_single_observation(self):
        on_sale = np.array([[True] * 6, [False] * 5 + [True]])
        y = np.array([[4, 4, 4, 4, 4, 4], [0, 0, 0, 0, 0, 9]])
        panel = make_panel(y, on_sale=on_sale)
        catalog = Catalog({"p0": "c", "p1": "c"}, {"p0": 1.0, "p1": 1.0}, {})
        baseline = ESBaseline(panel, catalog, train_end=6)
        value, used_fallback = baseline.forecast("p1", 5)
        assert used_fallback
        # category mean over training window: (6*4 + 9) / 7 weeks
        assert value == pytest.approx(33 / 7)
        value, used_fallback = baseline.forecast("p0", 5)
        assert not used_fallback
        assert value == pytest.approx(4.0)

    def test_unseen_category_uses_global_mean(self):
        panel = make_panel(np.array([[2, 2, 2], [0, 0, 0]]))
        catalog = Catalog({"p0": "a", "p1": "b"}, {"p0": 1.0, "p1": 1.0}, {})
        baseline = ESBaseline(panel, catalog, train_end=3)
        baseline.category_mean.pop("b", None)
        value, used_fallback = baseline.forecast("p1", 0)
        assert used_fallback
        assert value == pytest.approx(baseline.global_mean)
