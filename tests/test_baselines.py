import csv

import numpy as np
import pytest

from demandcast import cli
from demandcast.baselines import ALPHA_GRID, ESBaseline, es_fit_forecast, es_grid_select
from demandcast.core import Catalog
from demandcast.ingest import load_config
from demandcast.synth import SynthSpec, generate_panel

from .oracles import loop_es_means
from .test_cli import CONFIG
from .test_core import make_panel


def scalar_forecast(baseline, product_id, t):
    """ESBaseline.forecast as a grid selection over the prefix up to t, per call."""
    i = baseline.panel.row(product_id)
    weeks = np.flatnonzero(baseline.panel.on_sale_mask[i, : max(t + 1, 0)])
    if weeks.size < ESBaseline.MIN_OBS:
        cat = baseline.catalog.category_of.get(product_id)
        return baseline.category_mean.get(cat, baseline.global_mean), True
    series = baseline.panel.y[i, weeks].astype(float)
    return es_fit_forecast(series, es_grid_select(series)), False


def bits(values):
    """The float64 bit patterns of values, so equality admits no rounding."""
    return np.array(values, dtype=np.float64).view(np.uint64)


def one_product(values, on_sale=None):
    """A baseline over one product, p0, in category c."""
    panel = make_panel([values], on_sale=None if on_sale is None else [on_sale])
    return ESBaseline(panel, Catalog({"p0": "c"}, {"p0": 1.0}, {}), train_end=len(values))


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

    def test_fallback_means_equal_the_loop_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n, weeks = int(rng.integers(0, 30)), int(rng.integers(1, 25))
            on_sale = rng.random((n, weeks)) < rng.random()
            # counts up to 10^16, past 2^53: summed in another order, the sums round apart
            y = np.where(on_sale, rng.integers(0, 10 ** int(rng.integers(1, 17)), (n, weeks)), 0)
            pids = [f"p{i}" for i in range(n)]
            categories = {pid: f"c{rng.integers(4)}" for pid in pids}
            catalog = Catalog(categories, dict.fromkeys(pids, 1.0), {})
            train_end = int(rng.integers(0, weeks + 2))
            baseline = ESBaseline(make_panel(y, on_sale=on_sale), catalog, train_end)
            means, global_mean = loop_es_means(baseline.panel, catalog, train_end)
            assert baseline.category_mean.keys() == means.keys()
            assert bits(list(baseline.category_mean.values())).tolist() == (
                bits([means[cat] for cat in baseline.category_mean]).tolist()
            )
            assert bits(baseline.global_mean) == bits(global_mean)


class TestForecastTable:
    """The one-pass table equals the per-origin scalar grid search bit for bit."""

    def check_every_origin(self, panel, catalog):
        baseline = ESBaseline(panel, catalog, train_end=panel.n_weeks)
        origins = [(pid, t) for pid in panel.products for t in range(-1, panel.n_weeks + 1)]
        got = [baseline.forecast(pid, t) for pid, t in origins]
        expected = [scalar_forecast(baseline, pid, t) for pid, t in origins]
        assert [flag for _, flag in got] == [flag for _, flag in expected]
        assert np.array_equal(bits([v for v, _ in got]), bits([v for v, _ in expected]))

    def test_synth_panel_with_gaps(self):
        panel, catalog, _, _ = generate_panel(
            SynthSpec(n_products=30, n_categories=3, n_weeks=60, seed=11)
        )
        rng = np.random.default_rng(4)
        on_sale = panel.on_sale_mask & (rng.random(panel.y.shape) > 0.2)
        y = np.where(on_sale, panel.y, 0)
        gapped = type(panel)(panel.products, y, on_sale, panel.stock_flag)
        assert (gapped.on_sale_mask != panel.on_sale_mask).any()
        self.check_every_origin(gapped, catalog)

    def test_random_panel(self):
        rng = np.random.default_rng(9)
        on_sale = rng.random((25, 40)) < 0.6
        y = np.where(on_sale, rng.poisson(6.0, on_sale.shape), 0)
        panel = make_panel(y, on_sale=on_sale)
        catalog = Catalog(
            {p: "c" for p in panel.products}, {p: 1.0 for p in panel.products}, {}
        )
        self.check_every_origin(panel, catalog)

    def test_one_observation_falls_back(self):
        baseline = one_product([0, 7, 0], on_sale=[False, True, False])
        assert baseline.forecast("p0", 2) == (7.0, True)  # the category mean
        assert baseline.forecast("p0", 0)[1]
        assert baseline.forecast("p0", -1)[1]

    @pytest.mark.parametrize("values", [[2, 8], [2, 8, 3, 11]])
    def test_two_to_four_observations_use_the_default_alpha(self, values):
        baseline = one_product(values)
        expected = es_fit_forecast([float(v) for v in values], 0.3)
        assert baseline.forecast("p0", len(values) - 1) == (expected, False)

    def test_five_observations_search_the_grid(self):
        series = [1.0, 2.0, 3.0, 4.0, 5.0]
        baseline = one_product(series)
        # a steady climb wants the fastest alpha, not the default
        assert baseline.forecast("p0", 4) == (es_fit_forecast(series, 0.9), False)
        assert es_fit_forecast(series, 0.9) != es_fit_forecast(series, 0.3)
        assert baseline.forecast("p0", 3) == (es_fit_forecast(series[:4], 0.3), False)

    def test_tie_goes_to_the_smaller_alpha(self):
        series = [4.0, 4.0, 4.0, 0.0, 1.0]

        def holdout_err(alpha):
            err = 0.0
            for t in range(1, 5):
                err += (series[t] - es_fit_forecast(series[:t], alpha)) ** 2
            return err

        errs = {alpha: holdout_err(alpha) for alpha in ALPHA_GRID}
        assert errs[0.7] == errs[0.8] == min(errs.values())
        assert sorted(errs.values())[2] > errs[0.7]
        assert es_fit_forecast(series, 0.7) != es_fit_forecast(series, 0.8)
        assert one_product(series).forecast("p0", 4) == (es_fit_forecast(series, 0.7), False)

    def test_holdout_errors_summed_oldest_first(self):
        # 0.6 and 0.7 tie exactly when the four errors are summed oldest
        # first; newest first, 0.7's sum rounds one bit lower
        series = [19.0, 19.0, 3.0, 3.0, 13.0]
        assert es_grid_select(series) == 0.6
        assert one_product(series).forecast("p0", 4) == (es_fit_forecast(series, 0.6), False)
        assert es_fit_forecast(series, 0.6) != es_fit_forecast(series, 0.7)

    def test_constant_series(self):
        # 0.3 * 6 + 0.7 * 6 rounds below 6, so the chosen alpha shows in the level
        series = [6.0] * 9
        assert es_fit_forecast(series, 0.3) != es_fit_forecast(series, 0.1)
        baseline = one_product([6] * 9)
        for t in range(1, 9):
            prefix = series[: t + 1]
            alpha = 0.3 if len(prefix) <= 4 else 0.1
            assert es_grid_select(prefix) == alpha
            assert baseline.forecast("p0", t) == (es_fit_forecast(prefix, alpha), False)

    def test_origin_beyond_the_last_week(self):
        series = [3, 0, 5, 9, 1, 4, 4]
        on_sale = [True, False, True, True, True, True, True]
        baseline = one_product(series, on_sale=on_sale)
        last = baseline.forecast("p0", 6)
        assert not last[1]
        assert baseline.forecast("p0", 7) == last
        assert baseline.forecast("p0", 100) == last
        listed = [3.0, 5.0, 9.0, 1.0, 4.0, 4.0]
        assert last[0] == es_fit_forecast(listed, es_grid_select(listed))


def test_pipeline_es_predictions_equal_the_scalar_path(tmp_path):
    data = tmp_path / "data"
    assert cli.main(
        ["synth", "--out-dir", str(data), "--products", "15", "--categories", "3",
         "--weeks", "80", "--seed", "8"]
    ) == 0
    (data / "run.cfg").write_text(CONFIG)
    out = tmp_path / "es"
    sources = [str(data / name) for name in ("sales.csv", "catalog.csv", "covariates.csv")]
    assert cli.main(
        ["pipeline", "--config", str(data / "run.cfg"), "--sales", sources[0],
         "--catalog", sources[1], "--covariates", sources[2], "--out-dir", str(out),
         "--model", "es"]
    ) == 0

    config = load_config(data / "run.cfg")
    panel, catalog, _ = cli.load_inputs(*sources)
    repaired, _ = cli.preprocess(panel, config)
    reference = ESBaseline(repaired, catalog, train_end=config.train_len)
    with (out / "predictions.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) > 100
    expected = [
        scalar_forecast(reference, row["product_id"], int(row["week"]) - config.horizon)[0]
        for row in rows
    ]
    assert np.array_equal(bits([float(row["forecast"]) for row in rows]), bits(expected))
