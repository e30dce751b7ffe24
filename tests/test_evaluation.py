import math

import numpy as np
import pytest

from demandcast import cli
from demandcast.core import Catalog
from demandcast.evaluation import (
    evaluate,
    segment_products,
    weighted_mae,
    weighted_rmse,
)
from demandcast.features import build_matrix, fit_encoding, split_rows
from demandcast.ingest import RunConfig, SchemaError

from .test_core import make_panel


class TestWeightedRmse:
    def test_perfect_forecast(self):
        assert weighted_rmse([1, 2], [1, 2], [3, 4]) == 0.0

    def test_hand_value(self):
        value = weighted_rmse([1, 1], [0, 0], [1, 2])
        assert value == pytest.approx(math.sqrt(5 / 2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_rmse([1], [1, 2], [1, 1])

    def test_price_scaling_linear(self):
        rng = np.random.default_rng(0)
        y, y_hat, p = rng.poisson(5, 20), rng.poisson(5, 20), rng.uniform(1, 9, 20)
        base = weighted_rmse(y, y_hat, p)
        assert weighted_rmse(y, y_hat, 7.0 * p) == pytest.approx(7.0 * base)

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        y = rng.poisson(5, 10).astype(float)
        y_hat = y.copy()
        y_hat[3] += 0.5
        assert weighted_rmse(y, y, np.ones(10)) == 0.0
        assert weighted_rmse(y, y_hat, np.ones(10)) > 0.0


class TestWeightedMae:
    def test_perfect_forecast(self):
        assert weighted_mae([2, 3], [2, 3], [1, 5]) == 0.0

    def test_hand_value(self):
        assert weighted_mae([2, 0], [1, 1], [1, 1]) == 1.0

    def test_denominator_is_forecasts(self):
        # doubling forecasts changes the denominator, not just the numerator
        value = weighted_mae([2, 2], [4, 4], [1, 1])
        assert value == pytest.approx(4 / 8)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="denominator"):
            weighted_mae([1, 1], [0, 0], [1, 1])

    def test_price_scaling_invariant(self):
        rng = np.random.default_rng(2)
        y, p = rng.poisson(5, 15), rng.uniform(1, 9, 15)
        y_hat = rng.poisson(5, 15) + 1.0
        base = weighted_mae(y, y_hat, p)
        assert weighted_mae(y, y_hat, 3.0 * p) == pytest.approx(base)


def split_weeks(n_weeks, train_len, valid_len, test_len):
    """Target weeks of the (train, valid, test) matrices cut from split_rows' rows.

    Two products on sale every week, horizon 6: each part must hold both
    products' rows for each of its weeks.
    """
    panel = make_panel(np.random.default_rng(0).poisson(4.0, size=(2, n_weeks)))
    catalog = Catalog({"p0": "c", "p1": "c"}, {"p0": 1.0, "p1": 2.0}, {})
    config = RunConfig(
        train_len=train_len, valid_len=valid_len, test_len=test_len, with_seasonality=False
    )
    repaired, smoothed = cli.preprocess_panel(panel, config.smooth_window, config.cap_gamma)
    rows, issued, bounds = split_rows(repaired.on_sale_mask, config)
    encoding = fit_encoding(catalog, config)
    full = build_matrix(repaired, smoothed, catalog, None, None, config, rows, issued, encoding)
    parts = [full.select(slice(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    weeks = [sorted(set(part.target_weeks.tolist())) for part in parts]
    assert [part.n_rows for part in parts] == [2 * len(w) for w in weeks]
    return weeks


class TestTemporalSplit:
    """The run's train/valid/test weeks, as `cli.run` cuts the feature rows."""

    def test_published_lengths(self):
        train, valid, test = split_weeks(199, 170, 10, 19)
        assert (train, valid, test) == (
            list(range(6, 170)), list(range(170, 180)), list(range(180, 199))
        )

    def test_smaller_panel(self):
        train, valid, test = split_weeks(30, 20, 5, 5)
        assert (train, valid, test) == (list(range(6, 20)), list(range(20, 25)), list(range(25, 30)))

    def test_oversized_spec_rejected(self):
        for lengths, needed in (((25, 5, 5), 35), ((20, 5, 6), 31)):
            with pytest.raises(ValueError, match=rf"^split needs {needed} weeks but panel has 30$"):
                split_weeks(30, *lengths)

    def test_disjoint_cover(self):
        train, valid, test = split_weeks(40, 25, 6, 9)
        assert train + valid + test == list(range(6, 40))


class TestSegmentation:
    """segment_products' label of each panel row; make_panel's row i is product p{i}."""

    def test_default_counts(self):
        y = np.array([[100 - 10 * i] * 5 for i in range(10)], dtype=np.int64)
        panel = make_panel(y)
        labels = segment_products(panel, np.ones(10), 5)
        counts = {s: int(np.sum(labels == s)) for s in "ABC"}
        assert counts == {"A": 1, "B": 3, "C": 6}
        assert labels[0] == "A"

    def test_ties_break_by_product_id(self):
        y = np.full((4, 3), 5, dtype=np.int64)
        panel = make_panel(y)
        labels = segment_products(panel, np.ones(4), 3)
        assert labels[0] == "A"  # equal volumes: lowest id ranks first

    def test_ties_break_by_id_not_by_row(self):
        # rows p0..p11, whose ids sort p0, p1, p10, p11, p2, ...: with equal
        # volumes A takes p0 and B the next three ids, not the next three rows
        panel = make_panel(np.full((12, 3), 5, dtype=np.int64))
        labels = segment_products(panel, np.ones(12), 3)
        expected = np.full(12, "C")
        expected[0] = "A"
        expected[[1, 10, 11]] = "B"
        assert labels.tolist() == expected.tolist()

    def test_dominant_product_in_a(self):
        y = np.ones((5, 4), dtype=np.int64)
        y[3] = 500
        panel = make_panel(y)
        labels = segment_products(panel, np.ones(5), 4)
        assert labels[3] == "A"

    def test_price_weighting_matters(self):
        y = np.array([[10] * 4, [8] * 4, [1] * 4], dtype=np.int64)
        panel = make_panel(y)
        labels = segment_products(panel, np.array([1.0, 100.0, 1.0]), 4)
        assert labels[1] == "A"

    def test_too_few_products(self):
        # fewer products than segments: A first, then B
        panel = make_panel(np.ones((1, 3), dtype=np.int64))
        assert segment_products(panel, np.ones(1), 3).tolist() == ["A"]
        panel = make_panel(np.array([[1] * 3, [4] * 3], dtype=np.int64))
        assert segment_products(panel, np.ones(2), 3).tolist() == ["B", "A"]

    def test_volume_counts_training_weeks_only(self):
        # p1 outsells p0 only after week 2
        panel = make_panel(np.array([[5, 5, 5, 5], [1, 1, 50, 50], [0, 0, 0, 0]], dtype=np.int64))
        assert segment_products(panel, np.ones(3), 2).tolist() == ["A", "B", "C"]
        assert segment_products(panel, np.ones(3), 4).tolist() == ["B", "A", "C"]


class TestEvaluate:
    def setup_inputs(self):
        # rows (a, 10), (b, 10), (c, 10), (a, 11); prices a 2, b 1, c 4
        y = np.full(4, 5.0)
        prices = np.array([2.0, 1.0, 4.0, 2.0])
        segments = np.array(["A", "B", "C", "A"])
        life = np.array([8, 10, 25, 9])
        return y, y.copy(), prices, segments, life

    def test_perfect_predictions_zero_everywhere(self):
        report = evaluate(*self.setup_inputs())
        assert report.overall.rmse == 0.0
        assert report.overall.mae == 0.0
        for cell in list(report.segments.values()) + list(report.life_buckets.values()):
            assert cell.rmse == 0.0

    def test_bucket_structure(self):
        report = evaluate(*self.setup_inputs())
        assert set(report.segments) == {"A", "B", "C"}
        assert set(report.life_buckets) == {"8", "9", "10", "13+"}
        assert report.life_buckets["13+"].rows == 1

    def test_degenerate_single_cell_matches_overall(self):
        report = evaluate(
            np.array([6.0]), np.array([4.0]), np.array([3.0]), np.array(["A"]), np.array([9])
        )
        assert report.overall.rmse == report.segments["A"].rmse
        assert report.overall.rmse == report.life_buckets["9"].rmse


class TestScore:
    """cli.score on a 12-product panel, whose ids p10 and p11 sort before p2."""

    def setup_rows(self):
        rng = np.random.default_rng(4)
        panel = make_panel(rng.poisson(5.0, size=(12, 30)))
        catalog = Catalog(
            {f"p{i}": "c" for i in range(12)}, {f"p{i}": 1.0 + i for i in range(12)}, {}
        )
        config = RunConfig(horizon=6, train_len=20, valid_len=4, test_len=6)
        pids = np.repeat(np.array(panel.products, dtype=object), 17)
        weeks = np.tile(np.arange(13, 30), 12)
        forecasts = rng.uniform(1.0, 9.0, pids.size)
        return panel, catalog, config, pids, weeks, forecasts

    def test_rows_grouped_by_their_product_segment_and_life(self):
        panel, catalog, config, pids, weeks, forecasts = self.setup_rows()
        report = cli.score(pids, weeks, forecasts, panel, catalog, config)
        y = panel.y[[panel.index[pid] for pid in pids], weeks]
        prices = np.array([catalog.price[pid] for pid in pids])
        row_prices = np.array([catalog.price[pid] for pid in panel.products])
        by_row = segment_products(panel, row_prices, train_end=config.train_len)
        labels = by_row[[panel.index[pid] for pid in pids]]
        life = weeks - config.horizon + 1  # every week is on sale
        groups = {name: labels == name for name in ("A", "B", "C")}
        groups.update({str(k): life == k for k in (8, 9, 10, 11, 12)})
        groups["13+"] = life > 12
        cells = {**report.segments, **report.life_buckets}
        assert set(cells) == set(groups)
        for name, mask in groups.items():
            assert cells[name].rows == mask.sum()
            expected = weighted_rmse(y[mask], forecasts[mask], prices[mask])
            assert cells[name].rmse == pytest.approx(expected, rel=1e-12)

    def test_row_order_does_not_matter(self):
        panel, catalog, config, pids, weeks, forecasts = self.setup_rows()
        report = cli.score(pids, weeks, forecasts, panel, catalog, config)
        perm = np.random.default_rng(5).permutation(pids.size)
        shuffled = cli.score(pids[perm], weeks[perm], forecasts[perm], panel, catalog, config)
        assert shuffled == report

    @pytest.mark.parametrize("pid,week", [("ghost", 20), ("p3", -1), ("p3", 30)])
    def test_key_outside_the_panel_rejected(self, pid, week):
        panel, catalog, config, pids, weeks, forecasts = self.setup_rows()
        pids[5], weeks[5] = pid, week
        # row 5 of a predictions file is on line 7: the header is line 1
        with pytest.raises(SchemaError) as err:
            cli.score(pids, weeks, forecasts, panel, catalog, config, "preds.csv")
        assert str(err.value) == f"preds.csv:7: prediction key ({pid!r}, {week}) has no actual in the panel"
