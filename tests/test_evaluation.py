import math

import numpy as np
import pytest

from demandcast import cli
from demandcast.core import Catalog
from demandcast.evaluation import (
    cold_start_filter,
    evaluate,
    segment_products,
    weighted_mae,
    weighted_rmse,
)
from demandcast.ingest import RunConfig

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
    """Target weeks of the (train, valid, test) rows that cli.split_matrices cuts.

    Two products on sale every week, horizon 6: each part must hold both
    products' rows for each of its weeks.
    """
    panel = make_panel(np.random.default_rng(0).poisson(4.0, size=(2, n_weeks)))
    catalog = Catalog({"p0": "c", "p1": "c"}, {"p0": 1.0, "p1": 2.0}, {})
    config = RunConfig(
        train_len=train_len, valid_len=valid_len, test_len=test_len, with_seasonality=False
    )
    repaired, smoothed = cli.preprocess(panel, config)
    parts = cli.split_matrices(repaired, smoothed, catalog, None, None, config)
    weeks = [sorted({week for _, week in part.keys}) for part in parts]
    assert [part.n_rows for part in parts] == [2 * len(w) for w in weeks]
    return weeks


class TestTemporalSplit:
    """The run's train/valid/test weeks, as split_matrices cuts the feature rows."""

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


def volume_catalog(n):
    return Catalog(
        {f"p{i}": "c" for i in range(n)},
        {f"p{i}": 1.0 for i in range(n)},
        {},
    )


class TestSegmentation:
    def test_default_counts(self):
        y = np.array([[100 - 10 * i] * 5 for i in range(10)], dtype=np.int64)
        panel = make_panel(y)
        segments = segment_products(panel, volume_catalog(10))
        counts = {s: sum(1 for v in segments.values() if v == s) for s in "ABC"}
        assert counts == {"A": 1, "B": 3, "C": 6}
        assert segments["p0"] == "A"

    def test_ties_break_by_product_id(self):
        y = np.full((4, 3), 5, dtype=np.int64)
        panel = make_panel(y)
        segments = segment_products(panel, volume_catalog(4))
        assert segments["p0"] == "A"  # equal volumes: lowest id ranks first

    def test_dominant_product_in_a(self):
        y = np.ones((5, 4), dtype=np.int64)
        y[3] = 500
        panel = make_panel(y)
        segments = segment_products(panel, volume_catalog(5))
        assert segments["p3"] == "A"

    def test_price_weighting_matters(self):
        y = np.array([[10] * 4, [8] * 4, [1] * 4], dtype=np.int64)
        catalog = Catalog(
            {"p0": "c", "p1": "c", "p2": "c"},
            {"p0": 1.0, "p1": 100.0, "p2": 1.0},
            {},
        )
        panel = make_panel(y)
        segments = segment_products(panel, catalog)
        assert segments["p1"] == "A"

    def test_too_few_products(self):
        panel = make_panel(np.ones((2, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            segment_products(panel, volume_catalog(2))


class TestColdStartFilter:
    def test_zero_min_life_is_identity(self):
        keys = [("a", 5), ("b", 6)]
        keep = cold_start_filter(keys, np.array([1, 30]), min_life=0)
        assert keep.tolist() == [True, True]

    def test_short_history_rows_dropped(self):
        keys = [("a", 10), ("a", 11), ("b", 10)]
        keep = cold_start_filter(keys, np.array([3, 6, 12]), min_life=6)
        assert keep.tolist() == [False, True, True]

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(3)
        keys = [(f"p{i}", int(w)) for i, w in enumerate(rng.integers(0, 40, size=50))]
        life = rng.integers(0, 20, size=50)
        keep = cold_start_filter(keys, life, min_life=6)
        manual = [bool(v >= 6) for v in life]
        assert keep.tolist() == manual
        assert keep.sum() == sum(manual)


class TestEvaluate:
    def setup_inputs(self):
        catalog = Catalog(
            {"a": "c1", "b": "c1", "c": "c2"},
            {"a": 2.0, "b": 1.0, "c": 4.0},
            {},
        )
        keys = [("a", 10), ("b", 10), ("c", 10), ("a", 11)]
        predictions = {k: 5.0 for k in keys}
        actuals = {k: 5.0 for k in keys}
        segments = {"a": "A", "b": "B", "c": "C"}
        life = {("a", 10): 8, ("b", 10): 10, ("c", 10): 25, ("a", 11): 9}
        return predictions, actuals, catalog, segments, life

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
        catalog = Catalog({"a": "c"}, {"a": 3.0}, {})
        predictions = {("a", 5): 4.0}
        actuals = {("a", 5): 6.0}
        report = evaluate(predictions, actuals, catalog, {"a": "A"}, {("a", 5): 9})
        assert report.overall.rmse == report.segments["A"].rmse
        assert report.overall.rmse == report.life_buckets["9"].rmse

    def test_key_mismatch_rejected(self):
        predictions, actuals, catalog, segments, life = self.setup_inputs()
        actuals.pop(("a", 11))
        with pytest.raises(ValueError, match="keys"):
            evaluate(predictions, actuals, catalog, segments, life)
