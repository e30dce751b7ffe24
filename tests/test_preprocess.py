import tracemalloc

import numpy as np
import pytest

from demandcast import preprocess
from demandcast.preprocess import (
    detect_fake_zeros,
    preprocess_panel,
    repair_fake_zeros,
    smooth_panel,
    write_smoothed,
)

from .oracles import (
    loop_detect_fake_zeros,
    loop_repair_fake_zeros,
    loop_write_smoothed,
    scalar_smooth,
    scalar_smooth_stats,
)
from .test_core import make_panel


def panel_from(y, stock=None, on_sale=None):
    y = np.atleast_2d(np.asarray(y, dtype=np.int64))
    if stock is not None:
        stock = np.atleast_2d(np.asarray(stock, dtype=bool))
    if on_sale is not None:
        on_sale = np.atleast_2d(np.asarray(on_sale, dtype=bool))
    else:
        on_sale = np.ones_like(y, dtype=bool)
    return make_panel(y, on_sale=on_sale, stock=stock)


class TestDetect:
    def test_stockout_zero_flagged(self):
        panel = panel_from([5, 0, 5], stock=[True, False, True])
        assert detect_fake_zeros(panel).tolist() == [[False, True, False]]

    def test_leading_zeros_not_flagged(self):
        panel = panel_from([0, 0, 5], stock=[False, False, True])
        assert not detect_fake_zeros(panel).any()

    def test_in_stock_zero_is_genuine(self):
        panel = panel_from([5, 0, 5], stock=[True, True, True])
        assert not detect_fake_zeros(panel).any()

    def test_trailing_zeros_not_flagged(self):
        panel = panel_from([5, 3, 0, 0], stock=[True, True, False, False])
        assert not detect_fake_zeros(panel).any()

    def test_off_sale_zero_not_flagged(self):
        panel = panel_from(
            [5, 0, 5], stock=[True, False, True], on_sale=[True, False, True]
        )
        assert not detect_fake_zeros(panel).any()

    def test_matches_per_product_loop(self):
        rng = np.random.default_rng(20240901)
        flagged = 0
        for _ in range(200):
            n, t = int(rng.integers(1, 9)), int(rng.integers(1, 15))
            y = rng.poisson(rng.uniform(0.2, 4.0), size=(n, t))
            y[rng.random(n) < 0.2] = 0  # products that never sold
            for i in np.flatnonzero(rng.random(n) < 0.4):  # leading and trailing zeros
                y[i, : int(rng.integers(0, t + 1))] = 0
                y[i, int(rng.integers(0, t + 1)) :] = 0
            on_sale = (rng.random((n, t)) < 0.85) | (y > 0)
            y[~on_sale] = 0
            stock = rng.random((n, t)) < 0.6
            panel = make_panel(y, on_sale=on_sale, stock=stock)
            mask = detect_fake_zeros(panel)
            assert mask.dtype == bool
            assert mask.tolist() == loop_detect_fake_zeros(panel).tolist()
            flagged += int(mask.sum())
        assert flagged > 50

    def test_panel_without_weeks(self):
        panel = panel_from(np.zeros((2, 0)), stock=np.zeros((2, 0)), on_sale=np.zeros((2, 0)))
        assert detect_fake_zeros(panel).shape == (2, 0)


class TestRepair:
    def test_constant_series_replacement(self):
        panel = panel_from([5, 5, 0, 5, 5], stock=[True, True, False, True, True])
        mask = detect_fake_zeros(panel)
        repaired = repair_fake_zeros(panel, mask)
        assert repaired.y.tolist() == [[5, 5, 5, 5, 5]]

    def test_empty_mask_is_identity(self):
        panel = panel_from([1, 2, 3])
        repaired = repair_fake_zeros(panel, np.zeros((1, 3), dtype=bool))
        assert np.array_equal(repaired.y, panel.y)

    def test_no_history_uses_first_subsequent_positive(self):
        panel = panel_from([0, 0, 7, 3])
        mask = np.array([[True, False, False, False]])
        repaired = repair_fake_zeros(panel, mask)
        assert repaired.y[0, 0] == 7

    def test_unflagged_weeks_untouched(self):
        panel = panel_from([4, 9, 0, 2], stock=[True, True, False, True])
        repaired = repair_fake_zeros(panel, detect_fake_zeros(panel))
        assert repaired.y[0, [0, 1, 3]].tolist() == [4, 9, 2]

    def test_no_history_and_no_later_positive_gives_zero(self):
        panel = panel_from([0, 0, 0], on_sale=[True, True, False])
        repaired = repair_fake_zeros(panel, np.array([[False, True, False]]))
        assert repaired.y.tolist() == [[0, 0, 0]]

    def test_matches_per_product_loop(self):
        """Random masks, not only detected ones: runs of flagged weeks, flags
        before any usable week, flags with no positive week after them, and
        products without flags, all checked bit for bit."""
        rng = np.random.default_rng(21)
        seen = dict.fromkeys(["run", "no_history", "no_later_positive", "unflagged"], 0)
        for _ in range(300):
            n, t = int(rng.integers(1, 8)), int(rng.integers(1, 25))
            y = rng.poisson(rng.uniform(0.3, 40.0, size=(n, 1)), size=(n, t))
            on_sale = rng.random((n, t)) < rng.uniform(0.4, 1.0)
            y[~on_sale] = 0
            mask = np.zeros((n, t), dtype=bool)
            for i in np.flatnonzero(rng.random(n) < 0.7):
                start = int(rng.integers(0, t))
                mask[i, start : start + int(rng.integers(1, 4))] = True
                mask[i] |= rng.random(t) < 0.15
            mask &= on_sale  # a repaired count may only land on a listed week
            panel = make_panel(y, on_sale=on_sale)
            for flags in (mask, detect_fake_zeros(panel)):
                repaired = repair_fake_zeros(panel, flags)
                assert repaired.y.dtype == panel.y.dtype
                assert repaired.y.tobytes() == loop_repair_fake_zeros(panel, flags).y.tobytes()
            usable = on_sale & ~mask
            for i, w in zip(*np.nonzero(mask)):
                if not usable[i, :w].any():
                    seen["no_history"] += 1
                    seen["no_later_positive"] += int(not (y[i, w + 1 :] > 0).any())
            seen["run"] += int((mask[:, 1:] & mask[:, :-1]).sum())
            flagged_products = mask.any(axis=1)
            seen["unflagged"] += int(flagged_products.any() and not flagged_products.all())
        assert min(seen.values()) > 10, seen

    def test_repair_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n_weeks = int(rng.integers(6, 20))
            y = rng.poisson(4.0, size=(3, n_weeks)).astype(np.int64)
            stock = rng.random((3, n_weeks)) > 0.2
            y[~stock] = 0
            panel = make_panel(y, stock=stock)
            once = repair_fake_zeros(panel, detect_fake_zeros(panel))
            twice = repair_fake_zeros(once, detect_fake_zeros(once))
            assert np.array_equal(once.y, twice.y)


class TestSmooth:
    def test_constant_series_untouched(self):
        panel = panel_from([5, 5, 5, 5])
        smoothed = smooth_panel(panel, window=3, gamma=2.0)
        assert np.array_equal(smoothed.x, panel.y)
        assert not smoothed.capped_mask.any()

    def test_spike_capped_at_window_stats(self):
        panel = panel_from([10, 10, 10, 10, 100])
        smoothed = smooth_panel(panel, window=4, gamma=2.0)
        assert smoothed.x[0, 4] == 10.0  # window mean 10, std 0
        assert smoothed.capped_mask.tolist() == [[False, False, False, False, True]]

    def test_window_too_small(self):
        panel = panel_from([1, 2, 3])
        with pytest.raises(ValueError, match="window"):
            smooth_panel(panel, window=1, gamma=2.0)

    def test_fewer_than_two_prior_weeks_no_cap(self):
        panel = panel_from([1, 100, 2, 2])
        statistics = (np.empty((1, 4)), np.empty((1, 4)))
        smoothed = smooth_panel(panel, window=4, gamma=1.0, statistics=statistics)
        assert smoothed.x[0, 1] == 100.0  # only one prior on-sale week
        assert np.isnan(statistics[0][0, 1])

    def test_cap_never_raises_values(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            y = rng.poisson(6.0, size=(2, 15))
            panel = make_panel(y)
            smoothed = smooth_panel(panel, window=5, gamma=2.5)
            assert (smoothed.x <= panel.y + 1e-12).all()
            assert (smoothed.x >= 0).all()
            eq = ~smoothed.capped_mask
            assert np.array_equal(smoothed.x[eq], panel.y[eq].astype(float))

    def test_gamma_monotone(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            y = rng.poisson(5.0, size=(2, 12))
            panel = make_panel(y)
            low = smooth_panel(panel, window=4, gamma=1.0)
            high = smooth_panel(panel, window=4, gamma=2.5)
            assert (low.x <= high.x + 1e-12).all()

    def test_matches_scalar_oracle_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n_weeks = int(rng.integers(3, 11))
            y = rng.poisson(rng.uniform(1, 20), size=(1, n_weeks))
            on_sale = rng.random((1, n_weeks)) > 0.15
            y[~on_sale] = 0
            panel = make_panel(y, on_sale=on_sale)
            window = int(rng.integers(2, 7))
            gamma = float(rng.uniform(0.5, 4.0))
            smoothed = smooth_panel(panel, window, gamma)
            x_ref, capped_ref = scalar_smooth(y[0], on_sale[0], window, gamma)
            assert smoothed.x[0].tolist() == x_ref
            assert smoothed.capped_mask[0].tolist() == capped_ref

    @pytest.mark.parametrize("block_cells", [None, 50])
    def test_multi_product_panel_matches_scalar_oracle_exactly(self, monkeypatch, block_cells):
        """Each product of a whole panel, statistics included, against the scalar rule.

        The first panel's week 7 has a window whose variance differs in the
        last bit between libm pow (Python's `d ** 2`) and d * d. With 50
        cells a block, most panels are smoothed a few products at a time.
        The life-span panels list each product within one span of weeks,
        some from week 0, some to the last week, some never, with windows up
        to beyond the panel's length.
        """
        if block_cells is not None:
            monkeypatch.setattr(preprocess, "SMOOTH_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(20)
        cases = [
            (
                np.array([[34613, 87533, 66440, 16685, 77723, 22628, 10665, 90000], [5] * 8]),
                np.ones((2, 8), dtype=bool),
                7,
                3.0,
            )
        ]
        for _ in range(40):
            n_products = int(rng.integers(2, 9))
            n_weeks = int(rng.integers(2, 40))
            levels = np.exp(rng.uniform(np.log(0.5), np.log(1e5), size=(n_products, 1)))
            y = rng.poisson(levels, size=(n_products, n_weeks))
            y[rng.random(y.shape) < 0.08] *= 5
            on_sale = rng.random((n_products, n_weeks)) > rng.uniform(0.0, 0.5)
            y[~on_sale] = 0
            cases.append((y, on_sale, int(rng.integers(2, 12)), float(rng.uniform(0.5, 4.0))))
        for _ in range(60):
            n_products, n_weeks = int(rng.integers(2, 9)), int(rng.integers(2, 40))
            span = np.sort(rng.integers(0, n_weeks + 1, size=(n_products, 2)), axis=1)
            span[rng.random(n_products) < 0.3, 0] = 0
            span[rng.random(n_products) < 0.3, 1] = n_weeks
            weeks = np.arange(n_weeks)
            on_sale = (weeks >= span[:, :1]) & (weeks < span[:, 1:])
            on_sale &= rng.random(on_sale.shape) > rng.uniform(0.0, 0.3)
            on_sale[rng.random(n_products) < 0.15] = False
            levels = np.exp(rng.uniform(np.log(0.5), np.log(1e4), size=(n_products, 1)))
            y = np.where(on_sale, rng.poisson(levels, size=on_sale.shape), 0)
            y[rng.random(y.shape) < 0.08] *= 5
            window = int(rng.integers(2, n_weeks + 4))
            cases.append((y, on_sale, window, float(rng.uniform(0.5, 4.0))))
        kinds = {
            "from_week_0": sum(bool(on[:, 0].any()) for on in (c[1] for c in cases[41:])),
            "to_last_week": sum(bool(on[:, -1].any()) for on in (c[1] for c in cases[41:])),
            "never_on_sale": sum(bool((~on.any(axis=1)).any()) for on in (c[1] for c in cases)),
            "window_over_panel": sum(c[2] >= c[0].shape[1] for c in cases),
        }
        assert min(kinds.values()) >= 5, kinds
        capped = 0
        for y, on_sale, window, gamma in cases:
            panel = make_panel(y, on_sale=on_sale)
            # arrays holding no NaN: every cell outside a span must be set too
            rolling_mean, rolling_std = np.full((2, *y.shape), 7.0)
            smoothed = smooth_panel(panel, window, gamma, statistics=(rolling_mean, rolling_std))
            bare = smooth_panel(panel, window, gamma)
            for i in range(y.shape[0]):
                x, cap, mean, std = scalar_smooth_stats(y[i], on_sale[i], window, gamma)
                assert smoothed.x[i].tobytes() == np.array(x).tobytes()
                assert smoothed.capped_mask[i].tolist() == cap
                assert rolling_mean[i].tobytes() == np.array(mean).tobytes()
                assert rolling_std[i].tobytes() == np.array(std).tobytes()
            assert bare.x.tobytes() == smoothed.x.tobytes()
            assert bare.capped_mask.tobytes() == smoothed.capped_mask.tobytes()
            capped += int(smoothed.capped_mask.sum())
        assert capped > 0


    def test_windows_of_the_panel_length_or_more_agree(self):
        # a window of T - 1 weeks reaches week 0 from every week; a longer one,
        # up to beyond int64, is taken as T and must change no cell
        rng = np.random.default_rng(25)
        for _ in range(20):
            n_products, n_weeks = int(rng.integers(1, 6)), int(rng.integers(2, 30))
            on_sale = rng.random((n_products, n_weeks)) > 0.2
            y = np.where(on_sale, rng.poisson(20.0, size=on_sale.shape), 0)
            y[rng.random(y.shape) < 0.1] *= 6
            panel = make_panel(y, on_sale=on_sale)
            reference_statistics = np.empty((2, *y.shape))
            reference = smooth_panel(panel, max(n_weeks - 1, 2), 2.0, tuple(reference_statistics))
            for window in (n_weeks, n_weeks + 5, 2**63 - 1, 10**30):
                statistics = np.empty((2, *y.shape))
                smoothed = smooth_panel(panel, window, 2.0, tuple(statistics))
                for name in ("x", "capped_mask"):
                    assert getattr(smoothed, name).tobytes() == getattr(reference, name).tobytes()
                assert statistics.tobytes() == reference_statistics.tobytes()


class TestSmoothMemory:
    def test_smooth_panel_peak_within_the_documented_bound(self):
        # the module docstring's memory: x (float64) and the repaired and
        # capped masks, 10 bytes a cell, a few int64 words per product and
        # block temporaries of at most 16 eight-byte words per block cell;
        # the rolling statistics never take a whole (N, T) array here
        rng = np.random.default_rng(29)
        n, t_count = 2000, 200
        span = np.sort(rng.integers(0, t_count + 1, size=(n, 2)), axis=1)
        span[: n // 4, 0] = 0
        on_sale = (np.arange(t_count) >= span[:, :1]) & (np.arange(t_count) < span[:, 1:])
        y = np.where(on_sale, rng.poisson(20.0, size=on_sale.shape), 0)
        y[rng.random(y.shape) < 0.05] *= 6
        panel = make_panel(y, on_sale=on_sale)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            smoothed = smooth_panel(panel, 8, 3.0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert smoothed.capped_mask.any()
        block = 128 * max(preprocess.SMOOTH_BLOCK_CELLS, t_count)
        assert peak < n * t_count * (8 + 1 + 1) + 8 * 8 * n + block


class TestWriteSmoothed:
    def test_bytes_equal_the_cell_loop(self, tmp_path):
        rng = np.random.default_rng(17)
        y = rng.poisson(rng.uniform(1.0, 30.0, size=(30, 1)), size=(30, 40))
        y[rng.random(y.shape) < 0.05] *= 6
        on_sale = rng.random(y.shape) < 0.7
        stock = rng.random(y.shape) < 0.8
        y[~on_sale | (~stock & (rng.random(y.shape) < 0.5))] = 0
        panel = make_panel(y, on_sale=on_sale, stock=stock)
        statistics = (np.empty(y.shape), np.empty(y.shape))
        repaired, smoothed = preprocess_panel(panel, window=6, gamma=1.5, statistics=statistics)
        assert smoothed.repaired_mask.any() and smoothed.capped_mask.any()
        assert np.isnan(statistics[1][on_sale]).any()
        write_smoothed(repaired, smoothed, statistics, tmp_path / "smoothed.csv")
        loop_write_smoothed(repaired, smoothed, statistics, tmp_path / "loop.csv")
        assert (tmp_path / "smoothed.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


class TestPreprocessPanel:
    def test_masks_populated(self):
        panel = panel_from([5, 0, 5, 80], stock=[True, False, True, True])
        repaired, smoothed = preprocess_panel(panel, window=3, gamma=1.0)
        assert smoothed.repaired_mask[0, 1]
        assert repaired.y[0, 1] == 5
        assert smoothed.capped_mask[0, 3]
