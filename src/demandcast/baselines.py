"""Simple exponential smoothing: the benchmark forecaster.

The forecast function is flat: after fitting the level over the observed
series, the same value is returned for every horizon. es_fit_forecast is
the scalar definition of that level. Fake-zero repair
(preprocess.repair_fake_zeros) carries an alpha-0.3 level over each
product's usable weeks in one pass; it repeats es_fit_forecast's float
operations in the same order, so each replacement equals es_fit_forecast
on the flagged week's history. es_fit_forecast stays as the function
es_grid_select fits with.

ESBaseline tunes alpha per forecast origin, as es_grid_select does for the
on-sale history up to that origin, but it never re-fits a prefix: one
left-to-right pass over every product's on-sale history steps the levels of
all grid alphas at once and writes a forecast table indexed by (number of
observations, product). Each forecast is then a lookup. The pass repeats
es_fit_forecast's float operations in the same order, so the table equals
the scalar reference bit for bit. With P products over T weeks it costs
O(len(ALPHA_GRID) * P * T) float operations, fewer when histories are short
(a step only touches the products observed that long), and it holds two
(T, P) float64 arrays (the left-aligned histories and the table) plus a
(P, T + 1) count of observations to date.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from functools import cached_property, reduce

import numpy as np

DEFAULT_ALPHA = 0.3
ALPHA_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
SELECT_HOLDOUT = 4


def es_fit_forecast(series: Sequence[float], alpha: float) -> float:
    """Flat forecast from a simple-exponential-smoothing level.

    l_0 is the first observation; l_t = alpha*y_t + (1-alpha)*l_{t-1}.
    """
    if len(series) == 0:
        raise ValueError("cannot fit exponential smoothing on an empty series")
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    level = float(series[0])
    for value in series[1:]:
        level = alpha * float(value) + (1.0 - alpha) * level
    return level


def es_grid_select(series: Sequence[float]) -> float:
    """The ALPHA_GRID alpha minimizing squared 1-step error over the holdout.

    The holdout is the trailing SELECT_HOLDOUT observations. Ties go to the
    smallest alpha; series no longer than the holdout fall back to the
    default alpha 0.3. This is the scalar reference that ESBaseline's
    forecast table must equal: es_fit_forecast(series, es_grid_select(series))
    for every on-sale prefix.
    """
    if len(series) <= SELECT_HOLDOUT:
        return DEFAULT_ALPHA
    best_alpha = None
    best_err = np.inf
    start = len(series) - SELECT_HOLDOUT
    for alpha in ALPHA_GRID:
        err = 0.0
        for t in range(start, len(series)):
            forecast = es_fit_forecast(series[:t], alpha)
            err += (float(series[t]) - forecast) ** 2
        if err < best_err:
            best_err = err
            best_alpha = alpha
    return float(best_alpha)


def _forecast_table(history: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Grid-tuned ES forecasts of every prefix of every series, in one pass.

    history is (width, P): column p holds series p's lengths[p] observations
    from row 0 on, and lengths must not increase from column to column, so
    the series still observed at any step are a leading block of columns.
    Entry [n, p] of the result is es_fit_forecast(prefix, es_grid_select(prefix))
    for the first n observations of series p; entries past a series' length
    and row 0 are NaN.
    """
    width, n_series = history.shape
    table = np.full((width + 1, n_series), np.nan)
    alphas = np.array(ALPHA_GRID)[:, None]
    keep = 1.0 - alphas
    default = ALPHA_GRID.index(DEFAULT_ALPHA)
    errors: deque[np.ndarray] = deque(maxlen=SELECT_HOLDOUT)
    level = np.repeat(history[:1], len(ALPHA_GRID), axis=0)
    for n in range(1, width + 1):
        k = int(np.count_nonzero(lengths >= n))
        value = history[n - 1, :k]
        level = level[:, :k]
        if n > 1:
            # the 1-step error of the level over the first n - 1 observations
            errors.append(np.float_power(value - level, 2.0))
            level = alphas * value + keep * level
        if n <= SELECT_HOLDOUT:
            table[n, :k] = level[default]
        else:
            # summed oldest first, as es_grid_select accumulates; argmin
            # keeps the first (smallest) alpha on a tie
            err = reduce(np.add, (e[:, :k] for e in errors))
            best = np.argmin(err, axis=0)
            table[n, :k] = np.take_along_axis(level, best[None], axis=0)[0]
    return table


class ESBaseline:
    """Per-series ES benchmark with a category-mean cold-start fallback.

    Series with fewer than two observations at forecast time cannot support
    a smoothing fit, so those rows fall back to the category's mean weekly
    units over the training window (global mean if the category is unseen).
    Other rows read the forecast table, built once on the first forecast:
    the grid-tuned forecast for each product and on-sale observation count,
    in one O(len(ALPHA_GRID) * P * T) pass that holds two (T, P) float64
    arrays. A forecast equals es_fit_forecast(history, es_grid_select(history))
    on the product's on-sale history up to t, bit for bit.
    """

    MIN_OBS = 2

    def __init__(self, panel, catalog, train_end: int):
        self.panel = panel
        self.catalog = catalog
        # per product before train_end: on-sale weeks, and units as an exact int64 sum (0 off sale)
        weeks = np.count_nonzero(panel.on_sale_mask[:, :train_end], axis=1)
        units = panel.y[:, :train_end].sum(axis=1).astype(float)
        slot: dict = {}  # category -> its slot, in order of first product
        slots = [slot.setdefault(catalog.category_of.get(pid), len(slot)) for pid in panel.products]
        slots = np.array(slots, dtype=np.intp)
        sums, counts = np.zeros(len(slot)), np.zeros(len(slot), dtype=np.int64)
        np.add.at(sums, slots, units)  # in product order; a product never on sale adds 0.0
        np.add.at(counts, slots, weeks)
        self.category_mean = {
            cat: total / n for cat, total, n in zip(slot, sums.tolist(), counts.tolist()) if n
        }
        count = int(weeks.sum())
        self.global_mean = float(np.cumsum(units)[-1]) / count if count else 0.0  # sequential sum

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(observations before each week, table column per product, forecast table).

        The first is (P, T + 1): entry [i, w] counts product i's on-sale
        weeks before week w. The table is _forecast_table over the
        left-aligned on-sale histories, longest first.
        """
        on_sale = self.panel.on_sale_mask
        n_obs = np.zeros((on_sale.shape[0], on_sale.shape[1] + 1), dtype=np.int64)
        np.cumsum(on_sale, axis=1, out=n_obs[:, 1:])
        lengths = n_obs[:, -1]
        order = np.argsort(-lengths, kind="stable")
        column = np.empty_like(order)
        column[order] = np.arange(order.size)
        rows, weeks = np.nonzero(on_sale)
        history = np.zeros((int(lengths.max(initial=0)), order.size))
        history[n_obs[rows, weeks], column[rows]] = self.panel.y[rows, weeks]
        return n_obs, column, _forecast_table(history, lengths[order])

    def forecast(self, product_id: str, t: int) -> tuple[float, bool]:
        """Forecast for any week after t from history up to and including t.

        Returns (forecast, used_fallback).
        """
        n_obs, column, table = self._table
        i = self.panel.row(product_id)
        n = int(n_obs[i, min(max(t + 1, 0), self.panel.n_weeks)])
        if n < self.MIN_OBS:
            cat = self.catalog.category_of.get(product_id)
            return self.category_mean.get(cat, self.global_mean), True
        return float(table[n, column[i]]), False
