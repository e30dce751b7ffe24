"""Simple exponential smoothing: benchmark forecaster and fake-zero fitter.

The forecast function is flat: after fitting the level over the observed
series, the same value is returned for every horizon.
"""

from __future__ import annotations

from collections.abc import Sequence

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
    default alpha 0.3.
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


class ESBaseline:
    """Per-series ES benchmark with a category-mean cold-start fallback.

    Series with fewer than two observations at forecast time cannot support
    a smoothing fit, so those rows fall back to the category's mean weekly
    units over the training window (global mean if the category is unseen).
    """

    MIN_OBS = 2

    def __init__(self, panel, catalog, train_end: int):
        self.panel = panel
        self.catalog = catalog
        cat_sums: dict[str, float] = {}
        cat_counts: dict[str, int] = {}
        total = 0.0
        count = 0
        for i, pid in enumerate(panel.products):
            cat = catalog.category_of.get(pid)
            sale_weeks = np.flatnonzero(panel.on_sale_mask[i, :train_end])
            if sale_weeks.size == 0:
                continue
            s = float(panel.y[i, sale_weeks].sum())
            cat_sums[cat] = cat_sums.get(cat, 0.0) + s
            cat_counts[cat] = cat_counts.get(cat, 0) + int(sale_weeks.size)
            total += s
            count += int(sale_weeks.size)
        self.category_mean = {
            c: cat_sums[c] / cat_counts[c] for c in cat_sums if cat_counts[c] > 0
        }
        self.global_mean = total / count if count else 0.0

    def forecast(self, product_id: str, t: int) -> tuple[float, bool]:
        """Forecast for any week after t from history up to and including t.

        Returns (forecast, used_fallback).
        """
        i = self.panel.row(product_id)
        weeks = np.flatnonzero(self.panel.on_sale_mask[i, : max(t + 1, 0)])
        if weeks.size < self.MIN_OBS:
            cat = self.catalog.category_of.get(product_id)
            return self.category_mean.get(cat, self.global_mean), True
        series = self.panel.y[i, weeks].astype(float)
        alpha = es_grid_select(series)
        return es_fit_forecast(series, alpha), False
