"""Sales repair and spike smoothing.

Two data defects are handled before any learning: zero-sales weeks caused by
stockouts ("fake zeros"), which are detected and replaced with a univariate
fit, and abnormally high weeks, which are capped at a rolling mean plus a
multiple of the rolling standard deviation so lag features reflect the
normal sales level.

The rolling window for week t covers the on-sale weeks among the `window`
weeks strictly before t; statistics never include the week being tested, so
a spike cannot raise its own cap.

Smoothing is vectorized across products and weeks, a block of products at
a time so that its temporaries stay small, and its results are
bit-identical to evaluating the rule one cell at a time in Python
(tests/oracles.py, scalar_smooth). Two rules make that hold. Every sum
adds its window weeks left to right, oldest first, as Python's sum() does;
an off-sale week adds nothing and leaves the running sum unchanged. And
each squared deviation is np.float_power(d, 2.0), which calls libm pow as
Python's `d ** 2` does; np.square (d * d) differs from pow in the last bit
now and then (1,623 of 2,000,000 random values on glibc).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .baselines import es_fit_forecast
from .core import SalesPanel

REPAIR_ALPHA = 0.3
SMOOTH_BLOCK_CELLS = 1 << 14  # (products x weeks) cells smoothed per block


@dataclass(frozen=True)
class SmoothedPanel:
    """Smoothed series x plus the diagnostics behind each adjustment.

    Row i of every array is product i of the panel that was smoothed.
    rolling_mean/rolling_std are NaN where fewer than two prior on-sale
    weeks exist (no cap is applied there); x differs from the panel's
    counts only where capped_mask is set.
    """

    x: np.ndarray             # (N, T) float64
    rolling_mean: np.ndarray  # (N, T) float64, NaN where undefined
    rolling_std: np.ndarray   # (N, T) float64, NaN where undefined
    repaired_mask: np.ndarray  # (N, T) bool
    capped_mask: np.ndarray    # (N, T) bool

    @property
    def n_weeks(self) -> int:
        return self.x.shape[1]


def detect_fake_zeros(panel: SalesPanel) -> np.ndarray:
    """Mask of zero weeks that look like stockouts rather than absent demand.

    A week is flagged when the product was listed but out of stock, sold
    nothing, and has positive sales both strictly before and strictly after
    it. Leading and trailing zeros are never flagged.
    """
    positive = panel.y > 0
    weeks = np.broadcast_to(np.arange(panel.n_weeks), positive.shape)
    # first and last positive week; a product that never sold has none between
    first = weeks.min(axis=1, where=positive, initial=panel.n_weeks)
    last = weeks.max(axis=1, where=positive, initial=-1)
    between = (weeks > first[:, None]) & (weeks < last[:, None])
    return ~positive & panel.on_sale_mask & ~panel.stock_flag & between


def _repair_value(history: list[float], future: np.ndarray) -> int:
    """Replacement count for one flagged week (nearest integer, half up)."""
    if history:
        level = es_fit_forecast(history, REPAIR_ALPHA)
        return max(0, int(math.floor(level + 0.5)))
    positive = future[future > 0]
    return int(positive[0]) if positive.size else 0


def repair_fake_zeros(panel: SalesPanel, mask: np.ndarray) -> SalesPanel:
    """Replace flagged weeks with a smoothing fit of the unflagged history.

    Each flagged y_{i,t} becomes the exponential-smoothing level (alpha 0.3)
    of the product's unflagged on-sale weeks before t. A flagged week with
    no prior history takes the first subsequent positive value.
    """
    if mask.shape != panel.y.shape:
        raise ValueError("mask shape must match the panel")
    if not mask.any():
        return panel
    y = panel.y.copy()
    for i in range(panel.n_products):
        flagged = np.flatnonzero(mask[i])
        if flagged.size == 0:
            continue
        usable = panel.on_sale_mask[i] & ~mask[i]
        for t in flagged:
            history = [float(v) for v in panel.y[i, :t][usable[:t]]]
            y[i, t] = _repair_value(history, panel.y[i, t + 1 :])
    return panel.replace_counts(y)


def smooth_panel(panel: SalesPanel, window: int, gamma: float) -> SmoothedPanel:
    """Cap spikes at rolling mean + gamma * rolling std.

    Statistics use the on-sale weeks among the window weeks t-window..t-1;
    with fewer than two such weeks no cap is applied and x = y. The panel
    should already be fake-zero repaired. repaired_mask is all False here;
    preprocess_panel returns a copy carrying the detection mask.
    """
    if window < 2:
        raise ValueError(f"smoothing window must be >= 2, got {window}")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    n, t_count = panel.y.shape
    x = np.empty((n, t_count))
    rolling_mean = np.full((n, t_count), np.nan)
    rolling_std = np.full((n, t_count), np.nan)
    capped = np.zeros((n, t_count), dtype=bool)
    step = max(1, SMOOTH_BLOCK_CELLS // max(t_count, 1))
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        _smooth_block(
            panel.y[rows], panel.on_sale_mask[rows], window, gamma,
            x[rows], rolling_mean[rows], rolling_std[rows], capped[rows],
        )
    return SmoothedPanel(
        x=x,
        rolling_mean=rolling_mean,
        rolling_std=rolling_std,
        repaired_mask=np.zeros((n, t_count), dtype=bool),
        capped_mask=capped,
    )


def _smooth_block(
    y: np.ndarray,
    on_sale: np.ndarray,
    window: int,
    gamma: float,
    x: np.ndarray,
    rolling_mean: np.ndarray,
    rolling_std: np.ndarray,
    capped: np.ndarray,
) -> None:
    """smooth_panel for a block of products, written into the given output views."""
    t_count = y.shape[1]
    # One pass per window offset, oldest first: each cell's sums then add its
    # window weeks left to right, and a week that is off sale (or before
    # week 0) is skipped rather than added as zero.
    lags = range(min(window, t_count - 1), 0, -1)
    total = np.zeros(y.shape)
    count = np.zeros(y.shape, dtype=np.int64)
    for lag in lags:
        seen = on_sale[:, :-lag]
        np.add(total[:, lag:], y[:, :-lag], out=total[:, lag:], where=seen)
        count[:, lag:] += seen
    stats = count >= 2
    np.divide(total, count, out=rolling_mean, where=stats)
    # squared deviations through libm pow, as `d ** 2` computes them in Python
    total.fill(0.0)
    square = np.empty(y.shape)
    for lag in lags:
        seen = on_sale[:, :-lag] & stats[:, lag:]
        np.subtract(y[:, :-lag], rolling_mean[:, lag:], out=square[:, lag:], where=seen)
        np.float_power(square[:, lag:], 2.0, out=square[:, lag:], where=seen)
        np.add(total[:, lag:], square[:, lag:], out=total[:, lag:], where=seen)
    np.divide(total, count, out=rolling_std, where=stats)
    np.sqrt(rolling_std, out=rolling_std, where=stats)
    cap = np.add(rolling_mean, np.multiply(gamma, rolling_std, out=total), out=total)
    np.greater(y, cap, out=capped, where=stats)
    np.copyto(x, y)
    np.copyto(x, cap, where=capped)


def preprocess_panel(
    panel: SalesPanel, window: int, gamma: float
) -> tuple[SalesPanel, SmoothedPanel]:
    """Full repair-then-smooth pass; returns (repaired panel, smoothed panel)."""
    mask = detect_fake_zeros(panel)
    repaired = repair_fake_zeros(panel, mask)
    smoothed = smooth_panel(repaired, window, gamma)
    return repaired, replace(smoothed, repaired_mask=mask)


def write_smoothed(panel: SalesPanel, smoothed: SmoothedPanel, path: str | Path) -> None:
    """Diagnostic dump of the smoothing decisions, one row per (product, week)."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["product_id", "week", "y", "x", "rolling_mean", "rolling_std", "repaired", "capped"]
        )
        for i, pid in enumerate(panel.products):
            for t in range(panel.n_weeks):
                if not panel.on_sale_mask[i, t]:
                    continue
                mean = smoothed.rolling_mean[i, t]
                std = smoothed.rolling_std[i, t]
                writer.writerow(
                    [
                        pid,
                        t,
                        int(panel.y[i, t]),
                        repr(float(smoothed.x[i, t])),
                        "" if math.isnan(mean) else repr(float(mean)),
                        "" if math.isnan(std) else repr(float(std)),
                        int(smoothed.repaired_mask[i, t]),
                        int(smoothed.capped_mask[i, t]),
                    ]
                )
