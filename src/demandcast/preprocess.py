"""Sales repair and spike smoothing.

Two data defects are handled before any learning: zero-sales weeks caused by
stockouts ("fake zeros"), which are detected and replaced with a univariate
fit, and abnormally high weeks, which are capped at a rolling mean plus a
multiple of the rolling standard deviation so lag features reflect the
normal sales level.

The rolling window for week t covers the on-sale weeks among the `window`
weeks strictly before t; statistics never include the week being tested, so
a spike cannot raise its own cap.

Smoothing reads only each product's live span: from its first on-sale week
f through its last on-sale week l plus the window. A week t outside
(f, l + window] has fewer than two on-sale weeks in its window, so there
x = y, the statistics are NaN and nothing is capped. Each span is shifted
to start at column 0 (week f, on sale, whose own statistics are
undefined). Products are taken longest span first, so each block holds
spans of similar length, at most SMOOTH_BLOCK_CELLS cells, and the spans
are gathered from and scattered back to the full (N, T) arrays by flat
index. Weeks before f are off sale and add nothing to a sum, so a shifted
window adds the same weeks in the same order. Each block computes its
rolling mean and standard deviation, which the cap needs; only x and the
capped mask are kept for the whole panel, unless the caller passes arrays
for the statistics too (the `preprocess` command's smoothed.csv does; it
also keeps the fake-zero mask, which no other caller reads). So
smooth_panel's memory is x and the capped mask, 9 bytes per panel cell, a
few int64 words per product, and block temporaries of at most 16
eight-byte words per cell of max(SMOOTH_BLOCK_CELLS, T).

The results are bit-identical to evaluating the rule one cell at a time in
Python (tests/oracles.py, scalar_smooth). Two rules make that hold. Every
sum adds its window weeks left to right, oldest first, as Python's sum()
does; an off-sale week adds nothing and leaves the running sum unchanged.
And each squared deviation is np.float_power(d, 2.0), which calls libm pow
as Python's `d ** 2` does; np.square (d * d) differs from pow in the last
bit now and then (1,623 of 2,000,000 random values on glibc).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import SalesPanel, launch_weeks
from .ingest import write_csv

REPAIR_ALPHA = 0.3
SMOOTH_BLOCK_CELLS = 1 << 13  # (products x span weeks) cells a block; 64 KiB per float64 temporary


@dataclass(frozen=True)
class SmoothedPanel:
    """Smoothed series x plus which weeks were capped.

    Row i of every array is product i of the panel that was smoothed; x
    differs from the panel's counts only where capped_mask is set. The
    rolling statistics behind each cap are not kept here: smooth_panel
    computes them block by block and writes them out only into arrays its
    caller passes (the `preprocess` command, for smoothed.csv). The lag
    features and the seasonal fit read x alone.
    """

    x: np.ndarray            # (N, T) float64
    capped_mask: np.ndarray  # (N, T) bool

    @property
    def n_weeks(self) -> int:
        return self.x.shape[1]


def detect_fake_zeros(panel: SalesPanel) -> np.ndarray:
    """Mask of zero weeks that look like stockouts rather than absent demand.

    A week is flagged when the product was listed but out of stock, sold
    nothing, and has positive sales strictly before it. Leading zeros are
    never flagged; trailing ones are, like any other. The rule is causal: a
    week's flag reads no later week, so a panel cut at week t gets the full
    panel's flags up to t, and predict repairs the weeks before an issue
    week as the backtest of that week does.
    """
    positive = panel.y > 0
    weeks = np.broadcast_to(np.arange(panel.n_weeks), positive.shape)
    # the first positive week; a product that never sold has none
    first = weeks.min(axis=1, where=positive, initial=panel.n_weeks)
    after = weeks > first[:, None]
    return ~positive & panel.on_sale_mask & ~panel.stock_flag & after


def repair_fake_zeros(panel: SalesPanel, mask: np.ndarray) -> SalesPanel:
    """Replace flagged weeks with a smoothing fit of the unflagged history.

    Each flagged y_{i,t} becomes the exponential-smoothing level (alpha 0.3)
    of the product's unflagged on-sale weeks before t, rounded half up and
    floored at 0. A flagged week with no such week before it is a ValueError
    naming the product and the week; detect_fake_zeros never flags one,
    since it flags only weeks after the product's first sale.

    One pass over the weeks of the flagged products carries each product's
    level over its usable weeks. Its float operations are es_fit_forecast's
    on that history, in the same order, so every level is bit-identical to
    refitting the history from scratch (tests/oracles.py, loop_repair_fake_zeros).
    """
    if mask.shape != panel.y.shape:
        raise ValueError("mask shape must match the panel")
    if not mask.any():
        return panel
    products = np.flatnonzero(mask.any(axis=1))
    # flagged cells week by week, so each week's are one slice; the temporaries
    # hold an entry per flagged cell or product, never one per panel cell
    cell_rows, weeks = np.nonzero(mask)
    order = np.argsort(weeks, kind="stable")
    cell_rows, weeks = cell_rows[order], weeks[order]
    rows = np.searchsorted(products, cell_rows)
    bounds = np.searchsorted(weeks, np.arange(panel.n_weeks + 1))
    level = np.zeros(products.size)
    seen = np.zeros(products.size, dtype=bool)
    fitted = np.empty(rows.size)
    for t in range(int(weeks[-1]) + 1):  # no level after the last flagged week is read
        here = slice(bounds[t], bounds[t + 1])
        if not seen[rows[here]].all():
            lost = cell_rows[bounds[t] + np.argmin(seen[rows[here]])]
            raise ValueError(
                f"fake zero of product {panel.products[lost]!r} at week {t} has no usable week before it"
            )
        fitted[here] = level[rows[here]]
        usable = panel.on_sale_mask[products, t] & ~mask[products, t]
        value = panel.y[products, t].astype(float)
        step = REPAIR_ALPHA * value + (1.0 - REPAIR_ALPHA) * level
        level = np.where(usable, np.where(seen, step, value), level)
        seen |= usable
    out = panel.y.copy()
    out[cell_rows, weeks] = np.maximum(np.floor(fitted + 0.5), 0.0).astype(out.dtype)
    return panel.replace_counts(out)


def smooth_panel(
    panel: SalesPanel, window: int, gamma: float,
    statistics: tuple[np.ndarray, np.ndarray] | None = None,
) -> SmoothedPanel:
    """Cap spikes at rolling mean + gamma * rolling std.

    Statistics use the on-sale weeks among the window weeks t-window..t-1;
    with fewer than two such weeks no cap is applied and x = y. A window of
    T - 1 weeks or more already covers every earlier week, so one longer than
    the panel's T weeks is taken as T. The panel should already be fake-zero
    repaired.

    statistics, when given, is a (rolling_mean, rolling_std) pair of (N, T)
    float64 arrays that receive every cell's statistics from the same block
    pass, NaN where fewer than two prior on-sale weeks exist. Without it the
    statistics live only as long as their block.
    """
    if window < 2:
        raise ValueError(f"smoothing window must be >= 2, got {window}")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    t_count = panel.y.shape[1]
    for out in statistics or ():
        out.fill(np.nan)
    # a window of t_count - 1 weeks or more already reaches back to week 0
    # from every week, so the clip changes no cell, and last + window cannot overflow
    window = min(window, t_count)
    # span of each product: week f (first on sale) through l + window, clipped
    first = launch_weeks(panel.on_sale_mask)
    last = t_count - 1 - panel.on_sale_mask[:, ::-1].argmax(axis=1)
    lengths = np.where(first >= 0, np.minimum(last + window, t_count - 1) - first + 1, 0)
    order = np.argsort(-lengths, kind="stable")[: int(np.count_nonzero(first >= 0))]
    x = panel.y.astype(float)
    capped = np.zeros(panel.y.shape, dtype=bool)
    lo = 0
    while lo < order.size:
        width = int(lengths[order[lo]])  # the longest span of the block
        part = order[lo : lo + max(1, SMOOTH_BLOCK_CELLS // width)]
        lo += part.size
        cells = (part * t_count + first[part])[:, None] + np.arange(width)
        live = np.arange(width) < lengths[part, None]
        shape = cells.shape
        block_x = np.empty(shape)
        block_mean = np.full(shape, np.nan)
        block_std = np.full(shape, np.nan)
        block_capped = np.zeros(shape, dtype=bool)
        # a short span's tail reads past its end; no live cell's window sees it
        _smooth_block(
            np.take(panel.y, cells, mode="clip"), np.take(panel.on_sale_mask, cells, mode="clip"),
            window, gamma, block_x, block_mean, block_std, block_capped,
        )
        cells = cells[live]
        np.put(x, cells, block_x[live])
        np.put(capped, cells, block_capped[live])
        if statistics is not None:
            np.put(statistics[0], cells, block_mean[live])
            np.put(statistics[1], cells, block_std[live])
    return SmoothedPanel(x=x, capped_mask=capped)


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


def preprocess_panel(panel: SalesPanel, window: int, gamma: float) -> tuple[SalesPanel, SmoothedPanel]:
    """Full repair-then-smooth pass; returns (repaired panel, smoothed panel).

    Neither the fake-zero mask nor the rolling statistics are kept: the
    `preprocess` command, which writes them out, runs the three steps itself.
    """
    repaired = repair_fake_zeros(panel, detect_fake_zeros(panel))
    return repaired, smooth_panel(repaired, window, gamma)


def write_smoothed(
    panel: SalesPanel, smoothed: SmoothedPanel, repaired_mask: np.ndarray,
    statistics: tuple[np.ndarray, np.ndarray], path: str | Path,
) -> None:
    """Diagnostic dump of the smoothing decisions, one row per on-sale (product, week).

    panel is the repaired panel, repaired_mask the detect_fake_zeros mask
    its repair replaced, and statistics the (rolling_mean, rolling_std)
    pair that smooth_panel filled in the same pass that made smoothed.
    """
    rows, weeks = np.nonzero(panel.on_sale_mask)  # product-major, weeks ascending
    rolling_mean, rolling_std = statistics

    def stat(values: np.ndarray) -> np.ma.MaskedArray:
        # an undefined statistic is an empty field
        picked = values[rows, weeks]
        return np.ma.masked_array(picked, np.isnan(picked))

    write_csv(
        path, ["product_id", "week", "y", "x", "rolling_mean", "rolling_std", "repaired", "capped"],
        [
            (panel.products, rows), weeks, panel.y[rows, weeks], smoothed.x[rows, weeks],
            stat(rolling_mean), stat(rolling_std),
            repaired_mask[rows, weeks], smoothed.capped_mask[rows, weeks],
        ],
    )
