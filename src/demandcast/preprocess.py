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
x = y, the statistics are NaN and nothing is capped. Products are taken
longest span first, so each block holds spans of similar length, at most
SMOOTH_BLOCK_CELLS cells. Each span is gathered from the full (N, T)
arrays by flat index, after columns standing for off-sale weeks, so every
window lies in its row, and its caps are scattered back. Each block sums
every cell's window for the rolling mean. The rolling std then covers
only the cells that need it, in one gathered pass over their window
weeks: every cell with statistics when the caller asks for them (the
`preprocess` command's smoothed.csv), otherwise only the cells above their
rolling mean, since mean + gamma * std >= mean under round-to-nearest and
no other cell can be capped. Only x and the capped mask are kept for the
whole panel, unless the caller passes arrays for the statistics too (the
`preprocess` command also keeps the fake-zero mask, which no other caller
reads). So smooth_panel's memory is x and the capped mask, 9 bytes per
panel cell, a few int64 words per product, and block temporaries of at
most 12 eight-byte words per cell of max(SMOOTH_BLOCK_CELLS, T) (at most
about 7 without statistics).

The results are bit-identical to evaluating the rule one cell at a time in
Python (tests/oracles.py, scalar_smooth). Three rules make that hold. Every
sum adds its window weeks left to right, oldest first, as the oracle's
explicit additions do (not Python's sum(), which compensates rounding from
3.12 on); an off-sale week holds no sales
(SalesPanel rejects positive ones), so adding its 0.0 leaves a running sum
unchanged. Each squared deviation is what libm pow returns for Python's
`d ** 2`: np.float_power(d, 2.0), or d * d where d has at most 26
significant bits (the low 27 bits of its binary64 significand, read
through a uint64 view, are zero), whose square is exact, so pow returns
it exactly. d * d elsewhere differs from pow in the last bit now and then
(1,623 of 2,000,000 random values on glibc). A window whose on-sale count is
a power of two has an exact mean S / count, so most deviations of such windows take
d * d. And a cell's cap is compared only where it can bind, as above.
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
    if not panel.n_weeks:  # no week for argmax to return
        return positive
    # the first positive week; a product that never sold has none
    first = np.where(positive.any(axis=1), positive.argmax(axis=1), panel.n_weeks)
    after = np.arange(panel.n_weeks) > first[:, None]
    return ~positive & panel.on_sale_mask & ~panel.stock_flag & after


def repair_fake_zeros(panel: SalesPanel, mask: np.ndarray) -> SalesPanel:
    """Replace flagged weeks with a smoothing fit of the unflagged history.

    Each flagged y_{i,t} becomes the exponential-smoothing level (alpha 0.3)
    of the product's unflagged on-sale weeks before t, rounded half up and
    floored at 0. A flagged week with no such week before it is a ValueError
    naming the product and the week (the earliest such week, and the first
    product in panel order at that week); detect_fake_zeros never flags one,
    since it flags only weeks after the product's first sale.

    One pass over the weeks up to the last flagged one carries the flagged
    products' levels, on week-major copies of their counts and usable weeks,
    so each week reads one contiguous row of each and no week gathers by
    index. A product's level starts at its first usable week's count and
    takes one smoothing step at each later usable week: es_fit_forecast's
    float operations on that history, in the same order, so every level is
    bit-identical to refitting the history from scratch (tests/oracles.py,
    loop_repair_fake_zeros). The copies hold a float64 and a few flags per
    (flagged product, week) cell, never a cell of the other products.
    """
    if mask.shape != panel.y.shape:
        raise ValueError("mask shape must match the panel")
    if not mask.any():
        return panel
    products = np.flatnonzero(mask.any(axis=1))
    end = panel.n_weeks - int(mask.any(axis=0)[::-1].argmax())  # no later level is read
    flagged = np.ascontiguousarray(mask[products, :end].T)
    usable = np.ascontiguousarray((panel.on_sale_mask[products, :end] & ~flagged.T).T)
    # the first usable week of each product; one with none before a flag is an error
    start = np.where(usable.any(axis=0), usable.argmax(axis=0), end)
    lost = flagged & (np.arange(end)[:, None] <= start)
    if lost.any():
        week, row = divmod(int(lost.argmax()), products.size)
        raise ValueError(
            f"fake zero of product {panel.products[products[row]]!r} at week {week} has no usable week before it"
        )
    columns = np.arange(products.size)
    # REPAIR_ALPHA * value per cell, each week's row overwritten by the levels
    # after that week once the loop has read it
    levels = np.ascontiguousarray(panel.y[products, :end].T, dtype=float)
    level = levels[start, columns]  # a level starts at the count itself
    usable[start, columns] = False
    levels *= REPAIR_ALPHA
    for t in range(int(start.min()) + 1, end):
        step = np.multiply(1.0 - REPAIR_ALPHA, level)
        step += levels[t]  # REPAIR_ALPHA * value + (1.0 - REPAIR_ALPHA) * level
        level = np.where(usable[t], step, level)
        levels[t] = level
    out = panel.y.copy()
    weeks, rows = np.nonzero(flagged)
    out[products[rows], weeks] = np.maximum(np.floor(levels[weeks, rows] + 0.5), 0.0).astype(out.dtype)
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
    float64 arrays that receive every cell's statistics, NaN where fewer
    than two prior on-sale weeks exist; the std pass then covers every cell
    with statistics. Without it the std pass covers only the cells above
    their rolling mean, the only ones a cap can lower, and no statistic
    outlives its block.
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
    # longest first; no week of a span under three weeks has two weeks before it
    order = np.argsort(-lengths, kind="stable")[: int(np.count_nonzero(lengths >= 3))]
    x = panel.y.astype(float)
    capped = np.zeros(panel.y.shape, dtype=bool)
    lo = 0
    while lo < order.size:
        part = order[lo : lo + max(1, SMOOTH_BLOCK_CELLS // int(lengths[order[lo]]))]
        lo += part.size
        _smooth_block(
            x, capped, panel.on_sale_mask, part * t_count + first[part], lengths[part],
            window, gamma, statistics,
        )
    return SmoothedPanel(x=x, capped_mask=capped)


def _smooth_block(
    x: np.ndarray, capped: np.ndarray, on_sale: np.ndarray, starts: np.ndarray,
    lengths: np.ndarray, window: int, gamma: float,
    statistics: tuple[np.ndarray, np.ndarray] | None,
) -> None:
    """smooth_panel for the spans of lengths[i] weeks from the flat panel
    cells starts[i] on, the first span the longest: caps x, sets capped and
    fills statistics, when given, in place."""
    width = int(lengths[0])
    # each span after `pad` columns that stand for off-sale weeks, so every
    # window of a span cell lies in its row; a short span's tail reads past
    # its end, and no live cell's window sees it
    pad = min(window, width - 1)
    cells = starts[:, None] + np.arange(-pad, width)
    block_y = np.take(x, cells, mode="clip")
    block_on = np.take(on_sale, cells, mode="clip")
    del cells
    block_y[:, :pad] = 0.0
    block_on[:, :pad] = False
    # window sums, oldest week first; an off-sale week holds no sales
    # (SalesPanel), and adding its 0.0 leaves a sum as it is
    mean = np.zeros((starts.size, width))
    count = np.zeros((starts.size, width), dtype=np.int64)
    for lag in range(pad, 0, -1):
        mean += block_y[:, pad - lag : pad - lag + width]
        count += block_on[:, pad - lag : pad - lag + width]
    mean /= np.maximum(count, 1)
    # the std pass covers the cells with statistics whose std is asked for
    # or can cap them: mean + gamma * std >= mean, so no cell at or below
    # its mean is capped
    chosen = (count >= 2) & (np.arange(width) < lengths[:, None])
    if statistics is None:
        chosen &= block_y[:, pad:] > mean
    at = np.flatnonzero(chosen)
    del chosen
    mean, count = mean.ravel()[at], count.ravel()[at]
    at += pad * (at // width + 1)  # the cells' flat positions in block_y
    std = _rolling_std(block_y, block_on, at, pad, mean, count)
    del count
    cap = mean + gamma * std
    hit = block_y.ravel()[at] > cap
    # the cells' flat positions in the panel: each row's are its span's
    at += (starts - pad - np.arange(starts.size) * (pad + width))[at // (pad + width)]
    x.put(at[hit], cap[hit])
    capped.put(at[hit], True)
    if statistics is not None:
        statistics[0].put(at, mean)
        statistics[1].put(at, std)


def _rolling_std(
    block_y: np.ndarray, block_on: np.ndarray, cells: np.ndarray, window: int,
    mean: np.ndarray, count: np.ndarray,
) -> np.ndarray:
    """Rolling std of the given flat cells of a padded block, whose window
    weeks are the `window` cells before each; mean and count are the cells'
    rolling mean and on-sale count. The squared deviations are summed oldest
    week first, one window offset at a time."""
    block_y, block_on = block_y.ravel(), block_on.ravel()
    total = np.zeros(cells.size)
    for lag in range(window, 0, -1):
        weeks = cells - lag
        deviation, seen = np.take(block_y, weeks), np.take(block_on, weeks)
        del weeks
        deviation -= mean
        total += _pow_square(deviation, seen)
    total /= count
    return np.sqrt(total, out=total)


def _pow_square(deviation: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """deviation ** 2 where seen and 0.0 elsewhere, in place of deviation.

    Each square is what libm pow (Python's `d ** 2`) returns. A d with at
    most 26 significant bits, the low 27 bits of its binary64 significand
    zero, has an exactly representable square, which pow returns exactly,
    so d * d serves there; any other d keeps np.float_power(d, 2.0).
    """
    inexact = (deviation.view(np.uint64) & np.uint64((1 << 27) - 1)).astype(bool)
    inexact &= seen
    rough = deviation[inexact]
    square = np.multiply(deviation, deviation, out=deviation)
    square[inexact] = np.float_power(rough, 2.0)
    square *= seen
    return square


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
