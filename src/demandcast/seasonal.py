"""Cross-product seasonality and trend features.

Individual series are too short to estimate a seasonal profile, so yearly
sales are standardized to a common level, averaged within each category,
and the category curves are clustered into a small set of shared patterns.
The fitted model is keyed by category, not by product: every product
inherits its category's pattern, which is what makes the seasonal feature
available from the first week a product is listed. A category the fit
never saw gets the global pattern: the renormalized mean of the fitted
patterns, or a flat one when none were fitted.

The category curves are computed a block of products at a time, so that
their temporaries stay small, and they are bit-identical to standardizing
one product-year at a time in Python (tests/oracles.py,
loop_category_seasonality). Three rules make that hold. A year's total is
numpy's pairwise sum of its compacted on-sale values; years are grouped by
their count of on-sale weeks, and each group's (years, count) block is
C-contiguous, so its sum(axis=1) adds each row exactly as the 1-D sum of
that row does (padding the rows with zeros to one width would not). Each
standardized value is (count / tau) * (value / total), the loop's
expression. And the per-(category, position) sums go through np.add.at
with the values in product-major, year-minor order, which adds each
cell's terms one at a time in the loop's order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Catalog, SalesPanel, weeks_on_sale
from .ingest import write_csv
from .preprocess import SmoothedPanel

MIN_YEAR_WEEKS = 4      # product-years with fewer on-sale weeks are too noisy
KMEANS_MAX_ITER = 200
KMEANS_RESTARTS = 8
ANNUAL_WINDOW = 52
LOCAL_WINDOW = 8
MIN_ANNUAL_POINTS = 8
MIN_LOCAL_POINTS = 3
GATHER_ELEMENTS = 1 << 14  # cells per gathered trend-window block; bounds its temporaries
SEASON_BLOCK_CELLS = 1 << 16  # (product-years x tau) cells standardized per block


def category_seasonality(
    smoothed: SmoothedPanel,
    panel: SalesPanel,
    catalog: Catalog,
    tau: int,
    end_week: int,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Per-category mean standardized curve and per-position sample variance
    over weeks 0..end_week-1 (clipped to the panel).

    Each product-year with at least MIN_YEAR_WEEKS on-sale weeks and positive
    total sales contributes one standardized observation per on-sale seasonal
    position: its on-sale weeks rescaled to sum to N_i/tau, N_i being their
    count. Products the catalog lacks contribute nothing. Positions observed
    once get variance 0; positions never observed are filled by circular
    linear interpolation.
    """
    end = max(0, min(end_week, smoothed.n_weeks))
    years = -(-end // tau)  # the last one may be partial
    names = [catalog.category_of.get(pid) for pid in panel.products]
    categories = sorted(set(names) - {None})
    code = {name: c for c, name in enumerate(categories)}
    category = np.array([code.get(name, -1) for name in names], dtype=np.int64)
    count = np.zeros(len(categories) * tau, dtype=np.int64)  # by (category, position)
    total = np.zeros(count.size)
    total_sq = np.zeros(count.size)
    step = max(1, SEASON_BLOCK_CELLS // max(years * tau, 1))
    for lo in range(0, panel.n_products, step):
        rows = slice(lo, lo + step)
        block_category = category[rows]
        product, week = np.nonzero(panel.on_sale_mask[rows, :end])
        values = smoothed.x[rows, :end][product, week]
        year = product * years + week // tau  # product-major, year-minor
        n_obs = np.bincount(year, minlength=block_category.size * years)
        eligible = (n_obs >= MIN_YEAR_WEEKS) & np.repeat(block_category >= 0, years)
        year_total = _year_totals(values, n_obs, eligible)
        kept = (eligible & (year_total > 0))[year]
        year = year[kept]
        std = (n_obs[year] / tau) * (values[kept] / year_total[year])
        cell = block_category[product[kept]] * tau + week[kept] % tau
        count += np.bincount(cell, minlength=count.size)
        np.add.at(total, cell, std)
        np.add.at(total_sq, cell, std ** 2)
    count, total, total_sq = (a.reshape(-1, tau) for a in (count, total, total_sq))
    observed = count > 0
    curve = np.full(count.shape, np.nan)
    curve[observed] = total[observed] / count[observed]
    var = np.zeros(count.shape)
    multi = count > 1
    var[multi] = np.maximum(
        0.0, (total_sq[multi] - count[multi] * curve[multi] ** 2) / (count[multi] - 1)
    )
    fitted = np.flatnonzero(observed.any(axis=1))
    curves = {categories[c]: _interpolate_circular(curve[c]) for c in fitted}
    return curves, {categories[c]: var[c] for c in fitted}


def _year_totals(values: np.ndarray, n_obs: np.ndarray, eligible: np.ndarray) -> np.ndarray:
    """Sum of each eligible year's values, 0 for the others.

    values holds the years' on-sale values one year after another, n_obs[j]
    of them for year j. Years are grouped by n_obs, so each group is a
    C-contiguous (years, n) block whose row sums equal the 1-D sums.
    """
    totals = np.zeros(n_obs.size)
    starts = np.cumsum(n_obs) - n_obs
    for n in np.flatnonzero(np.bincount(n_obs[eligible])):  # np.unique would import numpy.ma
        group = np.flatnonzero(eligible & (n_obs == n))
        totals[group] = values[starts[group, None] + np.arange(n)].sum(axis=1)
    return totals


def _interpolate_circular(curve: np.ndarray) -> np.ndarray:
    """Fill NaN positions by linear interpolation around the seasonal circle."""
    tau = curve.shape[0]
    observed = np.flatnonzero(~np.isnan(curve))
    if observed.size == 0:
        raise ValueError("cannot interpolate a curve with no observed positions")
    if observed.size == tau:
        return curve
    out = curve.copy()
    if observed.size == 1:
        out[:] = curve[observed[0]]
        return out
    for gap_idx in np.flatnonzero(np.isnan(curve)):
        prev_candidates = observed[observed < gap_idx]
        prev = prev_candidates[-1] if prev_candidates.size else observed[-1] - tau
        next_candidates = observed[observed > gap_idx]
        nxt = next_candidates[0] if next_candidates.size else observed[0] + tau
        frac = (gap_idx - prev) / (nxt - prev)
        out[gap_idx] = (1 - frac) * curve[prev % tau] + frac * curve[nxt % tau]
    return out


def _renormalize(pattern: np.ndarray, tau: int) -> np.ndarray:
    mean = float(pattern.mean())
    if mean <= 0:
        raise ValueError("seasonal pattern must have positive mean")
    return pattern * ((1.0 / tau) / mean)


def _kmeanspp_init(
    matrix: np.ndarray, weights: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Spread the initial centroids out, each draw weighted by w * distance^2."""
    n = matrix.shape[0]
    centroids = np.empty((k, matrix.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = matrix[first]
    min_dist = ((matrix - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        mass = weights * min_dist
        total = mass.sum()
        if total <= 0:
            idx = int(rng.integers(n))  # all points coincide with a centroid
        else:
            idx = int(rng.choice(n, p=mass / total))
        centroids[j] = matrix[idx]
        min_dist = np.minimum(min_dist, ((matrix - centroids[j]) ** 2).sum(axis=1))
    return centroids


def cluster_seasonalities(
    curves: dict[str, np.ndarray],
    variances: dict[str, np.ndarray],
    k: int,
    seed: int,
) -> tuple[list[np.ndarray], dict[str, int]]:
    """Weighted k-means over category curves.

    Assignment uses plain Euclidean distance; centroid updates weight each
    category by 1 / (1 + mean variance), so noisy categories pull less.
    Centroids are renormalized to mean 1/tau at the end. Empty clusters are
    re-seeded from the farthest point. The best of KMEANS_RESTARTS restarts
    (lowest weighted within-cluster cost) wins; the seed fixes every draw, so
    the result is deterministic.
    """
    cats = sorted(curves)
    n = len(cats)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    matrix = np.stack([curves[c] for c in cats])
    tau = matrix.shape[1]
    weights = np.array([1.0 / (1.0 + float(np.mean(variances[c]))) for c in cats])
    rng = np.random.default_rng(seed)
    best_cost = np.inf
    best: tuple[np.ndarray, np.ndarray] | None = None
    for _ in range(KMEANS_RESTARTS):
        centroids, assign = _kmeans_once(matrix, weights, k, rng)
        cost = float(
            (weights * ((matrix - centroids[assign]) ** 2).sum(axis=1)).sum()
        )
        if cost < best_cost:
            best_cost = cost
            best = (centroids, assign)
    centroids, assign = best
    patterns = [_renormalize(c, tau) for c in centroids]
    return patterns, {cat: int(assign[idx]) for idx, cat in enumerate(cats)}


def _kmeans_once(
    matrix: np.ndarray,
    weights: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    n = matrix.shape[0]
    centroids = _kmeanspp_init(matrix, weights, k, rng)
    assign = np.full(n, -1)
    for _ in range(KMEANS_MAX_ITER):
        dist = ((matrix[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = dist.argmin(axis=1)
        for j in range(k):
            if (new_assign == j).any():
                continue
            # re-seed from the farthest point whose cluster can spare it
            by_distance = np.argsort(-dist[np.arange(n), new_assign], kind="stable")
            for cand in by_distance:
                if (new_assign == new_assign[cand]).sum() > 1:
                    new_assign[cand] = j
                    break
        if (new_assign == assign).all():
            break
        assign = new_assign
        for j in range(k):
            members = assign == j
            w = weights[members]
            centroids[j] = (matrix[members] * w[:, None]).sum(axis=0) / w.sum()
    return centroids, assign


@dataclass(frozen=True)
class SeasonalityModel:
    """Fitted seasonal patterns keyed by category.

    assignment maps each category the fit saw to its pattern's index;
    global_pattern is the pattern of every other category.
    """

    tau: int
    patterns: list[np.ndarray]
    assignment: dict[str, int]
    global_pattern: np.ndarray

    def values_at(
        self, categories: Sequence[str], rows: np.ndarray, weeks: np.ndarray
    ) -> np.ndarray:
        """Pattern value of categories[rows[k]] at week weeks[k], wrapping with the period."""
        table = np.empty((len(categories), self.tau))
        for i, category in enumerate(categories):
            idx = self.assignment.get(category)
            table[i] = self.global_pattern if idx is None else self.patterns[idx]
        return table[rows, weeks % self.tau]


def fit_seasonality(
    smoothed: SmoothedPanel,
    panel: SalesPanel,
    catalog: Catalog,
    tau: int,
    k: int,
    seed: int,
    end_week: int,
) -> SeasonalityModel:
    """Estimate category curves over weeks 0..end_week-1 and cluster them
    into k shared patterns."""
    curves, variances = category_seasonality(smoothed, panel, catalog, tau, end_week)
    if curves:
        k_eff = min(k, len(curves))
        patterns, assignment = cluster_seasonalities(curves, variances, k_eff, seed)
        global_pattern = _renormalize(np.mean(np.stack(patterns), axis=0), tau)
    else:
        patterns = []
        assignment = {}
        global_pattern = np.full(tau, 1.0 / tau)
    return SeasonalityModel(
        tau=tau,
        patterns=patterns,
        assignment=assignment,
        global_pattern=global_pattern,
    )


def trend_features(
    smoothed: SmoothedPanel, panel: SalesPanel, rows: np.ndarray, weeks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized (annual, local) level slopes of panel row rows[k] at week weeks[k].

    Each slope is the least-squares slope of x over the on-sale weeks in the
    trailing window, divided by the mean level there; 0 when the window has
    too few points or a zero mean. Units are fraction of level per week.
    """
    rows = np.asarray(rows, dtype=np.int64)
    weeks = np.asarray(weeks, dtype=np.int64)
    if weeks.size and not (0 <= weeks.min() and weeks.max() < smoothed.n_weeks):
        raise ValueError("week outside panel range")
    counts = weeks_on_sale(panel.on_sale_mask)
    listed = np.nonzero(panel.on_sale_mask)[1]  # on-sale weeks, product-major
    annual = _window_slopes(
        smoothed.x, counts, listed, rows, weeks, ANNUAL_WINDOW, MIN_ANNUAL_POINTS
    )
    local = _window_slopes(smoothed.x, counts, listed, rows, weeks, LOCAL_WINDOW, MIN_LOCAL_POINTS)
    return annual, local


def _window_slopes(
    x: np.ndarray,
    counts: np.ndarray,
    listed: np.ndarray,
    rows: np.ndarray,
    weeks: np.ndarray,
    window: int,
    min_points: int,
) -> np.ndarray:
    """Slope over the on-sale weeks in [t - window, t] for each (row, t).

    counts is weeks_on_sale of the panel and listed its on-sale weeks,
    product-major. Rows are grouped by how many weeks their window holds, so
    each group is a C-contiguous (rows, k) block and every reduction runs
    along its last axis: numpy then sums each row exactly as it sums a
    length-k vector, and the slopes match a one-window-at-a-time evaluation
    bit for bit.
    Prefix-sum differences would be cheaper but round differently, and
    would turn exact-zero slopes into +-1e-17.
    """
    out = np.zeros(rows.size)
    if not rows.size:
        return out
    first = np.cumsum(counts[:, -1]) - counts[:, -1]  # where each product's weeks begin
    lo = np.maximum(weeks - window, 0)
    before = np.where(lo > 0, counts[rows, lo - 1], 0)
    sizes = counts[rows, weeks] - before
    starts = first[rows] + before
    for k in range(min_points, window + 2):
        group = np.flatnonzero(sizes == k)
        step = max(1, GATHER_ELEMENTS // k)
        for offset in range(0, group.size, step):
            part = group[offset : offset + step]
            window_weeks = listed[starts[part, None] + np.arange(k)]
            out[part] = _block_slopes(window_weeks, x[rows[part, None], window_weeks])
    return out


def _block_slopes(weeks: np.ndarray, values: np.ndarray) -> np.ndarray:
    mean_level = values.mean(axis=1)
    w = weeks.astype(float)
    w_centered = w - w.mean(axis=1, keepdims=True)
    denom = (w_centered**2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (w_centered * (values - mean_level[:, None])).sum(axis=1) / denom
        normalized = slope / mean_level
    return np.where((mean_level == 0.0) | (denom == 0.0), 0.0, normalized)


def write_seasonality(model: SeasonalityModel, path: str | Path) -> None:
    """One row per week of each category's pattern, categories sorted."""
    categories = sorted(model.assignment)
    index = [model.assignment[cat] for cat in categories]
    write_csv(path, ["category_id", "pattern_index", "week_of_year", "value"], [
        (categories, np.repeat(np.arange(len(categories)), model.tau)),
        np.repeat(np.array(index, dtype=np.int64), model.tau),
        np.tile(np.arange(model.tau), len(categories)),
        np.reshape([model.patterns[i] for i in index], -1),  # every pattern has tau weeks
    ])
