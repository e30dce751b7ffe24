"""Independent reference implementations the tests check production code against.

Everything here is written for clarity over speed: plain loops, brute-force
enumeration, no shared code with the package internals beyond numpy. The
row-by-row CSV loaders build the package's SalesPanel and Catalog and raise
its SchemaError, so their results and errors compare with the loaders'
directly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from demandcast.core import Catalog, SalesPanel
from demandcast.ingest import LAST_WEEK, Covariate, CovariateTable, SchemaError
from demandcast.preprocess import REPAIR_ALPHA
from demandcast.seasonal import MIN_YEAR_WEEKS

INT64_WEEKS = range(np.iinfo(np.int64).min, np.iinfo(np.int64).max + 1)


def scalar_smooth(y, on_sale, window, gamma):
    """Direct scalar evaluation of the spike-cap rule for one series.

    Returns (x, capped) lists. Statistics cover the on-sale weeks among the
    window weeks strictly before t; fewer than two such weeks means no cap.
    """
    x, capped, _, _ = scalar_smooth_stats(y, on_sale, window, gamma)
    return x, capped


def scalar_smooth_stats(y, on_sale, window, gamma):
    """scalar_smooth plus the rolling mean and std lists (NaN where undefined)."""
    t_count = len(y)
    x = [float(v) for v in y]
    capped = [False] * t_count
    means = [math.nan] * t_count
    stds = [math.nan] * t_count
    for t in range(t_count):
        obs = []
        for s in range(max(0, t - window), t):
            if on_sale[s]:
                obs.append(float(y[s]))
        if len(obs) < 2:
            continue
        mean = _seq_sum(obs) / len(obs)
        var = _seq_sum((v - mean) ** 2 for v in obs) / len(obs)
        std = math.sqrt(var)
        means[t] = mean
        stds[t] = std
        cap = mean + gamma * std
        if float(y[t]) > cap:
            x[t] = cap
            capped[t] = True
    return x, capped, means, stds


def loop_detect_fake_zeros(panel: SalesPanel) -> np.ndarray:
    """Fake-zero mask, one product at a time: zero, listed and out-of-stock
    weeks after the product's first positive week."""
    mask = np.zeros_like(panel.on_sale_mask)
    for i in range(panel.n_products):
        positive = np.flatnonzero(panel.y[i] > 0)
        if positive.size == 0:
            continue
        candidate = (panel.y[i] == 0) & panel.on_sale_mask[i] & ~panel.stock_flag[i]
        candidate[: positive[0] + 1] = False
        mask[i] = candidate
    return mask


def loop_repair_fake_zeros(panel: SalesPanel, mask: np.ndarray) -> SalesPanel:
    """preprocess.repair_fake_zeros one product and one flagged week at a time.

    Each flagged week refits exponential smoothing over the product's
    unflagged on-sale weeks before it, of which it needs at least one, and
    rounds the level half up.
    """
    y = panel.y.copy()
    for i in range(panel.n_products):
        usable = panel.on_sale_mask[i] & ~mask[i]
        for t in np.flatnonzero(mask[i]):
            history = [float(v) for v in panel.y[i, :t][usable[:t]]]
            level = history[0]  # es_fit_forecast(history, REPAIR_ALPHA)
            for value in history[1:]:
                level = REPAIR_ALPHA * value + (1.0 - REPAIR_ALPHA) * level
            y[i, t] = max(0, int(math.floor(level + 0.5)))
    return panel.replace_counts(y)


def finite_diff_grad_hess(loss_fn, y, raw, eps=1e-5, eps_h=1e-3):
    """Central finite differences of a scalar loss in the raw score.

    The second difference uses a larger step: squaring a tiny eps amplifies
    float cancellation far above the truncation error for smooth losses.
    """
    g = (loss_fn(y, raw + eps) - loss_fn(y, raw - eps)) / (2 * eps)
    h = (loss_fn(y, raw + eps_h) - 2 * loss_fn(y, raw) + loss_fn(y, raw - eps_h)) / eps_h**2
    return g, h


def poisson_pointwise(y, raw):
    return math.exp(raw) - y * raw


def squared_pointwise(y, raw):
    return 0.5 * (raw - y) ** 2


class OracleNode:
    __slots__ = ("feature", "threshold", "default_left", "left", "right", "weight", "gain")

    def __init__(self):
        self.feature = -1
        self.threshold = 0.0
        self.default_left = True
        self.left = -1
        self.right = -1
        self.weight = 0.0
        self.gain = 0.0


def _seq_sum(values) -> float:
    # -0.0 is the exact additive identity: a sum of -0.0 terms stays -0.0,
    # as np.cumsum, which starts from the first term, keeps it
    total = -0.0
    for v in values:
        total = total + float(v)
    return total


def oracle_best_split(values, g, h, reg_lambda, min_split_loss):
    """Exhaustive candidate enumeration for one feature column.

    Walks every boundary between distinct sorted present values and both
    missing-value routings, accumulating left statistics sequentially in
    sorted order. Preference on ties: lowest threshold, then missing left.
    A candidate needs H + lambda > 0 on both sides, and a node whose own
    H + lambda is not above 0 has none. Returns (threshold, net_gain,
    default_left) or None.
    """
    g_total = _seq_sum(g)
    h_total = _seq_sum(h)
    if not h_total + reg_lambda > 0:
        return None
    present = [k for k in range(len(values)) if not math.isnan(values[k])]
    if not present:
        return None
    missing = [k for k in range(len(values)) if math.isnan(values[k])]
    g_miss = _seq_sum(g[k] for k in missing)
    h_miss = _seq_sum(h[k] for k in missing)
    order = sorted(present, key=lambda k: values[k])  # stable: ties keep row order
    base = g_total * g_total / (h_total + reg_lambda)
    best = None
    gl = -0.0  # the identity _seq_sum starts from
    hl = -0.0
    for pos in range(len(order) - 1):
        k = order[pos]
        gl = gl + float(g[k])
        hl = hl + float(h[k])
        lo, hi = values[order[pos]], values[order[pos + 1]]
        if lo == hi:
            continue
        threshold = (lo + hi) / 2.0
        if not lo < threshold:
            continue
        for default_left in (True, False):
            gl_c = gl + g_miss if default_left else gl
            hl_c = hl + h_miss if default_left else hl
            gr_c = g_total - gl_c
            hr_c = h_total - hl_c
            if not (hl_c + reg_lambda > 0 and hr_c + reg_lambda > 0):
                continue
            gain = (
                0.5
                * (gl_c * gl_c / (hl_c + reg_lambda) + gr_c * gr_c / (hr_c + reg_lambda) - base)
                - min_split_loss
            )
            if best is None or gain > best[1]:
                best = (threshold, gain, default_left)
    if best is None or not best[1] > 0:
        return None
    return best


def oracle_fit_tree(x, g, h, max_depth, reg_lambda, min_split_loss, feature_sampler=None):
    """Depth-first brute-force tree build mirroring the documented tie-breaks.

    A node may split above max_depth when it holds 2 rows or more, or one
    row whose h is 2 or more (a forest's row drawn twice or more, whose node
    on the copied rows would hold its copies). feature_sampler, when set,
    picks each node's candidate features; it is called in pre-order at every
    node that may split, as the grower does, so a one-row node takes a
    sample before it becomes a leaf.
    """
    nodes: list[OracleNode] = []

    def grow(rows, depth):
        idx = len(nodes)
        nodes.append(OracleNode())
        node = nodes[idx]
        g_sum = _seq_sum(g[k] for k in rows)
        h_sum = _seq_sum(h[k] for k in rows)
        best = None
        best_feature = -1
        if depth < max_depth and (len(rows) >= 2 or h_sum >= 2):
            features = range(x.shape[1]) if feature_sampler is None else feature_sampler(x.shape[1])
            for j in features:
                cand = oracle_best_split(
                    [x[k, j] for k in rows],
                    [g[k] for k in rows],
                    [h[k] for k in rows],
                    reg_lambda,
                    min_split_loss,
                )
                if cand is not None and (best is None or cand[1] > best[1]):
                    best = cand
                    best_feature = j
        if best is None:
            node.weight = -g_sum / (h_sum + reg_lambda)
            return idx
        threshold, net_gain, default_left = best
        node.feature = best_feature
        node.threshold = threshold
        node.default_left = default_left
        node.gain = net_gain + min_split_loss
        left_rows = []
        right_rows = []
        for k in rows:
            value = x[k, best_feature]
            if math.isnan(value):
                (left_rows if default_left else right_rows).append(k)
            elif value < threshold:
                left_rows.append(k)
            else:
                right_rows.append(k)
        node.left = grow(left_rows, depth + 1)
        node.right = grow(right_rows, depth + 1)
        return idx

    grow(list(range(x.shape[0])), 0)
    return nodes


def choice_sampler(rng, n_sub):
    """A per-split feature sampler of n_sub features, one sorted
    rng.choice(p, n_sub, replace=False) call per node: the draws that
    train_forest's batched sampler reproduces."""

    def sampler(n_features):
        return np.sort(rng.choice(n_features, size=n_sub, replace=False))

    return sampler


def oracle_apply(nodes, x):
    """Leaf weight per row of x, walking a tree's node records one node at a time.

    nodes holds (feature, threshold, default_left, left, right, weight, gain)
    records in pre-order; a stack carries each node's rows down to a leaf.
    """
    out = np.empty(x.shape[0])
    stack = [(0, np.arange(x.shape[0]))]
    while stack:
        idx, rows = stack.pop()
        feature, threshold, default_left, left, right, weight, _ = nodes[idx]
        if feature < 0:
            out[rows] = weight
            continue
        col = x[rows, feature]
        go_left = col < threshold
        if default_left:
            go_left |= np.isnan(col)
        stack.append((left, rows[go_left]))
        stack.append((right, rows[~go_left]))
    return out


def fnv1a64_reference(data: bytes) -> int:
    """Independent FNV-1a formulation (reduce-style) for cross-checking."""
    from functools import reduce

    return reduce(lambda acc, b: ((acc ^ b) * 0x100000001B3) % (1 << 64), data, 0xCBF29CE484222325)


def brute_force_two_partition(curves: np.ndarray, weights: np.ndarray):
    """Best weighted 2-clustering by total within-cluster squared distance.

    Enumerates every nontrivial bipartition; centroids are the weighted means
    of each side. Returns the best membership mask.
    """
    n = curves.shape[0]
    best_cost = math.inf
    best_mask = None
    for bits in range(1, 2 ** (n - 1)):
        mask = np.array([(bits >> k) & 1 == 1 for k in range(n)])
        cost = 0.0
        for side in (mask, ~mask):
            if not side.any():
                cost = math.inf
                break
            w = weights[side]
            centroid = (curves[side] * w[:, None]).sum(axis=0) / w.sum()
            cost += float(((curves[side] - centroid) ** 2).sum())
        if cost < best_cost:
            best_cost = cost
            best_mask = mask
    return best_mask


def standardize_year(x_year: np.ndarray, on_sale: np.ndarray) -> np.ndarray:
    """Rescale one product-year so its on-sale weeks sum to N_i/tau.

    Off-sale positions come back as NaN (absent, not zero). Scale-invariant:
    multiplying the year by a positive constant leaves the result unchanged.
    """
    x_year = np.asarray(x_year, dtype=float)
    on_sale = np.asarray(on_sale, dtype=bool)
    tau = x_year.shape[0]
    if on_sale.shape[0] != tau:
        raise ValueError("x_year and on_sale must have equal length")
    n_obs = int(on_sale.sum())
    total = float(x_year[on_sale].sum())
    if n_obs == 0 or total <= 0:
        raise ValueError("standardize_year needs at least one on-sale week with sales")
    out = np.full(tau, np.nan)
    out[on_sale] = (n_obs / tau) * (x_year[on_sale] / total)
    return out


def loop_category_seasonality(smoothed, panel, catalog, tau, end_week):
    """seasonal.category_seasonality one product-year at a time.

    Product-years are visited product by product, each product's years in
    order, and each is standardized on its own; a year's total is the 1-D
    sum of its on-sale values.
    """
    end = min(end_week, smoothed.n_weeks)
    count: dict[str, np.ndarray] = {}
    total: dict[str, np.ndarray] = {}
    total_sq: dict[str, np.ndarray] = {}
    for i, pid in enumerate(panel.products):
        cat = catalog.category_of.get(pid)
        if cat is None:
            continue
        for year_start in range(0, end, tau):
            x_year = np.zeros(tau)
            on_sale = np.zeros(tau, dtype=bool)
            stop = min(year_start + tau, end)
            width = stop - year_start
            x_year[:width] = smoothed.x[i, year_start:stop]
            on_sale[:width] = panel.on_sale_mask[i, year_start:stop]
            if on_sale.sum() < MIN_YEAR_WEEKS or x_year[on_sale].sum() <= 0:
                continue
            std = standardize_year(x_year, on_sale)
            if cat not in count:
                count[cat] = np.zeros(tau, dtype=np.int64)
                total[cat] = np.zeros(tau)
                total_sq[cat] = np.zeros(tau)
            obs = ~np.isnan(std)
            count[cat][obs] += 1
            total[cat][obs] += std[obs]
            total_sq[cat][obs] += std[obs] ** 2
    curves: dict[str, np.ndarray] = {}
    variances: dict[str, np.ndarray] = {}
    for cat in sorted(count):
        n = count[cat]
        observed = n > 0
        curve = np.full(tau, np.nan)
        curve[observed] = total[cat][observed] / n[observed]
        var = np.zeros(tau)
        multi = n > 1
        var[multi] = np.maximum(
            0.0,
            (total_sq[cat][multi] - n[multi] * curve[multi] ** 2) / (n[multi] - 1),
        )
        curves[cat] = _circular_fill(curve)
        variances[cat] = var
    return curves, variances


def _circular_fill(curve: np.ndarray) -> np.ndarray:
    """NaN positions filled by linear interpolation between the nearest
    observed positions either way round the circle."""
    tau = len(curve)
    observed = [k for k in range(tau) if not math.isnan(curve[k])]
    if len(observed) == 1:
        return np.full(tau, curve[observed[0]])
    out = curve.copy()
    for k in range(tau):
        if k in observed:
            continue
        prev = max((j for j in observed if j < k), default=observed[-1] - tau)
        nxt = min((j for j in observed if j > k), default=observed[0] + tau)
        frac = (k - prev) / (nxt - prev)
        out[k] = (1 - frac) * curve[prev % tau] + frac * curve[nxt % tau]
    return out


def _running_mean(pairs, cutoff):
    """Mean of the values whose week is <= cutoff, added in week order; NaN if none."""
    values = [value for week, value in sorted(pairs) if week <= cutoff]
    if not values:
        return math.nan
    total = values[0]
    for value in values[1:]:
        total = total + value
    return total / len(values)


def rowwise_covariate(table, key, pid, target_week, known_until, tau):
    """One covariate cell by the documented imputation rule; table is a RowwiseCovariates."""
    predictable = table.predictable.get(key, True)
    if key in table.temporal:
        series = table.temporal[key]
        if predictable:
            return series.get(target_week, math.nan)
        same_position = [(w, v) for w, v in series.items() if w % tau == target_week % tau]
        mean = _running_mean(same_position, known_until)
        if math.isnan(mean):
            mean = _running_mean(series.items(), known_until)
        return mean
    if key in table.mixed:
        series = table.mixed[key]
        if predictable:
            return series.get((pid, target_week), math.nan)
        return _running_mean([(w, v) for (p, w), v in series.items() if p == pid], known_until)
    return math.nan


def rowwise_window_slope(x_row, on_sale_row, t, window, min_points):
    """Normalized trend slope at week t, one window at a time.

    The reductions are numpy's 1-D ones on purpose: they define the values
    the whole-panel trend features must reproduce bit for bit.
    """
    lo = max(0, t - window)
    weeks = np.flatnonzero(on_sale_row[lo : t + 1]) + lo
    if weeks.size < min_points:
        return 0.0
    values = x_row[weeks]
    mean_level = float(values.mean())
    if mean_level == 0.0:
        return 0.0
    w = weeks.astype(float)
    w_centered = w - w.mean()
    denom = float((w_centered**2).sum())
    if denom == 0.0:
        return 0.0
    slope = float((w_centered * (values - values.mean())).sum()) / denom
    return slope / mean_level


def loop_es_means(panel: SalesPanel, catalog: Catalog, train_end: int):
    """ESBaseline's fallback means one product at a time: (category means,
    global mean) of units per on-sale week in weeks [0, train_end), each
    product's total an int64 sum added to the running sums in product order."""
    sums: dict = {}
    counts: dict = {}
    total, count = 0.0, 0
    for i, pid in enumerate(panel.products):
        cat = catalog.category_of.get(pid)
        weeks = np.flatnonzero(panel.on_sale_mask[i, :train_end])
        if weeks.size == 0:
            continue
        units = float(panel.y[i, weeks].sum())
        sums[cat] = sums.get(cat, 0.0) + units
        counts[cat] = counts.get(cat, 0) + int(weeks.size)
        total += units
        count += int(weeks.size)
    return {cat: sums[cat] / counts[cat] for cat in sums}, (total / count if count else 0.0)


def rowwise_split_rows(on_sale, config):
    """The split's forecast rows one at a time: [(panel row, issue week t, part)].

    Products in panel order, each one's on-sale weeks t ascending up to the
    week that targets the last test week; part is 0, 1 or 2 as t + horizon
    falls in the train, valid or test weeks.
    """
    ends = [config.train_len]
    ends.append(ends[0] + config.valid_len)
    ends.append(ends[1] + config.test_len)
    out = []
    for i in range(on_sale.shape[0]):
        for t in range(ends[2] - config.horizon):
            if on_sale[i, t]:
                target = t + config.horizon
                out.append((i, t, 0 if target < ends[0] else 1 if target < ends[1] else 2))
    return out


def rowwise_build_matrix(
    panel, smoothed, catalog, seasonal_model, covariates, config, keys,
    lag_depth, annual=(52, 8), local=(8, 3),
):
    """Per-row feature matrix of keys, a list of (panel row i, issue week t):
    (keys, columns, X, targets, life), where the returned keys are the
    (product id, target week t + h) pairs and life counts the product's
    on-sale weeks up to and including t.

    targets is None when a target week lies past the panel. Categorical codes
    come from sorted distinct values (unseen value -> count) or FNV-1a
    buckets; annual/local are (window, min points) of the two trend slopes.
    """
    h = config.horizon
    attr_names = sorted({k for attrs in catalog.attributes.values() for k in attrs})
    covariates = covariate_dicts(covariates) if covariates else None
    cov_names = covariates.feature_names() if covariates else []
    columns = [f"lag_{j}" for j in range(lag_depth)] + ["trend_annual", "trend_local"]
    if config.with_seasonality:
        columns.append("season")
    columns += ["weeks_since_launch", "price", "category"]
    columns += [f"attr_{name}" for name in attr_names] + [f"cov_{name}" for name in cov_names]

    def attr_value(pid, name):
        return catalog.attributes.get(pid, {}).get(name, "")

    ordinal = {"category": sorted(set(catalog.category_of.values()))}
    for name in attr_names:
        ordinal[f"attr_{name}"] = sorted({attr_value(pid, name) for pid in catalog.price})

    def encode(column, value):
        if config.encoding == "hashing":
            return float(fnv1a64_reference(f"{column}={value}".encode()) % config.hash_buckets)
        ids = ordinal[column]
        return float(ids.index(value) if value in ids else len(ids))

    def season(pid, week):
        cat = catalog.category_of[pid]
        if cat not in seasonal_model.assignment:
            pattern = seasonal_model.global_pattern
        else:
            pattern = seasonal_model.patterns[seasonal_model.assignment[cat]]
        return float(pattern[week % seasonal_model.tau])

    out_keys, rows, targets, life = [], [], [], []
    for i, t in keys:
        pid = panel.products[i]
        listed = [s for s in range(panel.n_weeks) if panel.on_sale_mask[i, s]]
        launch = listed[0]
        row = [
            float(smoothed.x[i, t - j]) if t - j >= launch else math.nan
            for j in range(lag_depth)
        ]
        for window, min_points in (annual, local):
            row.append(rowwise_window_slope(smoothed.x[i], panel.on_sale_mask[i], t, window, min_points))
        if config.with_seasonality:
            row.append(season(pid, t + h))
        row += [float(t - launch), float(catalog.price[pid])]
        row.append(encode("category", catalog.category_of[pid]))
        row += [encode(f"attr_{name}", attr_value(pid, name)) for name in attr_names]
        row += [
            rowwise_covariate(covariates, name, pid, t + h, t, config.season_period)
            for name in cov_names
        ]
        rows.append(row)
        out_keys.append((pid, t + h))
        life.append(len([s for s in listed if s <= t]))
        targets.append(float(panel.y[i, t + h]) if t + h < panel.n_weeks else None)
    x = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    return (
        out_keys, columns, x,
        None if None in targets else np.array(targets, dtype=float), np.array(life),
    )


@dataclass
class RowwiseCovariates:
    """A covariates file as dicts: week -> value (temporal) or (product, week) -> value (mixed)."""

    temporal: dict[str, dict[int, float]] = field(default_factory=dict)
    mixed: dict[str, dict[tuple[str, int], float]] = field(default_factory=dict)
    predictable: dict[str, bool] = field(default_factory=dict)

    def feature_names(self) -> list[str]:
        return sorted(self.temporal) + sorted(self.mixed)


def _parse_bool(raw: str, path: str, line_no: int, column: str) -> bool:
    if raw == "1":
        return True
    if raw == "0":
        return False
    raise SchemaError(f"{path}:{line_no}: {column} must be 0 or 1, got {raw!r}")


def two_pass_codes(tokens: list[str], codes: dict[str, int]) -> np.ndarray:
    """Each token's code in codes, which gives a new token the next code: the
    distinct tokens are added first, in order of first appearance, then looked up."""
    for token in dict.fromkeys(tokens):
        codes.setdefault(token, len(codes))
    return np.fromiter(map(codes.__getitem__, tokens), np.int64, len(tokens))


def rowwise_load_sales(path):
    """sales.csv read one csv.reader row at a time, each row checked as it comes."""
    path = Path(path)
    rows: dict[tuple[str, int], tuple[int, bool, bool]] = {}
    max_week = -1
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["product_id", "week", "units", "on_sale", "in_stock"]:
            raise SchemaError(f"{path}: unexpected sales header {header}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 5:
                raise SchemaError(f"{path}:{line_no}: expected 5 fields, got {len(row)}")
            pid, week_s, units_s, on_sale_s, stock_s = row
            if not pid:
                raise SchemaError(f"{path}:{line_no}: empty product_id")
            try:
                week = int(week_s)
                units = int(units_s)
            except ValueError:
                raise SchemaError(f"{path}:{line_no}: non-integer week or units") from None
            if week < 0:
                raise SchemaError(f"{path}:{line_no}: negative week {week}")
            if week > LAST_WEEK:
                raise SchemaError(
                    f"{path}:{line_no}: week {week} beyond the last supported week {LAST_WEEK}"
                )
            if units < 0:
                raise SchemaError(f"{path}:{line_no}: negative units {units}")
            key = (pid, week)
            if key in rows:
                raise SchemaError(f"{path}:{line_no}: duplicate row for {key}")
            listed = _parse_bool(on_sale_s, str(path), line_no, "on_sale")
            in_stock = _parse_bool(stock_s, str(path), line_no, "in_stock")
            if units > 0 and not listed:
                raise SchemaError(
                    f"{path}:{line_no}: positive units {units} on a week not marked on sale"
                )
            rows[key] = (units, listed, in_stock)
            max_week = max(max_week, week)
    if max_week < 0:
        raise SchemaError(f"{path}: no data rows")
    products = tuple(sorted({pid for pid, _ in rows}))
    t_count = max_week + 1
    n = len(products)
    y = np.zeros((n, t_count), dtype=np.int64)
    on_sale = np.zeros((n, t_count), dtype=bool)
    stock = np.ones((n, t_count), dtype=bool)  # missing stock info defaults to in stock
    row_of = {p: i for i, p in enumerate(products)}
    for (pid, week), (units, listed, in_stock) in rows.items():
        i = row_of[pid]
        y[i, week] = units
        on_sale[i, week] = listed
        stock[i, week] = in_stock
    return SalesPanel(products, y, on_sale, stock)


def rowwise_load_catalog(path) -> Catalog:
    """catalog.csv read one csv.reader row at a time, each row checked as it comes."""
    path = Path(path)
    category_of: dict[str, str] = {}
    price: dict[str, float] = {}
    attributes: dict[str, dict[str, str]] = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:3] != ["product_id", "category_id", "price"]:
            raise SchemaError(f"{path}: unexpected catalog header {header}")
        for name in header:
            if not name or header.count(name) > 1:
                raise SchemaError(f"{path}:1: catalog column name {name!r} is empty or repeated")
        extra_cols = header[3:]
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise SchemaError(
                    f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}"
                )
            pid, category, price_s = row[0], row[1], row[2]
            if not pid:
                raise SchemaError(f"{path}:{line_no}: empty product_id")
            if not category:
                raise SchemaError(f"{path}:{line_no}: product {pid!r} has no category")
            try:
                p = float(price_s)
            except ValueError:
                raise SchemaError(f"{path}:{line_no}: bad price {price_s!r}") from None
            if not 0 < p < math.inf:
                raise SchemaError(f"{path}:{line_no}: price {price_s} is not positive and finite")
            if pid in category_of:
                raise SchemaError(f"{path}:{line_no}: duplicate product {pid!r}")
            category_of[pid] = category
            price[pid] = p
            attributes[pid] = dict(zip(extra_cols, row[3:]))
    return Catalog(category_of, price, attributes)


def rowwise_load_predictions(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A predictions file read one csv.reader row at a time, each row checked as it comes."""
    pids, weeks, forecasts = [], [], []
    seen: set[tuple[str, int]] = set()
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["product_id", "week", "forecast"]:
            raise SchemaError(f"{path}: unexpected predictions header {header}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise SchemaError(f"{path}:{line_no}: expected 3 fields, got {len(row)}")
            try:
                key = (row[0], int(row[1]))
                value = float(row[2])
            except ValueError:
                raise SchemaError(f"{path}:{line_no}: bad week or forecast") from None
            if not math.isfinite(value):
                raise SchemaError(f"{path}:{line_no}: non-finite forecast {row[2]!r}")
            if key[1] not in INT64_WEEKS:
                raise SchemaError(f"{path}:{line_no}: week {key[1]} outside the int64 range")
            if key in seen:
                raise SchemaError(f"{path}:{line_no}: duplicate key {key}")
            seen.add(key)
            pids.append(row[0])
            weeks.append(key[1])
            forecasts.append(value)
    if not pids:
        raise SchemaError(f"{path}: no data rows")
    return np.array(pids, dtype=object), np.array(weeks, dtype=np.int64), np.array(forecasts)


def rowwise_load_covariates(path, panel=None) -> RowwiseCovariates:
    """covariates.csv read one csv.reader row at a time, each row checked as it comes."""
    path = Path(path)
    table = RowwiseCovariates()
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["scope", "key", "week", "product_id", "value", "predictable"]:
            raise SchemaError(f"{path}: unexpected covariates header {header}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 6:
                raise SchemaError(f"{path}:{line_no}: expected 6 fields, got {len(row)}")
            scope, key, week_s, pid, value_s, pred_s = row
            try:
                week = int(week_s)
                value = float(value_s)
            except ValueError:
                raise SchemaError(f"{path}:{line_no}: bad week or value") from None
            if week not in INT64_WEEKS:
                raise SchemaError(f"{path}:{line_no}: week {week} outside the int64 range")
            if not math.isfinite(value):
                raise SchemaError(f"{path}:{line_no}: non-finite value {value_s!r}")
            predictable = _parse_bool(pred_s, str(path), line_no, "predictable")
            if key in table.predictable and table.predictable[key] != predictable:
                raise SchemaError(f"{path}:{line_no}: inconsistent predictable flag for {key!r}")
            table.predictable[key] = predictable
            if scope == "temporal":
                if pid:
                    raise SchemaError(f"{path}:{line_no}: temporal row must have empty product_id")
                series, other, at = table.temporal, table.mixed, week
            elif scope == "mixed":
                if not pid:
                    raise SchemaError(f"{path}:{line_no}: mixed row needs a product_id")
                if panel is not None:
                    if pid not in panel.index:
                        raise SchemaError(f"{path}:{line_no}: unknown product {pid!r}")
                    if not 0 <= week < panel.n_weeks:
                        raise SchemaError(f"{path}:{line_no}: week {week} outside panel")
                series, other, at = table.mixed, table.temporal, (pid, week)
            else:
                raise SchemaError(f"{path}:{line_no}: unknown scope {scope!r}")
            values = series.get(key)
            if values is None:
                if key in other:
                    raise SchemaError(f"{path}:{line_no}: key {key!r} used with both scopes")
                values = series[key] = {}
            if at in values:
                raise SchemaError(f"{path}:{line_no}: duplicate row for {(scope, key, week, pid)}")
            values[at] = value
    return table


def covariate_dicts(table: CovariateTable) -> RowwiseCovariates:
    """The columnar table as dicts, after checking its layout: each key's
    arrays aligned, int64 weeks and rows, float64 values, and (row, week)
    pairs strictly increasing."""
    out = RowwiseCovariates()
    for key, cov in table.series.items():
        assert cov.weeks.dtype == np.int64 and cov.values.dtype == np.float64
        assert cov.weeks.shape == cov.values.shape == (cov.weeks.size,) and cov.weeks.size
        rows = np.full(cov.weeks.size, -1) if cov.rows is None else cov.rows
        assert rows.dtype == np.int64 and rows.shape == cov.weeks.shape
        pairs = list(zip(rows.tolist(), cov.weeks.tolist()))
        assert all(a < b for a, b in zip(pairs, pairs[1:])), key
        values = cov.values.tolist()
        if cov.rows is None:
            out.temporal[key] = dict(zip(cov.weeks.tolist(), values))
        else:
            out.mixed[key] = {
                (table.products[row], week): value for (row, week), value in zip(pairs, values)
            }
        out.predictable[key] = cov.predictable
    return out


def columnar_covariates(temporal, mixed, predictable, products) -> CovariateTable:
    """A CovariateTable of dict-shaped covariates for the panel products.

    Mixed entries of other products are left out: the table holds panel
    rows, and the loader rejects any other product.
    """
    row_of = {pid: i for i, pid in enumerate(products)}
    series = {}
    for key, entries in temporal.items():
        weeks = sorted(entries)
        series[key] = Covariate(
            np.array(weeks, dtype=np.int64), None,
            np.array([entries[w] for w in weeks], dtype=float), predictable[key],
        )
    for key, entries in mixed.items():
        kept = sorted(
            (row_of[pid], week, value) for (pid, week), value in entries.items() if pid in row_of
        )
        series[key] = Covariate(
            np.array([week for _, week, _ in kept], dtype=np.int64),
            np.array([row for row, _, _ in kept], dtype=np.int64),
            np.array([value for _, _, value in kept], dtype=float),
            predictable[key],
        )
    return CovariateTable(tuple(products), series)


def loop_write_sales(panel: SalesPanel, path) -> None:
    """ingest.write_sales one (product, week) cell at a time."""
    last = panel.n_weeks - 1
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["product_id", "week", "units", "on_sale", "in_stock"])
        for i, pid in enumerate(panel.products):
            for t in range(panel.n_weeks):
                listed = panel.on_sale_mask[i, t]
                in_stock = panel.stock_flag[i, t]
                if not listed and in_stock and not (i == 0 and t == last):
                    continue  # unlisted in-stock weeks are the implicit default
                writer.writerow([pid, t, int(panel.y[i, t]), int(listed), int(in_stock)])


def loop_write_ground_truth(truth, panel: SalesPanel, path) -> None:
    """synth.write_ground_truth one live week at a time."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["product_id", "week", "lam", "promo", "stockout"])
        for i, pid in enumerate(panel.products):
            for t in range(int(truth.launch[i]), int(truth.end[i])):
                writer.writerow(
                    [
                        pid,
                        t,
                        repr(float(truth.lam[i, t])),
                        int(truth.promo_mask[i, t]),
                        int(truth.stockout_mask[i, t]),
                    ]
                )


def loop_write_smoothed(panel: SalesPanel, smoothed, repaired_mask, statistics, path) -> None:
    """preprocess.write_smoothed one on-sale (product, week) cell at a time."""
    rolling_mean, rolling_std = statistics
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["product_id", "week", "y", "x", "rolling_mean", "rolling_std", "repaired", "capped"]
        )
        for i, pid in enumerate(panel.products):
            for t in range(panel.n_weeks):
                if not panel.on_sale_mask[i, t]:
                    continue
                mean = rolling_mean[i, t]
                std = rolling_std[i, t]
                writer.writerow(
                    [
                        pid,
                        t,
                        int(panel.y[i, t]),
                        repr(float(smoothed.x[i, t])),
                        "" if math.isnan(mean) else repr(float(mean)),
                        "" if math.isnan(std) else repr(float(std)),
                        int(repaired_mask[i, t]),
                        int(smoothed.capped_mask[i, t]),
                    ]
                )


def loop_write_catalog(catalog: Catalog, path) -> None:
    """ingest.write_catalog one product at a time, ids sorted, extra columns sorted."""
    extra = sorted({key for attrs in catalog.attributes.values() for key in attrs})
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["product_id", "category_id", "price", *extra])
        for pid in sorted(catalog.category_of):
            attrs = catalog.attributes.get(pid, {})
            writer.writerow(
                [pid, catalog.category_of[pid], repr(float(catalog.price[pid]))]
                + [attrs.get(key, "") for key in extra]
            )


def loop_write_covariates(table: CovariateTable, path) -> None:
    """ingest.write_covariates one entry at a time: temporal keys, then mixed
    keys, each group in sorted order, a key's entries in table order."""
    keys = sorted(table.series, key=lambda key: (table.series[key].rows is not None, key))
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scope", "key", "week", "product_id", "value", "predictable"])
        for key in keys:
            cov = table.series[key]
            for i in range(len(cov.weeks)):
                mixed = cov.rows is not None
                writer.writerow(
                    [
                        "mixed" if mixed else "temporal",
                        key,
                        int(cov.weeks[i]),
                        table.products[int(cov.rows[i])] if mixed else "",
                        repr(float(cov.values[i])),
                        int(cov.predictable),
                    ]
                )


def loop_write_ground_truth_curves(truth, path) -> None:
    """synth.write_ground_truth_curves one curve position at a time."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["category_id", "position", "value"])
        for category in sorted(truth.category_curve):
            for position, value in enumerate(truth.category_curve[category]):
                writer.writerow([category, position, repr(float(value))])


def loop_write_predictions(pids, weeks, forecasts, path) -> None:
    """cli._write_predictions one row at a time, sorted by (product id, week)."""
    rows = sorted(zip(pids, (int(w) for w in weeks), (float(f) for f in forecasts)))
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["product_id", "week", "forecast"])
        for pid, week, forecast in rows:
            writer.writerow([pid, week, repr(forecast)])


def loop_write_report(report, path) -> None:
    """evaluation.write_report one cell at a time: overall, the segments in
    sorted order, then the life buckets in report order."""
    cells = [("overall", "all", report.overall)]
    cells += [("segment", name, report.segments[name]) for name in sorted(report.segments)]
    cells += [("life", name, cell) for name, cell in report.life_buckets.items()]
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scope", "group", "rmse", "mae", "rows"])
        for scope, group, cell in cells:
            writer.writerow([scope, group, repr(float(cell.rmse)), repr(float(cell.mae)), cell.rows])


def loop_write_seasonality(model, path) -> None:
    """seasonal.write_seasonality one pattern week at a time, categories sorted."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["category_id", "pattern_index", "week_of_year", "value"])
        for category in sorted(model.assignment):
            index = model.assignment[category]
            for week, value in enumerate(model.patterns[index]):
                writer.writerow([category, index, week, repr(float(value))])
