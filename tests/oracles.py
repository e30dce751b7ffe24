"""Independent reference implementations the tests check production code against.

Everything here is written for clarity over speed: plain loops, brute-force
enumeration, no shared code with the package internals beyond numpy.
"""

from __future__ import annotations

import math

import numpy as np


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
        mean = sum(obs) / len(obs)
        var = sum((v - mean) ** 2 for v in obs) / len(obs)
        std = math.sqrt(var)
        means[t] = mean
        stds[t] = std
        cap = mean + gamma * std
        if float(y[t]) > cap:
            x[t] = cap
            capped[t] = True
    return x, capped, means, stds


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
    total = 0.0
    for v in values:
        total = total + float(v)
    return total


def oracle_best_split(values, g, h, reg_lambda, min_split_loss):
    """Exhaustive candidate enumeration for one feature column.

    Walks every boundary between distinct sorted present values and both
    missing-value routings, accumulating left statistics sequentially in
    sorted order. Preference on ties: lowest threshold, then missing left.
    Returns (threshold, net_gain, default_left) or None.
    """
    g_total = _seq_sum(g)
    h_total = _seq_sum(h)
    present = [k for k in range(len(values)) if not math.isnan(values[k])]
    if not present:
        return None
    missing = [k for k in range(len(values)) if math.isnan(values[k])]
    g_miss = _seq_sum(g[k] for k in missing)
    h_miss = _seq_sum(h[k] for k in missing)
    order = sorted(present, key=lambda k: values[k])  # stable: ties keep row order
    base = g_total * g_total / (h_total + reg_lambda)
    best = None
    gl = 0.0
    hl = 0.0
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

    feature_sampler, when set, picks each node's candidate features; it is
    called in pre-order at every node that may split, as the grower does.
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
        if depth < max_depth and len(rows) >= 2:
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
    """One covariate cell by the documented imputation rule."""
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


def rowwise_build_matrix(
    panel, smoothed, catalog, seasonal_model, covariates, config, t_end, mode,
    lag_depth, annual=(52, 8), local=(8, 3),
):
    """Per-row feature matrix: (keys, columns, X, targets, life_at_forecast).

    Rows are (product, on-sale week t <= t_end) in product-major, week
    ascending order (predict mode: week t_end only). Categorical codes come
    from sorted distinct values (unseen value -> count) or FNV-1a buckets;
    annual/local are (window, min points) of the two trend slopes.
    """
    h = config.horizon
    attr_names = sorted({k for attrs in catalog.attributes.values() for k in attrs})
    cov_names = sorted(covariates.temporal) + sorted(covariates.mixed) if covariates else []
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

    keys, rows, targets, life = [], [], [], []
    for i, pid in enumerate(panel.products):
        listed = [t for t in range(panel.n_weeks) if panel.on_sale_mask[i, t]]
        if not listed or listed[0] > t_end:
            continue
        launch = listed[0]
        weeks = [t for t in listed if t <= t_end] if mode == "train" else [t_end] if t_end in listed else []
        for t in weeks:
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
            keys.append((pid, t + h))
            life.append(sum(1 for s in listed if s <= t))
            if mode == "train":
                targets.append(float(panel.y[i, t + h]))
    x = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    return keys, columns, x, np.array(targets) if mode == "train" else None, np.array(life)
