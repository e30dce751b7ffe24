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
    t_count = len(y)
    x = [float(v) for v in y]
    capped = [False] * t_count
    for t in range(t_count):
        obs = []
        for s in range(max(0, t - window), t):
            if on_sale[s]:
                obs.append(float(y[s]))
        if len(obs) < 2:
            continue
        mean = sum(obs) / len(obs)
        var = sum((v - mean) ** 2 for v in obs) / len(obs)
        cap = mean + gamma * math.sqrt(var)
        if float(y[t]) > cap:
            x[t] = cap
            capped[t] = True
    return x, capped


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
