"""Gradient-boosted regression trees with Poisson and squared losses.

Trees are grown depth-first with exact greedy splits: every midpoint between
distinct feature values is scored by the second-order gain, with missing
values tried on both sides of each candidate split. The Poisson loss uses a
log link, so raw scores live in log space and forecasts exp(raw) are
strictly positive.

Split search follows the column block of XGBoost's exact greedy algorithm
(Chen & Guestrin 2016). Each column of the training matrix is stable-sorted
once into an int32 (p, n) array of row indices, NaN last: once per train()
call, reused by every boosting round, and once per forest tree. A tree
grows on a working copy of that array plus one row holding the row indices
in ascending order. Every node owns one contiguous range of positions in
it, so each row of the range lists the node's rows sorted by that feature;
a split stably partitions the range in place, which keeps both children
sorted. No node sorts anything.

Exactness: the search scores the node's block for all candidate features at
once, but every sum it forms is a sequential sum in the order the one-column
scan uses: left sums are np.cumsum along each sorted row (ties in row
order), missing-value sums run over the NaN tail in row order, and node
totals run over the rows in ascending order. The gains are therefore bit
for bit those of a scalar scan, which tests/oracles.py checks.

Memory: besides the presort and the per-tree working copy, the grower's
temporaries are a small multiple of max(SCRATCH_ELEMENTS, rows in the
node) elements, never features x rows, and none outlives its node. The
grower keeps its state in a loop with an explicit stack, not in recursive
frames or a recursive closure, so a fit leaves no reference cycle behind.

Settings: train() reads the boosting settings (loss, learning rate, depth,
rounds, min_split_loss, lambda, early-stopping patience) from the run's
RunConfig; train_forest() takes only a tree count, a depth and a seed.

Trees: a fitted tree is one numpy structured array of NODE_DTYPE, one
record per node in pre-order (feature, threshold, default_left, left,
right, weight, gain: the order model.json stores each node in). The grower
collects plain records and builds the array once; Tree.apply moves every
row that has not reached a leaf down one level per step, so it loops once
per level of depth, and makes the same comparisons as a node-by-node walk.

Model files: model_from_json() accepts only pre-order trees over the
model's features, so a malformed file is a SchemaError, never a hang.

Determinism contract: ties between candidate splits break toward the lowest
feature index, then the lowest threshold, then routing missing values left.
Nodes are numbered depth-first in pre-order, which is also the order in
which a forest's feature sampler is called. Training is strictly sequential
over rounds.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .features import FeatureMatrix
from .ingest import RunConfig, SchemaError

BASE_EPS = 1e-8
# elements per chunk of the split search and partition: chunks hold as many
# features (or working rows) as fit, and at least one
SCRATCH_ELEMENTS = 1 << 15


def grad_hess(loss: str, y: np.ndarray, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row gradient and hessian of the loss at raw score F.

    poisson (log link): g = e^F - y, h = e^F; squared: g = F - y, h = 1.
    """
    y = np.asarray(y, dtype=float)
    raw = np.asarray(raw, dtype=float)
    if not (np.isfinite(y).all() and np.isfinite(raw).all()):
        raise ValueError("grad_hess requires finite targets and scores")
    if loss == "poisson":
        if (y < 0).any():
            raise ValueError("poisson loss requires non-negative targets")
        mu = np.exp(raw)
        return mu - y, mu
    if loss == "squared":
        return raw - y, np.ones_like(raw)
    raise ValueError(f"unknown loss {loss!r}")


def loss_value(loss: str, y: np.ndarray, raw: np.ndarray) -> float:
    """Mean per-row loss; the quantity tracked for early stopping."""
    y = np.asarray(y, dtype=float)
    raw = np.asarray(raw, dtype=float)
    if loss == "poisson":
        return float(np.mean(np.exp(raw) - y * raw))
    if loss == "squared":
        return float(np.mean(0.5 * (raw - y) ** 2))
    raise ValueError(f"unknown loss {loss!r}")


def leaf_weight(g_sum: float, h_sum: float, reg_lambda: float) -> float:
    """Second-order optimal leaf value -G / (H + lambda)."""
    denom = h_sum + reg_lambda
    if denom <= 0:
        raise ValueError(f"H + lambda must be positive, got {denom}")
    return -g_sum / denom


@dataclass
class SplitCandidate:
    threshold: float
    gain: float          # gain net of min_split_loss
    default_left: bool


def best_split(
    values: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    reg_lambda: float,
    min_split_loss: float,
) -> SplitCandidate | None:
    """Best threshold on one feature column, or None if no split helps.

    values/g/h are the node's rows in row order; NaN values are missing and
    are routed left or right, whichever scores better (left on ties). The
    returned gain already has min_split_loss subtracted; None when it is
    not positive. This is the tree grower's block scorer applied to a
    one-feature block.
    """
    if len(values) == 0:
        return None
    order = np.argsort(values, kind="stable")
    found = _score_block(
        values[order][None],
        g[order][None],
        h[order][None],
        float(np.cumsum(g)[-1]),
        float(np.cumsum(h)[-1]),
        reg_lambda,
        min_split_loss,
    )
    if found is None:
        return None
    gain, _, threshold, default_left = found
    return SplitCandidate(threshold=threshold, gain=gain, default_left=default_left)


def _score_block(
    xv: np.ndarray,
    gv: np.ndarray,
    hv: np.ndarray,
    g_total: float,
    h_total: float,
    reg_lambda: float,
    min_split_loss: float,
) -> tuple[float, int, float, bool] | None:
    """Best split over a block of sorted feature rows, or None if none helps.

    Row r of xv holds one feature's values for a node's rows in stable
    ascending order with NaN last; gv/hv hold those rows' gradients and
    hessians in the same order. g_total/h_total are the node's sequential
    sums in row order. Returns (net gain, block row, threshold, missing
    left) for the first maximum in (row, threshold, missing-left) order.
    """
    m = xv.shape[1]
    flat = xv.ravel()
    # a candidate lies between adjacent values of one row; NaN compares false
    between = flat[:-1] < flat[1:]
    between[m - 1 :: m] = False  # pairs that straddle two rows
    pair = np.flatnonzero(between)
    lo_v = flat[pair]
    thresholds = (lo_v + flat[pair + 1]) / 2.0
    ok = lo_v < thresholds  # midpoint can collapse onto the left value
    if not ok.all():
        pair, thresholds = pair[ok], thresholds[ok]
    if pair.size == 0:
        return None

    gl = gv.cumsum(axis=1).ravel()[pair]
    hl = hv.cumsum(axis=1).ravel()[pair]
    g_miss = 0.0
    h_miss = 0.0
    tail = np.isnan(xv[:, -1])  # rows with missing values
    if tail.any():
        nan = np.isnan(xv[tail])
        rows = pair // m
        g_miss = np.zeros(xv.shape[0])
        h_miss = np.zeros(xv.shape[0])
        # -0.0 is the exact additive identity, so these are the tail's own sums
        g_miss[tail] = np.where(nan, gv[tail], -0.0).cumsum(axis=1)[:, -1]
        h_miss[tail] = np.where(nan, hv[tail], -0.0).cumsum(axis=1)[:, -1]
        g_miss = g_miss[rows]
        h_miss = h_miss[rows]

    base = g_total * g_total / (h_total + reg_lambda)

    def net_gain(gl: np.ndarray, hl: np.ndarray) -> np.ndarray:
        gr = g_total - gl
        hr = h_total - hl
        return (
            0.5 * (gl * gl / (hl + reg_lambda) + gr * gr / (hr + reg_lambda) - base)
            - min_split_loss
        )

    interleaved = np.empty(2 * pair.size)
    with np.errstate(invalid="ignore", divide="ignore"):
        interleaved[0::2] = net_gain(gl + g_miss, hl + h_miss)
        interleaved[1::2] = net_gain(gl, hl)
    # hessian sums can underflow to 0 with reg_lambda 0; those candidates are
    # undefined and must not shadow finite ones in the argmax
    interleaved[np.isnan(interleaved)] = -np.inf
    best = int(np.argmax(interleaved))
    if not interleaved[best] > 0:
        return None
    c = best // 2
    return float(interleaved[best]), int(pair[c] // m), float(thresholds[c]), best % 2 == 0


# one record per node, in pre-order; the fields in model.json's order
NODE_DTYPE = np.dtype([
    ("feature", np.int32),       # -1 marks a leaf
    ("threshold", np.float64),
    ("default_left", np.int8),   # 1 routes missing values left
    ("left", np.int32),          # child indices, -1 on leaves
    ("right", np.int32),
    ("weight", np.float64),      # leaf value, 0 on internal nodes
    ("gain", np.float64),        # raw split gain, >= min_split_loss on internals
])


@dataclass
class Tree:
    nodes: np.ndarray  # NODE_DTYPE records in pre-order, root first

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Leaf weight reached by each row of x.

        The rows not yet at a leaf move down one level per step, so the loop
        runs once per level of the tree, not once per node. A row goes left
        when its value is below the node's threshold, and a missing value
        goes the node's default way, as in a node-by-node walk.
        """
        nodes = self.nodes
        # contiguous intp tables and 1-D takes are numpy's fastest gathers
        feature = nodes["feature"].astype(np.intp)
        threshold = np.ascontiguousarray(nodes["threshold"])
        weight = np.ascontiguousarray(nodes["weight"])
        left, right = nodes["left"], nodes["right"]
        # child per (node, branch): branch 0 is a value below the threshold,
        # 1 a value not below it, 2 a missing value
        route = np.stack([left, right, np.where(nodes["default_left"] == 1, left, right)], axis=1)
        route = route.astype(np.intp).ravel()
        n, p = x.shape
        flat = np.ascontiguousarray(x).ravel()
        out = np.empty(n)
        rows = np.arange(n)
        node = np.zeros(n, dtype=np.intp)  # where each of rows is
        while rows.size:
            f = feature.take(node)
            leaf = f < 0
            if leaf.any():
                out[rows[leaf]] = weight.take(node[leaf])
                inner = np.flatnonzero(~leaf)
                rows, node, f = rows.take(inner), node.take(inner), f.take(inner)
            col = flat.take(rows * p + f)
            branch = 1 + np.isnan(col) - (col < threshold.take(node))
            node = route.take(3 * node + branch)
        return out


def presort_columns(x: np.ndarray) -> np.ndarray:
    """Row indices of each column of x in stable ascending order, NaN last.

    Returns an int32 (p, n) array; one column is sorted at a time, so no
    (n, p) index temporary is made.
    """
    n, p = x.shape
    order = np.empty((p, n), dtype=np.int32)
    for j in range(p):
        order[j] = np.argsort(x[:, j], kind="stable")
    return order


def fit_tree(
    x: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    max_depth: int,
    reg_lambda: float,
    min_split_loss: float,
    feature_sampler=None,
    order: np.ndarray | None = None,
    leaf_values: np.ndarray | None = None,
) -> Tree:
    """Grow one tree depth-first on the given gradients.

    feature_sampler, when set, returns the (ascending) candidate feature
    indices for each split; bagging uses it for per-split column subsampling.
    It is called once per node that may split, in pre-order.

    order is x's presort from presort_columns(x), sorted here when None;
    train() passes one presort to every round. The tree grows on a working
    copy of it, extended by a row of row indices in ascending order: each
    node is a position range [lo, hi) of that copy, whose rows list the
    node's rows sorted by each feature, and a split partitions the range
    stably in place. The search then scores the node's presorted block with
    sequential sums in the stable order, so trees equal those of a
    brute-force scan bit for bit. Memory is the presort, the working copy,
    one flag per row, and temporaries of a small multiple of
    max(SCRATCH_ELEMENTS, hi - lo) elements.

    leaf_values, when given, is a float array of len(x) that receives each
    row's leaf weight: tree.apply(x) without walking the tree again.
    """
    x = np.ascontiguousarray(x)  # the search gathers values by flat index
    n, p = x.shape
    if order is None:
        order = presort_columns(x)
    elif order.shape != (p, n):
        raise ValueError(f"presort has shape {order.shape}, expected {(p, n)}")
    work = np.empty((p + 1, n), dtype=np.int32)
    work[:p] = order
    work[p] = np.arange(n)  # the node's rows in ascending order
    goes_left = np.empty(n, dtype=bool)
    all_features = np.arange(p)
    records = []  # the NODE_DTYPE fields of each node, in pre-order
    # (lo, hi, depth, parent); a parent index marks a right child to link
    stack = [(0, n, 0, -1)]
    while stack:
        lo, hi, depth, parent = stack.pop()
        idx = len(records)
        if parent >= 0:
            records[parent][4] = idx
        rows = work[p, lo:hi]
        g_sum = float(g.take(rows).cumsum()[-1])
        h_sum = float(h.take(rows).cumsum()[-1])
        split = None
        if depth < max_depth and hi - lo >= 2:
            features = all_features if feature_sampler is None else np.asarray(feature_sampler(p))
            split = _search_node(
                x, g, h, work, lo, hi, features, g_sum, h_sum, reg_lambda, min_split_loss
            )
        if split is None:
            weight = leaf_weight(g_sum, h_sum, reg_lambda)
            records.append((-1, 0.0, 1, -1, -1, weight, 0.0))
            if leaf_values is not None:
                leaf_values[rows] = weight
            continue
        gain, feature, threshold, default_left = split
        # pre-order: the left child is numbered next; the right one is linked when popped
        records.append([feature, threshold, int(default_left), idx + 1, -1, 0.0, gain + min_split_loss])
        col = x[rows, feature]
        left = col < threshold
        if default_left:
            left |= np.isnan(col)
        goes_left[rows] = left
        n_left = int(np.count_nonzero(left))
        _partition(work, lo, hi, goes_left, n_left)
        stack.append((lo + n_left, hi, depth + 1, idx))
        stack.append((lo, lo + n_left, depth + 1, -1))
    return Tree(np.array(list(map(tuple, records)), dtype=NODE_DTYPE))


def _search_node(
    x, g, h, work, lo, hi, features, g_total, h_total, reg_lambda, min_split_loss
) -> tuple[float, int, float, bool] | None:
    """Best (net gain, feature, threshold, missing left) for one node, or None.

    Scores the features in chunks of at most SCRATCH_ELEMENTS block
    elements (at least one feature); a later chunk wins only with a
    strictly larger gain, so the first maximum in feature order is kept.
    """
    step = max(1, SCRATCH_ELEMENTS // (hi - lo))
    best = None
    for start in range(0, len(features), step):
        chunk = features[start : start + step]
        idx = work[chunk, lo:hi]
        flat = np.multiply(idx, x.shape[1], dtype=np.intp)
        flat += chunk[:, None]
        found = _score_block(
            x.take(flat), g.take(idx), h.take(idx), g_total, h_total, reg_lambda, min_split_loss
        )
        if found is not None and (best is None or found[0] > best[0]):
            gain, r, threshold, default_left = found
            best = (gain, int(chunk[r]), threshold, default_left)
    return best


def _partition(work: np.ndarray, lo: int, hi: int, goes_left: np.ndarray, n_left: int) -> None:
    """Stable in-place partition of columns lo:hi of every row of work.

    Rows flagged in goes_left move to lo:lo + n_left, the rest follow; each
    side keeps its order, so each row stays sorted by its feature.
    """
    step = max(1, SCRATCH_ELEMENTS // (hi - lo))
    for start in range(0, work.shape[0], step):
        seg = work[start : start + step, lo:hi]
        mask = goes_left[seg]
        left = seg[mask]
        right = seg[~mask]
        seg[:, :n_left] = left.reshape(seg.shape[0], n_left)
        seg[:, n_left:] = right.reshape(seg.shape[0], hi - lo - n_left)


@dataclass
class BoostedModel:
    """Fitted ensemble; prediction uses trees[0..best_round) only."""

    loss: str
    base_score: float
    learning_rate: float
    feature_names: list[str]
    trees: list[Tree]
    best_round: int
    train_loss: list[float] = field(default_factory=list, repr=False)
    valid_loss: list[float] = field(default_factory=list, repr=False)

    def predict_raw(self, x: np.ndarray) -> np.ndarray:
        raw = np.full(x.shape[0], self.base_score)
        for tree in self.trees[: self.best_round]:
            raw += self.learning_rate * tree.apply(x)
        return raw

    def predict_array(self, x: np.ndarray) -> np.ndarray:
        raw = self.predict_raw(x)
        return np.exp(raw) if self.loss == "poisson" else raw


def train(
    matrix: FeatureMatrix,
    config: RunConfig,
    valid: FeatureMatrix | None = None,
) -> BoostedModel:
    """Boost up to config.rounds trees with early stopping on valid loss.

    Reads the config's loss, learning_rate, max_depth, rounds,
    min_split_loss, reg_lambda and early_stop_patience; bounds are checked
    where the config is loaded (RunConfig.validate), not here. Loss
    histories are recorded per round starting from the base-only model;
    best_round is the first round attaining the minimum validation loss.
    """
    if matrix.n_rows == 0:
        raise ValueError("cannot train on an empty matrix")
    if matrix.targets is None:
        raise ValueError("training matrix has no targets")
    if valid is not None and valid.columns != matrix.columns:
        raise ValueError("train and validation matrices must share the feature schema")
    if valid is not None and valid.targets is None:
        raise ValueError("validation matrix has no targets")
    y = matrix.targets
    if config.loss == "poisson":
        if (y < 0).any():
            raise ValueError("poisson loss requires non-negative targets")
        base = math.log(float(y.mean()) + BASE_EPS)
    else:
        base = float(y.mean())

    raw = np.full(matrix.n_rows, base)
    raw_valid = np.full(valid.n_rows, base) if valid is not None else None
    train_hist = [loss_value(config.loss, y, raw)]
    valid_hist = []
    if valid is not None:
        valid_hist.append(loss_value(config.loss, valid.targets, raw_valid))
    trees: list[Tree] = []
    best_valid = valid_hist[0] if valid_hist else math.inf
    best_round = 0
    stale = 0
    order = presort_columns(matrix.X)
    leaf_values = np.empty(matrix.n_rows)
    for _ in range(config.rounds):
        g, h = grad_hess(config.loss, y, raw)
        tree = fit_tree(
            matrix.X, g, h, config.max_depth, config.reg_lambda, config.min_split_loss,
            order=order, leaf_values=leaf_values,
        )
        trees.append(tree)
        raw = raw + config.learning_rate * leaf_values
        train_hist.append(loss_value(config.loss, y, raw))
        if valid is not None:
            raw_valid = raw_valid + config.learning_rate * tree.apply(valid.X)
            current = loss_value(config.loss, valid.targets, raw_valid)
            valid_hist.append(current)
            if current < best_valid:
                best_valid = current
                best_round = len(trees)
                stale = 0
            else:
                stale += 1
                if stale >= config.early_stop_patience:
                    break
    if valid is None:
        best_round = len(trees)
    return BoostedModel(
        loss=config.loss,
        base_score=base,
        learning_rate=config.learning_rate,
        feature_names=list(matrix.columns),
        trees=trees,
        best_round=best_round,
        train_loss=train_hist,
        valid_loss=valid_hist,
    )


def predict(model: BoostedModel, matrix: FeatureMatrix) -> np.ndarray:
    """Forecast per row; raises if the matrix schema differs from training."""
    if matrix.columns != model.feature_names:
        raise ValueError(
            f"feature schema mismatch: model expects {model.feature_names}, "
            f"matrix has {matrix.columns}"
        )
    return model.predict_array(matrix.X)


@dataclass
class ForestModel:
    feature_names: list[str]
    trees: list[Tree]

    def predict_array(self, x: np.ndarray) -> np.ndarray:
        total = np.zeros(x.shape[0])
        for tree in self.trees:
            total += tree.apply(x)
        return total / len(self.trees)


def train_forest(matrix: FeatureMatrix, n_trees: int, max_depth: int, seed: int) -> ForestModel:
    """Bagged regression trees up to max_depth (squared loss, mean leaves).

    Each tree sees a bootstrap resample and sqrt(p) random features per
    split; both draws come from one seeded generator, so results are
    reproducible. Leaves are unregularized (lambda 0) and any split that
    lowers the loss is taken (min_split_loss 0).
    """
    if n_trees < 1:
        raise ValueError(f"a forest needs at least one tree, got n_trees={n_trees}")
    if matrix.n_rows == 0:
        raise ValueError("cannot train on an empty matrix")
    if matrix.targets is None:
        raise ValueError("training matrix has no targets")
    rng = np.random.default_rng(seed)
    n = matrix.n_rows
    p = matrix.X.shape[1]
    n_sub = max(1, int(math.isqrt(p)))
    trees: list[Tree] = []
    sampler = None
    if n_sub < p:
        def sampler(n_features):
            return np.sort(rng.choice(n_features, size=n_sub, replace=False))
    for _ in range(n_trees):
        rows = np.sort(rng.integers(0, n, size=n))
        y = matrix.targets[rows]
        trees.append(
            fit_tree(matrix.X[rows], -y, np.ones_like(y), max_depth, 0.0, 0.0, feature_sampler=sampler)
        )
    return ForestModel(feature_names=list(matrix.columns), trees=trees)


SERIAL_VERSION = 1


def model_to_json(model: BoostedModel) -> str:
    """Versioned text form of a boosted model; round-trips bit-exactly."""
    doc = {
        "version": SERIAL_VERSION,
        "loss": model.loss,
        "base_score": model.base_score,
        "learning_rate": model.learning_rate,
        "best_round": model.best_round,
        "feature_names": model.feature_names,
        "trees": [tree.nodes.tolist() for tree in model.trees],
    }
    return json.dumps(doc)


def model_from_json(text: str | bytes, source: str = "model") -> BoostedModel:
    """Parse model_to_json output; source names the file in errors.

    Anything else is a SchemaError naming source: not JSON, not an object,
    another version, a missing key or a key of the wrong type.

    Every tree is checked to be a pre-order tree over the model's features
    (a left child follows its parent, a right child lies further on, every
    node but the root has one parent), so apply() walks each tree forward
    and visits each node at most once per call. The loss must be one train
    knows, the learning rate a finite number above 0, the base score and
    node weights and gains finite numbers, thresholds numbers other than
    NaN, and default_left the integer 0 or 1.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also undecodable bytes, too deep nesting
        raise SchemaError(f"{source}: not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{source}: expected a JSON object, got {type(doc).__name__}")
    version = doc.get("version")
    if type(version) is not int or version != SERIAL_VERSION:
        raise SchemaError(f"{source}: unsupported model version {version!r}")
    keys = ("loss", "learning_rate", "base_score", "best_round", "feature_names", "trees")
    try:
        loss, rate, base, best_round, names, tree_docs = (doc[key] for key in keys)
    except KeyError as exc:
        raise SchemaError(f"{source}: missing key {exc}") from None
    if loss not in ("poisson", "squared"):
        raise SchemaError(f"{source}: unknown loss {loss!r}")
    if not (_finite(rate) and rate > 0):
        raise SchemaError(f"{source}: learning_rate {rate!r} is not a finite number above 0")
    if not _finite(base):
        raise SchemaError(f"{source}: base_score {base!r} is not a finite number")
    if not (isinstance(names, list) and all(type(name) is str for name in names)):
        raise SchemaError(f"{source}: feature_names is not a list of strings")
    if not isinstance(tree_docs, list):
        raise SchemaError(f"{source}: trees is not a list")
    trees = [
        _tree_from_json(nodes, len(names), f"{source}: tree {t}")
        for t, nodes in enumerate(tree_docs)
    ]
    if type(best_round) is not int or not 0 <= best_round <= len(trees):
        raise SchemaError(f"{source}: best_round {best_round!r} outside [0, {len(trees)}]")
    return BoostedModel(
        loss=loss,
        base_score=base,
        learning_rate=rate,
        feature_names=names,
        trees=trees,
        best_round=best_round,
    )


def _finite(value) -> bool:
    # an int too large for a float compares above the largest float, so it fails too
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _tree_from_json(rows: list, n_features: int, where: str) -> Tree:
    if not isinstance(rows, list) or not rows:
        raise SchemaError(f"{where}: expected a non-empty list of nodes")
    for idx, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 7:
            raise SchemaError(f"{where} node {idx}: expected 7 fields")
        feature, threshold, default_left, left, right, weight, gain = row
        if {type(feature), type(left), type(right)} != {int}:
            problem = "feature and child indices must be integers"
        elif type(default_left) is not int or default_left not in (0, 1):
            problem = f"default_left {default_left!r} is not 0 or 1"
        elif not _finite(weight):
            problem = f"weight {weight!r} is not a finite number"
        elif not (_finite(threshold) or type(threshold) is float and math.isinf(threshold)):
            problem = f"threshold {threshold!r} is not a number"
        elif not _finite(gain):
            problem = f"gain {gain!r} is not a finite number"
        elif feature == -1:
            problem = None if left == right == -1 else f"a leaf has children {left}/{right}"
        elif not 0 <= feature < n_features:
            problem = f"feature {feature} outside [0, {n_features})"
        elif left != idx + 1 or not idx + 1 < right < len(rows):
            problem = f"children {left}/{right} do not follow the node in pre-order"
        else:
            problem = None
        if problem:
            raise SchemaError(f"{where} node {idx}: {problem}")
    nodes = np.array(list(map(tuple, rows)), dtype=NODE_DTYPE)
    internal = nodes[nodes["feature"] >= 0]
    parents = np.bincount(np.concatenate([internal["left"], internal["right"]]), minlength=len(rows))
    shared = np.flatnonzero(parents[1:] != 1)
    if shared.size:
        j = int(shared[0]) + 1
        raise SchemaError(f"{where} node {j}: has {parents[j]} parents, expected 1")
    return Tree(nodes)


def save_model(model: BoostedModel, path: str | Path) -> None:
    Path(path).write_text(model_to_json(model))


def load_model(path: str | Path) -> BoostedModel:
    return model_from_json(Path(path).read_bytes(), str(path))
