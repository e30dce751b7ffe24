import base64
import gc
import hashlib
import json
import math
import re
import sys
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from demandcast import gbt
from demandcast.features import Encoding, FeatureMatrix
from demandcast.ingest import RunConfig, SchemaError
from demandcast.seasonal import SeasonalityModel
from demandcast.gbt import (
    NODE_DTYPE,
    BoostedModel,
    ForestModel,
    ServingState,
    Tree,
    fit_tree,
    grad_hess,
    leaf_weight,
    loss_value,
    model_from_json,
    model_to_json,
    predict,
    train,
    train_forest,
)

from .oracles import (
    choice_sampler,
    finite_diff_grad_hess,
    oracle_apply,
    oracle_best_split,
    oracle_fit_tree,
    poisson_pointwise,
    squared_pointwise,
)


def matrix_of(x, y=None, columns=None):
    x = np.asarray(x, dtype=float)
    columns = columns or [f"f{j}" for j in range(x.shape[1])]
    return FeatureMatrix(
        product_ids=np.array([f"r{i}" for i in range(x.shape[0])], dtype=object),
        target_weeks=np.arange(x.shape[0]),
        columns=columns,
        X=x,
        targets=None if y is None else np.asarray(y, dtype=float),
    )


class TestGradHess:
    def test_poisson_stationary_point(self):
        g, h = grad_hess("poisson", np.array([1.0]), np.array([0.0]))
        assert (g[0], h[0]) == (0.0, 1.0)

    def test_poisson_log2(self):
        g, h = grad_hess("poisson", np.array([1.0]), np.array([math.log(2.0)]))
        assert g[0] == pytest.approx(1.0)
        assert h[0] == pytest.approx(2.0)

    def test_squared(self):
        g, h = grad_hess("squared", np.array([5.0]), np.array([3.0]))
        assert (g[0], h[0]) == (-2.0, 1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            grad_hess("squared", np.array([np.nan]), np.array([0.0]))

    def test_poisson_negative_target_rejected(self):
        with pytest.raises(ValueError):
            grad_hess("poisson", np.array([-1.0]), np.array([0.0]))

    @pytest.mark.parametrize("loss,pointwise", [
        ("poisson", poisson_pointwise),
        ("squared", squared_pointwise),
    ])
    def test_matches_finite_differences(self, loss, pointwise):
        ys = np.arange(10, dtype=float)
        raws = np.linspace(-2.0, 2.0, 10)
        for y in ys:
            for raw in raws:
                g, h = grad_hess(loss, np.array([y]), np.array([raw]))
                g_ref, h_ref = finite_diff_grad_hess(pointwise, y, raw)
                assert g[0] == pytest.approx(g_ref, rel=1e-6, abs=1e-9)
                assert h[0] == pytest.approx(h_ref, rel=1e-6, abs=1e-9)


class TestLeafWeight:
    def test_zero_gradient(self):
        assert leaf_weight(0.0, 3.0, 1.0) == 0.0

    def test_exact_fit_value(self):
        assert leaf_weight(-20.0, 2.0, 0.0) == 10.0

    def test_shrinks_with_lambda(self):
        weights = [abs(leaf_weight(-20.0, 2.0, lam)) for lam in (0.0, 1.0, 10.0, 1e6)]
        assert weights == sorted(weights, reverse=True)
        assert weights[-1] == pytest.approx(0.0, abs=1e-4)

    def test_nonpositive_denominator(self):
        with pytest.raises(ValueError):
            leaf_weight(1.0, -2.0, 1.0)


def root_split(values, g, h, reg_lambda, min_split_loss):
    """Root record of a depth-1 fit_tree on the one feature column values,
    None when the root is a leaf; checked against oracle_best_split, whose
    net gain plus min_split_loss is the root's stored (raw) gain."""
    tree = grow_tree(values[:, None], g, h, 1, reg_lambda, min_split_loss)
    root = tree.nodes[0]
    expected = oracle_best_split(values, g, h, reg_lambda, min_split_loss)
    if root["feature"] < 0:
        assert expected is None
        return None
    threshold, net_gain, default_left = expected
    assert root["threshold"] == threshold
    assert root["gain"] == net_gain + min_split_loss
    assert bool(root["default_left"]) == default_left
    return root


class TestBestSplit:
    """The split search, through the root of a depth-1 tree on one feature."""

    def test_textbook_split(self):
        x = np.array([0.0, 0.0, 1.0, 1.0])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        g, h = grad_hess("squared", y, np.zeros(4))
        root = root_split(x, g, h, reg_lambda=0.0, min_split_loss=0.0)
        assert root["threshold"] == 0.5
        assert root["gain"] == 50.0
        left = leaf_weight(g[:2].sum(), h[:2].sum(), 0.0)
        right = leaf_weight(g[2:].sum(), h[2:].sum(), 0.0)
        assert (left, right) == (0.0, 10.0)

    def test_equal_targets_no_split(self):
        y = np.full(4, 7.0)
        g, h = grad_hess("squared", y, np.full(4, 7.0))
        assert root_split(np.array([0.0, 1.0, 2.0, 3.0]), g, h, 0.0, 0.0) is None

    def test_min_split_loss_blocks(self):
        x = np.array([0.0, 0.0, 1.0, 1.0])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        g, h = grad_hess("squared", y, np.zeros(4))
        assert root_split(x, g, h, 0.0, min_split_loss=60.0) is None
        assert root_split(x, g, h, 0.0, min_split_loss=49.0)["gain"] - 49.0 == pytest.approx(1.0)

    def test_missing_routed_where_it_helps(self):
        # the NaN row carries a strong positive gradient: grouping it with the
        # high-target side (right) must win
        x = np.array([0.0, 0.0, 1.0, 1.0, np.nan])
        y = np.array([0.0, 0.0, 10.0, 10.0, 10.0])
        g, h = grad_hess("squared", y, np.zeros(5))
        root = root_split(x, g, h, 0.0, 0.0)
        assert root is not None
        assert not root["default_left"]

    def test_missing_defaults_left_on_tie(self):
        # no missing values at all: both routings identical, prefer left
        x = np.array([0.0, 1.0])
        g = np.array([1.0, -1.0])
        h = np.array([1.0, 1.0])
        assert root_split(x, g, h, 0.0, 0.0)["default_left"]

    def test_all_equal_values_no_split(self):
        g = np.array([1.0, -1.0])
        h = np.array([1.0, 1.0])
        assert root_split(np.array([3.0, 3.0]), g, h, 0.0, 0.0) is None


class TestTieBreaking:
    def test_duplicate_features_pick_lowest_index(self):
        # integer-exact data: both columns produce bit-identical gains
        col = np.array([0.0, 0.0, 1.0, 1.0])
        x = np.stack([col, col], axis=1)
        y = np.array([0.0, 0.0, 8.0, 8.0])
        g, h = grad_hess("squared", y, np.zeros(4))
        tree = grow_tree(x, g, h, max_depth=1, reg_lambda=0.0, min_split_loss=0.0)
        assert tree.nodes["feature"][0] == 0

    def test_equal_gain_thresholds_pick_lowest(self):
        # symmetric integer targets: splitting at 0.5 and 2.5 give equal gain
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([8.0, 0.0, 0.0, 8.0])
        g, h = grad_hess("squared", y, np.zeros(4))
        tree = grow_tree(x, g, h, max_depth=1, reg_lambda=0.0, min_split_loss=0.0)
        assert tree.nodes["threshold"][0] == 0.5


class TestTrain:
    def test_depth_zero_single_leaf_predicts_mean(self):
        matrix = matrix_of(np.arange(8).reshape(4, 2), y=[1.0, 2.0, 3.0, 6.0])
        params = RunConfig(loss="squared", learning_rate=1.0, max_depth=0, rounds=1, min_split_loss=0.0)
        model = train(matrix, params, matrix)
        assert np.allclose(model.predict_array(matrix.X), 3.0)

    def test_poisson_constant_target_first_tree_noop(self):
        matrix = matrix_of(np.arange(12).reshape(6, 2), y=[4.0] * 6)
        params = RunConfig(loss="poisson", learning_rate=1.0, max_depth=3, rounds=1, min_split_loss=0.0)
        model = train(matrix, params, matrix)
        assert model.base_score == pytest.approx(math.log(4.0), abs=1e-8)
        g, _ = grad_hess("poisson", matrix.targets, np.full(6, model.base_score))
        assert np.abs(g).sum() <= 1e-6 * 6
        assert np.abs(model.trees[0].apply(matrix.X)).max() <= 1e-6

    def test_training_loss_monotone(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(80, 4))
        lam = np.exp(0.5 + 0.8 * x[:, 0] - 0.5 * x[:, 2])
        y = rng.poisson(lam).astype(float)
        matrix = matrix_of(x, y=y)
        params = RunConfig(
            loss="poisson", learning_rate=0.3, max_depth=3, rounds=30, reg_lambda=1.0,
            min_split_loss=0.0,
        )
        model = train(matrix, params, matrix)
        assert len(model.trees) == params.rounds
        diffs = np.diff(model.train_loss)
        assert (diffs <= 1e-9).all()

    def test_train_loss_tracks_round_by_round_scores(self):
        # train() adds each tree's leaf weights from the grower, not from
        # tree.apply; the recorded losses must equal the applied model's
        rng = np.random.default_rng(14)
        x = rng.normal(size=(90, 4))
        x[:, 1] = np.round(x[:, 1])
        x[rng.random(x.shape) < 0.1] = np.nan
        y = rng.poisson(np.exp(0.4 + 0.6 * np.nan_to_num(x[:, 0]))).astype(float)
        matrix = matrix_of(x, y=y)
        params = RunConfig(loss="poisson", learning_rate=0.3, max_depth=4, rounds=12, min_split_loss=0.0)
        model = train(matrix, params, matrix)
        assert len(model.trees) == params.rounds
        raw = np.full(len(y), model.base_score)
        assert model.train_loss[0] == loss_value("poisson", y, raw)
        for k, tree in enumerate(model.trees, start=1):
            raw = raw + params.learning_rate * tree.apply(x)
            assert model.train_loss[k] == loss_value("poisson", y, raw)
        assert len(model.train_loss) == len(model.trees) + 1

    def test_fit_tree_leaves_no_reference_cycles(self):
        # cyclic garbage would keep each fit's buffers alive until the
        # collector runs, which the training loop cannot afford
        rng = np.random.default_rng(15)
        x, y = random_matrix(rng, max_rows=40)
        g, h = grad_hess("squared", y, np.zeros(len(y)))
        gc.disable()
        try:
            gc.collect()
            grow_tree(x, g, h, max_depth=4, reg_lambda=1.0, min_split_loss=0.0)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_empty_matrix_rejected(self):
        matrix = matrix_of(np.empty((0, 2)), y=[])
        with pytest.raises(ValueError, match="empty"):
            train(matrix, RunConfig(rounds=100, min_split_loss=0.0), matrix)

    def test_empty_validation_matrix_rejected(self):
        matrix = matrix_of([[0.0], [1.0]], y=[1.0, 2.0])
        valid = matrix_of(np.empty((0, 1)), y=[])
        with pytest.raises(ValueError, match="^cannot validate on an empty matrix$"):
            train(matrix, RunConfig(rounds=100, min_split_loss=0.0), valid)

    def test_poisson_negative_targets_rejected(self):
        matrix = matrix_of([[0.0], [1.0]], y=[-1.0, 2.0])
        with pytest.raises(ValueError, match="non-negative"):
            train(matrix, RunConfig(loss="poisson", rounds=100, min_split_loss=0.0), matrix)


class TestEarlyStopping:
    def build(self, seed=1):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(120, 3))
        y = 2.0 + x[:, 0] + rng.normal(scale=2.0, size=120)
        return matrix_of(x[:80], y=y[:80]), matrix_of(x[80:], y=y[80:])

    def test_best_round_is_argmin_of_valid_loss(self):
        train_m, valid_m = self.build()
        params = RunConfig(
            loss="squared", learning_rate=0.3, max_depth=3, rounds=200,
            reg_lambda=0.0, early_stop_patience=10, min_split_loss=0.0,
        )
        model = train(train_m, params, valid_m)
        losses = np.array(model.valid_loss)
        assert model.best_round == int(np.argmin(losses))
        assert losses[model.best_round] == losses.min()
        # stopping happened before the full budget once the patience ran out
        assert len(model.trees) < 200
        assert len(model.trees) - model.best_round == 10

    def test_prediction_uses_best_prefix(self):
        train_m, valid_m = self.build(seed=2)
        params = RunConfig(
            loss="squared", learning_rate=0.3, max_depth=3, rounds=60,
            reg_lambda=0.0, early_stop_patience=8, min_split_loss=0.0,
        )
        model = train(train_m, params, valid_m)
        manual = np.full(valid_m.n_rows, model.base_score)
        for tree in model.trees[: model.best_round]:
            manual += model.learning_rate * tree.apply(valid_m.X)
        assert np.array_equal(model.predict_array(valid_m.X), manual)

    def test_non_finite_validation_loss_is_divergence(self, monkeypatch):
        # a model file holds finite loss histories only, so no fit may record another
        train_m, valid_m = self.build()
        original, calls = gbt.loss_value, []

        def loss_value(loss, y, raw):
            calls.append(y is valid_m.targets)
            return math.inf if calls.count(True) == 3 else original(loss, y, raw)

        monkeypatch.setattr(gbt, "loss_value", loss_value)
        params = RunConfig(loss="squared", learning_rate=0.3, rounds=10, min_split_loss=0.0)
        with pytest.raises(ValueError, match="^training diverged in round 2: the validation loss is inf "):
            train(train_m, params, valid_m)


class TestPredict:
    def test_zero_tree_model_returns_exp_base(self):
        model = BoostedModel(
            loss="poisson", base_score=math.log(3.0), learning_rate=0.1,
            feature_names=["f0"], trees=[], best_round=0, train_loss=[], valid_loss=[],
        )
        matrix = matrix_of([[1.0], [2.0]])
        assert np.allclose(predict(model, matrix), 3.0)

    def test_exact_fit_toy_model(self):
        matrix = matrix_of([[0.0], [0.0], [1.0], [1.0]], y=[0.0, 0.0, 10.0, 10.0])
        params = RunConfig(
            loss="squared", learning_rate=1.0, max_depth=1, rounds=1, reg_lambda=0.0,
            min_split_loss=0.0,
        )
        model = train(matrix, params, matrix)
        assert model.trees[0].nodes["threshold"][0] == 0.5
        assert predict(model, matrix).tolist() == [0.0, 0.0, 10.0, 10.0]

    def test_missing_routed_by_stored_default(self):
        tree = Tree(np.array(
            [(0, 0.5, 0, 1, 2, 0.0, 1.0), (-1, 0.0, 1, -1, -1, -1.0, 0.0),
             (-1, 0.0, 1, -1, -1, 4.0, 0.0)],
            dtype=NODE_DTYPE,
        ))
        out = tree.apply(np.array([[np.nan], [0.0], [1.0]]))
        assert out.tolist() == [4.0, -1.0, 4.0]

    def test_schema_mismatch_rejected(self):
        model = BoostedModel(
            loss="squared", base_score=0.0, learning_rate=0.1,
            feature_names=["a", "b"], trees=[], best_round=0, train_loss=[], valid_loss=[],
        )
        with pytest.raises(ValueError) as err:
            predict(model, matrix_of([[1.0]], columns=["a"]), "m.json")
        assert str(err.value) == "m.json: feature schema mismatch: model expects ['a', 'b'], matrix has ['a']"

    def test_poisson_predictions_strictly_positive(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 3))
        y = rng.poisson(np.exp(0.3 * x[:, 0])).astype(float)
        matrix = matrix_of(x, y=y)
        params = RunConfig(loss="poisson", rounds=20, learning_rate=0.3, max_depth=3, min_split_loss=0.0)
        model = train(matrix, params, matrix)
        assert (predict(model, matrix) > 0).all()


def random_tree(rng, n_features, max_depth):
    """A random pre-order tree; thresholds on a half-unit grid or +-inf."""
    records = []

    def grow(depth):
        idx = len(records)
        records.append(None)
        if depth == max_depth or rng.random() < 0.2:
            records[idx] = (-1, 0.0, 1, -1, -1, float(rng.normal()), 0.0)
            return idx
        draw = rng.random()
        threshold = -math.inf if draw < 0.1 else math.inf if draw < 0.2 else round(rng.normal() * 2) / 2
        feature, default_left = int(rng.integers(n_features)), int(rng.integers(2))
        left = grow(depth + 1)
        records[idx] = (feature, threshold, default_left, left, grow(depth + 1), 0.0, 1.0)
        return idx

    grow(0)
    return Tree(np.array(records, dtype=NODE_DTYPE))


class TestApply:
    def test_matches_node_by_node_walk(self):
        # apply moves all rows one level per step; the oracle walks one node
        # at a time, so both must reach the same leaf for every row
        rng = np.random.default_rng(17)
        covered = set()
        for trial in range(60):
            p = int(rng.integers(1, 4))
            tree = random_tree(rng, p, 0 if trial == 0 else int(rng.integers(1, 8)))
            n = 0 if trial == 1 else int(rng.integers(1, 80))
            x = np.round(rng.normal(size=(n, p)) * 2) / 2  # ties with the thresholds
            x[rng.random(x.shape) < 0.2] = np.nan
            x[rng.random(x.shape) < 0.05] = np.inf
            x[rng.random(x.shape) < 0.05] = -np.inf
            out = tree.apply(x)
            assert out.dtype == np.float64 and out.shape == (n,)
            assert out.tolist() == oracle_apply(tree.nodes, x).tolist()
            internal = tree.nodes[tree.nodes["feature"] >= 0]
            covered.update(("missing left", "missing right")[1 - d] for d in internal["default_left"])
            covered.update(f"threshold {t}" for t in internal["threshold"] if math.isinf(t))
            if internal.size == 0:
                covered.add("single leaf")
            if n == 0:
                covered.add("no rows")
        assert covered == {
            "missing left", "missing right", "threshold inf", "threshold -inf", "single leaf", "no rows",
        }


def ensemble_case(rng, max_trees=7):
    """(trees, x): 1 to max_trees random trees over p <= 3 features, some of
    them single leaves and some thresholds -0.0, and up to 60 rows on the
    thresholds' half-unit grid with NaN, +-inf, -0.0 and 0.0 cells."""
    p = int(rng.integers(1, 4))
    trees = []
    for _ in range(int(rng.integers(1, max_trees + 1))):
        tree = random_tree(rng, p, int(rng.integers(0, 8)))
        internal = tree.nodes["feature"] >= 0
        tree.nodes["threshold"][internal & (rng.random(len(tree.nodes)) < 0.2)] = -0.0
        trees.append(tree)
    x = np.round(rng.normal(size=(int(rng.integers(1, 60)), p)) * 2) / 2
    for value, share in ((np.nan, 0.2), (np.inf, 0.05), (-np.inf, 0.05), (-0.0, 0.1), (0.0, 0.1)):
        x[rng.random(x.shape) < share] = value
    return trees, x


class TestApplyTrees:
    # _apply_trees moves every (tree, row) pair down one level per step, in
    # blocks of at most SCRATCH_ELEMENTS pairs; each of its rows must be
    # the node-by-node walk of its tree, bit for bit, and both models add
    # those rows in tree order
    @pytest.mark.parametrize("scratch", [7, 64, 1 << 16])
    @pytest.mark.parametrize("layout", ["F", "C"])
    def test_each_row_equals_the_node_walk(self, monkeypatch, scratch, layout):
        monkeypatch.setattr(gbt, "SCRATCH_ELEMENTS", scratch)
        rng = np.random.default_rng(23)
        covered = set()
        for _ in range(40):
            trees, x = ensemble_case(rng)
            x = np.asfortranarray(x) if layout == "F" else np.ascontiguousarray(x)
            out = gbt._apply_trees(trees, x)
            assert out.dtype == np.float64 and out.shape == (len(trees), len(x))
            for tree, leaves in zip(trees, out):
                assert leaves.tobytes() == oracle_apply(tree.nodes, x).tobytes()
            nodes = np.concatenate([tree.nodes for tree in trees])
            internal = nodes[nodes["feature"] >= 0]
            covered.update(("missing left", "missing right")[1 - d] for d in internal["default_left"])
            covered.update(f"threshold {float(t)!r}" for t in internal["threshold"] if t == 0 or math.isinf(t))
            if any(len(tree.nodes) == 1 for tree in trees):
                covered.add("single leaf")
            if any(k * scratch % len(x) for k in range(1, out.size // scratch + 1)):
                covered.add("block ends inside a tree")
        expected = {
            "missing left", "missing right", "threshold -0.0", "threshold 0.0", "threshold inf",
            "threshold -inf", "single leaf",
        }
        assert covered - {"block ends inside a tree"} == expected
        assert ("block ends inside a tree" in covered) == (scratch < 1 << 16)

    def test_no_trees_or_no_rows(self):
        rng = np.random.default_rng(24)
        trees, _ = ensemble_case(rng)
        assert gbt._apply_trees([], np.zeros((5, 3))).shape == (0, 5)
        assert gbt._apply_trees(trees, np.zeros((0, 3))).shape == (len(trees), 0)

    @pytest.mark.parametrize("scratch", [7, 1 << 16])
    def test_models_add_each_tree_in_order(self, monkeypatch, scratch):
        # the boosted sum runs from the base score through the first
        # best_round trees (none when it is 0) and the forest's over every
        # tree, each adding one tree's leaves to the running total
        monkeypatch.setattr(gbt, "SCRATCH_ELEMENTS", scratch)
        rng = np.random.default_rng(25)
        for _ in range(30):
            trees, x = ensemble_case(rng)
            leaves = [oracle_apply(tree.nodes, x) for tree in trees]
            names = [f"f{j}" for j in range(x.shape[1])]
            for loss in ("poisson", "squared"):
                for best in sorted({0, int(rng.integers(1, len(trees) + 1)), len(trees)}):
                    model = BoostedModel(
                        loss=loss, base_score=float(rng.normal()), learning_rate=0.3,
                        feature_names=names, trees=trees, best_round=best, train_loss=[], valid_loss=[],
                    )
                    raw = np.full(len(x), model.base_score)
                    for leaf in leaves[:best]:
                        raw += model.learning_rate * leaf
                    expected = np.exp(raw) if loss == "poisson" else raw
                    assert model.predict_array(x).tobytes() == expected.tobytes()
            total = np.zeros(len(x))
            for leaf in leaves:
                total += leaf
            forest = ForestModel(feature_names=names, trees=trees)
            assert forest.predict_array(x).tobytes() == (total / len(trees)).tobytes()

    def test_temporaries_stay_within_one_block(self):
        # 200 trees x 20,000 rows are 4,000,000 pairs, 62 blocks. Besides
        # the (trees, rows) result, the kernel holds its node tables (at
        # most 16 eight-byte words a node) and one block's temporaries (at
        # most 16 eight-byte words a pair): an unblocked pass would hold
        # its pairs, rows and nodes for all 4,000,000 pairs at once
        rng = np.random.default_rng(26)
        n, p = 20_000, 3
        trees = [random_tree(rng, p, 6) for _ in range(200)]
        x = np.asfortranarray(np.round(rng.normal(size=(n, p)) * 2) / 2)
        x[rng.random(x.shape) < 0.2] = np.nan
        nodes = sum(len(tree.nodes) for tree in trees)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = gbt._apply_trees(trees, x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.size > 60 * gbt.SCRATCH_ELEMENTS
        bound = out.nbytes + 128 * nodes + 128 * gbt.SCRATCH_ELEMENTS
        assert peak < bound
        assert bound < out.nbytes + 3 * 8 * out.size
        for t in (0, 199):
            assert out[t].tobytes() == oracle_apply(trees[t].nodes, x).tobytes()


def small_state(feature_names, with_seasonality=True):
    """A ServingState of period 4 whose ordinal maps cover the categorical
    columns of feature_names; category "a" has its own pattern."""
    config = RunConfig(season_period=4, with_seasonality=with_seasonality)
    maps = {
        name: {"a": 0, "b": 1} for name in feature_names
        if name == "category" or name.startswith("attr_")
    }
    seasonal = SeasonalityModel(
        tau=4, patterns=[np.array([0.1, 0.4, 0.3, 0.2])], assignment={"a": 0},
        global_pattern=np.array([0.25, 0.25, 0.25, 0.25]),
    ) if with_seasonality else None
    return ServingState.of(config, Encoding("ordinal", maps, None), seasonal)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 3))
        x[rng.random(x.shape) < 0.15] = np.nan
        y = rng.poisson(3.0, size=50).astype(float)
        matrix = matrix_of(x, y=y, columns=["f0", "category", "attr_brand"])
        params = RunConfig(loss="poisson", rounds=10, learning_rate=0.2, max_depth=4, min_split_loss=0.0)
        model = train(matrix, params, matrix)
        state = small_state(matrix.columns)
        text = model_to_json(model, state)
        loaded, loaded_state = model_from_json(text, "model")
        assert model_to_json(loaded, loaded_state) == text
        assert loaded.base_score == model.base_score
        assert (loaded.train_loss, loaded.valid_loss) == (model.train_loss, model.valid_loss)
        assert np.array_equal(loaded.predict_array(x), model.predict_array(x))
        assert loaded_state.settings == state.settings
        assert loaded_state.encoding == state.encoding
        seasonal = loaded_state.seasonal
        assert seasonal.assignment == state.seasonal.assignment
        assert seasonal.global_pattern.tobytes() == state.seasonal.global_pattern.tobytes()
        assert seasonal.patterns[0].tobytes() == state.seasonal.patterns[0].tobytes()

    def test_only_the_used_trees_are_stored(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(60, 2))
        y = rng.poisson(3.0, size=60).astype(float)
        train_m, valid_m = matrix_of(x[:40], y=y[:40]), matrix_of(x[40:], y=y[40:])
        params = RunConfig(
            loss="poisson", rounds=30, learning_rate=0.5, max_depth=4, min_split_loss=0.0,
            early_stop_patience=5,
        )
        model = train(train_m, params, valid_m)
        assert model.best_round < len(model.trees)  # the fit ran past its best round
        text = model_to_json(model, small_state(train_m.columns))
        doc = json.loads(text)
        assert len(doc["node_counts"]) == model.best_round
        assert len(doc["valid_loss"]) == len(model.trees) + 1
        loaded, _ = model_from_json(text, "model")
        assert len(loaded.trees) == model.best_round
        for kept, tree in zip(loaded.trees, model.trees):
            assert kept.nodes.tobytes() == tree.nodes.tobytes()
        assert np.array_equal(loaded.predict_array(x), model.predict_array(x))

    def test_version_checked(self):
        with pytest.raises(ValueError, match="version"):
            model_from_json('{"version": 99}', "model")

    def test_version_1_asks_for_a_retrain(self):
        with pytest.raises(SchemaError, match="model: model version 1 is no longer read; retrain"):
            model_from_json('{"version": 1, "trees": []}', "model")

    def test_version_2_asks_for_a_retrain(self):
        # version 2 stored each node field as a JSON list of numbers
        doc = small_model_doc()
        doc["version"] = 2
        doc["nodes"] = {name: [] for name in NODE_DTYPE.names}
        message = "model: model version 2 is no longer read; retrain to write version 3"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            model_from_json(json.dumps(doc), "model")

    def test_round_trip_keeps_every_bit(self):
        # -0.0 leaf weights, a subnormal and infinite thresholds survive the
        # base64 columns, and the text is the same after a load
        doc = small_model_doc()
        edit_column(doc, "weight", lambda weights: weights.__setitem__(-1, -0.0))
        set_node(doc, 0, 0, "threshold", 5e-324)
        set_node(doc, 1, 0, "threshold", math.inf)
        text = json.dumps(doc)
        model, state = model_from_json(text, "model")
        assert model_to_json(model, state) == text
        nodes = np.concatenate([tree.nodes for tree in model.trees])
        assert np.signbit(nodes["weight"][-1]) and nodes["weight"][-1] == 0.0
        assert model.trees[0].nodes["threshold"][0] == 5e-324
        assert model.trees[1].nodes["threshold"][0] == math.inf
        edit_column(doc, "threshold", lambda thresholds: thresholds.__setitem__(0, -math.inf))
        model, state = model_from_json(json.dumps(doc), "model")
        assert model.trees[0].nodes["threshold"][0] == -math.inf
        assert model_to_json(model, state) == json.dumps(doc)


def small_model_doc():
    """A two-round model whose trees both split at their root, stored with
    small_state: columns "category" and "f1", seasonality of period 4."""
    x = np.array([[0.0, 1.0], [0.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
    params = RunConfig(loss="squared", learning_rate=0.5, max_depth=2, rounds=2, min_split_loss=0.0)
    matrix = matrix_of(x, y=[0.0, 0.0, 10.0, 10.0], columns=["category", "f1"])
    model = train(matrix, params, matrix)
    assert all(tree.nodes["feature"][0] >= 0 for tree in model.trees)
    doc = json.loads(model_to_json(model, small_state(matrix.columns)))
    assert doc["best_round"] == 2 and min(doc["node_counts"]) >= 3
    return doc


def edit_column(doc, field, edit, dtype=None):
    """Decode the node column field of a model document into a list, call
    edit on it, and store the list back as base64 of dtype (the field's own
    little-endian type when None)."""
    values = np.frombuffer(base64.b64decode(doc["nodes"][field]), NODE_DTYPE[field].newbyteorder("<"))
    values = values.tolist()
    edit(values)
    dtype = NODE_DTYPE[field].newbyteorder("<") if dtype is None else dtype
    doc["nodes"][field] = base64.b64encode(np.array(values, dtype=dtype).tobytes()).decode()


def node_index(doc, tree, node):
    """Position of a tree's node in the node columns; node -1 is the tree's last."""
    counts = doc["node_counts"]
    return sum(counts[:tree]) + (node % counts[tree])


def set_node(doc, tree, node, field, value):
    edit_column(doc, field, lambda values: values.__setitem__(node_index(doc, tree, node), value))


def set_root_loop(doc):
    set_node(doc, 0, 0, "left", 0)  # the root's left child is the root itself
    set_node(doc, 0, 0, "threshold", 1e308)  # so every finite value goes left, forever


def set_short_node(doc):
    edit_column(doc, "gain", list.pop)  # a node short of its last field


def set_unknown_feature(doc):
    set_node(doc, 0, 0, "feature", 999)


def set_feature_past_end(doc):
    set_node(doc, 0, 0, "feature", len(doc["feature_names"]))


def set_negative_feature(doc):
    set_node(doc, 0, 0, "feature", -2)


def set_float_feature(doc):
    edit_column(doc, "feature", list, dtype="<f8")  # float64 features: twice int32's bytes


def set_right_past_end(doc):
    set_node(doc, 0, 0, "right", doc["node_counts"][0])


def set_negative_best_round(doc):
    doc["best_round"] = -1


def set_large_best_round(doc):
    doc["best_round"] = len(doc["node_counts"]) + 1


def set_leaf_with_children(doc):
    set_node(doc, 0, 1, "feature", -1)
    set_node(doc, 0, 1, "left", 2)
    set_node(doc, 0, 1, "right", 2)


def set_shared_child(doc):
    # every link points forward, but node 2 is the child of nodes 0 and 1:
    # a chain of such nodes multiplies the paths apply() walks
    rows = [
        [0, 0.5, 1, 1, 2, 0.0, 1.0],
        [1, 2.5, 1, 2, 3, 0.0, 1.0],
        [-1, 0.0, 1, -1, -1, 1.0, 0.0],
        [-1, 0.0, 1, -1, -1, 2.0, 0.0],
    ]
    first = doc["node_counts"][0]
    for field, values in zip(NODE_DTYPE.names, zip(*rows)):
        edit_column(doc, field, lambda column, values=values: column.__setitem__(slice(0, first), values))
    doc["node_counts"][0] = len(rows)


def set_unknown_loss(doc):
    doc["loss"] = "poison"  # predict_array would skip exp and return log-scale scores


def set_nan_learning_rate(doc):
    doc["learning_rate"] = math.nan


def set_zero_learning_rate(doc):
    doc["learning_rate"] = 0.0


def set_negative_learning_rate(doc):
    doc["learning_rate"] = -0.1


def set_infinite_learning_rate(doc):
    doc["learning_rate"] = math.inf


def set_string_learning_rate(doc):
    doc["learning_rate"] = "0.1"


def set_nan_base_score(doc):
    doc["base_score"] = math.nan


def set_infinite_base_score(doc):
    doc["base_score"] = -math.inf


def set_bool_base_score(doc):
    doc["base_score"] = True


def set_nan_leaf_weight(doc):
    set_node(doc, 0, -1, "weight", math.nan)


def set_infinite_leaf_weight(doc):
    set_node(doc, 1, -1, "weight", math.inf)


def set_nan_threshold(doc):
    set_node(doc, 0, 0, "threshold", math.nan)


def set_word_default_left(doc):
    doc["nodes"]["default_left"] = "sideways"  # base64 of 6 bytes, none of them 0 or 1


def set_two_default_left(doc):
    set_node(doc, 0, -1, "default_left", 2)


def set_bool_default_left(doc):
    doc["nodes"]["default_left"] = True  # no string


def set_word_gain(doc):
    doc["nodes"]["gain"] = "x"  # no base64


def set_nan_gain(doc):
    set_node(doc, 0, -1, "gain", math.nan)


def set_infinite_gain(doc):
    set_node(doc, 1, 0, "gain", math.inf)


def set_huge_int_weight(doc):
    doc["nodes"]["weight"] = 10**400  # a JSON integer no float holds, where a string belongs


def set_huge_int_threshold(doc):
    doc["nodes"]["threshold"] = [10**400]  # version 2's list layout, with such an integer


def set_huge_int_base_score(doc):
    doc["base_score"] = -(10**400)


# each corruption of a field new in version 2 or 3, and the problem it must report
NEW_FIELD_FAULTS = {
    "node_counts_past_nodes": (
        lambda doc: doc["node_counts"].__setitem__(-1, doc["node_counts"][-1] + 1),
        "nodes field 'feature' holds {nodes} values, but node_counts sum to {plus_one}",
    ),
    "node_counts_short_of_nodes": (
        lambda doc: doc["node_counts"].__setitem__(0, doc["node_counts"][0] - 1),
        "nodes field 'feature' holds {nodes} values, but node_counts sum to {minus_one}",
    ),
    "zero_node_count": (
        lambda doc: doc["node_counts"].__setitem__(0, 0),
        "node_counts is not a list of integers above 0",
    ),
    "nodes_not_an_object": (
        lambda doc: doc.__setitem__("nodes", []),
        "nodes is not an object of the fields feature, threshold, default_left, left, right, "
        "weight, gain",
    ),
    "huge_int_feature": (  # the largest feature an int32 column holds
        lambda doc: set_node(doc, 1, 0, "feature", 2**31 - 1),
        "tree 1 node 0: feature 2147483647 outside [0, 2)",
    ),
    "huge_negative_int_right": (  # the most negative child index an int32 column holds
        lambda doc: set_node(doc, 0, 0, "right", -(2**31)),
        "tree 0 node 0: children 1/-2147483648 do not follow the node in pre-order",
    ),
    "list_column": (
        lambda doc: doc["nodes"].__setitem__("weight", [0.5]),
        "nodes field 'weight' is not a string",
    ),
    "column_not_base64": (
        lambda doc: doc["nodes"].__setitem__("gain", "AAAA!AAAA"),  # base64 but for the "!"
        "nodes field 'gain' is not standard padded base64",
    ),
    "column_not_ascii": (
        lambda doc: doc["nodes"].__setitem__("left", "AAAA\u00e9AAA"),
        "nodes field 'left' is not standard padded base64",
    ),
    "column_of_partial_values": (  # 6 nodes' features in 6 bytes
        lambda doc: edit_column(doc, "feature", list, dtype="<i1"),
        "nodes field 'feature' holds {nodes} bytes, not whole 4-byte values",
    ),
    "column_of_wider_values": (
        lambda doc: edit_column(doc, "right", list, dtype="<i8"),
        "nodes field 'right' holds {nodes_x2} values, but node_counts sum to {nodes}",
    ),
    "nan_pattern": (
        lambda doc: doc["seasonality"]["patterns"][0].__setitem__(1, math.nan),
        "seasonality: pattern 0 is not a list of finite numbers",
    ),
    "short_pattern": (
        lambda doc: doc["seasonality"]["patterns"][0].pop(),
        "seasonality: pattern 0 holds 3 values, not tau 4",
    ),
    "word_global_pattern": (
        lambda doc: doc["seasonality"]["global_pattern"].__setitem__(0, "x"),
        "seasonality: global_pattern is not a list of finite numbers",
    ),
    "assignment_past_patterns": (
        lambda doc: doc["seasonality"]["assignment"].__setitem__("a", 1),
        "seasonality: assignment is not an object of pattern indices in [0, 1)",
    ),
    "tau_off_period": (
        lambda doc: doc["seasonality"].__setitem__("tau", 5),
        "seasonality: tau 5 is not season_period 4",
    ),
    "seasonality_missing": (
        lambda doc: doc.__setitem__("seasonality", None),
        "seasonality: expected an object of tau, patterns, assignment and global_pattern",
    ),
    "seasonality_without_the_setting": (
        lambda doc: doc["settings"].__setitem__("with_seasonality", False),
        "seasonality: stored, but with_seasonality is false",
    ),
    "missing_setting": (
        lambda doc: doc["settings"].pop("horizon"),
        "settings: missing key 'horizon'",
    ),
    "zero_horizon": (
        lambda doc: doc["settings"].__setitem__("horizon", 0),
        "settings: horizon 0 is not an integer >= 1",
    ),
    "string_cap_gamma": (
        lambda doc: doc["settings"].__setitem__("cap_gamma", "3"),
        "settings: cap_gamma '3' is not a finite number above 0",
    ),
    "other_lag_depth": (
        lambda doc: doc["settings"].__setitem__("lag_depth", 9),
        "settings: lag_depth 9 is not this program's 8; retrain the model",
    ),
    "missing_ordinal_map": (
        lambda doc: doc["encoding"]["maps"].pop("category"),
        "encoding: maps is not an object of one map per categorical column ['category']",
    ),
    "unsorted_ordinal_map": (
        lambda doc: doc["encoding"]["maps"].__setitem__("category", ["b", "a"]),
        "encoding: map 'category' is not a list of distinct strings in sorted order",
    ),
    "unknown_encoding_mode": (
        lambda doc: doc["encoding"].__setitem__("mode", "onehot"),
        "encoding: mode 'onehot' is not 'ordinal' or 'hashing'",
    ),
    "one_hash_bucket": (
        lambda doc: doc.__setitem__("encoding", {"mode": "hashing", "hash_buckets": 1}),
        "encoding: hash_buckets 1 is not an integer >= 2",
    ),
    "nan_train_loss": (
        lambda doc: doc["train_loss"].__setitem__(1, math.nan),
        "train_loss is not a list of finite numbers",
    ),
    "infinite_valid_loss": (
        lambda doc: doc["valid_loss"].__setitem__(-1, math.inf),
        "valid_loss is not a list of finite numbers",
    ),
    "short_valid_loss": (
        lambda doc: doc["valid_loss"].pop(),
        "train_loss and valid_loss are not one loss per round",
    ),
    "best_round_off_the_trees": (
        lambda doc: doc.__setitem__("best_round", 1),
        "node_counts holds 2 trees, not best_round 1",
    ),
    "version_1": (
        lambda doc: doc.__setitem__("version", 1),
        "model version 1 is no longer read; retrain to write version 3",
    ),
    "version_2": (
        lambda doc: doc.__setitem__("version", 2),
        "model version 2 is no longer read; retrain to write version 3",
    ),
}


class TestModelFileChecks:
    @pytest.mark.parametrize("corrupt", [
        set_root_loop, set_short_node, set_unknown_feature, set_feature_past_end,
        set_negative_feature, set_float_feature, set_right_past_end, set_negative_best_round,
        set_large_best_round, set_leaf_with_children, set_shared_child, set_unknown_loss,
        set_nan_learning_rate, set_zero_learning_rate, set_negative_learning_rate,
        set_infinite_learning_rate, set_string_learning_rate, set_nan_base_score,
        set_infinite_base_score, set_bool_base_score, set_nan_leaf_weight,
        set_infinite_leaf_weight, set_nan_threshold, set_word_default_left,
        set_two_default_left, set_bool_default_left, set_word_gain, set_nan_gain,
        set_infinite_gain, set_huge_int_weight, set_huge_int_threshold, set_huge_int_base_score,
    ])
    def test_malformed_model_rejected_naming_file(self, tmp_path, corrupt):
        doc = small_model_doc()
        corrupt(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=re.escape(str(path))):
            gbt.load_model(path)

    @pytest.mark.parametrize("name", NEW_FIELD_FAULTS)
    def test_malformed_new_field_rejected_naming_file(self, tmp_path, name):
        doc = small_model_doc()
        nodes = sum(doc["node_counts"])
        corrupt, problem = NEW_FIELD_FAULTS[name]
        corrupt(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        message = f"{path}: " + problem.format(
            nodes=nodes, plus_one=nodes + 1, minus_one=nodes - 1, nodes_x2=nodes * 2
        )
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            gbt.load_model(path)

    def test_fault_names_the_first_faulty_node(self):
        # the node checked first wins, whichever field of it is bad
        doc = small_model_doc()
        set_node(doc, 1, 0, "gain", math.inf)
        set_node(doc, 0, -1, "weight", math.nan)
        set_node(doc, 0, -1, "default_left", 3)
        with pytest.raises(SchemaError, match=r"^model: tree 0 node \d+: default_left 3 is not 0 or 1$"):
            model_from_json(json.dumps(doc), "model")

    def test_infinite_threshold_accepted(self):
        doc = small_model_doc()
        set_node(doc, 0, 0, "threshold", math.inf)
        set_node(doc, 1, 0, "threshold", -math.inf)
        model, _ = model_from_json(json.dumps(doc), "model")
        assert model.trees[0].nodes["threshold"][0] == math.inf
        assert model.trees[1].nodes["threshold"][0] == -math.inf
        assert model.predict_array(np.array([[5.0, 5.0]])).shape == (1,)


class TestForest:
    def test_single_plain_tree_equals_regression_fit(self):
        # one feature leaves nothing to sample, so a one-tree forest is the
        # plain regression tree on the seed's distinct bootstrap rows,
        # weighted by their counts
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 1))
        y = rng.normal(size=40) + 3.0
        forest = train_forest(matrix_of(x, y=y), 1, 4, seed=0)
        rows, counts = np.unique(np.random.default_rng(0).integers(0, 40, 40), return_counts=True)
        h = counts.astype(float)
        reference = grow_tree(
            x[rows], -y[rows] * h, h, max_depth=4, reg_lambda=0.0, min_split_loss=0.0
        )
        assert np.array_equal(forest.predict_array(x), reference.apply(x))

    @pytest.mark.parametrize("n_trees", [0, -1])
    def test_no_trees_rejected(self, n_trees):
        matrix = matrix_of(np.arange(20).reshape(10, 2), y=[3.0] * 10)
        with pytest.raises(ValueError, match="n_trees"):
            train_forest(matrix, n_trees, 64, seed=0)

    def test_constant_target(self):
        matrix = matrix_of(np.arange(20).reshape(10, 2), y=[3.0] * 10)
        forest = train_forest(matrix, 5, 64, seed=1)
        assert np.allclose(forest.predict_array(matrix.X), 3.0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        matrix = matrix_of(x, y=y)
        p1 = train_forest(matrix, 8, 6, seed=42).predict_array(x)
        p2 = train_forest(matrix, 8, 6, seed=42).predict_array(x)
        assert np.array_equal(p1, p2)

    def test_predictions_pinned(self):
        # NaNs, tied values and per-split sampling: any change to the
        # generator's draw order or to a tie-break moves these values
        rng = np.random.default_rng(11)
        x = rng.normal(size=(30, 5))
        x[:, :3] = np.round(x[:, :3] * 2) / 2
        x[rng.random(x.shape) < 0.15] = np.nan
        y = rng.poisson(3.0, size=30).astype(float)
        forest = train_forest(matrix_of(x, y=y), 4, 6, seed=3)
        assert forest.predict_array(x).tolist() == [
            3.0, 2.4166666666666665, 1.25, 5.05, 0.25, 2.75, 2.75, 3.0, 1.75,
            2.2083333333333335, 3.1666666666666665, 4.666666666666666, 5.8,
            1.6666666666666665, 3.0, 2.0, 1.5, 2.9583333333333335,
            2.9583333333333335, 1.9583333333333335, 3.1666666666666665,
            2.4583333333333335, 3.0, 1.5, 2.9583333333333335, 4.0, 2.25, 4.55,
            2.75, 5.0,
        ]

    def test_leaf_means_keep_count_targets_nonnegative(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(50, 3))
        y = rng.poisson(4.0, size=50).astype(float)
        matrix = matrix_of(x, y=y)
        forest = train_forest(matrix, 10, 8, seed=2)
        assert (forest.predict_array(x) >= 0).all()

    def test_one_presort_per_forest(self, monkeypatch, forest_fits):
        # the matrix is presorted and rank-coded once per fit, and every
        # tree reads X itself, on that presort cut down to its bootstrap's
        # distinct rows, weighted by their counts, whatever the targets
        calls = Counter()
        for name in ("presort_columns", "_rank_columns"):
            def counted(*args, name=name, original=getattr(gbt, name)):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(gbt, name, counted)
        rng = np.random.default_rng(8)
        x = count_case(rng, 60, 9)
        y = rng.poisson(3.0, size=60) + 0.5
        matrix = matrix_of(x, y=y)
        train_forest(matrix, 5, 8, seed=4)
        assert calls == {"presort_columns": 1, "_rank_columns": 1}
        assert len(forest_fits) == 5
        for fit in forest_fits:
            assert fit.matrix is matrix.X
            assert len(fit.x) < 60 and fit.h.sum() == 60


def sampler_cases():
    """(p, k) pairs: every p in 2-64 with k = isqrt(p), 1 and p - 1, and
    larger p with isqrt(p) and 1. choice shuffles a tail instead of running
    Floyd's algorithm when p > 10,000 and k > p // 50, which train_forest's
    k = isqrt(p) never reaches; p = 10,001 is above the first bound and
    still runs Floyd's algorithm."""
    for p in range(2, 65):
        for k in sorted({math.isqrt(p), 1, p - 1}):
            yield p, k
    for p in (1000, 9999, 10001):
        yield p, math.isqrt(p)
        yield p, 1


def reference_forest(x, y, n_trees, max_depth, seed):
    """train_forest's draws and fits, one sorted choice call per node that
    may split and the brute-force grower: (oracle nodes, sampler calls) per tree."""
    rng = np.random.default_rng(seed)
    sampler, calls = counting_sampler(rng, math.isqrt(x.shape[1]))
    fits = []
    for _ in range(n_trees):
        rows = np.sort(rng.integers(0, len(y), size=len(y)))
        calls[0] = 0
        nodes = oracle_fit_tree(x[rows], -y[rows], np.ones(len(y)), max_depth, 0.0, 0.0, sampler)
        fits.append((nodes, calls[0]))
    return fits


class TestFeatureSampler:
    # numpy's Generator.choice(p, k, replace=False) draws Floyd's values and
    # its shuffle with the bounded-integer routine of Generator.integers;
    # the numpy-floor CI job runs these tests on numpy 1.24
    @pytest.mark.parametrize("batch", [3, 64, gbt.SAMPLE_BATCH])
    def test_samples_equal_sorted_choice_and_rewind(self, monkeypatch, batch):
        monkeypatch.setattr(gbt, "SAMPLE_BATCH", batch)
        drawn = 0
        for case, (p, k) in enumerate(sampler_cases()):
            rng, ref = np.random.default_rng(case), np.random.default_rng(case)
            sampler, reference = gbt._FeatureSampler(rng, p, k), choice_sampler(ref, k)
            for _ in range(2):  # a sequence, a rewind, then another one
                for _ in range(25 + case % 37):
                    got, want = sampler(p), reference(p)
                    assert list(got) == want.tolist(), (p, k)
                    drawn += 1
                sampler.rewind()
                # a bounded 32-bit draw takes PCG64's buffered half first
                assert rng.integers(0, 1000, size=3).tolist() == ref.integers(0, 1000, size=3).tolist()
                assert rng.integers(0, 2**62) == ref.integers(0, 2**62)
        assert drawn >= 10**4

    def test_rewind_without_samples_leaves_the_stream(self):
        rng = np.random.default_rng(4)
        sampler = gbt._FeatureSampler(rng, 18, 4)
        sampler.rewind()
        assert rng.integers(0, 2**62) == np.random.default_rng(4).integers(0, 2**62)

    @pytest.mark.parametrize("batch", [3, 7, gbt.SAMPLE_BATCH])
    def test_forest_equals_per_node_choice_reference(self, monkeypatch, batch):
        # a small batch makes every tree refill many times; a tree that ends
        # part way through a batch rewinds before the next bootstrap draws
        monkeypatch.setattr(gbt, "SAMPLE_BATCH", batch)
        rng = np.random.default_rng(17)
        mid_batch = 0
        for seed, p in enumerate((9, 17, 30)):
            x = rng.normal(size=(60, p))
            x[:, ::2] = np.round(x[:, ::2])
            x[rng.random(x.shape) < 0.1] = np.nan
            y = rng.poisson(3.0, size=60).astype(float)
            forest = train_forest(matrix_of(x, y=y), 4, 7, seed)
            reference = reference_forest(x, y, 4, 7, seed)
            assert len(forest.trees) == len(reference)
            for tree, (nodes, calls) in zip(forest.trees, reference):
                assert_same_tree(tree, nodes)
                assert calls > 7
                mid_batch += calls % batch != 0
        assert mid_batch >= 6


@pytest.fixture
def forest_fits(monkeypatch):
    """Records each tree train_forest fits: the x it reads, the rows its
    presort's last row lists, those rows of x and their h, max_depth, the
    tree and how often it called the feature sampler. Clear it between
    forests."""
    fits = []
    fit = gbt.fit_tree

    def recording_fit(x, g, h, max_depth, reg_lambda, min_split_loss, feature_sampler, *, order, ranks):
        calls = [0]

        def counted(n_features):
            calls[0] += 1
            return feature_sampler(n_features)

        sampler = None if feature_sampler is None else counted
        tree = fit(x, g, h, max_depth, reg_lambda, min_split_loss, sampler, order=order, ranks=ranks)
        rows = order[-1]
        fits.append(
            SimpleNamespace(
                matrix=x, rows=rows, x=x[rows], h=h[rows], max_depth=max_depth, tree=tree, calls=calls[0]
            )
        )
        return tree

    monkeypatch.setattr(gbt, "fit_tree", recording_fit)
    return fits


def nodes_reached(tree, x):
    """{node index: (depth, rows of x that reach it)} for every node some row reaches."""
    nodes = tree.nodes.tolist()
    reached = {}
    for r, row in enumerate(x.tolist()):
        node = depth = 0
        while True:
            reached.setdefault(node, (depth, []))[1].append(r)
            feature, threshold, default_left, left, right = nodes[node][:5]
            if feature < 0:
                break
            value = row[feature]
            goes_left = default_left if math.isnan(value) else value < threshold
            node, depth = (left if goes_left else right), depth + 1
    return reached


def leaves_reached(tree, x):
    """{leaf index: (depth, rows of x that reach it)}, walking one node at a time."""
    leaf = tree.nodes["feature"] < 0
    return {node: reached for node, reached in nodes_reached(tree, x).items() if leaf[node]}


def count_case(rng, n, p):
    """n x p rows with ties (rounded even columns) and 20% NaN cells."""
    x = rng.normal(size=(n, p))
    x[:, ::2] = np.round(x[:, ::2])
    x[rng.random(x.shape) < 0.2] = np.nan
    return x


class TestCountedRows:
    # train_forest grows each tree on its bootstrap's distinct rows with
    # g = -y * count and h = count; on integer targets the trees must be the
    # brute-force grower's on the duplicated rows, node for node and bit for
    # bit, with the sampler called at the same nodes
    def test_integer_targets_match_the_duplicated_rows(self, monkeypatch, forest_fits):
        for _ in each_search_path(monkeypatch):
            rng = np.random.default_rng(50)
            zero_leaves = 0
            for seed in range(8):
                n, p = int(rng.integers(20, 60)), int(rng.integers(2, 12))
                x = count_case(rng, n, p)
                # zero counts make -0.0 gradients: a sum that loses that sign
                # flips a leaf weight's sign bit
                y = rng.poisson(1.5, size=n).astype(float)
                depth = int(rng.integers(3, 25))
                forest_fits.clear()
                forest = train_forest(matrix_of(x, y=y), 3, depth, seed)
                reference = reference_forest(x, y, 3, depth, seed)
                for fit, tree, (nodes, calls) in zip(forest_fits, forest.trees, reference, strict=True):
                    assert len(fit.x) < n and fit.h.sum() == n  # the distinct rows, counted
                    assert_same_tree(tree, nodes)
                    assert fit.calls == calls > 0
                    leaf = tree.nodes["feature"] < 0
                    zero_leaves += bits(tree.nodes["weight"][leaf]).count(0)
            assert zero_leaves > 0

    def test_one_row_counted_twice_takes_a_sample(self, monkeypatch, forest_fits):
        # distinct targets split until a node holds one distinct row; one of
        # count 2 or more above max_depth may split (two bootstrap rows), so
        # it calls the sampler before it becomes a leaf, as on duplicated rows
        for _ in each_search_path(monkeypatch):
            rng = np.random.default_rng(51)
            lone = 0
            for seed in range(4):
                n, p = 40, int(rng.integers(2, 10))
                x = count_case(rng, n, p)
                y = rng.permutation(n).astype(float)
                forest_fits.clear()
                forest = train_forest(matrix_of(x, y=y), 2, 24, seed)
                reference = reference_forest(x, y, 2, 24, seed)
                for fit, tree, (nodes, calls) in zip(forest_fits, forest.trees, reference, strict=True):
                    assert_same_tree(tree, nodes)
                    assert fit.calls == calls
                    for depth, rows in leaves_reached(tree, fit.x).values():
                        lone += depth < fit.max_depth and len(rows) == 1 and fit.h[rows[0]] >= 2
            assert lone > 0

    def test_counted_rows_match_the_oracle_on_counted_rows(self, monkeypatch):
        # the brute-force grower on the distinct rows themselves, with the
        # counts as h: the same may-split rule, so both call equally seeded
        # samplers at the same nodes, one-row nodes of count 2 or more too
        for _ in each_search_path(monkeypatch):
            rng = np.random.default_rng(54)
            lone = 0
            for seed in range(6):
                n, p = 40, int(rng.integers(2, 10))
                x = count_case(rng, n, p)
                y = rng.permutation(n).astype(float)
                rows, counts = np.unique(rng.integers(0, n, size=n), return_counts=True)
                h = counts.astype(float)
                args = (x[rows], -y[rows] * h, h, 24, 0.0, 0.0)
                sampler, calls = counting_sampler(np.random.default_rng(seed), math.isqrt(p))
                oracle_sampler, oracle_calls = counting_sampler(np.random.default_rng(seed), math.isqrt(p))
                tree = grow_tree(*args, feature_sampler=sampler)
                assert_same_tree(tree, oracle_fit_tree(*args, feature_sampler=oracle_sampler))
                assert calls[0] == oracle_calls[0] > 0
                for depth, reached in leaves_reached(tree, x[rows]).values():
                    lone += depth < 24 and len(reached) == 1 and h[reached[0]] >= 2
            assert lone > 0

    @pytest.mark.parametrize("top", [None, 2**48 - 1, 2**48], ids=["fractional", "below_2_53", "at_2_53"])
    def test_any_targets_grow_on_weighted_rows(self, monkeypatch, forest_fits, top):
        # fractional targets, and integers up to and at max|y| * n = 2^53,
        # where sums over the copies would round: each tree lists its
        # bootstrap's distinct rows once, with h = their counts, and is the
        # brute-force grower's on those weighted rows, with the sampler
        # called at the same nodes
        n = 32
        for _ in each_search_path(monkeypatch):
            rng = np.random.default_rng(52)
            x = count_case(rng, n, 6)
            if top is None:
                y = rng.poisson(3.0, size=n) + np.where(rng.random(n) < 0.3, 0.5, 0.0)
            else:
                y = rng.integers(-top, top, size=n, endpoint=True).astype(float)
                y[rng.integers(n)] = -top
                assert np.abs(y).max() * n == 2**53 - 32 * (top < 2**48)
            forest_fits.clear()
            forest = train_forest(matrix_of(x, y=y), 3, 10, 4)
            draws = np.random.default_rng(4)  # train_forest's draws, one choice call per sample
            sampler, calls = counting_sampler(draws, math.isqrt(6))
            for fit, tree in zip(forest_fits, forest.trees, strict=True):
                rows, counts = np.unique(draws.integers(0, n, size=n), return_counts=True)
                h = counts.astype(float)
                assert fit.rows.tolist() == rows.tolist() and fit.h.tolist() == h.tolist()
                calls[0] = 0
                assert_same_tree(tree, oracle_fit_tree(x[rows], -y[rows] * h, h, 10, 0.0, 0.0, sampler))
                assert fit.calls == calls[0] > 0


def tree_depth(tree):
    """Longest root-to-leaf path, following the node links."""
    depth = {0: 0}
    for idx, (feature, _, _, left, right, _, _) in enumerate(tree.nodes.tolist()):
        if feature >= 0:
            depth[left] = depth[right] = depth[idx] + 1
    return max(depth.values())


def random_matrix(rng, max_rows=32, max_features=3, min_rows=4):
    n = int(rng.integers(min_rows, max_rows + 1))
    p = int(rng.integers(1, max_features + 1))
    x = rng.normal(size=(n, p))
    # quantize some columns to force duplicate values, and add missing cells
    for j in range(p):
        if rng.random() < 0.5:
            x[:, j] = np.round(x[:, j] * 2) / 2
    x[rng.random(x.shape) < 0.15] = np.nan
    y = rng.normal(size=n) * 3
    return x, y


def bits(values):
    """The IEEE bit patterns of a float array: unlike ==, they tell -0.0 from 0.0."""
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64).tolist()


def assert_same_tree(tree, oracle_nodes):
    """Field by field: links and features equal, leaf weights and split rules bit for bit."""
    nodes = tree.nodes
    assert nodes.dtype == NODE_DTYPE
    ref = {name: np.array([getattr(o, name) for o in oracle_nodes]) for name in NODE_DTYPE.names}
    assert len(nodes) == len(oracle_nodes)
    for name in ("feature", "left", "right"):
        assert nodes[name].tolist() == ref[name].tolist(), name
    leaf = nodes["feature"] < 0
    assert bits(nodes["weight"][leaf]) == bits(ref["weight"][leaf])
    assert bits(nodes["threshold"][~leaf]) == bits(ref["threshold"][~leaf])
    assert nodes["default_left"][~leaf].tolist() == ref["default_left"][~leaf].astype(int).tolist()
    assert bits(nodes["gain"][~leaf]) == bits(ref["gain"][~leaf])


def grow_tree(x, g, h, *args, **kwargs):
    """fit_tree on x's presort and its rank codes, as train() passes them;
    the ranks are None where _rank_columns finds none (or where
    each_search_path makes it find none)."""
    order = gbt.presort_columns(x)
    ranks = gbt._rank_columns(*gbt._column_cells(x), order)
    return fit_tree(x, g, h, *args, order=order, ranks=ranks, **kwargs)


def each_search_path(monkeypatch):
    """Yields three times: with every node scored by the numpy block search
    (a scan cutoff of 0), first gathering x's values (_rank_columns finds
    no ranks, as for a column too wide for them), then the rank codes; and
    with every node scanned in Python (a cutoff above every block of these
    tests). train(), train_forest() and grow_tree() take both key sources."""
    rank_columns = gbt._rank_columns
    for path, cutoff, ranked in (("block_x", 0, False), ("block_ranks", 0, True), ("scan", sys.maxsize, True)):
        monkeypatch.setattr(gbt, "SCAN_ELEMENTS", cutoff)
        monkeypatch.setattr(gbt, "_rank_columns", rank_columns if ranked else lambda cells, stride, order: None)
        yield path


class TestOracleEquivalence:
    def test_trees_match_brute_force(self, monkeypatch):
        for _ in each_search_path(monkeypatch):
            rng = np.random.default_rng(8)
            for trial in range(12):
                x, y = random_matrix(rng)
                g, h = grad_hess("squared", y, np.zeros(len(y)))
                lam = float(rng.choice([0.0, 1.0]))
                msl = float(rng.choice([0.0, 0.05]))
                depth = int(rng.integers(1, 4))
                tree = grow_tree(x, g, h, max_depth=depth, reg_lambda=lam, min_split_loss=msl)
                oracle = oracle_fit_tree(x, g, h, max_depth=depth, reg_lambda=lam, min_split_loss=msl)
                assert_same_tree(tree, oracle)

    def test_boosted_one_row_node_of_large_hessian_stays_a_leaf(self, monkeypatch):
        # Poisson hessians exp(raw) from about 0.6 to 5: a one-row node above
        # max_depth whose h is 2 or more may split, reaches the search, finds
        # no boundary and stays a leaf, as in the oracle
        rng = np.random.default_rng(53)
        n = 40
        x = count_case(rng, n, 3)
        y = rng.permutation(n).astype(float)
        g, h = grad_hess("poisson", y, rng.uniform(-0.5, 1.6, size=n))
        for _ in each_search_path(monkeypatch):
            tree = grow_tree(x, g, h, 12, 0.0, 0.0)
            assert_same_tree(tree, oracle_fit_tree(x, g, h, 12, 0.0, 0.0))
            reached = leaves_reached(tree, x).values()
            lone = [rows[0] for depth, rows in reached if depth < 12 and len(rows) == 1]
            assert (h[lone] >= 2).sum() == 11 and (h[lone] < 2).sum() == 17
            # pinned from a grower whose boosted nodes needed two rows to split
            stored = tree.nodes.astype(NODE_DTYPE.newbyteorder("<")).tobytes()
            assert hashlib.sha256(stored).hexdigest() == (
                "30f3a12b0a265fcc8c9fc045776c237f8c5ab8307a86cdfd2c06510621bc3039"
            )

    def test_recorded_gains_exceed_min_split_loss(self):
        rng = np.random.default_rng(9)
        x, y = random_matrix(rng, max_rows=30)
        g, h = grad_hess("squared", y, np.zeros(len(y)))
        tree = grow_tree(x, g, h, max_depth=4, reg_lambda=0.5, min_split_loss=0.05)
        internal = tree.nodes[tree.nodes["feature"] >= 0]
        assert internal.size and (internal["gain"] >= 0.05).all()

    def test_tree_structural_invariants(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            x, y = random_matrix(rng, max_rows=40)
            g, h = grad_hess("squared", y, np.zeros(len(y)))
            depth_cap = int(rng.integers(1, 5))
            tree = grow_tree(x, g, h, max_depth=depth_cap, reg_lambda=0.5, min_split_loss=0.0)
            assert tree_depth(tree) <= depth_cap
            nodes = tree.nodes
            leaf = nodes["feature"] < 0
            assert np.isfinite(nodes["weight"][leaf]).all()
            for link in ("left", "right"):
                assert ((0 < nodes[link][~leaf]) & (nodes[link][~leaf] < len(nodes))).all()

    def test_chunked_search_and_partition_match_brute_force(self, monkeypatch):
        # a tiny scratch cap splits every node's features and work rows into
        # several chunks, which the small matrices above never do; the scan
        # takes a node's block in one piece, so it meets only chunked partitions
        monkeypatch.setattr(gbt, "SCRATCH_ELEMENTS", 7)
        for _ in each_search_path(monkeypatch):
            rng = np.random.default_rng(12)
            for _ in range(6):
                x, y = random_matrix(rng, max_rows=40, max_features=5)
                g, h = grad_hess("squared", y, np.zeros(len(y)))
                tree = grow_tree(x, g, h, max_depth=4, reg_lambda=1.0, min_split_loss=0.0)
                oracle = oracle_fit_tree(x, g, h, max_depth=4, reg_lambda=1.0, min_split_loss=0.0)
                assert_same_tree(tree, oracle)

    def test_infinite_values_split_like_finite_ones(self, monkeypatch):
        # only NaN is missing: +-inf are ordinary values that take part in
        # candidate thresholds and are routed by comparison, as in apply()
        for _ in each_search_path(monkeypatch):
            rng = np.random.default_rng(16)
            for _ in range(6):
                x, y = random_matrix(rng, max_rows=40)
                x[rng.random(x.shape) < 0.1] = np.inf
                x[rng.random(x.shape) < 0.05] = -np.inf
                g, h = grad_hess("squared", y, np.zeros(len(y)))
                tree = grow_tree(x, g, h, max_depth=3, reg_lambda=1.0, min_split_loss=0.0)
                oracle = oracle_fit_tree(x, g, h, max_depth=3, reg_lambda=1.0, min_split_loss=0.0)
                assert_same_tree(tree, oracle)

    def test_forest_trees_match_brute_force(self, monkeypatch):
        # bootstrap-duplicated rows and per-split feature sampling, as
        # train_forest grows them: both growers draw from equally seeded
        # generators, so they agree only if they call the sampler at the
        # same nodes in the same order
        for _ in each_search_path(monkeypatch):
            rng = np.random.default_rng(13)
            for trial in range(8):
                base, target = random_matrix(rng, max_rows=40, max_features=5)
                rows = np.sort(rng.integers(0, len(target), size=len(target)))
                # count targets, as a forest fits: -y is -0.0 on a zero count, so
                # a grower that loses the sign of a zero gradient fails here
                x, y = base[rows], np.round(np.abs(target[rows]))
                p = x.shape[1]
                n_sub = max(1, p // 2)

                def sampler_from(seed):
                    return choice_sampler(np.random.default_rng(seed), n_sub)

                depth = int(rng.integers(2, 7))
                tree = grow_tree(x, -y, np.ones_like(y), depth, 0.0, 0.0, feature_sampler=sampler_from(trial))
                oracle = oracle_fit_tree(
                    x, -y, np.ones_like(y), depth, 0.0, 0.0, feature_sampler=sampler_from(trial)
                )
                assert_same_tree(tree, oracle)

    def test_scan_and_block_agree_where_quotients_are_not_finite(self, monkeypatch):
        # with lambda 0, rows of zero gradient and zero hessian make children
        # of zero hessian sum, which no candidate may have (H + lambda > 0 on
        # both sides), and gradients of +-1e154 overflow their squares to
        # inf: both search paths must still build the oracle's tree
        rng = np.random.default_rng(22)
        infinite_gains = 0
        for _ in range(30):
            x, y = random_matrix(rng, max_rows=40, max_features=4)
            empty = rng.random(len(y)) < 0.3
            empty[0] = False  # the root has a positive hessian sum
            g = np.where(empty, 0.0, y * rng.choice([1.0, 1e154], size=len(y)))
            h = np.where(empty, 0.0, 1.0)
            oracle = oracle_fit_tree(x, g, h, max_depth=4, reg_lambda=0.0, min_split_loss=0.0)
            for _ in each_search_path(monkeypatch):
                tree = grow_tree(x, g, h, max_depth=4, reg_lambda=0.0, min_split_loss=0.0)
                assert_same_tree(tree, oracle)
            infinite_gains += np.isinf(tree.nodes["gain"]).any()
        assert infinite_gains >= 5

    def test_zero_hessian_children_are_no_candidates(self, monkeypatch):
        # with lambda 0, g_total - gl keeps a rounding residue where a
        # child's own gradients sum to 0, which would give that child of
        # zero hessian sum an infinite gain and its leaf weight a ValueError
        for _ in each_search_path(monkeypatch):
            rng = np.random.default_rng(33)
            for _ in range(30):
                x, y = random_matrix(rng, max_rows=40, max_features=4)
                zero = rng.random(len(y)) < 0.3
                g, h = np.where(zero, 0.0, y), np.where(zero, 0.0, 1.0)
                tree = grow_tree(x, g, h, 6, 0.0, 0.0)
                assert_same_tree(tree, oracle_fit_tree(x, g, h, 6, 0.0, 0.0))


@pytest.fixture
def mixed_paths(monkeypatch):
    """A scan cutoff of 24, between the extremes: on 40-row matrices the
    root is searched by numpy and deeper nodes grow Python subtrees. Returns
    counts of numpy-searched nodes and subtrees; reset them per tree."""
    monkeypatch.setattr(gbt, "SCAN_ELEMENTS", 24)
    counts = {"searched": 0, "subtrees": 0}
    search, subtree = gbt._search_node, gbt._grow_subtree

    def counted_search(*args):
        counts["searched"] += 1
        return search(*args)

    def counted_subtree(*args):
        counts["subtrees"] += 1
        return subtree(*args)

    monkeypatch.setattr(gbt, "_search_node", counted_search)
    monkeypatch.setattr(gbt, "_grow_subtree", counted_subtree)
    return counts


def counting_sampler(rng, n_sub):
    """A per-split feature sampler drawing from rng that counts its calls in calls[0]."""
    sample = choice_sampler(rng, n_sub)
    calls = [0]

    def sampler(n_features):
        calls[0] += 1
        return sample(n_features)

    return sampler, calls


def forest_case(rng, seed, depth):
    """A train_forest-style fit on 40 rows: resampled rows, count targets,
    -y, unit hessians, no regularisation and per-split feature samples."""
    base, target = random_matrix(rng, max_rows=40, max_features=5, min_rows=40)
    rows = np.sort(rng.integers(0, len(target), size=len(target)))
    x, y = base[rows], np.round(np.abs(target[rows]))
    sampler, calls = counting_sampler(np.random.default_rng(seed), max(1, x.shape[1] // 2))
    return x, (-y, np.ones_like(y), depth, 0.0, 0.0, sampler), calls


class TestMixedSearchPaths:
    def test_boosted_trees_match_brute_force(self, mixed_paths):
        rng = np.random.default_rng(30)
        mixed = 0
        for _ in range(12):
            x, y = random_matrix(rng, max_rows=40, max_features=5, min_rows=40)
            g, h = grad_hess("squared", y, np.zeros(len(y)))
            lam = float(rng.choice([0.0, 1.0]))
            msl = float(rng.choice([0.0, 0.05]))
            depth = int(rng.integers(3, 7))
            mixed_paths.update(searched=0, subtrees=0)
            tree = grow_tree(x, g, h, max_depth=depth, reg_lambda=lam, min_split_loss=msl)
            assert_same_tree(tree, oracle_fit_tree(x, g, h, depth, lam, msl))
            mixed += mixed_paths["searched"] > 0 and mixed_paths["subtrees"] > 0
        assert mixed >= 10

    def test_forest_trees_match_brute_force(self, mixed_paths):
        # equally seeded samplers agree only if both growers call them at
        # the same nodes in the same order, and as often
        rng = np.random.default_rng(31)
        mixed = 0
        for trial in range(10):
            depth = int(rng.integers(3, 9))
            x, args, calls = forest_case(rng, trial, depth)
            mixed_paths.update(searched=0, subtrees=0)
            tree = grow_tree(x, *args)
            oracle_sampler, oracle_calls = counting_sampler(np.random.default_rng(trial), max(1, x.shape[1] // 2))
            oracle = oracle_fit_tree(x, *args[:5], feature_sampler=oracle_sampler)
            assert_same_tree(tree, oracle)
            assert calls[0] == oracle_calls[0] > 0
            mixed += mixed_paths["searched"] > 0 and mixed_paths["subtrees"] > 0
        assert mixed >= 8

    def test_leaf_values_equal_apply(self, mixed_paths):
        rng = np.random.default_rng(32)
        for trial in range(12):
            depth = trial % 6 + 2
            if trial % 2:
                x, args, _ = forest_case(rng, trial, depth)
            else:
                x, y = random_matrix(rng, max_rows=40, max_features=5, min_rows=40)
                g, h = grad_hess("squared", y, np.zeros(len(y)))
                args = (g, h, depth, 1.0, 0.0, None)
            x[rng.random(x.shape) < 0.05] = np.inf
            out = np.full(len(x), np.nan)
            tree = grow_tree(x, *args, leaf_values=out)
            assert bits(out) == bits(tree.apply(x))
        assert mixed_paths["searched"] and mixed_paths["subtrees"]

    def test_deep_boosted_leaf_values_equal_apply(self, mixed_paths):
        # train() moves its scores by leaf_values: the leaf weights a
        # two-row node writes for its children must be apply()'s bit for bit
        rng = np.random.default_rng(63)
        splits = 0
        for trial in range(6):
            x, y = two_row_case(rng, pairs=40)
            g, h = grad_hess("poisson", y, rng.uniform(-0.5, 1.6, size=len(y)))
            out = np.full(len(y), np.nan)
            tree = grow_tree(x, g, h, 24, float(trial % 2), 0.0, leaf_values=out)
            assert bits(out) == bits(tree.apply(x))
            splits += two_row_cases(tree, x, h, 24)["splits"]
        assert mixed_paths["searched"] and mixed_paths["subtrees"] and splits >= 60

    def test_scan_returns_on_zero_hessian_blocks(self):
        # lambda 0 and rows of zero gradient and hessian: the scan checks H +
        # lambda > 0 on both sides before it divides, so it returns, and
        # returns what the block scorer returns; a node of zero hessian sum
        # has no candidate on either path
        rng = np.random.default_rng(34)
        found = 0
        for trial in range(40):
            x, y = random_matrix(rng, max_rows=12, max_features=4)
            zero = rng.random(len(y)) < (1.0 if trial % 10 == 0 else 0.4)
            gh = gbt._complex_pair(np.where(zero, 0.0, y), np.where(zero, 0.0, 1.0))
            orders = [np.argsort(column, kind="stable") for column in x.T]
            xv = np.array([column[order] for column, order in zip(x.T, orders)])
            ghv = np.array([gh[order] for order in orders])
            total = gh.cumsum()[-1]
            scanned = gbt._scan_block(xv.tolist(), ghv.tolist(), complex(total), 0.0, 0.0)
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                assert scanned == gbt._score_block(xv, ghv, total, 0.0, 0.0)
            if zero.all():
                assert scanned is None
            found += scanned is not None
        assert found >= 20


def two_row_case(rng, pairs=24):
    """2 * pairs rows in pairs, with integer targets that rise by 10 from
    pair to pair. Every column but 3 orders the pairs by their number (NaN
    aside), so most splits fall between pairs and most nodes near the
    leaves hold one pair. Column 0 is the pair's number i; within a pair,
    column 1 holds i + 1 and the next float (their midpoint rounds back onto
    i + 1) or two values in (i + 1, i + 2), column 2 has a NaN in one row,
    in both or in none, column 3 holds -0.0 and 0.0, one value twice or two
    values in (i, i + 1), and column 5 is 3 * column 4 + 1, so the two order
    every pair alike and tie in gain."""
    n = 2 * pairs
    number = np.repeat(np.arange(pairs), 2)
    x = number[:, None] + rng.uniform(0.01, 0.99, size=(n, 6))
    x[:, 0] = number
    x[:, 1] += 1
    for i in range(pairs):
        a, b = rng.permutation([2 * i, 2 * i + 1])
        ones, nans, zeros = rng.integers(3, size=3)
        if ones == 0:
            x[a, 1], x[b, 1] = i + 1.0, np.nextafter(i + 1.0, np.inf)
        if nans < 2:
            x[a, 2] = np.nan
            if nans == 1:
                x[b, 2] = np.nan
        if zeros == 0:
            x[a, 3], x[b, 3] = -0.0, 0.0
        elif zeros == 1:
            x[b, 3] = x[a, 3]
    x[:, 5] = 3 * x[:, 4] + 1
    return x, 10 * number + rng.integers(0, 4, size=n)


def two_row_cases(tree, x, h, max_depth):
    """Counts of what the two-row nodes of tree that may split meet: their
    number, how many split, and in how many some column holds a NaN in
    one row, a NaN in both, one value twice, -0.0 and 0.0, or two values
    whose midpoint collapses; and of the splits whose children may split
    (depth + 1 < max_depth), how many have one and how many two rows whose
    h is 2 or more."""
    counts = dict.fromkeys(
        ("nodes", "splits", "nan_one", "nan_both", "equal", "zeros", "collapse", "heavy_one", "heavy_both"), 0
    )
    nodes = tree.nodes
    for node, (depth, rows) in nodes_reached(tree, x).items():
        if len(rows) != 2 or depth >= max_depth:
            continue
        counts["nodes"] += 1
        va, vb = x[rows].tolist()
        nan = [math.isnan(p) + math.isnan(q) for p, q in zip(va, vb)]
        counts["nan_one"] += 1 in nan
        counts["nan_both"] += 2 in nan
        counts["equal"] += any(p == q and math.copysign(1, p) == math.copysign(1, q) for p, q in zip(va, vb))
        counts["zeros"] += any(p == q and math.copysign(1, p) != math.copysign(1, q) for p, q in zip(va, vb))
        counts["collapse"] += any((min(p, q) + max(p, q)) / 2.0 == min(p, q) != max(p, q) for p, q in zip(va, vb))
        if nodes["feature"][node] >= 0:
            counts["splits"] += 1
            heavy = int((h[rows] >= 2).sum())
            if depth + 1 < max_depth and heavy:
                counts["heavy_both" if heavy == 2 else "heavy_one"] += 1
    return counts


class TestTwoRowNodes:
    # a node of two rows that may split grows with its one-row children in
    # one pass; its trees must be the oracle's node for node, and a forest
    # must call its sampler at the same nodes: a one-row child whose h is 2
    # or more takes a sample first, above max_depth. In the first two
    # tests, two-row nodes and their children are at least 40% of the nodes
    def test_counted_forest_rows_match_the_oracle(self, monkeypatch):
        for _ in each_search_path(monkeypatch):
            rng = np.random.default_rng(60)
            total = Counter()
            for seed, depth in enumerate((24, 24, 7, 5, 24, 9)):
                x, y = two_row_case(rng)
                h = rng.integers(1, 4, size=len(y)).astype(float)
                args = (x, -y * h, h, depth, 0.0, 0.0)
                sampler, calls = counting_sampler(np.random.default_rng(seed), 2)
                oracle_sampler, oracle_calls = counting_sampler(np.random.default_rng(seed), 2)
                tree = grow_tree(*args, feature_sampler=sampler)
                assert_same_tree(tree, oracle_fit_tree(*args, feature_sampler=oracle_sampler))
                assert calls[0] == oracle_calls[0] > 0
                total.update(two_row_cases(tree, x, h, depth), all=len(tree.nodes))
            assert min(total.values()) >= 20, total
            assert total["nodes"] + 2 * total["splits"] >= 0.4 * total["all"]

    def test_boosted_poisson_rows_match_the_oracle(self, monkeypatch):
        # Poisson hessians exp(raw) from about 0.5 to 6, near each other
        # within a pair, lambda 0 or 1, min_split_loss 0 or 0.05; every
        # column is a candidate, so columns 4 and 5 tie at every two-row
        # node and column 5 never wins there
        for _ in each_search_path(monkeypatch):
            rng = np.random.default_rng(61)
            total = Counter()
            features = []
            for trial in range(10):
                x, y = two_row_case(rng)
                raw = np.repeat(rng.uniform(-0.5, 1.6, size=len(y) // 2), 2) + rng.uniform(-0.2, 0.2, size=len(y))
                g, h = grad_hess("poisson", y, raw)
                depth = (24, 6)[trial % 2]
                args = (x, g, h, depth, float(trial % 4 // 2), 0.05 * (trial % 3 == 2))
                tree = grow_tree(*args)
                assert_same_tree(tree, oracle_fit_tree(*args))
                total.update(two_row_cases(tree, x, h, depth), all=len(tree.nodes))
                for node, (_, rows) in nodes_reached(tree, x).items():
                    if len(rows) == 2 and tree.nodes["feature"][node] >= 0:
                        features.append(int(tree.nodes["feature"][node]))
            assert min(total.values()) >= 5, total
            assert total["nodes"] + 2 * total["splits"] >= 0.4 * total["all"]
            assert 5 not in features and 4 in features

    def test_children_sample_only_above_max_depth(self, monkeypatch):
        # every row counted twice: each two-row split's children may split
        # unless they lie at max_depth, and then take no sample
        monkeypatch.setattr(gbt, "SCAN_ELEMENTS", sys.maxsize)
        rng = np.random.default_rng(62)
        for depth in range(1, 8):
            x, y = two_row_case(rng, pairs=4)
            h = np.full(len(y), 2.0)
            args = (x, -y * h, h, depth, 0.0, 0.0)
            sampler, calls = counting_sampler(np.random.default_rng(depth), 2)
            oracle_sampler, oracle_calls = counting_sampler(np.random.default_rng(depth), 2)
            tree = grow_tree(*args, feature_sampler=sampler)
            assert_same_tree(tree, oracle_fit_tree(*args, feature_sampler=oracle_sampler))
            assert calls[0] == oracle_calls[0]


def collapse_case(rng, upper):
    """40 rows whose targets split best between 1.0 and upper: feature 0
    holds 1.0, upper or 3.0, feature 1 is constant, feature 2 is noise, and
    features 0-2 have NaN cells; feature 3 has none."""
    n = 40
    high = rng.random(n) < 0.5
    x = np.empty((n, 4))
    x[:, 0] = np.where(high, upper, 1.0)
    x[rng.random(n) < 0.2, 0] = 3.0
    x[:, 1] = 2.0
    x[:, 2] = rng.normal(size=n)
    x[:, 3] = np.round(rng.normal(size=n) * 2) / 2
    x[:, :3][rng.random((n, 3)) < 0.15] = np.nan
    y = np.where(high, 4.0, -4.0) + rng.normal(size=n)
    return x, -y, np.ones(n)


class TestMidpointCollapse:
    # the midpoint of 1.0 and the next float rounds back to 1.0, so that
    # boundary is no candidate: the search forms only the winner's
    # threshold, drops a winner whose midpoint collapses and takes the next
    # maximum, which must be the oracle's choice. A constant column with NaN
    # cells has a tail and no candidate, between columns that have both
    @pytest.mark.parametrize("cutoff", [0, 24, sys.maxsize])
    def test_collapsed_winner_is_dropped(self, monkeypatch, cutoff):
        ulp = np.nextafter(1.0, 2.0)
        assert (1.0 + ulp) / 2.0 == 1.0
        monkeypatch.setattr(gbt, "SCAN_ELEMENTS", cutoff)
        rng = np.random.default_rng(40)
        routes = set()
        for _ in range(20):
            state = rng.bit_generator.state
            x, g, h = collapse_case(rng, ulp)
            tree = grow_tree(x, g, h, 4, 1.0, 0.0)
            assert_same_tree(tree, oracle_fit_tree(x, g, h, 4, 1.0, 0.0))
            # with a midpoint that does not collapse, the root splits on that
            # boundary: the collapsed one had the best gain
            rng.bit_generator.state = state
            x_open, _, _ = collapse_case(rng, 1.0 + 2.0**-20)
            root = grow_tree(x_open, g, h, 4, 1.0, 0.0).nodes[0]
            assert root["feature"] == 0 and 1.0 < root["threshold"] < 1.0 + 2.0**-20
            routes.add(int(root["default_left"]))
        assert routes == {0, 1}  # the collapsed winner routed missing values either way


def tie_case(rng, n=5000):
    """n x 6 rows that a scratch cap of 2^14 cuts into blocks of features
    0-2 and 3-5 and a cap of 2^16 or more scores as one block. Column 4 is
    column 0 exactly, so their gains tie in different blocks at 2^14 and in
    one block at 2^16. Column 1 holds 1.0, the next float or 3.0, so its
    best boundary collapses (see TestMidpointCollapse). Columns 0-2, and so
    column 4, have NaN tails."""
    high = rng.random(n) < 0.5
    x = np.empty((n, 6))
    x[:, 0] = np.round(np.where(high, 1.0, -1.0) + rng.normal(size=n), 1)
    x[:, 1] = np.where(high, np.nextafter(1.0, 2.0), 1.0)
    x[rng.random(n) < 0.2, 1] = 3.0
    x[:, 2] = rng.normal(size=n)
    x[:, 3] = np.round(rng.normal(size=n) * 2) / 2
    x[:, 5] = rng.integers(0, 8, size=n)
    x[:, :3][rng.random((n, 3)) < 0.15] = np.nan
    x[:, 4] = x[:, 0]
    return x, np.where(high, 4.0, -4.0) + rng.normal(size=n)


def tied_pair_sampler(seed):
    """Per split, features 0 and 4 and two of the others: the tied pair is
    always a candidate."""
    draws = np.random.default_rng(seed)
    return lambda n_features: np.sort([0, 4, *draws.choice([1, 2, 3, 5], size=2, replace=False)])


@pytest.fixture(scope="module")
def tie_fits():
    """(x, fit_tree arguments, a maker of fresh samplers, oracle nodes) of a
    boosted fit and of a forest fit (resampled rows, count targets,
    per-split samples) on tie_case rows."""
    rng = np.random.default_rng(41)
    x, y = tie_case(rng)
    g, h = grad_hess("squared", y, np.zeros(len(y)))
    rows = np.sort(rng.integers(0, len(y), size=len(y)))
    counts = np.round(np.clip(y[rows] + 4.0, 0.0, None))
    boosted = (x, (g, h, 5, 1.0, 0.0), lambda: None)
    forest = (x[rows], (-counts, np.ones_like(counts), 5, 0.0, 0.0), lambda: tied_pair_sampler(7))
    return [
        (x_fit, args, sampler, oracle_fit_tree(x_fit, *args, feature_sampler=sampler()))
        for x_fit, args, sampler in (boosted, forest)
    ]


class TestChunkInvariance:
    # a later block wins only with a strictly larger gain, so every scratch
    # cap grows the same tree, and of two tied features the lower one wins
    # whether or not they share a block
    @pytest.mark.parametrize("scratch", [7, 1 << 14, 1 << 16, 1 << 18])
    def test_ties_across_block_boundaries(self, monkeypatch, tie_fits, scratch):
        monkeypatch.setattr(gbt, "SCRATCH_ELEMENTS", scratch)
        for x, args, sampler, oracle in tie_fits:
            assert x.shape == (5000, 6)
            tree = grow_tree(x, *args, feature_sampler=sampler())
            assert_same_tree(tree, oracle)
            features = tree.nodes["feature"].tolist()
            assert 4 not in features and features.count(0) >= 3

    def test_collapsed_boundary_has_the_best_root_gain(self, tie_fits):
        # with a midpoint that does not collapse, the root splits on column 1
        x, args, _, _ = tie_fits[0]
        x_open = x.copy()
        x_open[x[:, 1] == np.nextafter(1.0, 2.0), 1] = 1.0 + 2.0**-20
        assert grow_tree(x_open, *args).nodes[0]["feature"] == 1
        assert grow_tree(x, *args).nodes[0]["feature"] == 0


class TestScorerMemory:
    def test_block_scorer_temporaries_per_row(self):
        # the module's memory contract: temporaries are a small multiple of
        # the rows in the node. A one-feature block of 90,000 distinct
        # values with a NaN tail has a candidate at almost every row, and
        # the scorer's own peak stays below 64 bytes per row
        rng = np.random.default_rng(5)
        m = 90_000
        xv = np.sort(rng.normal(size=m))[None]
        xv[0, -m // 10 :] = np.nan
        ghv = gbt._complex_pair(rng.normal(size=m), rng.random(m) + 0.5)[None]
        total = ghv[0].cumsum()[-1]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                found = gbt._score_block(xv, ghv, total, 1.0, 0.0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert found is not None
        assert peak / m < 64


class TestGrowerMemory:
    def test_fit_tree_peak_within_the_documented_bound(self):
        # the module docstring's "Memory": the working copy (int32, p + 1
        # rows), one complex pair (16 bytes) and one flag per row, the node
        # records, and temporaries of at most 16 eight-byte words per
        # element of max(SCRATCH_ELEMENTS, n). The root block of 12,000 x 18
        # is over three times SCRATCH_ELEMENTS, so it is scored in chunks
        rng = np.random.default_rng(6)
        n, p = 12_000, 18
        x = rng.normal(size=(n, p))
        x[:, ::3] = np.round(x[:, ::3] * 4) / 4
        x[rng.random(x.shape) < 0.1] = np.nan
        g, h = grad_hess("squared", np.nan_to_num(2.0 * x[:, 0]) + rng.normal(size=n), np.zeros(n))
        order = gbt.presort_columns(x)  # the presort and the ranks are the caller's
        assert p * n > gbt.SCRATCH_ELEMENTS
        for ranks in (None, gbt._rank_columns(*gbt._column_cells(x), order)):  # x gather, then ranks
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tree = fit_tree(x, g, h, 6, 1.0, 0.0, order=order, ranks=ranks)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            records = 1024 * len(tree.nodes)  # a list of 7 numbers, its tuple and its array record
            bound = 4 * (p + 1) * n + 16 * n + n + records + 128 * max(gbt.SCRATCH_ELEMENTS, n)
            assert peak < bound

    def test_train_forest_peak_within_the_documented_bound(self, monkeypatch):
        # the module docstring's "Memory" for a forest: the matrix's presort
        # (int32, p + 1 rows of n) and ranks (2 bytes a cell and the tables),
        # one tree's cut of the presort and its working copy (int32, 2 (p + 1)
        # per listed row), n-sized g and h (float64), drawn mask, pairs and
        # flags (34 bytes a row), node records and temporaries of at most 16
        # eight-byte words per element of max(SCRATCH_ELEMENTS, listed rows).
        # A copy of X's listed rows would take 8 p bytes a listed row more; a
        # scratch cap of 2^10 keeps the temporaries' term below that copy
        monkeypatch.setattr(gbt, "SCRATCH_ELEMENTS", 1 << 10)
        matrix = forest_memory_case()
        n, p = matrix.X.shape
        tables = sum(8 * len(np.unique(column)) + 128 for column in matrix.X.T)
        listed = []
        fit = gbt.fit_tree

        def recording_fit(*args, order, ranks):
            listed.append(order.shape[1])
            return fit(*args, order=order, ranks=ranks)

        monkeypatch.setattr(gbt, "fit_tree", recording_fit)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            forest = train_forest(matrix, 2, 6, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert max(listed) < n
        records = 1024 * sum(len(tree.nodes) for tree in forest.trees)
        bound = (
            4 * (p + 1) * n + 2 * p * n + tables + 8 * (p + 1) * max(listed) + 34 * n + records
            + 128 * max(gbt.SCRATCH_ELEMENTS, max(listed))
        )
        assert peak < bound
        assert bound < peak + 8 * p * min(listed)  # a copy of X's rows would not fit


def forest_memory_case():
    """8,000 x 64 feature-major rows of few distinct values, 10% NaN, and
    count targets."""
    rng = np.random.default_rng(7)
    n, p = 8000, 64
    x = np.asfortranarray(np.round(rng.normal(size=(n, p)) * 4) / 4)
    x[rng.random(x.shape) < 0.1] = np.nan
    return matrix_of(x, y=rng.poisson(3.0, size=n))


def limit_case(distinct, p=12):
    """A feature-major matrix whose column 0 has exactly `distinct` distinct
    non-NaN values, -inf, +inf and both zeros among them (-0.0 and 0.0 are
    one value), with repeats and a NaN tail; columns 1 to p - 1 take few
    values and NaN. Targets step up just above 0 in column 0."""
    rng = np.random.default_rng(distinct)
    grid = (np.arange(distinct - 2) - 1000) * 0.25  # 0.0 at 1000
    column = np.concatenate([
        grid, [-np.inf, np.inf], np.full(400, -0.0), np.full(400, 0.0),
        rng.choice(grid, 1200), np.full(1000, np.nan),
    ])
    n = len(column)
    x = np.asfortranarray(np.round(rng.normal(size=(n, p)) * 3) / 2)
    x[rng.random(x.shape) < 0.1] = np.nan
    x[:, 0] = rng.permutation(column)
    y = 10.0 * (np.nan_to_num(x[:, 0], nan=-1.0) > 0) + np.nan_to_num(x[:, 1]) + rng.normal(size=n)
    g, h = grad_hess("squared", y, np.zeros(n))
    return x, g, h


def reference_ranks(x):
    """(codes, tables) of x, column by column from np.unique: rank r is the
    r-th smallest distinct non-NaN value, NaN is 0."""
    codes = np.zeros(x.shape[::-1], dtype=np.uint16)
    tables = []
    for f, column in enumerate(x.T):
        present = ~np.isnan(column)
        distinct = np.unique(column[present])
        codes[f, present] = np.searchsorted(distinct, column[present]) + 1
        tables.append(np.concatenate([[np.nan], distinct]))
    return codes, tables


@pytest.fixture
def searched_with(monkeypatch):
    """Records, per numpy-searched node, whether it gathered ranks (tables
    given) or x's cells."""
    seen = []
    search = gbt._search_node

    def recording(keys, stride, tables, *args):
        seen.append(tables is not None)
        return search(keys, stride, tables, *args)

    monkeypatch.setattr(gbt, "_search_node", recording)
    return seen


def same_tree(a, b):
    """Node arrays byte for byte: every field, every bit."""
    return a.nodes.tobytes() == b.nodes.tobytes()


class TestRankSelection:
    # fit_tree and train gather uint16 ranks when every column has at most
    # 65,534 distinct values, and x's cells otherwise; both paths give the
    # same trees bit for bit
    def test_widest_column_at_the_limit_takes_ranks(self, searched_with):
        x, g, h = limit_case(65_534)
        order = gbt.presort_columns(x)
        codes, tables = gbt._rank_columns(*gbt._column_cells(x), order)
        want_codes, want_tables = reference_ranks(x)
        assert codes.max() == 65_534 and codes.tolist() == want_codes.tolist()
        for got, want in zip(tables, want_tables, strict=True):
            assert np.isnan(got[0]) and got[1:].tolist() == want[1:].tolist()  # -0.0 == 0.0
        tree = grow_tree(x, g, h, 3, 1.0, 0.0)
        assert searched_with and all(searched_with)
        searched_with.clear()
        assert same_tree(tree, fit_tree(x, g, h, 3, 1.0, 0.0, order=order, ranks=None))  # x's cells
        assert searched_with and not any(searched_with)
        # the root splits above the zeros' rank, at half the smallest positive value
        assert tree.nodes[0]["feature"] == 0 and tree.nodes[0]["threshold"] == 0.125

    def test_one_value_more_keeps_the_x_gather(self, searched_with):
        x, g, h = limit_case(65_535)
        n, p = x.shape
        order = gbt.presort_columns(x)
        cells, stride = gbt._column_cells(x)  # a view: x is feature-major
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert gbt._rank_columns(cells, stride, order) is None
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2 * p * n  # counted first: no (p, n) uint16 array was allocated
        tree = grow_tree(x, g, h, 3, 1.0, 0.0)
        assert searched_with and not any(searched_with)
        searched_with.clear()
        # 65,535 ranks still fit in uint16: the path not taken, from the reference ranks
        ranked = fit_tree(x, g, h, 3, 1.0, 0.0, order=order, ranks=reference_ranks(x))
        assert searched_with and all(searched_with)
        assert same_tree(tree, ranked)
        assert tree.nodes[0]["feature"] == 0 and tree.nodes[0]["threshold"] == 0.125


class TestPresortArguments:
    def test_presort_lists_sorted_columns_then_rows(self):
        x = np.array([[2.0, np.nan], [1.0, 0.5], [2.0, -1.0], [np.nan, 0.5]])
        assert gbt.presort_columns(x).tolist() == [[1, 0, 2, 3], [2, 1, 3, 0], [0, 1, 2, 3]]

    def test_presort_and_ranks_must_fit_x(self):
        rng = np.random.default_rng(9)
        x, y = random_matrix(rng, max_features=3, min_rows=8)
        x = np.column_stack([x, y])  # at least two columns
        g, h = grad_hess("squared", y, np.zeros(len(y)))
        order = gbt.presort_columns(x)
        ranks = gbt._rank_columns(*gbt._column_cells(x), order)
        with pytest.raises(ValueError, match="^presort has shape"):
            fit_tree(x, g, h, 3, 1.0, 0.0, order=order[:-1], ranks=ranks)
        with pytest.raises(ValueError, match="^ranks have shape"):
            fit_tree(x[:, 1:], g, h, 3, 1.0, 0.0, order=order[1:], ranks=ranks)


class TestLeafValues:
    @pytest.mark.parametrize("scratch", [None, 7])
    def test_leaf_values_equal_apply(self, monkeypatch, scratch):
        # train() moves its scores by leaf_values, never by apply(), and the
        # last level partitions only the row-index row; a scratch cap of 7
        # also splits every partition into chunks
        if scratch is not None:
            monkeypatch.setattr(gbt, "SCRATCH_ELEMENTS", scratch)
        for _ in each_search_path(monkeypatch):
            rng = np.random.default_rng(21)
            capped = 0
            for trial in range(20):
                x, y = random_matrix(rng, max_rows=60, max_features=5)
                x[rng.random(x.shape) < 0.05] = np.inf
                x[rng.random(x.shape) < 0.05] = -np.inf
                depth = trial % 5 + 1
                if trial % 2:
                    # as train_forest grows a tree: resampled rows, -y, unit
                    # hessians, no regularisation and per-split feature samples
                    rows = np.sort(rng.integers(0, len(y), size=len(y)))
                    x, y = x[rows], np.round(np.abs(y[rows]))
                    sampler = choice_sampler(np.random.default_rng(trial), max(1, x.shape[1] // 2))
                    args = (-y, np.ones_like(y), depth, 0.0, 0.0, sampler)
                else:
                    g, h = grad_hess("squared", y, np.zeros(len(y)))
                    args = (g, h, depth, 1.0, 0.0, None)
                out = np.full(len(y), np.nan)
                tree = grow_tree(x, *args, leaf_values=out)
                assert bits(out) == bits(tree.apply(x))
                capped += tree_depth(tree) == depth
            assert capped >= 10  # most trees reach the level that skips the feature rows


def layouts(x):
    """x in each memory layout the grower and apply may be given, by name.
    The cells around x in the slices' bases hold a value x never has, so a
    gather that strays onto them changes the trees."""
    n, p = x.shape
    framed = np.full((n + 6, p), 7.25, order="F")
    framed[3 : 3 + n] = x
    rows_apart = np.full((2 * n, p), 7.25, order="F")
    rows_apart[::2] = x
    columns_apart = np.full((n, 2 * p), 7.25, order="F")
    columns_apart[:, ::2] = x
    return {
        "c_order": np.ascontiguousarray(x),
        "f_order": np.asfortranarray(x),
        "f_row_slice": framed[3 : 3 + n],
        "row_stepped": rows_apart[::2],
        "column_stepped": columns_apart[:, ::2],
    }


def layout_shapes(x):
    """The n x p matrix x, its column 1 alone (p = 1) and its row 5 alone (n = 1)."""
    return {"n x p": x, "p = 1": x[:, 1:2], "n = 1": x[5:6]}


def layout_case(seed, n=48):
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=(n, 4)) * 2) / 2  # ties
    x[rng.random(x.shape) < 0.1] = np.nan
    x[rng.random(x.shape) < 0.05] = np.inf
    return x, np.round(np.abs(rng.normal(size=n) * 3))


class TestColumnLayout:
    """The grower and apply read x column by column through
    gbt._column_cells, from a view of x's own buffer when its columns are
    contiguous (FeatureMatrix's layout) and from one copy otherwise; only
    the memory a value is read from may depend on the layout."""

    @pytest.mark.parametrize("sampled", [False, True], ids=["all_features", "sampler"])
    def test_layouts_give_identical_trees(self, monkeypatch, sampled):
        x_all, y_all = layout_case(1)
        z_all, _ = layout_case(2, n=30)  # rows for apply alone
        for _ in each_search_path(monkeypatch):
            for shape, x in layout_shapes(x_all).items():
                y = y_all[: len(x)]
                p = x.shape[1]
                z = z_all[:, :p]
                if sampled:  # as train_forest grows a tree
                    g, h, depth, lam = -y, np.ones_like(y), 6, 0.0
                else:
                    (g, h), depth, lam = grad_hess("squared", y, np.zeros(len(y))), 4, 1.0

                def sampler():
                    return choice_sampler(np.random.default_rng(3), max(1, p // 2)) if sampled else None

                fitted = {}
                for name, xl in layouts(x).items():
                    out = np.full(len(x), np.nan)
                    tree = grow_tree(xl, g, h, depth, lam, 0.0, feature_sampler=sampler(), leaf_values=out)
                    applied = [tree.apply(zl).tobytes() for zl in layouts(z).values()]
                    fitted[name] = (tree.nodes.tobytes(), out.tobytes(), applied)
                reference = fitted.pop("c_order")
                for name, result in fitted.items():
                    assert result == reference, (shape, name)
                assert_same_tree(tree, oracle_fit_tree(x, g, h, depth, lam, 0.0, sampler()))
                assert tree.apply(z).tolist() == oracle_apply(tree.nodes, z).tolist()
                if shape == "n x p":
                    assert len(tree.nodes) > 7  # the cases split on several levels

    def test_only_layouts_without_contiguous_columns_copy(self):
        x, _ = layout_case(1)
        for shape, part in layout_shapes(x).items():
            for name, xl in layouts(part).items():
                n, p = xl.shape
                flat, stride = gbt._column_cells(xl)
                cells = flat.take(np.arange(p) * stride + np.arange(n)[:, None])
                assert bits(cells.ravel()) == bits(xl.ravel()), (shape, name)
                contiguous = n == 1 or xl.strides[0] == xl.itemsize
                assert np.shares_memory(flat, xl) == contiguous, (shape, name)
        # the two layouts that copy at n x p
        assert [xl.strides[0] == 8 for xl in layouts(x).values()] == [False, True, True, False, True]


class TestLossValue:
    def test_poisson_matches_pointwise(self):
        y = np.array([0.0, 2.0, 5.0])
        raw = np.array([0.1, 0.4, 1.2])
        expected = np.mean([poisson_pointwise(a, b) for a, b in zip(y, raw)])
        assert loss_value("poisson", y, raw) == pytest.approx(expected)

    def test_squared_matches_pointwise(self):
        y = np.array([1.0, 4.0])
        raw = np.array([2.0, 2.0])
        assert loss_value("squared", y, raw) == pytest.approx((0.5 + 2.0) / 2)
