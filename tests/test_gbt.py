import gc
import json
import math
import re

import numpy as np
import pytest

from demandcast import gbt
from demandcast.features import FeatureMatrix
from demandcast.ingest import RunConfig, SchemaError
from demandcast.gbt import (
    NODE_DTYPE,
    BoostedModel,
    Tree,
    best_split,
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
    finite_diff_grad_hess,
    oracle_apply,
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
        life_at_forecast=np.zeros(x.shape[0], dtype=np.int64),
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


class TestBestSplit:
    def test_textbook_split(self):
        x = np.array([0.0, 0.0, 1.0, 1.0])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        g, h = grad_hess("squared", y, np.zeros(4))
        cand = best_split(x, g, h, reg_lambda=0.0, min_split_loss=0.0)
        assert cand.threshold == 0.5
        assert cand.gain == 50.0
        left = leaf_weight(g[:2].sum(), h[:2].sum(), 0.0)
        right = leaf_weight(g[2:].sum(), h[2:].sum(), 0.0)
        assert (left, right) == (0.0, 10.0)

    def test_equal_targets_no_split(self):
        y = np.full(4, 7.0)
        g, h = grad_hess("squared", y, np.full(4, 7.0))
        assert best_split(np.array([0.0, 1.0, 2.0, 3.0]), g, h, 0.0, 0.0) is None

    def test_min_split_loss_blocks(self):
        x = np.array([0.0, 0.0, 1.0, 1.0])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        g, h = grad_hess("squared", y, np.zeros(4))
        assert best_split(x, g, h, 0.0, min_split_loss=60.0) is None
        assert best_split(x, g, h, 0.0, min_split_loss=49.0).gain == pytest.approx(1.0)

    def test_missing_routed_where_it_helps(self):
        # the NaN row carries a strong positive gradient: grouping it with the
        # high-target side (right) must win
        x = np.array([0.0, 0.0, 1.0, 1.0, np.nan])
        y = np.array([0.0, 0.0, 10.0, 10.0, 10.0])
        g, h = grad_hess("squared", y, np.zeros(5))
        cand = best_split(x, g, h, 0.0, 0.0)
        assert cand is not None
        assert not cand.default_left

    def test_missing_defaults_left_on_tie(self):
        # no missing values at all: both routings identical, prefer left
        x = np.array([0.0, 1.0])
        g = np.array([1.0, -1.0])
        h = np.array([1.0, 1.0])
        cand = best_split(x, g, h, 0.0, 0.0)
        assert cand.default_left

    def test_all_equal_values_no_split(self):
        g = np.array([1.0, -1.0])
        h = np.array([1.0, 1.0])
        assert best_split(np.array([3.0, 3.0]), g, h, 0.0, 0.0) is None


class TestTieBreaking:
    def test_duplicate_features_pick_lowest_index(self):
        # integer-exact data: both columns produce bit-identical gains
        col = np.array([0.0, 0.0, 1.0, 1.0])
        x = np.stack([col, col], axis=1)
        y = np.array([0.0, 0.0, 8.0, 8.0])
        g, h = grad_hess("squared", y, np.zeros(4))
        tree = fit_tree(x, g, h, max_depth=1, reg_lambda=0.0, min_split_loss=0.0)
        assert tree.nodes["feature"][0] == 0

    def test_equal_gain_thresholds_pick_lowest(self):
        # symmetric integer targets: splitting at 0.5 and 2.5 give equal gain
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([8.0, 0.0, 0.0, 8.0])
        g, h = grad_hess("squared", y, np.zeros(4))
        tree = fit_tree(x, g, h, max_depth=1, reg_lambda=0.0, min_split_loss=0.0)
        assert tree.nodes["threshold"][0] == 0.5


class TestTrain:
    def test_depth_zero_single_leaf_predicts_mean(self):
        matrix = matrix_of(np.arange(8).reshape(4, 2), y=[1.0, 2.0, 3.0, 6.0])
        params = RunConfig(loss="squared", learning_rate=1.0, max_depth=0, rounds=1, min_split_loss=0.0)
        model = train(matrix, params)
        assert np.allclose(model.predict_array(matrix.X), 3.0)

    def test_poisson_constant_target_first_tree_noop(self):
        matrix = matrix_of(np.arange(12).reshape(6, 2), y=[4.0] * 6)
        params = RunConfig(loss="poisson", learning_rate=1.0, max_depth=3, rounds=1, min_split_loss=0.0)
        model = train(matrix, params)
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
        model = train(matrix, params)
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
        model = train(matrix, params)
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
            fit_tree(x, g, h, max_depth=4, reg_lambda=1.0, min_split_loss=0.0)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_empty_matrix_rejected(self):
        matrix = matrix_of(np.empty((0, 2)), y=[])
        with pytest.raises(ValueError, match="empty"):
            train(matrix, RunConfig(rounds=100, min_split_loss=0.0))

    def test_poisson_negative_targets_rejected(self):
        matrix = matrix_of([[0.0], [1.0]], y=[-1.0, 2.0])
        with pytest.raises(ValueError, match="non-negative"):
            train(matrix, RunConfig(loss="poisson", rounds=100, min_split_loss=0.0))


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


class TestPredict:
    def test_zero_tree_model_returns_exp_base(self):
        model = BoostedModel(
            loss="poisson", base_score=math.log(3.0), learning_rate=0.1,
            feature_names=["f0"], trees=[], best_round=0,
        )
        matrix = matrix_of([[1.0], [2.0]])
        assert np.allclose(predict(model, matrix), 3.0)

    def test_exact_fit_toy_model(self):
        matrix = matrix_of([[0.0], [0.0], [1.0], [1.0]], y=[0.0, 0.0, 10.0, 10.0])
        params = RunConfig(
            loss="squared", learning_rate=1.0, max_depth=1, rounds=1, reg_lambda=0.0,
            min_split_loss=0.0,
        )
        model = train(matrix, params)
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
            feature_names=["a", "b"], trees=[], best_round=0,
        )
        with pytest.raises(ValueError, match="schema"):
            predict(model, matrix_of([[1.0]], columns=["a"]))

    def test_poisson_predictions_strictly_positive(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 3))
        y = rng.poisson(np.exp(0.3 * x[:, 0])).astype(float)
        matrix = matrix_of(x, y=y)
        params = RunConfig(loss="poisson", rounds=20, learning_rate=0.3, max_depth=3, min_split_loss=0.0)
        model = train(matrix, params)
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


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 3))
        x[rng.random(x.shape) < 0.15] = np.nan
        y = rng.poisson(3.0, size=50).astype(float)
        matrix = matrix_of(x, y=y)
        params = RunConfig(loss="poisson", rounds=10, learning_rate=0.2, max_depth=4, min_split_loss=0.0)
        model = train(matrix, params)
        text = model_to_json(model)
        loaded = model_from_json(text)
        assert model_to_json(loaded) == text
        assert loaded.base_score == model.base_score
        assert np.array_equal(loaded.predict_array(x), model.predict_array(x))

    def test_version_checked(self):
        with pytest.raises(ValueError, match="version"):
            model_from_json('{"version": 99}')


def small_model_doc():
    """A two-round model whose first tree splits at its root."""
    x = np.array([[0.0, 1.0], [0.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
    params = RunConfig(loss="squared", learning_rate=1.0, max_depth=2, rounds=2, min_split_loss=0.0)
    model = train(matrix_of(x, y=[0.0, 0.0, 10.0, 10.0]), params)
    doc = json.loads(model_to_json(model))
    assert doc["trees"][0][0][0] >= 0 and len(doc["trees"][0]) >= 3
    return doc


def set_root_loop(doc):
    doc["trees"][0][0][3] = 0  # the root's left child is the root itself
    doc["trees"][0][0][1] = 1e308  # so every finite value goes left, forever


def set_short_node(doc):
    doc["trees"][0][1] = doc["trees"][0][1][:3]


def set_unknown_feature(doc):
    doc["trees"][0][0][0] = 999


def set_feature_past_end(doc):
    doc["trees"][0][0][0] = len(doc["feature_names"])


def set_negative_feature(doc):
    doc["trees"][0][0][0] = -2


def set_float_feature(doc):
    doc["trees"][0][0][0] = 0.0  # numpy cannot index a column with a float


def set_right_past_end(doc):
    doc["trees"][0][0][4] = len(doc["trees"][0])


def set_negative_best_round(doc):
    doc["best_round"] = -1


def set_large_best_round(doc):
    doc["best_round"] = len(doc["trees"]) + 1


def set_leaf_with_children(doc):
    doc["trees"][0][1][0] = -1
    doc["trees"][0][1][3:5] = [2, 2]


def set_shared_child(doc):
    # every link points forward, but node 2 is the child of nodes 0 and 1:
    # a chain of such nodes multiplies the paths apply() walks
    doc["trees"][0] = [
        [0, 0.5, 1, 1, 2, 0.0, 1.0],
        [1, 2.5, 1, 2, 3, 0.0, 1.0],
        [-1, 0.0, 1, -1, -1, 1.0, 0.0],
        [-1, 0.0, 1, -1, -1, 2.0, 0.0],
    ]


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
    doc["trees"][0][-1][5] = math.nan


def set_infinite_leaf_weight(doc):
    doc["trees"][1][-1][5] = math.inf


def set_nan_threshold(doc):
    doc["trees"][0][0][1] = math.nan


def set_word_default_left(doc):
    doc["trees"][0][0][2] = "sideways"


def set_two_default_left(doc):
    doc["trees"][0][-1][2] = 2


def set_bool_default_left(doc):
    doc["trees"][1][0][2] = True


def set_word_gain(doc):
    doc["trees"][0][0][6] = "x"


def set_nan_gain(doc):
    doc["trees"][0][-1][6] = math.nan


def set_infinite_gain(doc):
    doc["trees"][1][0][6] = math.inf


def set_huge_int_weight(doc):
    doc["trees"][0][-1][5] = 10**400  # a JSON integer no float holds


def set_huge_int_threshold(doc):
    doc["trees"][0][0][1] = 10**400


def set_huge_int_base_score(doc):
    doc["base_score"] = -(10**400)


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

    def test_infinite_threshold_accepted(self):
        doc = small_model_doc()
        doc["trees"][0][0][1] = math.inf
        doc["trees"][1][0][1] = -math.inf
        model = model_from_json(json.dumps(doc))
        assert model.trees[0].nodes["threshold"][0] == math.inf
        assert model.trees[1].nodes["threshold"][0] == -math.inf
        assert model.predict_array(np.array([[5.0, 5.0]])).shape == (1,)


class TestForest:
    def test_single_plain_tree_equals_regression_fit(self):
        # one feature leaves nothing to sample, so a one-tree forest is the
        # plain regression tree on the seed's bootstrap rows
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 1))
        y = rng.normal(size=40) + 3.0
        forest = train_forest(matrix_of(x, y=y), 1, 4, seed=0)
        rows = np.sort(np.random.default_rng(0).integers(0, 40, 40))
        reference = fit_tree(
            x[rows], -y[rows], np.ones(40), max_depth=4, reg_lambda=0.0, min_split_loss=0.0
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


def tree_depth(tree):
    """Longest root-to-leaf path, following the node links."""
    depth = {0: 0}
    for idx, (feature, _, _, left, right, _, _) in enumerate(tree.nodes.tolist()):
        if feature >= 0:
            depth[left] = depth[right] = depth[idx] + 1
    return max(depth.values())


def random_matrix(rng, max_rows=32, max_features=3):
    n = int(rng.integers(4, max_rows + 1))
    p = int(rng.integers(1, max_features + 1))
    x = rng.normal(size=(n, p))
    # quantize some columns to force duplicate values, and add missing cells
    for j in range(p):
        if rng.random() < 0.5:
            x[:, j] = np.round(x[:, j] * 2) / 2
    x[rng.random(x.shape) < 0.15] = np.nan
    y = rng.normal(size=n) * 3
    return x, y


def assert_same_tree(tree, oracle_nodes):
    """Field by field: links and features equal, leaf weights and split rules exact."""
    nodes = tree.nodes
    assert nodes.dtype == NODE_DTYPE
    ref = {name: np.array([getattr(o, name) for o in oracle_nodes]) for name in NODE_DTYPE.names}
    assert len(nodes) == len(oracle_nodes)
    for name in ("feature", "left", "right"):
        assert nodes[name].tolist() == ref[name].tolist(), name
    leaf = nodes["feature"] < 0
    assert nodes["weight"][leaf].tolist() == ref["weight"][leaf].tolist()
    assert nodes["threshold"][~leaf].tolist() == ref["threshold"][~leaf].tolist()
    assert nodes["default_left"][~leaf].tolist() == ref["default_left"][~leaf].astype(int).tolist()
    assert nodes["gain"][~leaf] == pytest.approx(ref["gain"][~leaf], rel=1e-12, abs=1e-12)


class TestOracleEquivalence:
    def test_trees_match_brute_force(self):
        rng = np.random.default_rng(8)
        for trial in range(12):
            x, y = random_matrix(rng)
            g, h = grad_hess("squared", y, np.zeros(len(y)))
            lam = float(rng.choice([0.0, 1.0]))
            msl = float(rng.choice([0.0, 0.05]))
            depth = int(rng.integers(1, 4))
            tree = fit_tree(x, g, h, max_depth=depth, reg_lambda=lam, min_split_loss=msl)
            oracle = oracle_fit_tree(x, g, h, max_depth=depth, reg_lambda=lam, min_split_loss=msl)
            assert_same_tree(tree, oracle)

    def test_recorded_gains_exceed_min_split_loss(self):
        rng = np.random.default_rng(9)
        x, y = random_matrix(rng, max_rows=30)
        g, h = grad_hess("squared", y, np.zeros(len(y)))
        tree = fit_tree(x, g, h, max_depth=4, reg_lambda=0.5, min_split_loss=0.05)
        internal = tree.nodes[tree.nodes["feature"] >= 0]
        assert internal.size and (internal["gain"] >= 0.05).all()

    def test_tree_structural_invariants(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            x, y = random_matrix(rng, max_rows=40)
            g, h = grad_hess("squared", y, np.zeros(len(y)))
            depth_cap = int(rng.integers(1, 5))
            tree = fit_tree(x, g, h, max_depth=depth_cap, reg_lambda=0.5, min_split_loss=0.0)
            assert tree_depth(tree) <= depth_cap
            nodes = tree.nodes
            leaf = nodes["feature"] < 0
            assert np.isfinite(nodes["weight"][leaf]).all()
            for link in ("left", "right"):
                assert ((0 < nodes[link][~leaf]) & (nodes[link][~leaf] < len(nodes))).all()

    def test_chunked_search_and_partition_match_brute_force(self, monkeypatch):
        # a tiny scratch cap splits every node's features and work rows into
        # several chunks, which the small matrices above never do
        monkeypatch.setattr(gbt, "SCRATCH_ELEMENTS", 7)
        rng = np.random.default_rng(12)
        for _ in range(6):
            x, y = random_matrix(rng, max_rows=40, max_features=5)
            g, h = grad_hess("squared", y, np.zeros(len(y)))
            tree = fit_tree(x, g, h, max_depth=4, reg_lambda=1.0, min_split_loss=0.0)
            oracle = oracle_fit_tree(x, g, h, max_depth=4, reg_lambda=1.0, min_split_loss=0.0)
            assert_same_tree(tree, oracle)

    def test_infinite_values_split_like_finite_ones(self):
        # only NaN is missing: +-inf are ordinary values that take part in
        # candidate thresholds and are routed by comparison, as in apply()
        rng = np.random.default_rng(16)
        for _ in range(6):
            x, y = random_matrix(rng, max_rows=40)
            x[rng.random(x.shape) < 0.1] = np.inf
            x[rng.random(x.shape) < 0.05] = -np.inf
            g, h = grad_hess("squared", y, np.zeros(len(y)))
            tree = fit_tree(x, g, h, max_depth=3, reg_lambda=1.0, min_split_loss=0.0)
            oracle = oracle_fit_tree(x, g, h, max_depth=3, reg_lambda=1.0, min_split_loss=0.0)
            assert_same_tree(tree, oracle)

    def test_forest_trees_match_brute_force(self):
        # bootstrap-duplicated rows and per-split feature sampling, as
        # train_forest grows them: both growers draw from equally seeded
        # generators, so they agree only if they call the sampler at the
        # same nodes in the same order
        rng = np.random.default_rng(13)
        for trial in range(8):
            base, target = random_matrix(rng, max_rows=40, max_features=5)
            rows = np.sort(rng.integers(0, len(target), size=len(target)))
            x, y = base[rows], target[rows]
            p = x.shape[1]
            n_sub = max(1, p // 2)

            def sampler_from(seed):
                draws = np.random.default_rng(seed)
                return lambda n_features: np.sort(draws.choice(n_features, size=n_sub, replace=False))

            depth = int(rng.integers(2, 7))
            tree = fit_tree(x, -y, np.ones_like(y), depth, 0.0, 0.0, feature_sampler=sampler_from(trial))
            oracle = oracle_fit_tree(
                x, -y, np.ones_like(y), depth, 0.0, 0.0, feature_sampler=sampler_from(trial)
            )
            assert_same_tree(tree, oracle)


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
