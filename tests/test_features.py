import numpy as np
import pytest

from demandcast import features, seasonal
from demandcast.core import Catalog
from demandcast.features import (
    LAG_DEPTH,
    CovariateView,
    _KeyedSeries,
    build_matrix,
    fit_encoding,
    fnv1a64,
    hash_encode,
    life_at_issue,
    ordinal_encode,
    split_rows,
)
from demandcast.ingest import RunConfig
from demandcast.preprocess import preprocess_panel
from demandcast.seasonal import fit_seasonality

from .oracles import (
    columnar_covariates,
    fnv1a64_reference,
    rowwise_build_matrix,
    rowwise_split_rows,
)
from .test_core import make_panel

# frozen reference: independent FNV-1a implementation, computed once
TOYS_FNV1A64 = 4977285706153611356


def keys_of(matrix):
    """The matrix's (product id, target week) row keys as a list of tuples."""
    return list(zip(matrix.product_ids.tolist(), matrix.target_weeks.tolist()))


def life_of(matrix, panel, horizon):
    """life_at_issue of every matrix row, its panel row looked up by product id."""
    rows = np.array([panel.index[pid] for pid in matrix.product_ids], dtype=np.int64)
    return life_at_issue(panel.on_sale_mask, rows, matrix.target_weeks, horizon)


class TestOrdinalEncode:
    def test_sorted_ids(self):
        mapping = ordinal_encode(["B", "A", "A"])
        assert mapping.mapping == {"A": 0, "B": 1}

    def test_singleton(self):
        assert ordinal_encode(["X"]).mapping == {"X": 0}

    def test_unseen_gets_reserved_id(self):
        mapping = ordinal_encode(["A", "B"])
        assert mapping.encode("Z") == 2

    def test_stable_across_input_order(self):
        assert ordinal_encode(["c", "a", "b"]).mapping == ordinal_encode(["b", "c", "a"]).mapping


class TestHashEncode:
    def test_deterministic(self):
        assert hash_encode("same", 64) == hash_encode("same", 64)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            token = "".join(chr(c) for c in rng.integers(33, 127, size=rng.integers(1, 12)))
            assert 0 <= hash_encode(token, 7) < 7

    def test_frozen_reference_value(self):
        assert fnv1a64(b"TOYS") == TOYS_FNV1A64
        assert fnv1a64(b"TOYS") == fnv1a64_reference(b"TOYS")
        assert hash_encode("TOYS", 64) == TOYS_FNV1A64 % 64

    def test_buckets_floor(self):
        with pytest.raises(ValueError):
            hash_encode("x", 1)


class TestImputation:
    def table(self):
        return columnar_covariates(
            temporal={
                "event": {0: 0.0, 1: 1.0, 2: 0.0, 10: 1.0},
                "weather": {0: 12.0, 2: 20.0, 4: 14.0},
            },
            mixed={"price": {("p1", 0): 10.0, ("p1", 1): 10.0, ("p1", 2): 12.0}},
            predictable={"event": True, "weather": False, "price": False},
            products=("p1", "p9"),
        )

    def value(self, key, pid, target_week, known_until):
        view = CovariateView(self.table(), tau=4, products=("p1", "p9"))
        row = np.array([("p1", "p9").index(pid)])
        return view.column(key, row, np.array([target_week]), np.array([known_until]))[0]

    def test_known_future_passthrough(self):
        assert self.value("event", "p1", 10, known_until=9) == 1.0

    def test_price_mean_of_past(self):
        assert self.value("price", "p1", 8, known_until=7) == pytest.approx(32 / 3)

    def test_weather_single_seasonal_observation(self):
        assert self.value("weather", "p1", 6, known_until=5) == 20.0  # position 2

    def test_seasonal_mean_of_two(self):
        # target week 8 sits at position 0; weeks 0 and 4 are the past observations there
        assert self.value("weather", "p1", 8, known_until=7) == pytest.approx((12.0 + 14.0) / 2)

    def test_cutoff_respected(self):
        assert self.value("price", "p1", 8, known_until=1) == pytest.approx(10.0)

    def test_absent_everything_is_nan(self):
        assert np.isnan(self.value("price", "p9", 8, known_until=7))


class TestKeyedSeriesSums:
    """sums against a running sum over each group alone, in week order, bit for bit."""

    @staticmethod
    def running_sums(groups, weeks, values):
        out = []
        for group in sorted(set(groups.tolist())):
            total = None
            entries = zip(groups.tolist(), weeks.tolist(), values.tolist())
            for _, value in sorted((w, v) for g, w, v in entries if g == group):
                total = value if total is None else total + value
                out.append(total)
        return np.array(out, dtype=float)

    @pytest.mark.parametrize("block_cells", [None, 1, 7])
    def test_matches_per_group_running_sum(self, monkeypatch, block_cells):
        if block_cells is not None:
            monkeypatch.setattr(features, "SUMS_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(31)
        empty = np.zeros(0, dtype=np.int64)
        cases = [
            (empty, empty, np.zeros(0)),  # no entries
            (np.zeros(40, np.int64), rng.permutation(40), rng.normal(size=40)),  # one group
            (rng.permutation(25) * 3, rng.integers(0, 9, 25), rng.normal(size=25)),  # singletons
        ]
        for _ in range(60):
            groups, weeks = [], []
            for group in rng.choice(1000, size=int(rng.integers(1, 30)), replace=False):
                n = int(rng.integers(1, 20))
                groups += [group] * n
                weeks += rng.choice(50, size=n, replace=False).tolist()
            order = rng.permutation(len(groups))
            values = rng.normal(size=order.size) * 10.0 ** rng.uniform(-3, 6, size=order.size)
            values[rng.random(order.size) < 0.05] = -0.0
            cases.append((np.array(groups)[order], np.array(weeks)[order], values))
        for groups, weeks, values in cases:
            sums = _KeyedSeries(groups, weeks, values).sums
            assert sums.tobytes() == self.running_sums(groups, weeks, values).tobytes()


def pipeline_inputs(n_weeks=30, n_products=3, seed=0, launches=None):
    rng = np.random.default_rng(seed)
    y = rng.poisson(6.0, size=(n_products, n_weeks)).astype(np.int64)
    on_sale = np.ones((n_products, n_weeks), dtype=bool)
    if launches:
        for row, launch in launches.items():
            on_sale[row, :launch] = False
    y[~on_sale] = 0
    panel = make_panel(y, on_sale=on_sale)
    catalog = Catalog(
        {f"p{i}": ("toys" if i % 2 == 0 else "garden") for i in range(n_products)},
        {f"p{i}": 10.0 + i for i in range(n_products)},
        {f"p{i}": {"brand": f"b{i % 2}"} for i in range(n_products)},
    )
    repaired, smoothed = preprocess_panel(panel, window=8, gamma=3.0)
    model = fit_seasonality(smoothed, repaired, catalog, tau=52, k=2, seed=0)
    return panel, repaired, smoothed, catalog, model


class TestLifeAtIssue:
    def test_on_sale_weeks_up_to_the_issue_week_or_zero_before_the_panel(self):
        on_sale = np.array([[True, False, True, True], [False, True, True, True]])
        rows = np.array([0, 0, 1, 0, 0])
        targets = np.array([2, 5, 3, 1, 0])  # horizon 2: issued at weeks 0, 3, 1, -1, -2
        assert life_at_issue(on_sale, rows, targets, 2).tolist() == [1, 3, 1, 0, 0]


def split_matrix(repaired, smoothed, catalog, model, covariates, config):
    """build_matrix over every row of config's split."""
    rows, weeks, _ = split_rows(repaired.on_sale_mask, config)
    return build_matrix(
        repaired, smoothed, catalog, model, covariates, config, rows, weeks,
        fit_encoding(catalog, config),
    )


def last_week_matrix(repaired, smoothed, catalog, model, covariates, config):
    """build_matrix over the products on sale in the panel's last week, as predict builds it."""
    rows = np.flatnonzero(repaired.on_sale_mask[:, -1])
    weeks = np.full(rows.size, repaired.n_weeks - 1)
    return build_matrix(
        repaired, smoothed, catalog, model, covariates, config, rows, weeks,
        fit_encoding(catalog, config),
    )


class TestSplitRows:
    def config(self, **kw):
        return RunConfig(**{"train_len": 20, "valid_len": 4, "test_len": 6, **kw})

    def test_matches_the_row_by_row_rule(self):
        rng = np.random.default_rng(4)
        on_sale = rng.random((6, 33)) > 0.4
        on_sale[2] = False  # never on sale: no rows
        on_sale[3, :29] = False  # launched after the last issue week: no rows
        # horizon 20 leaves the train part empty, 24 the train and valid parts
        for horizon in (6, 1, 20, 24, 29):
            config = self.config(horizon=horizon)
            rows, weeks, bounds = split_rows(on_sale, config)
            expected = sorted(rowwise_split_rows(on_sale, config), key=lambda row: row[2])
            counts = np.bincount([part for *_, part in expected], minlength=3)
            assert bounds == [0, *np.cumsum(counts).tolist()]
            assert list(zip(rows.tolist(), weeks.tolist())) == [(i, t) for i, t, _ in expected]

    def test_last_issue_week_targets_the_last_test_week(self):
        _, weeks, bounds = split_rows(np.ones((1, 40), dtype=bool), self.config())
        assert weeks.tolist() == list(range(24))  # issued at 0-23 for targets 6-29
        assert bounds == [0, 14, 18, 24]

    def test_horizon_beyond_the_split_rejected(self):
        with pytest.raises(
            ValueError, match=r"^horizon 30 leaves no week to forecast target week 29 from$"
        ):
            split_rows(np.ones((1, 30), dtype=bool), self.config(horizon=30))


class TestBuildMatrix:
    def config(self, **kw):
        return RunConfig(**{"train_len": 10, "valid_len": 4, "test_len": 6, **kw})

    def test_row_count_continuous_product(self):
        _, repaired, smoothed, catalog, model = pipeline_inputs(n_weeks=20, n_products=1)
        matrix = split_matrix(repaired, smoothed, catalog, model, None, self.config())
        assert matrix.n_rows == 14
        assert matrix.target_weeks.tolist() == list(range(6, 20))

    def test_cold_start_rows_have_missing_lags(self):
        _, repaired, smoothed, catalog, model = pipeline_inputs(
            n_weeks=20, n_products=2, launches={1: 12}
        )
        matrix = split_matrix(repaired, smoothed, catalog, model, None, self.config())
        rows_p1 = np.flatnonzero(matrix.product_ids == "p1")
        assert matrix.target_weeks[rows_p1].tolist() == [18, 19]  # t = 12, 13
        first = matrix.X[rows_p1[0]]
        lag_cols = matrix.columns[:LAG_DEPTH]
        assert np.isnan(first[lag_cols.index("lag_1") :  LAG_DEPTH]).all()
        assert not np.isnan(first[lag_cols.index("lag_0")])
        assert life_of(matrix, repaired, self.config().horizon)[rows_p1[0]] == 1

    def test_predict_mode(self):
        # rows issued at the panel's last week target weeks past it: no targets
        _, repaired, smoothed, catalog, model = pipeline_inputs(n_weeks=20, n_products=3)
        matrix = last_week_matrix(repaired, smoothed, catalog, model, None, self.config())
        assert matrix.n_rows == 3
        assert matrix.targets is None
        assert (matrix.target_weeks == 25).all()

    def test_no_duplicate_keys_and_target_alignment(self):
        panel, repaired, smoothed, catalog, model = pipeline_inputs(n_weeks=30, n_products=3)
        config = self.config(train_len=20)
        matrix = split_matrix(repaired, smoothed, catalog, model, None, config)
        keys = keys_of(matrix)
        assert len(set(keys)) == matrix.n_rows
        for idx, (pid, week) in enumerate(keys):
            assert matrix.targets[idx] == repaired.y[repaired.index[pid], week]

    def test_targets_are_repaired_not_smoothed(self):
        y = np.array([[5, 5, 0, 5, 5, 5, 5, 5, 5, 80, 5, 5]])
        stock = np.ones_like(y, dtype=bool)
        stock[0, 2] = False
        panel = make_panel(y, stock=stock)
        catalog = Catalog({"p0": "c"}, {"p0": 1.0}, {})
        repaired, smoothed = preprocess_panel(panel, window=4, gamma=1.0)
        config = RunConfig(horizon=2, train_len=8, valid_len=2, test_len=2, with_seasonality=False)
        matrix = split_matrix(repaired, smoothed, catalog, None, None, config)
        by_key = dict(zip(keys_of(matrix), matrix.targets))
        assert by_key[("p0", 2)] == 5.0   # repaired fake zero
        assert by_key[("p0", 9)] == 80.0  # spike target kept, not capped
        assert smoothed.x[0, 9] < 80.0

    def test_hashing_mode_changes_encoding_only(self):
        _, repaired, smoothed, catalog, model = pipeline_inputs(n_weeks=20, n_products=2)
        ordinal = split_matrix(
            repaired, smoothed, catalog, model, None, self.config(encoding="ordinal")
        )
        hashed = split_matrix(
            repaired, smoothed, catalog, model, None, self.config(encoding="hashing")
        )
        assert ordinal.columns == hashed.columns
        numeric = [c for c in ordinal.columns if not (c == "category" or c.startswith("attr_"))]
        for col in numeric:
            idx = ordinal.columns.index(col)
            assert np.array_equal(ordinal.X[:, idx], hashed.X[:, idx], equal_nan=True)

    def test_row_count_formula(self):
        rng = np.random.default_rng(9)
        n_weeks, t_end, h = 30, 20, 6
        y = rng.poisson(4.0, size=(5, n_weeks)).astype(np.int64)
        on_sale = rng.random((5, n_weeks)) > 0.3
        y[~on_sale] = 0
        panel = make_panel(y, on_sale=on_sale)
        catalog = Catalog(
            {f"p{i}": "c" for i in range(5)}, {f"p{i}": 1.0 for i in range(5)}, {}
        )
        repaired, smoothed = preprocess_panel(panel, 8, 3.0)
        # the split's last target week is t_end + h
        config = RunConfig(
            horizon=h, train_len=20, valid_len=3, test_len=4, with_seasonality=False
        )
        matrix = split_matrix(repaired, smoothed, catalog, None, None, config)
        expected = 0
        for i in range(5):
            launches = np.flatnonzero(on_sale[i])
            if launches.size == 0 or launches[0] > t_end:
                continue
            expected += int(on_sale[i, launches[0] : t_end + 1].sum())
        assert matrix.n_rows == expected

    def test_no_leakage_under_truncation(self):
        """Features for week t rebuilt from data up to t match the full build."""
        rng = np.random.default_rng(42)
        n_weeks, n_products = 40, 4
        y = rng.poisson(8.0, size=(n_products, n_weeks)).astype(np.int64)
        panel = make_panel(y)  # always in stock: repair is identity, smoothing causal
        catalog = Catalog(
            {f"p{i}": "c" for i in range(n_products)},
            {f"p{i}": 5.0 for i in range(n_products)},
            {},
        )
        temporal = {"event": {t: float(t % 7 == 0) for t in range(n_weeks + 6)}}
        mixed = {"price_week": {(f"p{i}", t): 5.0 + (t % 3) for i in range(n_products) for t in range(n_weeks)}}
        predictable = {"event": True, "price_week": False}
        covariates = columnar_covariates(temporal, mixed, predictable, panel.products)
        config = RunConfig(train_len=30, valid_len=4, test_len=6)
        repaired, smoothed = preprocess_panel(panel, 8, 3.0)
        model = fit_seasonality(smoothed, repaired, catalog, 52, 1, seed=0, end_week=28)
        t = 28
        full = split_matrix(repaired, smoothed, catalog, model, covariates, config)
        rows_at_t = np.flatnonzero(full.target_weeks == t + config.horizon)

        truncated = make_panel(y[:, : t + 1])
        cov_trunc = columnar_covariates(
            temporal,  # known future stays available
            {"price_week": {key: value for key, value in mixed["price_week"].items() if key[1] <= t}},
            predictable,
            truncated.products,
        )
        repaired_t, smoothed_t = preprocess_panel(truncated, 8, 3.0)
        assert np.array_equal(smoothed_t.x, smoothed.x[:, : t + 1])
        again = last_week_matrix(repaired_t, smoothed_t, catalog, model, cov_trunc, config)
        assert keys_of(again) == [keys_of(full)[idx] for idx in rows_at_t]
        rebuilt = again.X
        original = full.X[rows_at_t]
        assert np.array_equal(original, rebuilt, equal_nan=True)


def exactness_inputs(seed=3):
    """A small panel built to reach every branch of the feature definitions.

    Rows 0-2 sell with random off-sale gaps, row 3 is constant (exact-zero
    slopes), row 4 sells nothing while listed (zero mean level), rows 5-7
    launch late enough that their windows hold fewer than MIN_ANNUAL_POINTS
    or MIN_LOCAL_POINTS weeks, row 8 launches after the training cutoff and
    row 9 is never listed. All four covariate kinds have holes.
    """
    rng = np.random.default_rng(seed)
    n_products, n_weeks = 10, 70
    levels = rng.uniform(0.5, 20.0, size=(n_products, 1))
    y = rng.poisson(levels, size=(n_products, n_weeks)).astype(np.int64)
    y[rng.random(y.shape) < 0.05] *= 6  # spikes for the smoother to cap
    on_sale = rng.random((n_products, n_weeks)) > 0.25
    y[3] = 7
    on_sale[3] = True
    y[4] = 0
    for row, launch in {5: 50, 6: 58, 7: 62, 8: 66}.items():
        on_sale[row, :launch] = False
    on_sale[9] = False
    y[~on_sale] = 0
    panel = make_panel(y, on_sale=on_sale)
    products = panel.products
    catalog = Catalog(
        {pid: f"c{i % 3}" for i, pid in enumerate(products + ("p_extra",))},
        {pid: 1.5 + i for i, pid in enumerate(products + ("p_extra",))},
        {
            pid: ({"brand": f"b{i % 4}", "size": "L"} if i % 3 else {"brand": "b9"})
            for i, pid in enumerate(products + ("p_extra",))
        },
    )
    weeks = range(-3, n_weeks + 10)
    covariates = columnar_covariates(
        temporal={
            "event": {w: float(rng.random() < 0.3) for w in weeks if rng.random() < 0.8},
            "weather": {w: float(rng.normal(15, 5)) for w in weeks if rng.random() < 0.4},
        },
        mixed={
            "promo": {
                (pid, w): float(rng.random() < 0.2)
                for pid in products[:6] + ("p_extra",)
                for w in range(n_weeks)
                if rng.random() < 0.7
            },
            "price_week": {
                (pid, w): float(rng.uniform(1, 3))
                for pid in products[1:7]
                for w in range(n_weeks)
                if w > 20 and rng.random() < 0.5
            },
        },
        predictable={"event": True, "weather": False, "promo": True, "price_week": False},
        products=products,  # p_extra's promo entries are left out: it is not a panel product
    )
    repaired, smoothed = preprocess_panel(panel, window=8, gamma=2.0)
    model = fit_seasonality(smoothed, repaired, catalog, tau=13, k=2, seed=0)
    return repaired, smoothed, catalog, model, covariates


class TestMatchesRowwiseReference:
    """build_matrix must equal the per-row reference bit for bit."""

    @pytest.mark.parametrize(
        "encoding, with_seasonality, keys",
        [
            ("ordinal", True, "train"),
            ("hashing", False, "train"),
            ("ordinal", False, "predict"),
            ("hashing", True, "predict"),
        ],
    )
    def test_bit_identical(self, encoding, with_seasonality, keys):
        """keys: "train" is every row of the split, "predict" the rows issued at the last week."""
        self.check(encoding, with_seasonality, keys)

    def test_bit_identical_in_small_gather_chunks(self, monkeypatch):
        monkeypatch.setattr(seasonal, "GATHER_ELEMENTS", 10)  # 1 to 3 rows a block
        monkeypatch.setattr(features, "SUMS_BLOCK_CELLS", 10)
        self.check("ordinal", True, "train")

    def check(self, encoding, with_seasonality, keys):
        repaired, smoothed, catalog, model, covariates = exactness_inputs()
        config = RunConfig(
            horizon=6, season_period=13, encoding=encoding, hash_buckets=16,
            with_seasonality=with_seasonality, train_len=50, valid_len=10, test_len=10,
        )
        model = model if with_seasonality else None
        if keys == "train":
            rows, weeks, _ = split_rows(repaired.on_sale_mask, config)
        else:
            rows = np.flatnonzero(repaired.on_sale_mask[:, -1])
            weeks = np.full(rows.size, repaired.n_weeks - 1)
        matrix = build_matrix(
            repaired, smoothed, catalog, model, covariates, config, rows, weeks,
            fit_encoding(catalog, config),
        )
        expected_keys, columns, x, targets, life = rowwise_build_matrix(
            repaired, smoothed, catalog, model, covariates, config,
            list(zip(rows.tolist(), weeks.tolist())),
            lag_depth=LAG_DEPTH,
            annual=(seasonal.ANNUAL_WINDOW, seasonal.MIN_ANNUAL_POINTS),
            local=(seasonal.LOCAL_WINDOW, seasonal.MIN_LOCAL_POINTS),
        )
        assert keys_of(matrix) == expected_keys
        assert matrix.columns == columns
        assert matrix.X.shape == x.shape
        assert matrix.X.tobytes() == x.tobytes()
        assert life_of(matrix, repaired, config.horizon).tolist() == life.tolist()
        if keys == "train":
            assert matrix.targets.tobytes() == targets.tobytes()
            # the panel reaches every branch: zero and nonzero slopes, present and missing covariates
            for name in ("trend_annual", "trend_local"):
                values = matrix.X[:, columns.index(name)]
                assert (values == 0.0).any() and (values != 0.0).any()
            for name in covariates.feature_names():
                values = matrix.X[:, columns.index(f"cov_{name}")]
                assert np.isnan(values).any() and not np.isnan(values).all()
        else:
            assert matrix.targets is None and targets is None
            assert matrix.n_rows > 0
