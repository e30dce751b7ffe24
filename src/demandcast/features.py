"""Feature assembly for the global regression.

Each training row pairs what was knowable at week t (smoothed lag values,
trend, the product's seasonal pattern value at the target week, encoded
catalog attributes, covariates) with the repaired sales count at week t+h.
Lags use smoothed values; targets deliberately do not, so the model learns
the gap that promotions and events explain on top of the normal level.

Missing values are carried as NaN and resolved by the trees' per-split
default direction; zero is a meaningful sales value and is never used as a
filler.

The matrix is built in whole-panel array passes, never row by row, into a
feature-major array whose every column is contiguous (the layout the tree
grower reads), for the (panel row, issue week) keys the caller gives: the
split's rows from split_rows, or, for predict, every row of the panels and
covariate table cut to the products on sale at the panel's last week (a
row's cells read only its own product's rows and entries, so the cut
changes none of them).
Lags are gathers masked by the launch week; season, price and categorical
codes are looked up once per product and broadcast; covariates are
searchsorted lookups into sorted (group, week) keys, with imputed means
taken from running sums that add each group's values in week order. Those
keys are made from the columnar CovariateTable's week, panel-row and value
arrays as they are: no covariate entry is converted or looked up by product
id. Trend slopes reduce C-contiguous (rows, window length) blocks along
their last axis (seasonal.trend_features). Every cell equals the one-row-at-a-time definition in tests/oracles.py
(rowwise_build_matrix), fed the same keys, bit for bit.

A forecast row is a product on sale at its issue week t, targeting week
t + horizon. split_rows is the one rule for the split's rows and their part
(train, valid or test, by target week), in part order, so the parts of a
matrix over them are slices, views of it; life_at_issue counts a row's
on-sale weeks up to t. A run computes the split once: the matrices, the ES
reference (which reads keys only), the cold-start filter and the report
share it. A matrix row's key is held as two aligned arrays: product_ids,
an object array of the panel's id strings, and the int64 target_weeks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .core import Catalog, SalesPanel, launch_weeks, weeks_on_sale
from .ingest import CovariateTable, RunConfig
from .preprocess import SmoothedPanel
from .seasonal import SeasonalityModel, trend_features

LAG_DEPTH = 8
SUMS_BLOCK_CELLS = 1 << 13  # (groups x longest group) cells a block; 64 KiB per float64 temporary

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & _U64
    return h


def hash_encode(value: str, buckets: int) -> int:
    """FNV-1a 64-bit bucket of the UTF-8 bytes; platform-independent."""
    if buckets < 2:
        raise ValueError(f"hash buckets must be >= 2, got {buckets}")
    return fnv1a64(value.encode("utf-8")) % buckets


class _KeyedSeries:
    """Values keyed by (group, week), with each group's running sum in week order.

    Weeks are unique within a group. Keys are group * stride + week rank + 1,
    so one sorted key array serves every group and a group's keys stay in
    (group * stride, (group + 1) * stride).
    """

    def __init__(self, groups: np.ndarray, weeks: np.ndarray, values: np.ndarray):
        ordered = np.sort(weeks)  # distinct weeks; np.unique would import numpy.ma
        self.week_ids = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
        self.stride = self.week_ids.size + 1
        keys = groups * self.stride + np.searchsorted(self.week_ids, weeks) + 1
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.values = values[order]
        self._groups = groups[order]

    @cached_property
    def sums(self) -> np.ndarray:
        """Running sum within each group, in key order.

        The groups are laid out as the rows of a zero-padded (groups x
        longest group) grid, each row's values first and its pads after
        them, a block of at most SUMS_BLOCK_CELLS cells at a time. One
        np.cumsum along axis 1 then adds each row sequentially, as the 1-D
        cumsum of that group alone does, and the pads, which follow every
        value of their row, enter no sum that is read.
        """
        starts = np.flatnonzero(np.diff(self._groups, prepend=-1))  # groups are >= 0
        sizes = np.diff(np.append(starts, self.values.size))
        out = np.empty_like(self.values)
        width = int(sizes.max(initial=1))
        step = max(1, SUMS_BLOCK_CELLS // width)
        for lo in range(0, sizes.size, step):
            filled = np.arange(width) < sizes[lo : lo + step, None]
            grid = np.zeros(filled.shape, dtype=self.values.dtype)
            begin = starts[lo]
            end = begin + int(np.count_nonzero(filled))
            grid[filled] = self.values[begin:end]
            out[begin:end] = np.cumsum(grid, axis=1, out=grid)[filled]
        return out

    def at(self, groups: np.ndarray, weeks: np.ndarray) -> np.ndarray:
        """The value recorded at each (group, week); NaN where none is."""
        out = np.full(groups.size, np.nan)
        if not self.keys.size:
            return out
        rank = np.searchsorted(self.week_ids, weeks)
        known = self.week_ids[np.minimum(rank, self.week_ids.size - 1)] == weeks
        keys = groups * self.stride + rank + 1
        pos = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
        found = known & (self.keys[pos] == keys)
        out[found] = self.values[pos[found]]
        return out

    def mean_upto(self, groups: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
        """Mean of each group's values at weeks <= cutoff; NaN where there are none."""
        out = np.full(groups.size, np.nan)
        base = groups * self.stride
        end = np.searchsorted(
            self.keys, base + np.searchsorted(self.week_ids, cutoffs, side="right"), side="right"
        )
        count = end - np.searchsorted(self.keys, base, side="right")
        seen = count > 0
        out[seen] = self.sums[end[seen] - 1] / count[seen]
        return out


class CovariateView:
    """Covariate columns with leakage-safe imputation.

    known_future features pass through their recorded value at the target
    week. Unpredictable temporal features take the mean of values observed
    at the same seasonal position up to the knowledge cutoff (falling back
    to the overall observed mean); unpredictable mixed features take the
    mean of the product's own observed past. NaN when nothing is observed.
    The view reads the table's arrays as they are, converting nothing: a
    mixed entry's product is its row of the table's panel, so the view
    serves that panel's products only.
    """

    def __init__(self, table: CovariateTable, tau: int, products: tuple[str, ...]):
        if table.products != products:
            raise ValueError("covariates were loaded against another panel's products")
        self.tau = tau
        self._temporal: dict[str, tuple[_KeyedSeries, _KeyedSeries | None]] = {}
        self._mixed: dict[str, tuple[_KeyedSeries, bool]] = {}
        for key, cov in table.series.items():
            if cov.rows is not None:
                self._mixed[key] = (_KeyedSeries(cov.rows, cov.weeks, cov.values), cov.predictable)
                continue
            overall = _KeyedSeries(np.zeros_like(cov.weeks), cov.weeks, cov.values)
            by_pos = None
            if not cov.predictable:
                by_pos = _KeyedSeries(cov.weeks % tau, cov.weeks, cov.values)
            self._temporal[key] = (overall, by_pos)

    def column(
        self, key: str, rows: np.ndarray, target_weeks: np.ndarray, known_until: np.ndarray
    ) -> np.ndarray:
        """Feature `key` for product rows[k] at target_weeks[k], knowing weeks <= known_until[k]."""
        if key in self._temporal:
            overall, by_pos = self._temporal[key]
            if by_pos is None:  # known future
                return overall.at(np.zeros_like(target_weeks), target_weeks)
            out = by_pos.mean_upto(target_weeks % self.tau, known_until)
            unseen = np.isnan(out)
            out[unseen] = overall.mean_upto(np.zeros(int(unseen.sum()), np.int64), known_until[unseen])
            return out
        series, predictable = self._mixed[key]
        if predictable:
            return series.at(rows, target_weeks)
        return series.mean_upto(rows, known_until)


def split_rows(on_sale: np.ndarray, config: RunConfig) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The split's forecast rows in part order: (panel rows, issue weeks t, bounds).

    A row is a product on sale at its issue week t, targeting t + horizon.
    Target weeks [0, train_len) are part 0 (train), the next valid_len
    weeks part 1 (valid) and the test_len weeks after those part 2 (test).
    Part k, rows[bounds[k]:bounds[k + 1]], is one np.nonzero over its issue
    weeks' columns: product-major and week ascending, so no key repeats.
    """
    ends = list(accumulate((config.train_len, config.valid_len, config.test_len), initial=0))
    if ends[3] > on_sale.shape[1]:  # summed as Python ints, which cannot overflow
        raise ValueError(f"split needs {ends[3]} weeks but panel has {on_sale.shape[1]}")
    if ends[3] <= config.horizon:
        raise ValueError(
            f"horizon {config.horizon} leaves no week to forecast target week {ends[3] - 1} from"
        )
    # each part's first issue week, then the week after the last, which targets the last test week
    cuts = [max(0, end - config.horizon) for end in ends]
    parts = [np.nonzero(on_sale[:, lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    rows = np.concatenate([part_rows for part_rows, _ in parts])
    weeks = np.concatenate([part_weeks + lo for (_, part_weeks), lo in zip(parts, cuts)])
    return rows, weeks, [0, *accumulate(part_rows.size for part_rows, _ in parts)]


def life_at_issue(
    on_sale: np.ndarray, rows: np.ndarray, target_weeks: np.ndarray, horizon: int
) -> np.ndarray:
    """A forecast row's life: its product's on-sale weeks up to and including
    the issue week target - horizon, or 0 when issued before the panel began."""
    issued = target_weeks - horizon
    return np.where(issued >= 0, weeks_on_sale(on_sale)[rows, np.maximum(issued, 0)], 0)


@dataclass
class FeatureMatrix:
    """Rows keyed by (product_ids[k], target_weeks[k]); NaN marks missing cells."""

    product_ids: np.ndarray       # (n,) object, the panel's id strings
    target_weeks: np.ndarray      # (n,) int64
    columns: list[str]
    X: np.ndarray                 # (n, p) float64, columns contiguous
    targets: np.ndarray | None    # (n,) float64, None for prediction rows

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    def select(self, part: slice) -> "FeatureMatrix":
        """The rows in part, as views of this matrix's arrays."""
        return FeatureMatrix(
            product_ids=self.product_ids[part],
            target_weeks=self.target_weeks[part],
            columns=self.columns,
            X=self.X[part],
            targets=None if self.targets is None else self.targets[part],
        )


def _categorical_columns(catalog: Catalog) -> list[str]:
    return sorted({k for attrs in catalog.attributes.values() for k in attrs})


@dataclass(frozen=True)
class Encoding:
    """How build_matrix codes categorical values: mode "ordinal" by one
    {value: id} map per column ("category", "attr_<name>"), fitted on the
    training catalog, whose ids number its distinct values in sorted order;
    mode "hashing" by FNV-1a buckets (maps empty)."""

    mode: str
    maps: dict[str, dict[str, int]]
    hash_buckets: int | None  # None for ordinal

    def code(self, column: str, value: str) -> float:
        """value's id in column; an ordinal map's n values leave id n to every unseen value."""
        if self.mode == "hashing":
            return float(hash_encode(f"{column}={value}", self.hash_buckets))
        ids = self.maps[column]
        return float(ids.get(value, len(ids)))


def fit_encoding(catalog: Catalog, config: RunConfig) -> Encoding:
    """The config's encoding; ordinal maps cover every catalog product, listed or not."""
    if config.encoding == "hashing":
        return Encoding("hashing", {}, config.hash_buckets)
    values = {"category": catalog.category_of.values()}
    for name in _categorical_columns(catalog):
        values[f"attr_{name}"] = [catalog.attributes.get(pid, {}).get(name, "") for pid in catalog.price]
    maps = {column: {v: i for i, v in enumerate(sorted(set(vs)))} for column, vs in values.items()}
    return Encoding("ordinal", maps, None)


def matrix_columns(catalog: Catalog, covariates: CovariateTable | None, config: RunConfig) -> list[str]:
    """The column names of build_matrix's matrix, in its order: a catalog
    attribute <name> gives column "attr_<name>" and a covariate key <key>
    gives "cov_<key>"; every other column comes from the settings."""
    columns = [f"lag_{j}" for j in range(LAG_DEPTH)]
    columns += ["trend_annual", "trend_local"]
    if config.with_seasonality:
        columns.append("season")
    columns += ["weeks_since_launch", "price", "category"]
    columns += [f"attr_{name}" for name in _categorical_columns(catalog)]
    if covariates is not None:
        columns += [f"cov_{name}" for name in covariates.feature_names()]
    return columns


def build_matrix(
    panel: SalesPanel,
    smoothed: SmoothedPanel,
    catalog: Catalog,
    seasonal_model: SeasonalityModel | None,
    covariates: CovariateTable | None,
    config: RunConfig,
    rows: np.ndarray,
    weeks: np.ndarray,
    encoding: Encoding,
) -> FeatureMatrix:
    """The global matrix of the forecast rows issued at weeks[k] for panel row rows[k].

    Row k targets weeks[k] + horizon, and its target is the repaired sales
    count there. Targets are None when a target lies past the panel, as it
    does for forecasts issued at the panel's last week. Categorical values
    are coded by encoding, whatever config.encoding says: predict passes the
    training run's, so a value that run never saw gets its map's id n.
    """
    h = config.horizon
    on_sale = panel.on_sale_mask
    catalog.validate_covers(panel)
    if config.with_seasonality and seasonal_model is None:
        raise ValueError("seasonality enabled but no model supplied")

    attr_cols = _categorical_columns(catalog)
    cov_names = covariates.feature_names() if covariates is not None else []
    columns = matrix_columns(catalog, covariates, config)

    target_weeks = weeks + h
    launch = launch_weeks(on_sale)[rows]

    x = np.empty((len(columns), rows.size)).T  # feature-major: each x[:, j] is contiguous
    for j in range(LAG_DEPTH):
        lagged = weeks - j
        kept = lagged >= launch
        x[:, j] = np.nan
        x[kept, j] = smoothed.x[rows[kept], lagged[kept]]
    col = LAG_DEPTH
    annual, local = trend_features(smoothed, panel, rows, weeks)
    x[:, col] = annual
    x[:, col + 1] = local
    col += 2
    categorical = {"category": [catalog.category_of[pid] for pid in panel.products]}
    if config.with_seasonality:
        x[:, col] = seasonal_model.values_at(categorical["category"], rows, target_weeks)
        col += 1
    x[:, col] = weeks - launch
    x[:, col + 1] = np.array([catalog.price[pid] for pid in panel.products], dtype=float)[rows]
    col += 2
    for name in attr_cols:
        categorical[f"attr_{name}"] = [
            catalog.attributes.get(pid, {}).get(name, "") for pid in panel.products
        ]
    for column, values in categorical.items():
        codes = {value: encoding.code(column, value) for value in set(values)}
        x[:, col] = np.array([codes[value] for value in values])[rows]
        col += 1
    if covariates is not None:
        view = CovariateView(covariates, config.season_period, panel.products)
        for name in cov_names:
            x[:, col] = view.column(name, rows, target_weeks, weeks)
            col += 1

    return FeatureMatrix(
        product_ids=np.array(panel.products, dtype=object)[rows],
        target_weeks=target_weeks,
        columns=columns,
        X=x,
        targets=(
            panel.y[rows, target_weeks].astype(float)
            if (target_weeks < panel.n_weeks).all() else None
        ),
    )
