"""File ingestion: sales, catalog, covariates, and run configuration.

CSV schemas are fixed so round-trips are bit-exact:
  sales.csv       product_id,week,units,on_sale,in_stock
  catalog.csv     product_id,category_id,price[,extra attribute columns...]
  covariates.csv  scope,key,week,product_id,value,predictable
  config          flat ``key = value`` lines, ``#`` comments

Missing (product, week) sales rows mean "not listed", not "zero sales while
listed". Loading is deterministic and insensitive to row order: each CSV
loader rejects duplicate keys, so no row can overwrite another.

RunConfig is the one place a run setting is declared: its fields name,
type and default every setting, load_config parses each key by its field's
type, and validate checks the bounds. Stages read their settings from one
RunConfig; gbt.train takes it whole. The config file is its only source: no
command-line option overrides a field. The only settings the CLI still owns
are pipeline's --model, --forest-trees and --cold-start-filter.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .core import Catalog, SalesPanel


class SchemaError(ValueError):
    """Malformed or out-of-contract input data."""


# Weeks a numpy int64 array can hold; files with weeks outside it are rejected.
INT64_WEEKS = range(np.iinfo(np.int64).min, np.iinfo(np.int64).max + 1)

# The last week a sales.csv row may carry. The panel is dense, one column
# per week up to the largest one, so this caps its width: 10,000 weeks is
# about 190 years of weekly data.
LAST_WEEK = 9_999

# Search bounds for tree hyperparameters; values outside them are rejected
# unless the config sets override_bounds.
PARAM_BOUNDS = {
    "learning_rate": (0.01, 0.3),
    "min_split_loss": (0.01, 0.2),
    "max_depth": (5, 8),
    "rounds": (1000, 5000),
}


@dataclass
class RunConfig:
    horizon: int = 6
    smooth_window: int = 8
    cap_gamma: float = 3.0
    season_period: int = 52
    n_patterns: int = 8
    hash_buckets: int = 64
    encoding: str = "ordinal"      # ordinal | hashing
    loss: str = "poisson"          # poisson | squared
    learning_rate: float = 0.1
    min_split_loss: float = 0.01
    max_depth: int = 6
    rounds: int = 1000
    reg_lambda: float = 1.0
    early_stop_patience: int = 50
    train_len: int = 170
    valid_len: int = 10
    test_len: int = 19
    seed: int = 0
    with_seasonality: bool = True
    override_bounds: bool = False

    def validate(self) -> None:
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise SchemaError(f"{f.name} must be finite")
        for name in (
            "horizon", "n_patterns", "early_stop_patience", "train_len", "valid_len",
            "test_len", "rounds", "max_depth",
        ):
            if getattr(self, name) < 1:
                raise SchemaError(f"{name} must be >= 1")
        if self.learning_rate <= 0:
            raise SchemaError("learning_rate must be positive")
        if self.reg_lambda < 0:
            raise SchemaError("reg_lambda must be >= 0")
        if self.min_split_loss < 0:
            raise SchemaError("min_split_loss must be >= 0")
        if self.season_period < 2:
            raise SchemaError("season_period must be >= 2")
        if self.hash_buckets < 2:
            raise SchemaError("hash_buckets must be >= 2")
        if self.smooth_window < 2:
            raise SchemaError("smooth_window must be >= 2")
        if self.cap_gamma <= 0:
            raise SchemaError("cap_gamma must be positive")
        if self.encoding not in ("ordinal", "hashing"):
            raise SchemaError(f"unknown encoding: {self.encoding!r}")
        if self.loss not in ("poisson", "squared"):
            raise SchemaError(f"unknown loss: {self.loss!r}")
        if not self.override_bounds:
            for name, (lo, hi) in PARAM_BOUNDS.items():
                value = getattr(self, name)
                if not lo <= value <= hi:
                    raise SchemaError(
                        f"{name}={value} outside the search range [{lo}, {hi}]; "
                        "set override_bounds = true to allow it"
                    )


@dataclass
class CovariateTable:
    """External features keyed by week (temporal) or (product, week) (mixed).

    predictable[key] is True for known-future features (planned events,
    scheduled promotions) and False for features that must be imputed at
    prediction time (weather, realized prices).
    """

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


def load_sales(path: str | Path) -> SalesPanel:
    """Load sales.csv into a dense panel.

    Weeks absent from the file default to count 0, not listed, in stock.
    Duplicate (product, week) rows and weeks outside [0, LAST_WEEK] are
    rejected.
    """
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
            rows[key] = (
                units,
                _parse_bool(on_sale_s, str(path), line_no, "on_sale"),
                _parse_bool(stock_s, str(path), line_no, "in_stock"),
            )
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


def load_catalog(path: str | Path) -> Catalog:
    """Load catalog.csv; extra columns become named categorical attributes."""
    path = Path(path)
    category_of: dict[str, str] = {}
    price: dict[str, float] = {}
    attributes: dict[str, dict[str, str]] = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:3] != ["product_id", "category_id", "price"]:
            raise SchemaError(f"{path}: unexpected catalog header {header}")
        extra_cols = header[3:]
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise SchemaError(f"{path}:{line_no}: expected {len(header)} fields")
            pid, category, price_s = row[0], row[1], row[2]
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


def load_covariates(path: str | Path, panel: SalesPanel | None = None) -> CovariateTable:
    """Load covariates.csv; mixed rows are validated against the panel if given.

    A key belongs to one scope, and each (key, week[, product]) has one row.
    Weeks must fit in int64, the type the feature builder holds them in.
    """
    path = Path(path)
    table = CovariateTable()
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["scope", "key", "week", "product_id", "value", "predictable"]:
            raise SchemaError(f"{path}: unexpected covariates header {header}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 6:
                raise SchemaError(f"{path}:{line_no}: expected 6 fields")
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


def _config_bool(raw: str) -> bool:
    if raw.lower() not in ("true", "false"):
        raise ValueError(raw)
    return raw.lower() == "true"


# parser per declared RunConfig field type (annotations are strings here)
_CONFIG_PARSERS = {"bool": _config_bool, "int": int, "float": float, "str": str}


def load_config(path: str | Path) -> RunConfig:
    """Parse a flat ``key = value`` config file; unset keys keep defaults.

    Each value is parsed by the declared type of its RunConfig field. A key
    may be set once.
    """
    path = Path(path)
    types = {f.name: f.type for f in fields(RunConfig)}
    values: dict[str, object] = {}
    for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in types:
            raise SchemaError(f"{path}:{line_no}: unknown config key {key!r}")
        if key in values:
            raise SchemaError(f"{path}:{line_no}: repeated config key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[types[key]](value)
        except ValueError:
            raise SchemaError(f"{path}:{line_no}: bad value {value!r} for {key}") from None
    config = RunConfig(**values)
    config.validate()
    return config


def write_sales(panel: SalesPanel, path: str | Path) -> None:
    """Write the sales CSV; only listed or out-of-stock weeks are emitted.

    The final week is always emitted for the first product so the panel
    length survives a round trip even when nothing is listed that week.
    """
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


def write_catalog(catalog: Catalog, path: str | Path) -> None:
    pids = sorted(catalog.category_of)
    extra_cols = sorted({k for attrs in catalog.attributes.values() for k in attrs})
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["product_id", "category_id", "price"] + extra_cols)
        for pid in pids:
            attrs = catalog.attributes.get(pid, {})
            writer.writerow(
                [pid, catalog.category_of[pid], repr(catalog.price[pid])]
                + [attrs.get(c, "") for c in extra_cols]
            )


def write_covariates(table: CovariateTable, path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scope", "key", "week", "product_id", "value", "predictable"])
        for key in sorted(table.temporal):
            flag = int(table.predictable.get(key, True))
            for week in sorted(table.temporal[key]):
                writer.writerow(["temporal", key, week, "", repr(table.temporal[key][week]), flag])
        for key in sorted(table.mixed):
            flag = int(table.predictable.get(key, True))
            for pid, week in sorted(table.mixed[key]):
                writer.writerow(["mixed", key, week, pid, repr(table.mixed[key][(pid, week)]), flag])
