"""File ingestion: sales, catalog, covariates, predictions, and run configuration.

CSV schemas are fixed so round-trips are bit-exact:
  sales.csv       product_id,week,units,on_sale,in_stock
  catalog.csv     product_id,category_id,price[,extra attribute columns...]
  covariates.csv  scope,key,week,product_id,value,predictable
  predictions     product_id,week,forecast
  config          flat ``key = value`` lines, ``#`` comments

Missing (product, week) sales rows mean "not listed", not "zero sales while
listed". Loading is deterministic and insensitive to row order: each CSV
loader rejects duplicate keys, so no row can overwrite another.

All four CSV inputs (sales.csv, catalog.csv, covariates.csv and the
predictions file `evaluate` scores) go through one block reader, which
reads a file column-wise, one block of about BLOCK_CHARS characters at a
time, and hands each loader the header it found to check. Files are UTF-8.
A block without a quote, a carriage return, a byte that is not UTF-8 or an
over-long line is split on "\n" and "," directly, others go through
csv.reader; the records are the same either way, so quoted fields and CRLF
line ends keep their csv-module meaning. The reader alone turns what
csv.reader raises (a field longer than its limit) and bytes that are not
UTF-8 into a SchemaError naming the line. Numbers are parsed by Python's int
and float into numpy arrays, and every check is an array check over the
rows. A bad file is rejected with the error a row-by-row reader would raise
first: the one on the earliest line and, on that line, the first in the
loader's order of checks, whatever the block size. No Python object per row
outlives its block in load_sales, which scatters the rows into the dense
panel, or in load_covariates, which returns a columnar CovariateTable, each
key's sorted week, panel-row and value arrays.

RunConfig is the one place a run setting is declared: its fields name,
type and default every setting, load_config parses each key by its field's
type, and validate checks the bounds. Stages read their settings from one
RunConfig; gbt.train takes it whole. The config file is its only source: no
command-line option overrides a field. The only settings the CLI still owns
are pipeline's --model, --forest-trees and --cold-start-filter.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .core import Catalog, SalesPanel


class SchemaError(ValueError):
    """Malformed or out-of-contract input data."""


# The integers a numpy int64 array can hold; weeks and units outside it are rejected.
INT64_RANGE = range(np.iinfo(np.int64).min, np.iinfo(np.int64).max + 1)

# The last week a sales.csv row may carry. The panel is dense, one column
# per week up to the largest one, so this caps its width: 10,000 weeks is
# about 190 years of weekly data.
LAST_WEEK = 9_999

# Characters of a CSV tokenized at a time: the loaders hold one block's
# tokens as Python strings, and keep only numpy arrays of the rows.
BLOCK_CHARS = 1 << 20

SALES_HEADER = ["product_id", "week", "units", "on_sale", "in_stock"]
COVARIATES_HEADER = ["scope", "key", "week", "product_id", "value", "predictable"]
_FLAG_CODES = {"0": 0, "1": 1}
_SCOPE_CODES = {"temporal": 0, "mixed": 1}

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
        if self.seed < 0:
            raise SchemaError("seed must be >= 0")
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


@dataclass(frozen=True, eq=False)
class Covariate:
    """One covariate key's entries, sorted by (row, week), each pair once.

    rows is None for a temporal key (one value per week); for a mixed key it
    holds each entry's product as a row of the table's panel. predictable is
    True for known-future features (planned events, scheduled promotions)
    and False for features that must be imputed at prediction time
    (weather, realized prices).
    """

    weeks: np.ndarray         # (n,) int64
    rows: np.ndarray | None   # (n,) int64 panel rows; None for a temporal key
    values: np.ndarray        # (n,) float64, finite
    predictable: bool


@dataclass(frozen=True, eq=False)
class CovariateTable:
    """External features by key; mixed entries index the rows of `products`."""

    products: tuple[str, ...]  # the ids of the panel the table was loaded against
    series: dict[str, Covariate]

    def feature_names(self) -> list[str]:
        """Temporal keys, then mixed keys, each in sorted order."""
        return sorted(self.series, key=lambda key: (self.series[key].rows is not None, key))


class _FirstFault:
    """The fault a row-by-row reader would have raised first.

    That is the one on the earliest line and, on one line, the one whose
    check comes first (the lower order).
    """

    def __init__(self, path: Path):
        self.path = path
        self.at: tuple[int, int] | None = None
        self.error: SchemaError | None = None

    def add(self, line: int, order: int, fault: str) -> None:
        if self.at is None or (line, order) < self.at:
            self.at = (line, order)
            self.error = SchemaError(f"{self.path}:{line}: {fault}")

    def first(self, mask: np.ndarray, line: int, order: int, describe) -> None:
        """Add the first True entry of mask, row i being on line + i; describe(i) says what."""
        hits = np.flatnonzero(mask)
        if hits.size:
            i = int(hits[0])
            self.add(line + i, order, describe(i))

    def raise_first(self) -> None:
        if self.error is not None:
            raise self.error


def _undecoded(text: str) -> bool:
    """Whether text holds a byte that is not UTF-8, read as errors="surrogateescape" reads one."""
    return not text.isascii() and re.search("[\udc80-\udcff]", text) is not None


def _line_blocks(fh) -> Iterator[str]:
    r"""The text of fh in pieces of about BLOCK_CHARS, each ending with "\n" but the last."""
    rest = ""
    while chunk := fh.read(BLOCK_CHARS):
        text = rest + chunk
        cut = text.rfind("\n") + 1
        if cut:
            yield text[:cut]
        rest = text[cut:]
    if rest:
        yield rest


def _csv_records(blocks: Iterable[str]) -> Iterator[tuple[list[str], list[int], str | None]]:
    """_records of the blocks, read by csv.reader in batches of records."""
    undecoded = False  # whether a block read so far holds a byte that is not UTF-8

    def texts():
        nonlocal undecoded
        for block in blocks:
            undecoded = undecoded or _undecoded(block)
            yield io.StringIO(block, newline="")

    reader = csv.reader(chain.from_iterable(texts()))
    batch = max(1, BLOCK_CHARS // 40)  # about 40 characters a record
    while True:
        rows: list[list[str]] = []
        error = None
        try:
            for row in reader:
                rows.append(row)
                if len(rows) == batch:
                    break
        except csv.Error as exc:
            error = str(exc)
        if undecoded:  # csv.reader reads a record's text before it returns the record
            bad = next((i for i, row in enumerate(rows) if _undecoded(",".join(row))), None)
            if bad is not None:
                del rows[bad:]
                error = "not valid UTF-8"
        yield list(chain.from_iterable(rows)), [len(row) - 1 for row in rows], error
        if error is not None or len(rows) < batch:
            return


def _records(fh) -> Iterator[tuple[list[str], list[int], str | None]]:
    r"""The CSV records of fh a block at a time, as csv.reader reads them.

    Yields (fields, commas, error): the block's fields in one flat list, the
    field count less one of each record (-1 for a blank line, which csv
    reads as no fields), and None or what is wrong with the record after the
    block's last one, which ends the stream: the error csv.reader raised on
    it, or that it holds a byte that is not UTF-8. Blocks without '"', "\r",
    such a byte, or a line longer than the csv field limit are split on "\n"
    and "," directly, which gives the same records; from the first other
    block on, csv.reader reads.
    """
    blocks = _line_blocks(fh)
    limit = csv.field_size_limit()
    for block in blocks:
        lines = block.split("\n")
        if block.endswith("\n"):
            lines.pop()
        if '"' in block or "\r" in block or max(map(len, lines)) > limit or _undecoded(block):
            yield from _csv_records(chain([block], blocks))
            return
        commas = list(map(str.count, lines, repeat(",")))
        if "" in lines:
            commas = [count if line else -1 for count, line in zip(commas, lines)]
        yield block.replace("\n", ",").split(","), commas, None


def _read_columns(path: Path, faults: _FirstFault):
    """Yield path's header record, then (line, columns, count) for each block of data records.

    The header is None for an empty file; the caller checks it, and the data
    records are read as rows of as many fields as it has. columns holds one
    token list per field, for the block's records up to the first with
    another field count; line is the block's first record's line (the
    header is line 1, and a record is one line however many physical lines
    a quoted field spans). count is None, or the field count of that
    malformed record, and ends the stream. A record csv.reader fails on, or
    that holds a byte that is not UTF-8, is a fault on its line: on line 1
    it is raised, on a later line it is added to faults and ends the stream.
    The first block is yielded even when empty.
    """
    with path.open(encoding="utf-8", errors="surrogateescape", newline="") as fh:
        records = _records(fh)
        fields, commas, error = next(records, ([], [], None))
        if not commas:
            if error is not None:
                raise SchemaError(f"{path}:1: {error}")
            yield None
            return
        n = commas[0] + 1
        yield fields[:n]
        del fields[:n], commas[0]
        line = 2
        while True:
            stop = len(commas)
            count = None
            if commas.count(n - 1) != stop:
                stop = next(i for i, width in enumerate(commas) if width != n - 1)
                count = commas[stop] + 1
            elif error is not None:
                faults.add(line + stop, 0, error)
            yield line, [fields[k : stop * n : n] for k in range(n)], count
            batch = None if count is not None or error is not None else next(records, None)
            if batch is None:
                return
            line += stop
            fields, commas, error = batch


def _parse(tokens: list[str], kind) -> tuple[np.ndarray, int, int]:
    """The tokens parsed by kind, int or float, into an int64 or float64 array.

    Returns (values, bad, wide): bad is the index of the first token kind
    rejects and wide that of the first int outside int64, len(tokens) when
    there is none. Values from bad on are 0; ints outside int64 are clipped
    to its bounds.
    """
    n = len(tokens)
    dtype = np.int64 if kind is int else np.float64
    try:
        return np.fromiter(map(kind, tokens), dtype, n), n, n
    except (ValueError, OverflowError):
        pass
    values = np.zeros(n, dtype)
    wide = n
    for i, token in enumerate(tokens):
        try:
            value = kind(token)
        except ValueError:
            return values, i, wide
        if kind is int and value not in INT64_RANGE:
            wide = min(wide, i)
            value = min(max(value, INT64_RANGE.start), INT64_RANGE.stop - 1)
        values[i] = value
    return values, n, wide


def _flags(tokens: list[str]) -> np.ndarray:
    """0 and 1 for the tokens "0" and "1", 2 for any other."""
    return np.fromiter(map(_FLAG_CODES.get, tokens, repeat(2)), np.int8, len(tokens))


def _codes(tokens: list[str], codes: dict[str, int]) -> np.ndarray:
    """Each token's code in codes, which gives a new token the next code."""
    for token in dict.fromkeys(tokens):
        codes.setdefault(token, len(codes))
    return np.fromiter(map(codes.__getitem__, tokens), np.int64, len(tokens))


def load_sales(path: str | Path) -> SalesPanel:
    """Load sales.csv into a dense panel.

    Weeks absent from the file default to count 0, not listed, in stock.
    Duplicate (product, week) rows, weeks outside [0, LAST_WEEK] and units
    outside int64 are rejected.
    """
    path = Path(path)
    faults = _FirstFault(path)
    blocks = _read_columns(path, faults)
    if (header := next(blocks)) != SALES_HEADER:
        raise SchemaError(f"{path}: unexpected sales header {header}")
    product_ids: dict[str, int] = {}  # id -> order of first appearance
    parts = []
    for line, (pid_s, week_s, units_s, sale_s, stock_s), count in blocks:
        n = len(pid_s)
        if count is not None:
            faults.add(line + n, 0, f"expected 5 fields, got {count}")
        pids = _codes(pid_s, product_ids)
        if "" in product_ids:
            faults.first(pids == product_ids[""], line, 1, lambda i: "empty product_id")
        weeks, bad_week, _ = _parse(week_s, int)
        units, bad_units, wide = _parse(units_s, int)
        if min(bad_week, bad_units) < n:
            faults.add(line + min(bad_week, bad_units), 2, "non-integer week or units")
        faults.first(weeks < 0, line, 3, lambda i: f"negative week {int(week_s[i])}")
        faults.first(
            weeks > LAST_WEEK, line, 4,
            lambda i: f"week {int(week_s[i])} beyond the last supported week {LAST_WEEK}",
        )
        faults.first(units < 0, line, 5, lambda i: f"negative units {int(units_s[i])}")
        if wide < n:
            faults.add(line + wide, 6, f"units {int(units_s[wide])} outside the int64 range")
        # order 7 is the duplicate check, made on all rows below
        on_sale, stock = _flags(sale_s), _flags(stock_s)
        faults.first(on_sale == 2, line, 8, lambda i: f"on_sale must be 0 or 1, got {sale_s[i]!r}")
        faults.first(stock == 2, line, 9, lambda i: f"in_stock must be 0 or 1, got {stock_s[i]!r}")
        keep = n if faults.at is None else faults.at[0] - line + 1
        parts.append((pids[:keep], weeks[:keep], units[:keep], on_sale[:keep], stock[:keep]))
        if faults.at is not None:
            break
    pids, weeks, units, on_sale, stock = map(np.concatenate, zip(*parts))
    # a bad row's week may be out of range; its own fault comes first
    cells = pids * (LAST_WEEK + 1) + np.clip(weeks, 0, LAST_WEEK)
    names = list(product_ids)
    faults.first(
        _repeats(cells), 2, 7, lambda i: f"duplicate row for {(names[pids[i]], int(weeks[i]))}"
    )
    faults.raise_first()
    if not pids.size:
        raise SchemaError(f"{path}: no data rows")
    products = tuple(sorted(names))
    rank = {pid: r for r, pid in enumerate(products)}
    rows = np.array([rank[pid] for pid in names], dtype=np.int64)[pids]
    shape = (len(products), int(weeks.max()) + 1)
    y = np.zeros(shape, dtype=np.int64)
    on_sale_mask = np.zeros(shape, dtype=bool)
    stock_flag = np.ones(shape, dtype=bool)  # missing stock info defaults to in stock
    y[rows, weeks] = units
    on_sale_mask[rows, weeks] = on_sale == 1
    stock_flag[rows, weeks] = stock == 1
    return SalesPanel(products, y, on_sale_mask, stock_flag)


def _repeats(keys: np.ndarray) -> np.ndarray:
    """True at each entry whose key an earlier entry already has."""
    order = np.argsort(keys, kind="stable")
    repeat_mask = np.zeros(keys.size, dtype=bool)
    repeat_mask[order[1:][keys[order[1:]] == keys[order[:-1]]]] = True
    return repeat_mask


def load_catalog(path: str | Path) -> Catalog:
    """Load catalog.csv; extra columns become named categorical attributes.

    Column names must be unique and not empty. Each product has one row, a
    non-empty id and category, and a positive, finite price.
    """
    path = Path(path)
    faults = _FirstFault(path)
    blocks = _read_columns(path, faults)
    header = next(blocks)
    if header is None or header[:3] != ["product_id", "category_id", "price"]:
        raise SchemaError(f"{path}: unexpected catalog header {header}")
    if bad_names := [name for name in header if not name or header.count(name) > 1]:
        raise SchemaError(f"{path}:1: catalog column name {bad_names[0]!r} is empty or repeated")
    product_ids: dict[str, int] = {}  # id -> order of first appearance
    codes, prices, table = [], [], [[] for _ in header]
    for line, columns, count in blocks:
        pid_s, category_s, price_s = columns[:3]
        n = len(pid_s)
        if count is not None:
            faults.add(line + n, 0, f"expected {len(header)} fields")
        pids = _codes(pid_s, product_ids)
        if "" in product_ids:
            faults.first(pids == product_ids[""], line, 1, lambda i: "empty product_id")
        faults.first(
            [not category for category in category_s], line, 2,
            lambda i: f"product {pid_s[i]!r} has no category",
        )
        price, bad, _ = _parse(price_s, float)
        if bad < n:
            faults.add(line + bad, 3, f"bad price {price_s[bad]!r}")
        faults.first(
            ~((price > 0) & (price < np.inf)), line, 4,
            lambda i: f"price {price_s[i]} is not positive and finite",
        )
        # order 5 is the duplicate check, made on all rows below
        keep = n if faults.at is None else faults.at[0] - line + 1
        codes.append(pids[:keep])
        prices.append(price[:keep])
        for rows, column in zip(table, columns):
            rows += column[:keep]
        if faults.at is not None:
            break
    pids = np.concatenate(codes)
    names = list(product_ids)
    faults.first(_repeats(pids), 2, 5, lambda i: f"duplicate product {names[pids[i]]!r}")
    faults.raise_first()
    pid_s, category_s, _, *extra = table
    return Catalog(
        dict(zip(pid_s, category_s)),
        dict(zip(pid_s, np.concatenate(prices).tolist())),
        {pid: dict(zip(header[3:], values)) for pid, *values in zip(pid_s, *extra)},
    )


def load_predictions(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(product ids, weeks, forecasts) of a predictions file, in file order.

    Forecasts must be finite, weeks must fit in int64, and each
    (product, week) has one row.
    """
    path = Path(path)
    faults = _FirstFault(path)
    blocks = _read_columns(path, faults)
    if (header := next(blocks)) != ["product_id", "week", "forecast"]:
        raise SchemaError(f"{path}: unexpected predictions header {header}")
    product_ids: dict[str, int] = {}  # id -> order of first appearance
    ids: list[str] = []
    parts = []
    for line, (pid_s, week_s, value_s), count in blocks:
        n = len(pid_s)
        if count is not None:
            faults.add(line + n, 0, "expected 3 fields")
        weeks, bad_week, wide = _parse(week_s, int)
        forecasts, bad_value, _ = _parse(value_s, float)
        if min(bad_week, bad_value) < n:
            faults.add(line + min(bad_week, bad_value), 1, "bad week or forecast")
        faults.first(
            ~np.isfinite(forecasts), line, 2, lambda i: f"non-finite forecast {value_s[i]!r}"
        )
        if wide < n:
            faults.add(line + wide, 3, f"week {int(week_s[wide])} outside the int64 range")
        # order 4 is the duplicate check, made on all rows below
        keep = n if faults.at is None else faults.at[0] - line + 1
        ids += pid_s[:keep]
        parts.append((_codes(pid_s[:keep], product_ids), weeks[:keep], forecasts[:keep]))
        if faults.at is not None:
            break
    pids, weeks, forecasts = map(np.concatenate, zip(*parts))
    _, week_codes = np.unique(weeks, return_inverse=True)
    faults.first(
        _repeats(pids * (week_codes.max(initial=0) + 1) + week_codes), 2, 4,
        lambda i: f"duplicate key {(ids[i], int(weeks[i]))}",
    )
    faults.raise_first()
    return np.array(ids, dtype=object), weeks, forecasts


def load_covariates(path: str | Path, panel: SalesPanel) -> CovariateTable:
    """Load covariates.csv against the panel its mixed rows describe.

    A key belongs to one scope and has one predictable flag, and each
    (key, week[, product]) has one row. Weeks must fit in int64, the type
    the feature builder holds them in; a mixed row's product must be in the
    panel, and its week inside it.
    """
    path = Path(path)
    faults = _FirstFault(path)
    blocks = _read_columns(path, faults)
    if (header := next(blocks)) != COVARIATES_HEADER:
        raise SchemaError(f"{path}: unexpected covariates header {header}")
    key_ids: dict[str, int] = {}  # key -> order of first appearance
    panel_rows = {**panel.index, "": -1}  # ids the panel lacks map to -2
    parts = []
    for line, (scope_s, key_s, week_s, pid_s, value_s, flag_s), count in blocks:
        n = len(scope_s)
        if count is not None:
            faults.add(line + n, 0, "expected 6 fields")
        weeks, bad_week, wide = _parse(week_s, int)
        values, bad_value, _ = _parse(value_s, float)
        if min(bad_week, bad_value) < n:
            faults.add(line + min(bad_week, bad_value), 1, "bad week or value")
        if wide < n:
            faults.add(line + wide, 2, f"week {int(week_s[wide])} outside the int64 range")
        faults.first(~np.isfinite(values), line, 3, lambda i: f"non-finite value {value_s[i]!r}")
        flags = _flags(flag_s)
        faults.first(
            flags == 2, line, 4, lambda i: f"predictable must be 0 or 1, got {flag_s[i]!r}"
        )
        # order 5 is the predictable flag's consistency, checked on all rows below
        scopes = np.fromiter(map(_SCOPE_CODES.get, scope_s, repeat(2)), np.int8, n)
        rows = np.fromiter(map(panel_rows.get, pid_s, repeat(-2)), np.int64, n)
        outside = (weeks < 0) | (weeks >= panel.n_weeks)

        def scope_fault(i):
            if scopes[i] == 0:
                return "temporal row must have empty product_id"
            if scopes[i] == 2:
                return f"unknown scope {scope_s[i]!r}"
            if rows[i] == -1:
                return "mixed row needs a product_id"
            if rows[i] == -2:
                return f"unknown product {pid_s[i]!r}"
            return f"week {weeks[i]} outside panel"

        temporal, mixed = scopes == 0, scopes == 1
        faults.first(
            (temporal & (rows != -1)) | (mixed & ((rows < 0) | outside)) | (scopes == 2),
            line, 6, scope_fault,
        )
        keys = _codes(key_s, key_ids)
        keep = n if faults.at is None else faults.at[0] - line + 1
        parts.append(
            (keys[:keep], scopes[:keep], rows[:keep], weeks[:keep], values[:keep], flags[:keep])
        )
        if faults.at is not None:
            break
    keys, scopes, rows, weeks, values, flags = map(np.concatenate, zip(*parts))
    names = list(key_ids)
    # rows by (key, row, week); a temporal row's row is -1
    order = np.lexsort((weeks, rows, keys))
    keys_s, rows_s, weeks_s = keys[order], rows[order], weeks[order]
    starts = np.flatnonzero(np.diff(keys_s, prepend=-1))
    first = np.zeros(len(names), dtype=np.int64)  # each key's first row in the file
    if order.size:
        first[keys_s[starts]] = np.minimum.reduceat(order, starts)
    faults.first(
        flags != flags[first[keys]], 2, 5,
        lambda i: f"inconsistent predictable flag for {names[keys[i]]!r}",
    )
    faults.first(
        scopes != scopes[first[keys]], 2, 7,
        lambda i: f"key {names[keys[i]]!r} used with both scopes",
    )
    repeated = np.zeros(order.size, dtype=bool)
    same = (keys_s[1:] == keys_s[:-1]) & (rows_s[1:] == rows_s[:-1]) & (weeks_s[1:] == weeks_s[:-1])
    repeated[order[1:][same]] = True

    def duplicate(i):
        scope = "mixed" if scopes[i] == 1 else "temporal"
        pid = panel.products[rows[i]] if scopes[i] == 1 else ""
        return f"duplicate row for {(scope, names[keys[i]], int(weeks[i]), pid)}"

    faults.first(repeated, 2, 8, duplicate)
    faults.raise_first()
    values_s = values[order]
    series = {}
    for start, end in zip(starts.tolist(), [*starts[1:].tolist(), order.size]):
        key = int(keys_s[start])
        mixed = scopes[first[key]] == 1
        series[names[key]] = Covariate(
            weeks=weeks_s[start:end],
            rows=rows_s[start:end] if mixed else None,
            values=values_s[start:end],
            predictable=bool(flags[first[key]]),
        )
    return CovariateTable(panel.products, series)


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
    text = path.read_text(encoding="utf-8", errors="surrogateescape")
    # read_text turns \r\n and \r into \n; splitlines would also split on
    # form feeds and other separators, which would shift every later line number
    for line_no, raw in enumerate(text.split("\n"), start=1):
        if _undecoded(raw):
            raise SchemaError(f"{path}:{line_no}: not valid UTF-8")
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
    """Write covariates.csv: temporal keys, then mixed keys, each in sorted
    order; a key's rows in (product row, week) order."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COVARIATES_HEADER)
        for key in table.feature_names():
            cov = table.series[key]
            if cov.rows is None:
                scope, pids = "temporal", repeat("")
            else:
                scope, pids = "mixed", map(table.products.__getitem__, cov.rows.tolist())
            writer.writerows(
                zip(
                    repeat(scope), repeat(key), cov.weeks.tolist(), pids,
                    map(repr, cov.values.tolist()), repeat(int(cov.predictable)),
                )
            )
