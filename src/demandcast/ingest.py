"""File ingestion (sales, catalog, covariates, predictions, run configuration) and CSV writing.

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
reads a file's bytes column-wise, one block of about BLOCK_BYTES bytes at
a time (a block ends only after a "\n", so never inside a character), and
hands each loader the header it found to check. Files are UTF-8. A block
holding a quote, a NUL, a byte that is not UTF-8, a field longer than
csv's field limit counted in bytes, or a "\r" not followed by "\n" goes
to csv.reader, and so does the rest of the file; the others are split
directly, which gives the same records, so quoted fields and lone "\r"
keep their csv meaning. Splitting finds every "," and "\n" of the block
with one np.flatnonzero and turns each field into a (start, end) span of its
bytes; csv.reader's records are turned into the same spans, so the
loaders see one column type. The reader alone checks each record's field
count against the header's, and turns what csv.reader raises (a field
longer than its limit) and bytes that are not UTF-8 into a SchemaError
naming the line; it stops after the block that holds the first fault,
however found.

Columns are converted from their spans. numpy converts an integer token
of 1 to MAX_DIGITS ASCII digits, digit by digit in int64; Python's int
parses every other integer token (a sign, more digits, spaces, other
Unicode digits), so the values are int's. A flag is 0 or 1 only when it
is the single byte "0" or "1". The other columns repeat their tokens
(sticky prices, 0/1 promotions, one id per week of a product), so each is
grouped by its tokens' bytes, one block at a time (_Column.groups: a hash
of each token's 8-byte words, checked against the bytes of its group's
first token; a block's column with a token longer than LONG_TOKEN bytes,
or two tokens of one hash, is grouped by its tokens' str). Each distinct
token of the block is then decoded to str once, by one decode and split
of the distinct tokens' bytes, and looked up (ids, keys, scopes, panel
rows) or parsed by Python's float once, and the results are gathered back
to the rows by group. Only the catalog's
categories and attributes, which it keeps as one string per product, are
decoded for every row, by one decode and split of the column's bytes.
Every check is an array check over the rows. A bad file is rejected with
the error a row-by-row reader would raise first: the one on the earliest
line and, on that line, the first in the loader's order of checks,
whatever the block size; a message decodes its token from the bytes.
Short of a str grouping, no Python object per row is made in load_sales,
which scatters the rows into the dense panel, or in load_covariates, which
returns a columnar CovariateTable, each key's sorted week, panel-row and
value arrays. Every whole-file key pass is linear: ids and keys get
first-appearance codes from a dict that gives a missing one the next code,
looked up for each block's distinct tokens in order of first appearance,
and rows are put in np.lexsort's order of their int64 keys by stable radix
passes over 16-bit digits.

Every CSV file the program writes (synth's inputs and ground truth,
smoothed.csv, seasonality.csv, predictions.csv and report.csv) goes
through write_csv, which writes what csv.writer's excel dialect would:
floats as the repr of Python floats, integers and flags as Python ints,
a field holding a comma, a quote or a line break quoted with its quotes
doubled, and rows ending in "\r\n". It makes each column's text once per
distinct value of a batch of WRITE_ROWS rows (numbers grouped by their 8
bytes with _first_equal, as the loaders group tokens, and str by a dict),
gathers the texts back to the batch's rows and writes the batch as one
string.

RunConfig is the one place a run setting is declared: its fields name,
type and default every setting, load_config parses each key by its field's
type, and validate checks the bounds; like a parse error, a bound error
on a key the file sets names the file and the key's line. Stages read
their settings from one RunConfig; gbt.train takes it whole. The config
file is its only source: no command-line option overrides a field. The
only settings the CLI still owns are pipeline's --model, --forest-trees
and --cold-start-filter.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from itertools import chain, count
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

# Bytes of a CSV read at a time: the loaders hold one block's bytes, the
# spans of its fields, their groups and the strings of its distinct tokens,
# and keep only numpy arrays of the rows.
BLOCK_BYTES = 1 << 20

# The longest run of ASCII digits numpy converts to int64: 10**18 - 1 is
# below 2**63, so accumulating one digit at a time cannot overflow.
MAX_DIGITS = 18

SALES_HEADER = ["product_id", "week", "units", "on_sale", "in_stock"]
COVARIATES_HEADER = ["scope", "key", "week", "product_id", "value", "predictable"]

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

    def validate(self, lines: dict[str, str] | None = None) -> None:
        """Check every setting's type range and bounds. lines maps a setting
        to where it was set ("path:line"), which then starts its error."""

        def check(ok: bool, name: str, message: str) -> None:
            if not ok:
                where = (lines or {}).get(name)
                raise SchemaError(f"{where}: {message}" if where else message)

        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float":
                check(math.isfinite(value), f.name, f"{f.name} must be finite")
            if f.type == "int":
                check(value in INT64_RANGE, f.name, f"{f.name} {value} is outside the int64 range")
        for name in (
            "horizon", "n_patterns", "early_stop_patience", "train_len", "valid_len",
            "test_len", "rounds", "max_depth",
        ):
            check(getattr(self, name) >= 1, name, f"{name} must be >= 1")
        check(self.learning_rate > 0, "learning_rate", "learning_rate must be positive")
        check(self.reg_lambda >= 0, "reg_lambda", "reg_lambda must be >= 0")
        check(self.seed >= 0, "seed", "seed must be >= 0")
        check(self.min_split_loss >= 0, "min_split_loss", "min_split_loss must be >= 0")
        check(self.season_period >= 2, "season_period", "season_period must be >= 2")
        check(self.hash_buckets >= 2, "hash_buckets", "hash_buckets must be >= 2")
        check(self.smooth_window >= 2, "smooth_window", "smooth_window must be >= 2")
        check(self.cap_gamma > 0, "cap_gamma", "cap_gamma must be positive")
        check(
            self.encoding in ("ordinal", "hashing"), "encoding",
            f"unknown encoding: {self.encoding!r}",
        )
        check(self.loss in ("poisson", "squared"), "loss", f"unknown loss: {self.loss!r}")
        if not self.override_bounds:
            for name, (lo, hi) in PARAM_BOUNDS.items():
                value = getattr(self, name)
                check(
                    lo <= value <= hi, name,
                    f"{name}={value} outside the search range [{lo}, {hi}]; "
                    "set override_bounds = true to allow it",
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

    def take_rows(self, rows: np.ndarray) -> CovariateTable:
        """The table of a panel of the ascending rows `rows` of this table's
        panel, which become rows 0 to len(rows) - 1. A mixed key's entries
        are sorted by (row, week), so each kept row's entries are one range
        of them, found by searchsorted; a temporal key is kept whole."""
        series = {}
        for key, cov in self.series.items():
            if cov.rows is None:
                series[key] = cov
                continue
            lo = np.searchsorted(cov.rows, rows)
            sizes = np.searchsorted(cov.rows, rows, side="right") - lo
            ends = np.cumsum(sizes)
            # the kept entries' positions: each range's start, plus the entry's place in the range
            kept = np.arange(ends[-1]) + np.repeat(lo - (ends - sizes), sizes)
            new_rows = np.repeat(np.arange(rows.size), sizes)
            series[key] = Covariate(cov.weeks[kept], new_rows, cov.values[kept], cov.predictable)
        return CovariateTable(tuple(map(self.products.__getitem__, rows.tolist())), series)


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
        """Add the first True entry of mask, row i being on line + i; describe(i) says what.

        describe is called only for a fault that comes first: rows read
        past an earlier fault may hold anything.
        """
        hits = np.flatnonzero(mask)
        i = int(hits[0]) if hits.size else None
        if i is not None and (self.at is None or (line + i, order) < self.at):
            self.add(line + i, order, describe(i))

    def raise_first(self) -> None:
        if self.error is not None:
            raise self.error


def _undecoded(text: str) -> bool:
    """Whether text holds a byte that is not UTF-8, read as errors="surrogateescape" reads one."""
    return not text.isascii() and re.search("[\udc80-\udcff]", text) is not None


# Zero bytes after a block's last record: with its separator, at least 8
# bytes follow each token, so _Column.groups reads 8 bytes from any position
# in a token or at its end.
_PADDING = bytes(7)

# The low k bytes of a uint64 word set, for k = 0..8.
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)

# The odd multiplier of _Column.groups' word hash (2**64 / golden ratio).
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)

# The longest token _Column.groups hashes: its words take at most 8 steps.
LONG_TOKEN = 64


@dataclass(frozen=True, eq=False)
class _Column:
    """One field of a block's records: token i is the UTF-8 bytes data[starts[i]:ends[i]].

    At least 8 bytes of data follow each token (its separator and _PADDING),
    so every start indexes into data, and groups reads whole words.
    """

    data: np.ndarray    # uint8, the block's bytes
    starts: np.ndarray  # int64
    ends: np.ndarray    # int64

    def __len__(self) -> int:
        return len(self.starts)

    def token(self, i: int) -> str:
        return self.data[self.starts[i] : self.ends[i]].tobytes().decode()

    def groups(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, inverse): the index of each distinct token's first
        appearance, ascending, and the index into first of each token, whose
        bytes are those of token first[inverse[i]].

        Tokens of at most LONG_TOKEN bytes are read as little-endian uint64
        words, 8 bytes a step, the bytes past a token's end zeroed. They are
        grouped by a hash of their length and words (_first_equal), and each
        token is then checked against its group's first token, length and
        words. Should two different tokens share a hash, or a token be longer,
        the tokens are grouped by their str instead.
        """
        n = len(self)
        lengths = self.ends - self.starts
        longest = int(lengths.max(initial=0))
        heads = None
        if longest <= LONG_TOKEN:
            # 8 bytes from each position: an unaligned view with a stride of one byte
            view = np.ndarray((len(self.data) - 7,), "<u8", self.data, 0, (1,))
            hashes = lengths.astype(np.uint64)
            words = []
            for k in range(0, longest, 8):
                word = view[np.minimum(self.starts + k, self.ends)]
                word &= _LOW_BYTES[np.clip(lengths - k, 0, 8)]
                hashes ^= word
                hashes *= _HASH_MULTIPLIER
                words.append(word)
            heads = _first_equal(hashes)
            seconds = np.flatnonzero(heads != np.arange(n))  # each against its group's first
            firsts = heads[seconds]
            same = lengths[seconds] == lengths[firsts]
            for word in words:
                same &= word[seconds] == word[firsts]
            if not same.all():
                heads = None
        if heads is None:
            seen: dict[str, int] = {}
            heads = np.fromiter(map(seen.setdefault, self.text(), range(n)), np.intp, n)
        return _first_inverse(heads)

    def distinct(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """(texts, first, inverse): the distinct tokens as str, in order of
        first appearance, with groups' first and inverse."""
        first, inverse = self.groups()
        return _Column(self.data, self.starts[first], self.ends[first]).text(), first, inverse

    def empty(self) -> np.ndarray:
        return self.starts == self.ends

    def text(self) -> list[str]:
        """The tokens as str, from one decode and split of their bytes."""
        if not len(self):
            return []
        # int32 positions where they fit: the gather's index is its largest temporary
        dtype = np.int32 if len(self.data) <= np.iinfo(np.int32).max else np.int64
        size = (self.ends - self.starts + 1).astype(dtype)  # a token and the byte after it
        stops = np.cumsum(size, dtype=dtype)
        shift = np.repeat(self.starts.astype(dtype) + size - stops, size)
        raw = self.data[shift + np.arange(stops[-1], dtype=dtype)]
        raw[stops - 1] = ord(",")
        joined = raw.tobytes()
        if joined.count(b",") == len(self):
            return joined.decode().split(",")[:-1]
        raw[stops - 1] = 0xFF  # a token holds a comma; no UTF-8 text holds this byte
        return raw.tobytes().decode(errors="surrogateescape").split("\udcff")[:-1]

    def ints(self) -> tuple[np.ndarray, int, int]:
        """The tokens parsed as Python's int parses them, into an int64 array.

        Returns (values, bad, wide): bad is the index of the first token int
        rejects and wide that of the first int outside int64, len(self) when
        there is none. Values from bad on are undefined; ints outside int64
        are clipped to its bounds. A token of 1 to MAX_DIGITS ASCII digits
        is converted in numpy; int parses the others.
        """
        lengths = self.ends - self.starts
        values = np.zeros(len(self), np.int64)
        fast = (lengths > 0) & (lengths <= MAX_DIGITS)
        for k in range(min(int(lengths.max(initial=0)), MAX_DIGITS)):
            # uint8: a byte that is not a digit gives 10 or more
            digit = self.data.take(self.starts + k, mode="clip") - ord("0")
            more = lengths > k
            fast &= (digit < 10) | ~more
            values = np.where(more, values * 10 + digit, values)
        wide = len(self)
        for i in np.flatnonzero(~fast).tolist():
            try:
                value = int(self.token(i))
            except ValueError:
                return values, i, wide
            if value not in INT64_RANGE:
                wide = min(wide, i)  # the indices ascend
                value = min(max(value, INT64_RANGE.start), INT64_RANGE.stop - 1)
            values[i] = value
        return values, len(self), wide

    def flags(self) -> np.ndarray:
        """0 and 1 for the tokens "0" and "1", 2 for any other."""
        digit = self.data[self.starts] - ord("0")
        return np.where((self.ends - self.starts == 1) & (digit < 2), digit, 2).astype(np.int8)


@dataclass(frozen=True, eq=False)
class _Block:
    """The records of a block of a CSV file, as spans of its bytes.

    Field i is data[starts[i]:ends[i]], the fields of all records in file
    order, each followed by at least one byte of data; counts holds each
    record's field count (0 for a blank line, which csv reads as no fields).
    error is None or what is wrong with the record after the block's last
    one, which ends the stream: the error csv.reader raised on it, or that
    it holds a byte that is not UTF-8.
    """

    data: np.ndarray    # uint8
    starts: np.ndarray  # int64
    ends: np.ndarray    # int64
    counts: np.ndarray  # int64
    error: str | None = None

    def columns(self, first: int, rows: int, n: int) -> list[_Column]:
        """Each field of the rows records of n fields from field first on,
        its spans copied out of the records' strided ones: the column passes
        read them several times each."""
        stop = first + rows * n
        return [
            _Column(self.data, self.starts[k:stop:n].copy(), self.ends[k:stop:n].copy())
            for k in range(first, first + n)
        ]


def _line_blocks(fh) -> Iterator[bytes]:
    r"""The bytes of fh in pieces of about BLOCK_BYTES, each ending with "\n" but the last."""
    rest = b""
    while chunk := fh.read(BLOCK_BYTES):
        data = rest + chunk
        cut = data.rfind(b"\n") + 1
        if cut:
            yield data[:cut]
        rest = data[cut:]
    if rest:
        yield rest


def _split_block(data: bytes, limit: int) -> _Block | None:
    r"""The records of data split on "\n" and "," directly, or None where csv may differ.

    That is where data holds '"', a "\r" outside a "\r\n" line end, a NUL
    (which csv.reader rejects before Python 3.11), a byte that is not UTF-8,
    or a field longer than limit bytes (csv's limit counts characters, and
    a character is one or more bytes).
    """
    if b'"' in data or b"\0" in data:
        return None
    if not data.isascii():
        try:
            data.decode()
        except UnicodeDecodeError:
            return None
    if not data.endswith(b"\n"):
        data += b"\n"  # csv.reader ends the last record at the end of the file
    padded = np.frombuffer(data + _PADDING, np.uint8)
    array = padded[: len(data)]
    separators = np.flatnonzero((array == ord(",")) | (array == ord("\n")))
    newline = array[separators] == ord("\n")
    cr = array[separators - 1] == ord("\r")  # at position 0, "- 1" reads the final "\n"
    if data.count(b"\r") != np.count_nonzero(cr & newline):
        return None
    starts = np.concatenate(([0], separators[:-1] + 1))
    ends = separators - cr
    if (ends - starts).max() > limit:
        return None
    last = np.flatnonzero(newline)  # each record's last field
    counts = np.diff(last, prepend=-1)
    blank = (counts == 1) & (starts[last] == ends[last])
    if blank.any():
        counts[blank] = 0
        keep = np.ones(len(starts), dtype=bool)
        keep[last[blank]] = False
        starts, ends = starts[keep], ends[keep]
    return _Block(padded, starts, ends, counts)


def _csv_records(blocks: Iterable[bytes]) -> Iterator[_Block]:
    """_records of the blocks, read by csv.reader in batches of records."""
    undecoded = False  # whether a block read so far holds a byte that is not UTF-8

    def texts():
        nonlocal undecoded
        for block in blocks:
            text = block.decode(errors="surrogateescape")
            undecoded = undecoded or _undecoded(text)
            yield io.StringIO(text, newline="")

    reader = csv.reader(chain.from_iterable(texts()))
    batch = max(1, BLOCK_BYTES // 40)  # about 40 bytes a record
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
        fields = [field.encode() for field in chain.from_iterable(rows)]
        lengths = np.fromiter(map(len, fields), np.int64, len(fields))
        ends = np.cumsum(lengths + 1) - 1
        yield _Block(
            np.frombuffer(b",".join(fields) + b"," + _PADDING, np.uint8), ends - lengths, ends,
            np.array([len(row) for row in rows], dtype=np.int64), error,
        )
        if error is not None or len(rows) < batch:
            return


def _records(fh) -> Iterator[_Block]:
    r"""The CSV records of the binary file fh a block at a time, as csv.reader reads them.

    Blocks that _split_block splits are split there; from the first other
    block on, csv.reader reads the file as is, and its records are turned
    into the same spans.
    """
    blocks = _line_blocks(fh)
    limit = csv.field_size_limit()
    for data in blocks:
        if (block := _split_block(data, limit)) is None:
            yield from _csv_records(chain([data], blocks))
            return
        yield block


def _read_columns(path: Path) -> tuple[_FirstFault, Iterator]:
    """(faults, blocks): path's first fault so far, and its records.

    blocks yields path's header record, then (line, columns) for each block
    of data records. The header is None for an empty file; the caller checks
    it, and the data records are read as rows of as many fields as it has.
    columns holds one _Column per field, for the block's records up to the
    first with another field count, which is a fault on its line; line is
    the block's first record's line (the header is line 1, and a record is
    one line however many physical lines a quoted field spans). A record
    csv.reader fails on, or that holds a byte that is not UTF-8, is a fault
    on its line: on line 1 it is raised. The stream ends after the first
    block in which a fault was added, by the reader or by the caller's
    checks on that block. The first block is yielded even when empty.
    """
    faults = _FirstFault(path)

    def blocks():
        with path.open("rb") as fh:
            records = _records(fh)
            block = next(records, None)
            if block is None or not block.counts.size:
                if block is not None and block.error is not None:
                    raise SchemaError(f"{path}:1: {block.error}")
                yield None
                return
            n = int(block.counts[0])
            yield [column.token(0) for column in block.columns(0, 1, n)]
            first, counts, line = n, block.counts[1:], 2
            while True:
                other = np.flatnonzero(counts != n)
                stop = int(other[0]) if other.size else len(counts)
                if other.size:
                    faults.add(line + stop, 0, f"expected {n} fields, got {counts[stop]}")
                elif block.error is not None:
                    faults.add(line + stop, 0, block.error)
                yield line, block.columns(first, stop, n)
                if faults.at is not None or (block := next(records, None)) is None:
                    return
                line += stop
                first, counts = 0, block.counts

    return faults, blocks()


def _floats(column: _Column) -> tuple[np.ndarray, int]:
    """The tokens parsed by Python's float into a float64 array, and the
    index of the first it rejects (len(column) when there is none); values
    from it on are undefined. float parses each distinct token once
    (_Column.distinct), in order of first appearance."""
    texts, first, inverse = column.distinct()
    try:
        return np.fromiter(map(float, texts), np.float64, len(texts))[inverse], len(column)
    except ValueError:
        pass
    values = np.zeros(len(texts))
    for g, text in enumerate(texts):
        try:
            values[g] = float(text)
        except ValueError:
            return values[inverse], int(first[g])
    return values[inverse], len(column)


def _first_equal(hashes: np.ndarray) -> np.ndarray:
    """The index of the first entry equal to each entry of hashes.

    A pass puts each pending entry in the slot of a table of at least twice
    as many slots as entries named by the top bits of its hash times an odd
    constant (a new slot every pass), takes each slot's first entry, and
    settles the entries equal to it; every pass settles each slot's first
    entry at least. Time and memory are linear in the entries.
    """
    n = len(hashes)
    bits = np.uint64(64 - n.bit_length() - 1)
    heads = np.empty(n, dtype=np.intp)
    pending, keys = np.arange(n), hashes
    while pending.size:
        keys = keys * _HASH_MULTIPLIER
        slots = (keys >> bits).astype(np.intp)
        table = np.full(1 << (64 - int(bits)), n)
        np.minimum.at(table, slots, pending)
        candidates = table[slots]
        equal = hashes[candidates] == hashes[pending]
        heads[pending[equal]] = candidates[equal]
        pending, keys = pending[~equal], keys[~equal]
    return heads


def _code_table() -> defaultdict[str, int]:
    """An empty table for _codes: looking up a missing token adds it with the next code.

    Every key enters by such a lookup, so the next code is len(table) and
    the keys are in order of first appearance. The codes come from a
    counter, so the table holds no reference to itself and is freed as
    soon as its loader returns. Loaders use it only through _codes and
    list(): past their loop, a lookup would add a key.
    """
    return defaultdict(count().__next__)


def _mapped(column: _Column, function) -> np.ndarray:
    """The int function(token) of each token as str, called once per
    distinct token (_Column.distinct), in order of first appearance."""
    texts, _, inverse = column.distinct()
    return np.fromiter(map(function, texts), np.int64, len(texts))[inverse]


def _codes(column: _Column, codes: defaultdict[str, int]) -> np.ndarray:
    """Each token's code in codes, a _code_table, which gives a new token the
    next code. Distinct tokens are looked up in order of first appearance, so
    across a file's blocks the codes follow the file's first appearances."""
    return _mapped(column, codes.__getitem__)


def load_sales(path: str | Path) -> SalesPanel:
    """Load sales.csv into a dense panel.

    Weeks absent from the file default to count 0, not listed, in stock.
    Duplicate (product, week) rows, weeks outside [0, LAST_WEEK], units
    outside int64 and positive units on a week not marked on sale are
    rejected.
    """
    path = Path(path)
    faults, blocks = _read_columns(path)
    if (header := next(blocks)) != SALES_HEADER:
        raise SchemaError(f"{path}: unexpected sales header {header}")
    product_ids = _code_table()  # id -> order of first appearance
    parts = []
    for line, (pid_t, week_t, units_t, sale_t, stock_t) in blocks:
        n = len(pid_t)
        pids = _codes(pid_t, product_ids)
        faults.first(pid_t.empty(), line, 1, lambda i: "empty product_id")
        weeks, bad_week, _ = week_t.ints()
        units, bad_units, wide = units_t.ints()
        if min(bad_week, bad_units) < n:
            faults.add(line + min(bad_week, bad_units), 2, "non-integer week or units")
        faults.first(weeks < 0, line, 3, lambda i: f"negative week {int(week_t.token(i))}")
        faults.first(
            weeks > LAST_WEEK, line, 4,
            lambda i: f"week {int(week_t.token(i))} beyond the last supported week {LAST_WEEK}",
        )
        faults.first(units < 0, line, 5, lambda i: f"negative units {int(units_t.token(i))}")
        if wide < n:
            faults.add(line + wide, 6, f"units {int(units_t.token(wide))} outside the int64 range")
        # order 7 is the duplicate check, made on all rows below
        on_sale, stock = sale_t.flags(), stock_t.flags()
        faults.first(
            on_sale == 2, line, 8, lambda i: f"on_sale must be 0 or 1, got {sale_t.token(i)!r}"
        )
        faults.first(
            stock == 2, line, 9, lambda i: f"in_stock must be 0 or 1, got {stock_t.token(i)!r}"
        )
        faults.first(
            (units > 0) & (on_sale == 0), line, 10,
            lambda i: f"positive units {int(units_t.token(i))} on a week not marked on sale",
        )
        parts.append((pids, weeks, units, on_sale, stock))
    pids, weeks, units, on_sale, stock = map(np.concatenate, zip(*parts))
    names = list(product_ids)
    faults.first(
        _repeats(weeks, pids), 2, 7,
        lambda i: f"duplicate row for {(names[pids[i]], int(weeks[i]))}",
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


def _key_order(*keys: np.ndarray) -> np.ndarray:
    """np.lexsort(keys) for int64 keys: entries ordered by the last key, ties
    by the key before it and so on, and full ties in index order.

    Each key is shifted by its minimum as uint64, so any int64 range fits.
    The order is refined by one stable np.argsort per 16-bit digit of the
    shifted keys (numpy sorts uint16 by radix): keys[0] first, and each key
    from its lowest digit up; a key whose shifted values fit in 16 bits
    takes one pass, and a constant one none.
    """
    order = np.arange(len(keys[0]), dtype=np.intp)
    if not order.size:
        return order
    for key in keys:
        shifted = key.astype(np.uint64)  # a negative value wraps around to value + 2**64
        shifted -= shifted[key.argmin()]
        for shift in range(0, int(shifted.max()).bit_length(), 16):
            digit = (shifted >> np.uint64(shift)).astype(np.uint16)  # the low 16 bits
            order = order[np.argsort(digit[order], kind="stable")]
    return order


def _repeats(*keys: np.ndarray) -> np.ndarray:
    """True at each entry whose key an earlier entry already has; entry i's
    key is (keys[0][i], keys[1][i], ...).

    Ids come in as their int64 codes from _codes, and entries are grouped
    by _key_order's radix passes, so the pass is linear in the entries.
    """
    order = _key_order(*keys)
    same = np.ones(max(order.size - 1, 0), dtype=bool)
    for key in keys:
        ordered = key[order]
        same &= ordered[1:] == ordered[:-1]
    repeat_mask = np.zeros(order.size, dtype=bool)
    repeat_mask[order[1:][same]] = True
    return repeat_mask


def load_catalog(path: str | Path) -> Catalog:
    """Load catalog.csv; extra columns become named categorical attributes.

    Column names must be unique and not empty. Each product has one row, a
    non-empty id and category, and a positive, finite price.
    """
    path = Path(path)
    faults, blocks = _read_columns(path)
    header = next(blocks)
    if header is None or header[:3] != ["product_id", "category_id", "price"]:
        raise SchemaError(f"{path}: unexpected catalog header {header}")
    if bad_names := [name for name in header if not name or header.count(name) > 1]:
        raise SchemaError(f"{path}:1: catalog column name {bad_names[0]!r} is empty or repeated")
    product_ids = _code_table()  # id -> order of first appearance
    codes, prices, table = [], [], [[] for _ in header[2:]]  # category, then the extra columns
    for line, (pid_t, category_t, price_t, *extra_t) in blocks:
        pids = _codes(pid_t, product_ids)
        faults.first(pid_t.empty(), line, 1, lambda i: "empty product_id")
        faults.first(
            category_t.empty(), line, 2, lambda i: f"product {pid_t.token(i)!r} has no category"
        )
        price, bad = _floats(price_t)
        if bad < len(price_t):
            faults.add(line + bad, 3, f"bad price {price_t.token(bad)!r}")
        faults.first(
            ~((price > 0) & (price < np.inf)), line, 4,
            lambda i: f"price {price_t.token(i)} is not positive and finite",
        )
        # order 5 is the duplicate check, made on all rows below
        codes.append(pids)
        prices.append(price)
        for rows, column in zip(table, (category_t, *extra_t)):
            rows += column.text()
    pids = np.concatenate(codes)
    names = list(product_ids)
    faults.first(_repeats(pids), 2, 5, lambda i: f"duplicate product {names[pids[i]]!r}")
    faults.raise_first()
    pid_s = names  # no id repeats, so each row's id is first seen on that row
    category_s, *extra = table
    return Catalog(
        dict(zip(pid_s, category_s)),
        dict(zip(pid_s, np.concatenate(prices).tolist())),
        {pid: dict(zip(header[3:], values)) for pid, *values in zip(pid_s, *extra)},
    )


def load_predictions(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(product ids, weeks, forecasts) of a predictions file, in file order.

    Forecasts must be finite, weeks must fit in int64, and each
    (product, week) has one row. A file with no data rows is an error.
    """
    path = Path(path)
    faults, blocks = _read_columns(path)
    if (header := next(blocks)) != ["product_id", "week", "forecast"]:
        raise SchemaError(f"{path}: unexpected predictions header {header}")
    product_ids = _code_table()  # id -> order of first appearance
    parts = []
    for line, (pid_t, week_t, value_t) in blocks:
        n = len(pid_t)
        weeks, bad_week, wide = week_t.ints()
        forecasts, bad_value = _floats(value_t)
        if min(bad_week, bad_value) < n:
            faults.add(line + min(bad_week, bad_value), 1, "bad week or forecast")
        faults.first(
            ~np.isfinite(forecasts), line, 2,
            lambda i: f"non-finite forecast {value_t.token(i)!r}",
        )
        if wide < n:
            faults.add(line + wide, 3, f"week {int(week_t.token(wide))} outside the int64 range")
        # order 4 is the duplicate check, made on all rows below
        parts.append((_codes(pid_t, product_ids), weeks, forecasts))
    pids, weeks, forecasts = map(np.concatenate, zip(*parts))
    names = np.array(list(product_ids), dtype=object)
    faults.first(
        _repeats(weeks, pids), 2, 4, lambda i: f"duplicate key {(names[pids[i]], int(weeks[i]))}"
    )
    faults.raise_first()
    if not pids.size:
        raise SchemaError(f"{path}: no data rows")
    return names[pids], weeks, forecasts


def load_covariates(path: str | Path, panel: SalesPanel) -> CovariateTable:
    """Load covariates.csv against the panel its mixed rows describe.

    A key belongs to one scope and has one predictable flag, and each
    (key, week[, product]) has one row. Weeks must fit in int64, the type
    the feature builder holds them in; a mixed row's product must be in the
    panel, and its week inside it.
    """
    path = Path(path)
    faults, blocks = _read_columns(path)
    if (header := next(blocks)) != COVARIATES_HEADER:
        raise SchemaError(f"{path}: unexpected covariates header {header}")
    key_ids = _code_table()  # key -> order of first appearance
    scope_ids = defaultdict(lambda: 2, temporal=0, mixed=1)  # any other scope is 2
    panel_rows = defaultdict(lambda: -2, {**panel.index, "": -1})  # ids the panel lacks are -2
    parts = []
    for line, (scope_t, key_t, week_t, pid_t, value_t, flag_t) in blocks:
        n = len(scope_t)
        weeks, bad_week, wide = week_t.ints()
        values, bad_value = _floats(value_t)
        if min(bad_week, bad_value) < n:
            faults.add(line + min(bad_week, bad_value), 1, "bad week or value")
        if wide < n:
            faults.add(line + wide, 2, f"week {int(week_t.token(wide))} outside the int64 range")
        faults.first(
            ~np.isfinite(values), line, 3, lambda i: f"non-finite value {value_t.token(i)!r}"
        )
        flags = flag_t.flags()
        faults.first(
            flags == 2, line, 4, lambda i: f"predictable must be 0 or 1, got {flag_t.token(i)!r}"
        )
        # order 5 is the predictable flag's consistency, checked on all rows below
        scopes = _mapped(scope_t, scope_ids.__getitem__)
        rows = _mapped(pid_t, panel_rows.__getitem__)
        outside = (weeks < 0) | (weeks >= panel.n_weeks)

        def scope_fault(i):
            if scopes[i] == 0:
                return "temporal row must have empty product_id"
            if scopes[i] == 2:
                return f"unknown scope {scope_t.token(i)!r}"
            if rows[i] == -1:
                return "mixed row needs a product_id"
            if rows[i] == -2:
                return f"unknown product {pid_t.token(i)!r}"
            return f"week {weeks[i]} outside panel"

        temporal, mixed = scopes == 0, scopes == 1
        faults.first(
            (temporal & (rows != -1)) | (mixed & ((rows < 0) | outside)) | (scopes == 2),
            line, 6, scope_fault,
        )
        keys = _codes(key_t, key_ids)
        parts.append((keys, scopes, rows, weeks, values, flags))
    keys, scopes, rows, weeks, values, flags = map(np.concatenate, zip(*parts))
    names = list(key_ids)
    # rows by (key, row, week); a temporal row's row is -1
    order = _key_order(weeks, rows, keys)
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
    lines: dict[str, str] = {}  # key -> "path:line" of the line that set it
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
        lines[key] = f"{path}:{line_no}"
    config = RunConfig(**values)
    config.validate(lines)
    return config


# Rows write_csv formats and writes at a time: it holds the text of one
# batch of rows, whatever the file's length. A process keeps the heap that
# a batch took, and synth often runs in the process that trains: at 2**14
# rows, synth of a 500-product panel peaked 6 MB above csv.writer's, at
# 2**11 about 0.5 MB, for about a tenth more time spent writing.
WRITE_ROWS = 1 << 11


def _quoted(text: str) -> str:
    """text as a field of csv.writer's excel dialect: quoted, with '"' doubled,
    when it holds a comma, a quote or a line break."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _first_inverse(heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) of the index heads[i] of the first entry equal to entry
    i: the first entries, ascending, and the index into first of each entry."""
    is_first = heads == np.arange(len(heads))
    return np.flatnonzero(is_first), (np.cumsum(is_first) - 1)[heads]


def _texts(values: np.ndarray, end: str) -> tuple[np.ndarray, np.ndarray]:
    """(texts, codes): an object array of the field of each distinct value
    followed by end, entry i's being texts[codes[i]].

    Numbers are grouped by their 8 bytes (_first_equal), so -0.0 and each NaN
    stay apart from other values; a float's field is the repr of a Python
    float and an integer's or a bool's the str of a Python int. str entries
    (an object array) are grouped by a dict and quoted once each; an entry
    masked in a masked array is an empty field.
    """
    if hasattr(values, "mask"):  # a masked array; np.ma is imported only where one is made
        texts, codes = _texts(values.data, end)
        codes[np.ma.getmaskarray(values)] = len(texts)
        return np.append(texts, end), codes
    if values.dtype == object:
        table = _code_table()
        codes = np.fromiter(map(table.__getitem__, values), np.intp, len(values))
        return np.array([_quoted(text) + end for text in table], dtype=object), codes
    floats = values.dtype.kind == "f"
    numbers = values.astype(np.float64 if floats else np.int64, copy=False)
    first, codes = _first_inverse(_first_equal(numbers.view(np.uint64)))
    form = repr if floats else str
    return np.array([form(x) + end for x in numbers[first].tolist()], dtype=object), codes


def write_csv(path: str | Path, header: list[str], columns: list) -> None:
    r"""Write a CSV file of header and the rows of columns as csv.writer's
    excel dialect writes it.

    Each column gives one field per row. It is a numpy array (float64; an
    integer or bool type; object, holding str; or a masked float array) or a
    pair (labels, codes) of str labels and an integer array, whose row i
    reads labels[codes[i]]. Fields are written as _texts makes them, and a
    field holding ",", '"', "\r" or "\n" is quoted with '"' doubled. Rows
    end in "\r\n". Every file here has at least three columns, so csv's
    quoted empty field for a row of one empty field never arises.

    Each column's fields are made once per distinct value of a batch of
    WRITE_ROWS rows (once per label for a pair), with the separator that
    follows them, gathered back to the batch's rows by code and joined into
    one string per batch.
    """
    separators = [","] * (len(columns) - 1) + ["\r\n"]
    lengths = {len(column[1] if isinstance(column, tuple) else column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns of different lengths {sorted(lengths)} for {path}")
    labeled = {
        j: np.array([_quoted(label) + end for label in column[0]], dtype=object)
        for j, (column, end) in enumerate(zip(columns, separators))
        if isinstance(column, tuple)
    }
    n = lengths.pop() if lengths else 0
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(map(_quoted, header)) + "\r\n")
        for start in range(0, n, WRITE_ROWS):
            stop = min(start + WRITE_ROWS, n)
            batch = np.empty((stop - start, len(columns)), dtype=object)
            for j, (column, end) in enumerate(zip(columns, separators)):
                if j in labeled:
                    batch[:, j] = labeled[j][column[1][start:stop]]
                else:
                    texts, codes = _texts(column[start:stop], end)
                    batch[:, j] = texts[codes]
            fh.write("".join(batch.ravel().tolist()))


def write_sales(panel: SalesPanel, path: str | Path) -> None:
    """Write the sales CSV; only listed or out-of-stock weeks are emitted.

    The final week is always emitted for the first product so the panel
    length survives a round trip even when nothing is listed that week.
    """
    # unlisted in-stock weeks are the implicit default
    emit = panel.on_sale_mask | ~panel.stock_flag
    if emit.size:
        emit[0, -1] = True
    rows, weeks = np.nonzero(emit)  # product-major, weeks ascending
    write_csv(path, SALES_HEADER, [
        (panel.products, rows), weeks, panel.y[rows, weeks],
        panel.on_sale_mask[rows, weeks], panel.stock_flag[rows, weeks],
    ])


def write_catalog(catalog: Catalog, path: str | Path) -> None:
    pids = sorted(catalog.category_of)
    extra_cols = sorted({k for attrs in catalog.attributes.values() for k in attrs})
    attrs = [catalog.attributes.get(pid, {}) for pid in pids]
    write_csv(path, ["product_id", "category_id", "price", *extra_cols], [
        np.array(pids, dtype=object),
        np.array([catalog.category_of[pid] for pid in pids], dtype=object),
        np.array([catalog.price[pid] for pid in pids], dtype=np.float64),
        *(np.array([a.get(c, "") for a in attrs], dtype=object) for c in extra_cols),
    ])


def write_covariates(table: CovariateTable, path: str | Path) -> None:
    """Write covariates.csv: temporal keys, then mixed keys, each in sorted
    order; a key's rows in (product row, week) order."""
    keys = table.feature_names()
    series = [table.series[key] for key in keys]
    sizes = [len(cov.weeks) for cov in series]

    def each_key(values) -> np.ndarray:
        return np.repeat(np.array(values, dtype=np.int64), sizes)

    none = np.zeros(0, np.int64)  # what a table without keys concatenates
    write_csv(path, COVARIATES_HEADER, [
        (("temporal", "mixed"), each_key([cov.rows is not None for cov in series])),
        (keys, each_key(range(len(keys)))),
        np.concatenate([cov.weeks for cov in series] or [none]),
        # label 0 is a temporal row's empty product_id
        (("", *table.products), np.concatenate([
            np.zeros(n, np.int64) if cov.rows is None else cov.rows + 1
            for cov, n in zip(series, sizes)
        ] or [none])),
        np.concatenate([cov.values for cov in series] or [none.astype(np.float64)]),
        each_key([cov.predictable for cov in series]),
    ])
