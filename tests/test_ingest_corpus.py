"""Seeded mutation corpus: the columnar loaders against the row-by-row ones.

Small valid sales, catalog, covariates and predictions files are mutated
with numpy's RNG (bad headers and field counts, blank lines, bad numbers,
integers that only Python's int converts, out-of-range weeks and prices,
empty, non-ASCII and NUL ids, bad flags and scopes, unknown products,
duplicate and conflicting keys, quoted fields, a lone "\r" inside a field,
CRLF line ends, shuffled rows). On every file the loader must return what
tests/oracles.py's row-by-row loader returns, or raise the same exception
type with the same message. The corpus runs once with the default block
size and once with blocks of a line or two, so that duplicates and faults
straddle block boundaries; hand-made UTF-8 files also run with blocks of 1
to 3 bytes.
"""

import sys

import numpy as np
import pytest

from demandcast import ingest
from demandcast.core import SalesPanel

from .oracles import (
    covariate_dicts,
    rowwise_load_catalog,
    rowwise_load_covariates,
    rowwise_load_predictions,
    rowwise_load_sales,
)

FILES = 500
PRODUCTS = ("p0", "p1", "p2", "p3")
WEEKS = 8
PANEL = SalesPanel(
    PRODUCTS, np.zeros((4, WEEKS), dtype=np.int64), np.zeros((4, WEEKS), dtype=bool),
    np.ones((4, WEEKS), dtype=bool),
)
INT64_EDGES = [
    "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "-9223372036854775809", "100000000000000000000",
]
NOT_INTEGERS = ["1.5", "x", "", "0x1", "1e3", " 7", "+2", "1_0"]
# integer tokens numpy does not convert (a sign, 19 digits, a space, a
# Unicode digit) or converts with care (leading zeros, 18 digits)
PYTHON_INTEGERS = [
    "007", "-0", "+0", "999999999999999999", "1000000000000000000", "٣", "３", "7 ",
]
NOT_FINITE = ["nan", "inf", "-inf", "1e400", "NaN", "abc", ""]
BAD_FLAGS = ["2", "", "yes", "01", "-1", "1.0", "1 ", "١"]
# ids kept byte for byte: two and three byte UTF-8 and, where csv.reader
# reads it (Python 3.11 on), a NUL
ODD_IDS = ["pé", "産品", *["p\x00"] * (sys.version_info >= (3, 11))]

# every check each loader makes, as a piece of its message
SALES_FAULTS = (
    "expected 5 fields", "non-integer week or units", "negative week", "beyond the last supported",
    "negative units", "duplicate row", "on_sale must be", "in_stock must be", "positive units",
    "empty product_id",
)
CATALOG_FAULTS = (
    "unexpected catalog header", "is empty or repeated", "fields", "empty product_id",
    "has no category", "bad price", "is not positive and finite", "duplicate product",
)
PREDICTION_FAULTS = (
    "unexpected predictions header", "expected 3 fields", "bad week or forecast",
    "non-finite forecast", "outside the int64 range", "duplicate key",
)
COVARIATE_FAULTS = (
    "expected 6 fields", "bad week or value", "outside the int64 range", "non-finite value",
    "predictable must be", "inconsistent predictable flag", "temporal row must have empty",
    "mixed row needs", "unknown product", "outside panel", "unknown scope",
    "used with both scopes", "duplicate row",
)


def valid_sales(rng):
    rows = []
    for pid in PRODUCTS:
        for week in np.flatnonzero(rng.random(WEEKS) < 0.7).tolist():
            listed = int(rng.random() < 0.8)
            units = int(rng.integers(0, 9)) * listed
            rows.append([pid, str(week), str(units), str(listed), str(int(rng.random() < 0.9))])
    return ["product_id,week,units,on_sale,in_stock"], rows


def valid_covariates(rng):
    rows = []
    for key, flag in (("event", "1"), ("weather", "0")):
        for week in np.flatnonzero(rng.random(WEEKS + 4) < 0.6).tolist():
            rows.append(["temporal", key, str(week - 2), "", repr(float(rng.normal())), flag])
    for key, flag in (("promo", "1"), ("price", "0")):
        for pid in PRODUCTS:
            for week in np.flatnonzero(rng.random(WEEKS) < 0.5).tolist():
                rows.append(["mixed", key, str(week), pid, repr(float(rng.uniform(1, 9))), flag])
    return ["scope,key,week,product_id,value,predictable"], rows


def valid_catalog(rng):
    extra = ["brand", "color"][: int(rng.integers(0, 3))]
    rows = []
    for pid in PRODUCTS:
        price = str(rng.choice(["3", "0.5", repr(float(rng.uniform(1, 9)))]))
        attrs = rng.choice(["a", "b", ""], size=len(extra)).tolist()
        rows.append([pid, str(rng.choice(["toys", "food"])), price, *attrs])
    header = ",".join(["product_id", "category_id", "price", *extra])
    if rng.random() < 0.1:  # a header with an empty, repeated or fixed column renamed
        header = str(
            rng.choice([header + ",", header + ",price", header + ",brand,brand", "product_id,cat"])
        )
    return [header], rows


def valid_predictions(rng):
    rows = []
    for pid in PRODUCTS:
        for week in np.flatnonzero(rng.random(WEEKS) < 0.6).tolist():
            rows.append([pid, str(week - 1), repr(float(rng.uniform(0, 9)))])
    header = "product_id,week,forecast"
    if rng.random() < 0.05:
        header = str(rng.choice(["product_id,week", "product_id,week,value", ""]))
    return [header], rows


def mutate_sales_field(rng, row, kind):
    if kind == "not_integer":
        row[int(rng.choice([1, 2]))] = str(rng.choice(NOT_INTEGERS))
    elif kind == "python_integer":
        row[int(rng.choice([1, 2]))] = str(rng.choice(PYTHON_INTEGERS))
    elif kind == "negative_week":
        row[1] = str(-int(rng.integers(1, 5)))
    elif kind == "late_week":
        row[1] = str(ingest.LAST_WEEK + int(rng.integers(1, 3)))
    elif kind == "wide_week":
        row[1] = str(rng.choice(INT64_EDGES))
    elif kind == "negative_units":
        row[2] = str(-int(rng.integers(1, 5)))
    elif kind == "bad_flag":
        row[int(rng.choice([3, 4]))] = str(rng.choice(BAD_FLAGS))
    elif kind == "bad_flags":
        row[3:5] = rng.choice(BAD_FLAGS, size=2).tolist()
    elif kind == "flip_flag":
        column = int(rng.choice([3, 4]))
        row[column] = "1" if row[column] == "0" else "0"
    elif kind == "new_product":
        row[0] = str(rng.choice(["p9", "a", "", *ODD_IDS]))


def mutate_covariate_field(rng, row, kind):
    if kind == "not_integer":
        row[2] = str(rng.choice(NOT_INTEGERS))
    elif kind == "python_integer":
        row[2] = str(rng.choice(PYTHON_INTEGERS))
    elif kind == "odd_key":
        row[1] = str(rng.choice(ODD_IDS))
    elif kind == "not_finite":
        row[4] = str(rng.choice(NOT_FINITE))
    elif kind == "negative_week":
        row[2] = str(-int(rng.integers(1, 5)))
    elif kind == "late_week":
        row[2] = str(WEEKS + int(rng.integers(0, 3)))
    elif kind == "wide_week":
        row[2] = str(rng.choice(INT64_EDGES))
    elif kind == "bad_flag":
        row[5] = str(rng.choice(BAD_FLAGS))
    elif kind == "flip_flag":
        row[5] = "1" if row[5] == "0" else "0"
    elif kind == "bad_scope":
        row[0] = str(rng.choice(["Temporal", "", "both"]))
    elif kind == "unknown_product":
        row[3] = str(rng.choice(["p9", *ODD_IDS]))
    elif kind == "empty_or_extra_product":
        row[3] = "" if row[3] else "p1"
    elif kind == "other_scope":
        row[0], row[3] = ("mixed", "p2") if row[0] == "temporal" else ("temporal", "")
    elif kind == "quoted_comma_key":
        row[1] = '"ev,ent"'


def mutate_catalog_field(rng, row, kind):
    if kind == "empty_id":
        row[0] = ""
    elif kind == "same_id":
        row[0] = str(rng.choice(PRODUCTS))
    elif kind == "odd_id":
        row[0] = str(rng.choice(ODD_IDS))
    elif kind == "no_category":
        row[1] = ""
    elif kind == "not_a_number":
        row[2] = str(rng.choice(["x", "", "0x1", "1e", "1,5"]))
    elif kind == "not_positive":
        row[2] = str(rng.choice(["0", "-1", "-0.0", "0e3"]))
    elif kind == "not_finite":
        row[2] = str(rng.choice(NOT_FINITE))
    elif kind == "quoted_comma_attribute" and len(row) > 3:
        row[3] = '"x,y"'


def mutate_prediction_field(rng, row, kind):
    if kind == "not_integer":
        row[1] = str(rng.choice(NOT_INTEGERS))
    elif kind == "python_integer":
        row[1] = str(rng.choice(PYTHON_INTEGERS))
    elif kind == "not_finite":
        row[2] = str(rng.choice(NOT_FINITE))
    elif kind == "wide_week":
        row[1] = str(rng.choice(INT64_EDGES))
    elif kind == "same_week":
        row[1] = str(int(rng.integers(-1, WEEKS)))
    elif kind == "other_product":
        row[0] = str(rng.choice(["p0", "p9", "", *ODD_IDS]))
    elif kind == "quoted_comma_id":
        row[0] = '"p,1"'


SALES_KINDS = (
    "not_integer", "python_integer", "negative_week", "late_week", "wide_week", "negative_units",
    "bad_flag", "bad_flags", "flip_flag", "new_product",
)
COVARIATE_KINDS = (
    "not_integer", "python_integer", "odd_key", "not_finite", "negative_week", "late_week",
    "wide_week", "bad_flag", "flip_flag", "bad_scope", "unknown_product", "empty_or_extra_product",
    "other_scope", "quoted_comma_key",
)
CATALOG_KINDS = (
    "empty_id", "same_id", "odd_id", "no_category", "not_a_number", "not_positive", "not_finite",
    "quoted_comma_attribute",
)
PREDICTION_KINDS = (
    "not_integer", "python_integer", "not_finite", "wide_week", "same_week", "other_product",
    "quoted_comma_id",
)
LINE_KINDS = (
    "truncate", "extra_field", "blank", "duplicate", "duplicate_changed", "quote", "lone_cr",
)


def mutated_text(rng, header, rows, field_kinds, mutate_field):
    """One corpus file: none (a quarter of files) or 1 to 6 field or line
    mutations, maybe shuffled rows, then the line ends.

    Most mutations hit the line the one before hit (a duplicate's copy), so
    one line can fail several checks and their order shows.
    """
    lines = [list(row) for row in rows]
    j = 0
    for _ in range(0 if rng.random() < 0.25 else int(rng.integers(1, 7))):
        if rng.random() < 0.3:
            j = int(rng.integers(0, len(lines)))
        kind = str(rng.choice(field_kinds + LINE_KINDS))
        if kind in field_kinds:
            if len(lines[j]) == header[0].count(",") + 1:
                mutate_field(rng, lines[j], kind)
        elif kind == "truncate":
            text = ",".join(lines[j])
            lines[j] = text[: int(rng.integers(0, len(text) + 1))].split(",")
        elif kind == "extra_field":
            lines[j].append("x")
        elif kind == "blank":
            lines.insert(j, [""])
        elif kind in ("duplicate", "duplicate_changed"):
            copy = list(lines[j])
            if kind == "duplicate_changed" and len(copy) > 3:
                copy[-2] = str(int(rng.integers(0, 5)))
            j = int(rng.integers(0, len(lines) + 1))
            lines.insert(j, copy)
        elif kind == "quote":  # a quoted field keeps its value
            k = int(rng.integers(0, len(lines[j])))
            if '"' not in lines[j][k]:
                lines[j][k] = f'"{lines[j][k]}"'
        elif kind == "lone_cr":  # csv.reader ends a record at a lone "\r"
            k = int(rng.integers(0, len(lines[j])))
            lines[j][k] = lines[j][k][:1] + "\r" + lines[j][k][1:]
    if rng.random() < 0.3:
        lines = [lines[k] for k in rng.permutation(len(lines))]
    end = "\r\n" if rng.random() < 0.2 else "\n"
    text = end.join(header + [",".join(line) for line in lines])
    return text + (end if rng.random() < 0.9 else "")


def outcome(load, *args):
    try:
        return None, load(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is what is compared
        return (type(exc), str(exc)), None


def sales_equal(a, b):
    return a.products == b.products and all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("y", "on_sale_mask", "stock_flag")
    )


@pytest.fixture(params=[None, 24], ids=["default_blocks", "tiny_blocks"])
def block_bytes(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(ingest, "BLOCK_BYTES", request.param)  # one or two lines a block
    return request.param


def test_sales_match_rowwise_loader(tmp_path, block_bytes):
    rng = np.random.default_rng(20240901)
    faults, valid, csv_path_valid = set(), 0, 0
    for k in range(FILES):
        text = mutated_text(rng, *valid_sales(rng), SALES_KINDS, mutate_sales_field)
        path = tmp_path / f"sales{k}.csv"
        path.write_text(text, newline="")
        error, panel = outcome(ingest.load_sales, path)
        expected_error, expected = outcome(rowwise_load_sales, path)
        assert error == expected_error, text
        if error is None:
            assert sales_equal(panel, expected), text
            valid += 1
            csv_path_valid += '"' in text or "\r" in text
        else:
            faults.update(f for f in SALES_FAULTS if f in error[1])
    assert faults == set(SALES_FAULTS)
    assert valid > FILES // 5 and csv_path_valid > 5


def test_covariates_match_rowwise_loader(tmp_path, block_bytes):
    rng = np.random.default_rng(20240902)
    faults, valid, csv_path_valid = set(), 0, 0
    for k in range(FILES):
        text = mutated_text(rng, *valid_covariates(rng), COVARIATE_KINDS, mutate_covariate_field)
        path = tmp_path / f"cov{k}.csv"
        path.write_text(text, newline="")
        error, table = outcome(ingest.load_covariates, path, PANEL)
        expected_error, expected = outcome(rowwise_load_covariates, path, PANEL)
        assert error == expected_error, text
        if error is None:
            assert covariate_dicts(table) == expected, text
            valid += 1
            csv_path_valid += '"' in text or "\r" in text
        else:
            faults.update(f for f in COVARIATE_FAULTS if f in error[1])
    assert faults == set(COVARIATE_FAULTS)
    assert valid > FILES // 5 and csv_path_valid > 5


def catalogs_equal(a, b):
    """Equal dicts, in the same (file) order."""
    return all(
        list(getattr(a, name).items()) == list(getattr(b, name).items())
        for name in ("category_of", "price", "attributes")
    )


def test_catalog_matches_rowwise_loader(tmp_path, block_bytes):
    rng = np.random.default_rng(20240903)
    faults, valid, csv_path_valid = set(), 0, 0
    for k in range(FILES):
        text = mutated_text(rng, *valid_catalog(rng), CATALOG_KINDS, mutate_catalog_field)
        path = tmp_path / f"catalog{k}.csv"
        path.write_text(text, newline="")
        error, catalog = outcome(ingest.load_catalog, path)
        expected_error, expected = outcome(rowwise_load_catalog, path)
        assert error == expected_error, text
        if error is None:
            assert catalogs_equal(catalog, expected), text
            valid += 1
            csv_path_valid += '"' in text or "\r" in text
        else:
            faults.update(f for f in CATALOG_FAULTS if f in error[1])
    assert faults == set(CATALOG_FAULTS)
    assert valid > FILES // 5 and csv_path_valid > 5


def test_predictions_match_rowwise_loader(tmp_path, block_bytes):
    rng = np.random.default_rng(20240904)
    faults, valid, csv_path_valid = set(), 0, 0
    for k in range(FILES):
        text = mutated_text(
            rng, *valid_predictions(rng), PREDICTION_KINDS, mutate_prediction_field
        )
        path = tmp_path / f"predictions{k}.csv"
        path.write_text(text, newline="")
        error, arrays = outcome(ingest.load_predictions, path)
        expected_error, expected = outcome(rowwise_load_predictions, path)
        assert error == expected_error, text
        if error is None:
            for got, want in zip(arrays, expected):
                assert got.dtype == want.dtype and got.tolist() == want.tolist(), text
            valid += 1
            csv_path_valid += '"' in text or "\r" in text
        else:
            faults.update(f for f in PREDICTION_FAULTS if f in error[1])
    assert faults == set(PREDICTION_FAULTS)
    assert valid > FILES // 5 and csv_path_valid > 5


def loaded(name, path):
    """What the loader for file kind name gives for path, in a comparable form."""
    if name == "sales":
        panel = ingest.load_sales(path)
        return panel.products, panel.y.tolist(), panel.on_sale_mask.tolist(), panel.stock_flag.tolist()
    if name == "covariates":
        return covariate_dicts(ingest.load_covariates(path, PANEL))
    if name == "catalog":
        catalog = ingest.load_catalog(path)
        return [list(getattr(catalog, f).items()) for f in ("category_of", "price", "attributes")]
    return [(a.dtype, a.tolist()) for a in ingest.load_predictions(path)]


def oracle_loaded(name, path):
    """What the row-by-row loader for file kind name gives for path, in loaded's form."""
    if name == "sales":
        panel = rowwise_load_sales(path)
        return (
            panel.products, panel.y.tolist(), panel.on_sale_mask.tolist(), panel.stock_flag.tolist()
        )
    if name == "covariates":
        return rowwise_load_covariates(path, PANEL)
    if name == "catalog":
        catalog = rowwise_load_catalog(path)
        return [list(getattr(catalog, f).items()) for f in ("category_of", "price", "attributes")]
    return [(a.dtype, a.tolist()) for a in rowwise_load_predictions(path)]


CORPORA = {
    "sales": (valid_sales, SALES_KINDS, mutate_sales_field),
    "covariates": (valid_covariates, COVARIATE_KINDS, mutate_covariate_field),
    "catalog": (valid_catalog, CATALOG_KINDS, mutate_catalog_field),
    "predictions": (valid_predictions, PREDICTION_KINDS, mutate_prediction_field),
}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_crlf_line_ends_load_as_lf(tmp_path, block_bytes, name):
    """Each corpus file gives the same result, or the same fault on the same
    line, with its lines ending in "\\n" and in "\\r\\n"."""
    rng = np.random.default_rng(20240905)
    make, kinds, mutate = CORPORA[name]
    path = tmp_path / f"{name}.csv"
    valid = 0
    for _ in range(FILES // 5):
        lf = mutated_text(rng, *make(rng), kinds, mutate).replace("\r\n", "\n")
        outcomes = []
        for text in (lf, lf.replace("\n", "\r\n")):
            path.write_text(text, newline="")
            outcomes.append(outcome(loaded, name, path))
        assert outcomes[0] == outcomes[1], lf
        valid += outcomes[0][0] is None
    assert 10 < valid < FILES // 5  # some files load, others fail


def test_quoted_crlf_inside_a_field_is_kept(tmp_path, block_bytes):
    path = tmp_path / "catalog.csv"
    path.write_text(
        'product_id,category_id,price,brand\r\np0,toys,3,"a\r\nb"\r\np1,food,2,c\r\n', newline=""
    )
    catalog = ingest.load_catalog(path)
    assert catalog.attributes == {"p0": {"brand": "a\r\nb"}, "p1": {"brand": "c"}}
    assert catalogs_equal(catalog, rowwise_load_catalog(path))


def test_written_files_take_the_direct_path(tmp_path, block_bytes, monkeypatch):
    rng = np.random.default_rng(5)
    y = rng.poisson(3.0, size=(4, WEEKS))
    panel = SalesPanel(PRODUCTS, y, y > 0, rng.random((4, WEEKS)) < 0.9)
    ingest.write_sales(panel, tmp_path / "sales.csv")
    assert b"\r\n" in (tmp_path / "sales.csv").read_bytes()

    def refuse(blocks):
        raise AssertionError("csv.reader path taken")

    monkeypatch.setattr(ingest, "_csv_records", refuse)
    assert sales_equal(ingest.load_sales(tmp_path / "sales.csv"), panel)


# per file kind: a header and rows with multi-byte UTF-8 text
UTF8_FILES = {
    "sales": ["product_id,week,units,on_sale,in_stock", "pé,0,3,1,1", "産品,1,0,0,1", "pé,1,2,1,0"],
    "covariates": [
        "scope,key,week,product_id,value,predictable", "temporal,événement,0,,1.5,1",
        "mixed,価格,2,p1,9.5,0", "mixed,価格,3,p1,8.0,0",
    ],
    "catalog": [
        "product_id,category_id,price,brand", "pé,jouets,2.5,été", "産品,食品,3,", "p0,food,0.5,x",
    ],
    "predictions": ["product_id,week,forecast", "pé,3,1.5", "産品,3,2.0", "p0,4,0.0"],
}


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(UTF8_FILES))
def test_blocks_of_a_few_bytes(tmp_path, monkeypatch, name, size):
    """A block ends only after a "\n", so even blocks of 1 to 3 bytes never
    end inside a character: CRLF files with multi-byte ids, with and without
    a blank line, load as the row-by-row loader loads them."""
    monkeypatch.setattr(ingest, "BLOCK_BYTES", size)
    lines = UTF8_FILES[name]
    path = tmp_path / f"{name}.csv"
    for body in (lines, [*lines[:2], "", *lines[2:]]):
        path.write_text("\r\n".join(body), newline="")  # no line end after the last line
        got = outcome(loaded, name, path)
        assert got == outcome(oracle_loaded, name, path), body
        assert (got[0] is None) == (body is lines), got


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_lone_cr_line_ends_hold_bounded_blocks(tmp_path, monkeypatch, name):
    """A file whose lines end in a lone "\\r" has no "\\n" to end a block at:
    it is read a block at a time all the same, each block ending after its
    last lone "\\r" and split directly (_split_block ends a record there,
    as csv.reader does), and loads as the row-by-row loader loads it."""
    monkeypatch.setattr(ingest, "BLOCK_BYTES", 64)
    held = []
    line_blocks = ingest._line_blocks

    def recording(fh):
        for buffer, size in line_blocks(fh):
            held.append(len(buffer))
            yield buffer, size

    monkeypatch.setattr(ingest, "_line_blocks", recording)
    make = CORPORA[name][0]
    header, rows = make(np.random.default_rng(7))
    path = tmp_path / f"{name}.csv"
    path.write_text("\r".join(header + [",".join(row) for row in rows]) + "\r", newline="")
    got = outcome(loaded, name, path)
    assert got == outcome(oracle_loaded, name, path)
    assert got[0] is None
    assert len(held) > 1 and max(held) <= 2 * ingest.BLOCK_BYTES


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "lone_cr"])
def test_line_ends_change_after_the_first_block(tmp_path, block_bytes, end):
    """Lines end in "\\n" through the first block, which has no "\\r" to
    check, and in end after it: a "\\r\\n" block and a lone-"\\r" block
    both split directly, a lone "\\r" ending a record as in csv.reader."""
    lines = ["product_id,week,units,on_sale,in_stock"]
    size = 0
    while size <= ingest.BLOCK_BYTES:
        k = len(lines)
        lines.append(f"product_{k // 40:06d},{k % 40},{k % 7},1,{k % 2}")
        size += len(lines[-1]) + 1
    tail = [f"product_{k // 40:06d},{k % 40},3,1,1" for k in range(len(lines), len(lines) + 90)]
    path = tmp_path / "sales.csv"
    path.write_text("\n".join(lines) + "\n" + "".join(line + end for line in tail), newline="")
    got = outcome(loaded, "sales", path)
    assert got == outcome(oracle_loaded, "sales", path)
    assert got[0] is None


# product ids of 7, 8 and 9 bytes, two of them different only in their ninth byte
WORD_IDS = ["abcdefg", "abcdefgh", "abcdefgh0", "abcdefgh1", "abcdefgi", "bcdefgh0"]


def test_eight_and_nine_byte_tokens(tmp_path, block_bytes):
    """Tokens of at most 8 bytes are grouped by their word, longer ones by
    their hash: a column mixes both, within a block and across blocks."""
    rng = np.random.default_rng(43)
    path = tmp_path / "sales.csv"
    rows = [(pid, week) for pid in WORD_IDS for week in range(6)]
    rows = [rows[k] for k in rng.permutation(len(rows))]
    path.write_text(
        ",".join(ingest.SALES_HEADER) + "\n" + "".join(f"{p},{w},{w % 3},1,1\n" for p, w in rows)
    )
    got = outcome(loaded, "sales", path)
    assert got == outcome(oracle_loaded, "sales", path)
    assert got[0] is None and got[1][0] == tuple(sorted(WORD_IDS))
    panel = ingest.load_sales(path)
    keys = ["promo123", "promo1234", "promo1235"]  # 8 and 9 bytes
    values = ["1.234567", "1.2345678", "1.2345679"]
    path = tmp_path / "covariates.csv"
    text = ",".join(ingest.COVARIATES_HEADER) + "\n" + "".join(
        f"mixed,{keys[k % 3]},{w},{pid},{values[(k + w) % 3]},1\n"
        for k, pid in enumerate(WORD_IDS) for w in range(6)
    )
    path.write_text(text)
    table = covariate_dicts(ingest.load_covariates(path, panel))
    assert table == rowwise_load_covariates(path, panel)
    assert sum(map(len, table.mixed.values())) == len(WORD_IDS) * 6
    path = tmp_path / "predictions.csv"
    path.write_text(
        "product_id,week,forecast\n" + "".join(f"{p},{w},{values[w % 3]}\n" for p, w in rows)
    )
    assert outcome(loaded, "predictions", path) == outcome(oracle_loaded, "predictions", path)


def test_empty_token_next_to_byte_one(tmp_path, block_bytes):
    """An empty product id (a temporal row's) and the id "\\x01" have other
    words, though a hash of length XOR first word gives both 0."""
    panel = SalesPanel(
        ("\x01", "p1"), np.zeros((2, WEEKS), dtype=np.int64), np.zeros((2, WEEKS), dtype=bool),
        np.ones((2, WEEKS), dtype=bool),
    )
    path = tmp_path / "covariates.csv"
    rows = [f"temporal,event,{w},,{w / 4},1" for w in range(WEEKS)]
    rows += [
        f"mixed,price,{w},{pid},{w + 1.5},0" for w in range(WEEKS) for pid in panel.products
    ]
    rows = [rows[k] for k in np.random.default_rng(44).permutation(len(rows))]
    path.write_text(",".join(ingest.COVARIATES_HEADER) + "\n" + "\n".join(rows) + "\n")
    table = covariate_dicts(ingest.load_covariates(path, panel))
    assert table == rowwise_load_covariates(path, panel)
    assert len(table.temporal["event"]) == WEEKS and len(table.mixed["price"]) == 2 * WEEKS
