import ast
import csv
import math
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from demandcast import ingest
from demandcast.cli import _write_predictions
from demandcast.core import Catalog, SalesPanel
from demandcast.evaluation import EvalReport, MetricCell, write_report
from demandcast.ingest import Covariate, CovariateTable, RunConfig, SchemaError
from demandcast.preprocess import detect_fake_zeros, repair_fake_zeros, smooth_panel, write_smoothed
from demandcast.seasonal import SeasonalityModel, write_seasonality
from demandcast.synth import SynthSpec, generate_panel, write_ground_truth, write_ground_truth_curves

from .oracles import (
    covariate_dicts,
    loop_write_catalog,
    loop_write_covariates,
    loop_write_ground_truth,
    loop_write_ground_truth_curves,
    loop_write_predictions,
    loop_write_report,
    loop_write_sales,
    loop_write_seasonality,
    loop_write_smoothed,
    two_pass_codes,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


SALES_HEADER = "product_id,week,units,on_sale,in_stock\n"


class TestLoadSales:
    def test_dense_panel(self, tmp_path):
        path = write(
            tmp_path,
            "sales.csv",
            SALES_HEADER
            + "a,0,3,1,1\na,1,0,1,0\na,2,5,1,1\nb,0,1,1,1\nb,1,2,1,1\nb,2,0,1,1\n",
        )
        panel = ingest.load_sales(path)
        assert panel.products == ("a", "b")
        assert panel.n_weeks == 3
        assert panel.y.tolist() == [[3, 0, 5], [1, 2, 0]]
        assert not panel.stock_flag[0, 1]

    def test_negative_units_error_names_line(self, tmp_path):
        path = write(tmp_path, "sales.csv", SALES_HEADER + "a,0,3,1,1\na,1,-1,1,1\n")
        with pytest.raises(SchemaError, match=r":3"):
            ingest.load_sales(path)

    def test_positive_units_off_sale_error_names_line(self, tmp_path):
        path = write(tmp_path, "sales.csv", SALES_HEADER + "a,0,3,1,1\na,1,4,0,1\n")
        with pytest.raises(SchemaError) as caught:
            ingest.load_sales(path)
        assert str(caught.value) == f"{path}:3: positive units 4 on a week not marked on sale"

    def test_missing_row_defaults_not_listed(self, tmp_path):
        path = write(tmp_path, "sales.csv", SALES_HEADER + "a,0,3,1,1\na,2,5,1,1\n")
        panel = ingest.load_sales(path)
        assert panel.y[0, 1] == 0
        assert not panel.on_sale_mask[0, 1]
        assert panel.stock_flag[0, 1]  # missing stock info defaults to in stock

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(tmp_path, "sales.csv", SALES_HEADER + "a,0,3,1,1\na,0,4,1,1\n")
        with pytest.raises(SchemaError, match="duplicate"):
            ingest.load_sales(path)

    @pytest.mark.parametrize("week", [10**20, ingest.LAST_WEEK + 1])
    def test_week_beyond_the_last_supported_rejected(self, tmp_path, week):
        # rejected while reading rows, before a panel that wide is allocated
        path = write(tmp_path, "sales.csv", SALES_HEADER + f"a,0,3,1,1\na,{week},1,1,1\n")
        with pytest.raises(SchemaError) as err:
            ingest.load_sales(path)
        assert str(err.value) == (
            f"{path}:3: week {week} beyond the last supported week {ingest.LAST_WEEK}"
        )

    def test_units_outside_int64_rejected(self, tmp_path):
        # a data error naming the line, not an overflow while filling the panel
        path = write(tmp_path, "sales.csv", SALES_HEADER + "a,0,3,1,1\na,1,9223372036854775808,1,1\n")
        with pytest.raises(SchemaError) as err:
            ingest.load_sales(path)
        assert str(err.value) == f"{path}:3: units 9223372036854775808 outside the int64 range"

    def test_quoted_fields_and_crlf_read_as_csv(self, tmp_path):
        text = SALES_HEADER + 'a,0,3,1,1\n"a",1,"4",1,1\n"b,c",0,2,1,0\n'
        plain = ingest.load_sales(write(tmp_path, "s1.csv", text))
        crlf = tmp_path / "s2.csv"
        crlf.write_text(text.replace("\n", "\r\n"), newline="")
        for panel in (plain, ingest.load_sales(crlf)):
            assert panel.products == ("a", "b,c")
            assert panel.y.tolist() == [[3, 4], [2, 0]]
            assert panel.stock_flag.tolist() == [[True, True], [False, True]]

    def test_last_supported_week_accepted(self, tmp_path):
        path = write(tmp_path, "sales.csv", SALES_HEADER + f"a,{ingest.LAST_WEEK},2,1,1\n")
        panel = ingest.load_sales(path)
        assert panel.n_weeks == ingest.LAST_WEEK + 1
        assert panel.y[0, -1] == 2

    def test_empty_product_id_rejected(self, tmp_path):
        path = write(tmp_path, "sales.csv", SALES_HEADER + "a,0,3,1,1\n,5,3,1,1\n")
        with pytest.raises(SchemaError) as err:
            ingest.load_sales(path)
        assert str(err.value) == f"{path}:3: empty product_id"

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "sales.csv", "pid,week\n")
        with pytest.raises(SchemaError, match="header"):
            ingest.load_sales(path)

    def test_row_permutation_insensitive(self, tmp_path):
        rows = ["a,0,3,1,1", "a,1,4,1,1", "b,0,2,1,1", "b,1,0,1,0"]
        p1 = ingest.load_sales(write(tmp_path, "s1.csv", SALES_HEADER + "\n".join(rows) + "\n"))
        p2 = ingest.load_sales(
            write(tmp_path, "s2.csv", SALES_HEADER + "\n".join(reversed(rows)) + "\n")
        )
        assert p1.products == p2.products
        assert np.array_equal(p1.y, p2.y)
        assert np.array_equal(p1.stock_flag, p2.stock_flag)


class TestLoadCatalog:
    def test_basic_row(self, tmp_path):
        path = write(
            tmp_path, "catalog.csv", "product_id,category_id,price,brand\np1,toys,19.99,brandX\n"
        )
        catalog = ingest.load_catalog(path)
        assert catalog.category_of["p1"] == "toys"
        assert catalog.price["p1"] == 19.99
        assert catalog.attributes["p1"] == {"brand": "brandX"}

    def test_zero_price_rejected(self, tmp_path):
        path = write(tmp_path, "catalog.csv", "product_id,category_id,price\np1,toys,0\n")
        with pytest.raises(SchemaError, match="price"):
            ingest.load_catalog(path)

    def test_infinite_price_rejected(self, tmp_path):
        path = write(tmp_path, "catalog.csv", "product_id,category_id,price\np1,toys,3\np2,toys,inf\n")
        with pytest.raises(SchemaError, match=r"catalog\.csv:3: price inf"):
            ingest.load_catalog(path)

    def test_missing_category_rejected(self, tmp_path):
        path = write(tmp_path, "catalog.csv", "product_id,category_id,price\np1,,3\n")
        with pytest.raises(SchemaError, match="category"):
            ingest.load_catalog(path)

    def test_empty_product_id_rejected(self, tmp_path):
        path = write(tmp_path, "catalog.csv", "product_id,category_id,price\np1,toys,3\n,toys,2\n")
        with pytest.raises(SchemaError) as err:
            ingest.load_catalog(path)
        assert str(err.value) == f"{path}:3: empty product_id"

    @pytest.mark.parametrize(
        "extra, name", [(",brand,brand", "brand"), (",brand,", ""), (",price", "price")]
    )
    def test_empty_or_repeated_column_name_rejected(self, tmp_path, extra, name):
        path = write(tmp_path, "catalog.csv", f"product_id,category_id,price{extra}\n")
        with pytest.raises(SchemaError) as err:
            ingest.load_catalog(path)
        assert str(err.value) == f"{path}:1: catalog column name {name!r} is empty or repeated"


# Each CSV input: its loader, header, a valid row per line number, and a bad row with its message.
CSV_INPUTS = {
    "sales": (
        ingest.load_sales, SALES_HEADER.strip(), "p{},0,1,1,1".format,
        "q,0,-1,1,1", "negative units -1",
    ),
    "catalog": (
        ingest.load_catalog, "product_id,category_id,price,brand", "p{},toys,2.5,b".format,
        "q,toys,0,b", "price 0 is not positive and finite",
    ),
    "covariates": (
        lambda path: ingest.load_covariates(path, ingest.load_sales(path.with_name("sales.csv"))),
        "scope,key,week,product_id,value,predictable", "temporal,event{},0,,1.0,1".format,
        "temporal,event,0,,nan,1", "non-finite value 'nan'",
    ),
    "predictions": (
        ingest.load_predictions, "product_id,week,forecast", "p0,{},1.5".format,
        "p0,99,inf", "non-finite forecast 'inf'",
    ),
}
LONG = "x" * 200_000
LONG_FIELD = "field larger than field limit (131072)"


class TestCsvFaults:
    """A field longer than csv's limit and a byte that is not UTF-8 are faults
    on their line, ordered with the loader's own by line, whatever the block size."""

    @pytest.fixture(params=[None, 24], ids=["default_blocks", "tiny_blocks"])
    def blocks(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(ingest, "BLOCK_BYTES", request.param)

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("name", CSV_INPUTS)
    def test_fault_on_the_earliest_line_wins(self, tmp_path, blocks, name, end):
        load, header, row, bad_row, bad_message = CSV_INPUTS[name]
        (tmp_path / "sales.csv").write_text(SALES_HEADER + "a,0,1,1,1\n")
        path = tmp_path / f"{name}.csv"

        def error(lines):  # lines 2 to 6, valid but where given; "#" becomes the byte 0xff
            body = [lines.get(k, row(k)) for k in range(2, 7)]
            path.write_bytes(end.join([header, *body, ""]).encode().replace(b"#", b"\xff"))
            with pytest.raises(SchemaError) as err:
                load(path)
            return str(err.value)

        assert error({3: f"#{row(3)}"}) == f"{path}:3: not valid UTF-8"
        assert error({3: f"{LONG}{row(3)}"}) == f"{path}:3: {LONG_FIELD}"
        assert error({3: f"#{bad_row}"}) == f"{path}:3: not valid UTF-8"
        for fault, message in (("#", "not valid UTF-8"), (LONG, LONG_FIELD)):
            assert error({3: bad_row, 5: fault + row(5)}) == f"{path}:3: {bad_message}"
            assert error({3: fault + row(3), 5: bad_row}) == f"{path}:3: {message}"
        path.write_bytes(f"{header}#{end}{row(2)}{end}".encode().replace(b"#", b"\xff"))
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}:1: not valid UTF-8$"):
            load(path)


class TestLoadCovariates:
    HEADER = "scope,key,week,product_id,value,predictable\n"
    # the panel the mixed rows describe: products p1 and p2, weeks 0-5
    PANEL = SalesPanel(
        ("p1", "p2"), np.zeros((2, 6), dtype=np.int64), np.zeros((2, 6), dtype=bool),
        np.ones((2, 6), dtype=bool),
    )

    def load(self, path):
        return ingest.load_covariates(path, self.PANEL)

    def test_temporal_and_mixed(self, tmp_path):
        path = write(
            tmp_path,
            "cov.csv",
            self.HEADER + "temporal,event,3,,1.0,1\nmixed,price,2,p1,9.5,0\n",
        )
        table = covariate_dicts(self.load(path))
        assert table.temporal["event"][3] == 1.0
        assert table.mixed["price"][("p1", 2)] == 9.5
        assert table.predictable == {"event": True, "price": False}

    @pytest.mark.parametrize(
        "row", ["temporal,event,3,,nan,1", "temporal,event,3,,inf,0", "mixed,price,2,p1,-inf,0"]
    )
    def test_non_finite_value_rejected(self, tmp_path, row):
        path = write(tmp_path, "cov.csv", self.HEADER + "temporal,event,1,,1.0,1\n" + row + "\n")
        with pytest.raises(SchemaError, match=r"cov\.csv:3: non-finite value"):
            self.load(path)

    @pytest.mark.parametrize(
        "row",
        [
            "temporal,event,100000000000000000000,,1.0,1",
            "temporal,event,9223372036854775808,,1.0,1",
            "temporal,event,-9223372036854775809,,1.0,1",
            "mixed,price,100000000000000000000,p1,9.5,0",
        ],
    )
    def test_week_outside_int64_rejected(self, tmp_path, row):
        path = write(tmp_path, "cov.csv", self.HEADER + "temporal,event,1,,1.0,1\n" + row + "\n")
        with pytest.raises(SchemaError, match=r"cov\.csv:3: week -?\d+ outside the int64 range"):
            self.load(path)

    def test_int64_extreme_weeks_accepted(self, tmp_path):
        rows = "temporal,event,9223372036854775807,,1.0,1\ntemporal,event,-9223372036854775808,,2.0,1\n"
        table = covariate_dicts(self.load(write(tmp_path, "cov.csv", self.HEADER + rows)))
        assert table.temporal["event"] == {2**63 - 1: 1.0, -(2**63): 2.0}

    def test_temporal_with_product_rejected(self, tmp_path):
        path = write(tmp_path, "cov.csv", self.HEADER + "temporal,event,3,p1,1.0,1\n")
        with pytest.raises(SchemaError, match="empty product_id"):
            self.load(path)

    @pytest.mark.parametrize(
        "rows",
        [
            ["temporal,event,3,,1.0,1", "temporal,event,4,,1.0,1", "temporal,event,3,,2.0,1"],
            ["mixed,price,2,p1,9.5,0", "mixed,price,2,p2,9.5,0", "mixed,price,2,p1,8.0,0"],
        ],
    )
    def test_duplicate_row_rejected(self, tmp_path, rows):
        path = write(tmp_path, "cov.csv", self.HEADER + "\n".join(rows) + "\n")
        with pytest.raises(SchemaError, match=r"cov\.csv:4: duplicate row"):
            self.load(path)

    def test_rows_past_a_fault_are_not_described(self, tmp_path):
        # the reader keeps the rows after a fault in its block; a repeat of the
        # unknown product's row must not be named from the panel's products
        path = write(tmp_path, "cov.csv", self.HEADER + "mixed,price,2,zz,9.5,0\n" * 2)
        panel = SalesPanel(
            ("p1",), np.zeros((1, 6), dtype=np.int64), np.zeros((1, 6), dtype=bool),
            np.ones((1, 6), dtype=bool),
        )
        with pytest.raises(SchemaError, match=r"^.*cov\.csv:2: unknown product 'zz'$"):
            ingest.load_covariates(path, panel)

    @pytest.mark.parametrize("first,second", [("temporal", "mixed"), ("mixed", "temporal")])
    def test_key_in_both_scopes_rejected(self, tmp_path, first, second):
        row = {"temporal": "temporal,price,2,,9.5,0", "mixed": "mixed,price,2,p1,9.5,0"}
        path = write(tmp_path, "cov.csv", self.HEADER + row[first] + "\n" + row[second] + "\n")
        with pytest.raises(SchemaError, match=r"cov\.csv:3: key 'price' used with both scopes"):
            self.load(path)

    def test_row_permutation_insensitive(self, tmp_path):
        rows = [
            "temporal,event,3,,1.0,1", "temporal,event,1,,0.5,1", "mixed,price,2,p1,9.5,0",
            "mixed,price,2,p2,7.0,0", "mixed,price,1,p1,9.0,0", "mixed,promo,2,p1,1.0,1",
        ]
        tables = []
        for seed in range(4):
            order = np.random.default_rng(seed).permutation(len(rows))
            text = self.HEADER + "".join(rows[k] + "\n" for k in order)
            tables.append(covariate_dicts(self.load(write(tmp_path, f"cov{seed}.csv", text))))
        for table in tables[1:]:
            assert table == tables[0]


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        config = ingest.load_config(write(tmp_path, "c.cfg", "# nothing here\n"))
        assert config == RunConfig()
        assert (config.horizon, config.season_period) == (6, 52)
        assert (config.smooth_window, config.cap_gamma) == (8, 3.0)
        assert (config.n_patterns, config.hash_buckets) == (8, 64)

    def test_out_of_range_learning_rate(self, tmp_path):
        path = write(tmp_path, "c.cfg", "learning_rate = 0.5\n")
        with pytest.raises(SchemaError, match="learning_rate"):
            ingest.load_config(path)

    def test_in_range_accepted(self, tmp_path):
        config = ingest.load_config(write(tmp_path, "c.cfg", "learning_rate = 0.1\nmax_depth = 6\n"))
        assert config.learning_rate == 0.1
        assert config.max_depth == 6

    def test_override_allows_wide_values(self, tmp_path):
        path = write(tmp_path, "c.cfg", "learning_rate = 0.5\noverride_bounds = true\n")
        assert ingest.load_config(path).learning_rate == 0.5

    @pytest.mark.parametrize(
        "text",
        [
            "cap_gamma = nan",
            "reg_lambda = inf",
            "learning_rate = nan\noverride_bounds = true",
            "min_split_loss = nan\noverride_bounds = true",
            "reg_lambda = -5",
            "n_patterns = 0",
            "early_stop_patience = 0",
            "train_len = 0",
            "valid_len = -1",
            "test_len = 0",
            "rounds = 0\noverride_bounds = true",
            "max_depth = 0\noverride_bounds = true",
            "learning_rate = 0\noverride_bounds = true",
            "min_split_loss = -1.0\noverride_bounds = true",
            "seed = -1",
            "seed = -1\noverride_bounds = true",
        ],
    )
    def test_bad_values_rejected(self, tmp_path, text):
        key = text.split(" ", 1)[0]
        with pytest.raises(SchemaError, match=key):
            ingest.load_config(write(tmp_path, "c.cfg", text + "\n"))

    def test_repeated_key_rejected(self, tmp_path):
        path = write(tmp_path, "c.cfg", "rounds = 3\nhorizon = 4\nrounds = 5\n")
        with pytest.raises(SchemaError, match=r"c\.cfg:3: repeated config key 'rounds'"):
            ingest.load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(SchemaError, match="unknown config key"):
            ingest.load_config(write(tmp_path, "c.cfg", "nope = 3\n"))

    def test_every_field_round_trips(self, tmp_path):
        # one non-default value per field, written as text and parsed back by
        # the field's declared type
        changed = {
            "horizon": 4, "smooth_window": 5, "cap_gamma": 2.5, "season_period": 26,
            "n_patterns": 3, "hash_buckets": 32, "encoding": "hashing", "loss": "squared",
            "learning_rate": 0.5, "min_split_loss": 0.25, "max_depth": 3, "rounds": 40,
            "reg_lambda": 0.5, "early_stop_patience": 7, "train_len": 50, "valid_len": 8,
            "test_len": 12, "seed": 9, "with_seasonality": False, "override_bounds": True,
        }
        assert set(changed) == {f.name for f in fields(RunConfig)}
        text = "".join(f"{key} = {str(value).lower()}\n" for key, value in changed.items())
        config = ingest.load_config(write(tmp_path, "c.cfg", text))
        default = RunConfig()
        for f in fields(RunConfig):
            value = getattr(config, f.name)
            assert value == changed[f.name] != getattr(default, f.name), f.name
            assert type(value).__name__ == f.type, f.name

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"horizon = 6\n# caf\xe9\n")
        with pytest.raises(SchemaError) as err:
            ingest.load_config(path)
        assert str(err.value) == f"{path}:2: not valid UTF-8"

    def test_comments_and_blanks(self, tmp_path):
        config = ingest.load_config(write(tmp_path, "c.cfg", "\n# x\nhorizon = 4  # inline\n"))
        assert config.horizon == 4

    @pytest.mark.parametrize("separator", ["\f", "\v", "\x1c", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_separator_in_a_comment_keeps_line_numbers(self, tmp_path, separator):
        # only \n (and \r\n or \r, which reading turns into \n) ends a line
        path = tmp_path / "ff.cfg"
        path.write_bytes(f"# a{separator}b\nrounds = x\n".encode())
        with pytest.raises(SchemaError) as err:
            ingest.load_config(path)
        assert str(err.value) == f"{path}:2: bad value 'x' for rounds"

    def test_crlf_and_cr_line_ends(self, tmp_path):
        path = tmp_path / "crlf.cfg"
        path.write_bytes(b"# one\r\nhorizon = 4\rrounds = x\r\n")
        with pytest.raises(SchemaError) as err:
            ingest.load_config(path)
        assert str(err.value) == f"{path}:3: bad value 'x' for rounds"


class TestWriteSales:
    def test_bytes_equal_the_cell_loop(self, tmp_path):
        # unlisted out-of-stock weeks are written, unlisted in-stock ones are
        # not, except product 0's last week, which keeps the panel length
        rng = np.random.default_rng(4)
        on_sale = rng.random((30, 40)) < 0.6
        stock = rng.random((30, 40)) < 0.8
        on_sale[0, -1], stock[0, -1] = False, True
        y = np.where(on_sale, rng.integers(0, 50, size=on_sale.shape), 0)
        panel = SalesPanel(tuple(f"p{i:02d}" for i in range(30)), y, on_sale, stock)
        assert (~on_sale & ~stock).any()
        ingest.write_sales(panel, tmp_path / "sales.csv")
        loop_write_sales(panel, tmp_path / "loop.csv")
        assert (tmp_path / "sales.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
        assert ingest.load_sales(tmp_path / "sales.csv").n_weeks == 40


class TestRoundTrip:
    def test_panel_write_load_identity(self, tmp_path):
        panel, catalog, covariates, _ = generate_panel(
            SynthSpec(n_products=25, n_categories=4, n_weeks=60, seed=11)
        )
        ingest.write_sales(panel, tmp_path / "sales.csv")
        ingest.write_catalog(catalog, tmp_path / "catalog.csv")
        ingest.write_covariates(covariates, tmp_path / "cov.csv")
        panel2 = ingest.load_sales(tmp_path / "sales.csv")
        catalog2 = ingest.load_catalog(tmp_path / "catalog.csv")
        cov2 = ingest.load_covariates(tmp_path / "cov.csv", panel2)
        assert panel2.products == panel.products
        assert panel2.n_weeks == panel.n_weeks
        assert np.array_equal(panel2.y, panel.y)
        assert np.array_equal(panel2.on_sale_mask, panel.on_sale_mask)
        assert np.array_equal(panel2.stock_flag, panel.stock_flag)
        assert catalog2.category_of == catalog.category_of
        assert catalog2.price == catalog.price
        assert catalog2.attributes == catalog.attributes
        cov2, covariates = covariate_dicts(cov2), covariate_dicts(covariates)
        assert cov2.temporal == covariates.temporal
        assert cov2.mixed == covariates.mixed
        assert cov2.predictable == covariates.predictable


INT64 = np.iinfo(np.int64)


class TestKeyPasses:
    """The loaders' whole-file key passes against their plain references:
    _key_order against np.lexsort, _repeats against a loop over the rows,
    and the one-pass _codes against two passes."""

    @pytest.mark.parametrize("n", [0, 1, 2, 1000])
    @pytest.mark.parametrize(
        "low, high",
        [(0, 5), (-3, 3), (0, 1 << 16), (-(1 << 40), 1 << 40), (INT64.min, INT64.max)],
        ids=["ties", "negative", "two_digits", "wide", "int64_range"],
    )
    @pytest.mark.parametrize("n_keys", [1, 2, 3])
    def test_key_order_equals_lexsort(self, n_keys, low, high, n):
        rng = np.random.default_rng([n_keys, n, high.bit_length()])
        keys = []
        for _ in range(n_keys):
            values = rng.integers(low, high, size=n, dtype=np.int64, endpoint=True)
            key = values[rng.integers(0, max(n // 4, 1), size=n)]  # ties
            key[:2] = [low, high][: min(n, 2)]  # both ends together: the widest shift
            keys.append(key)
        order = ingest._key_order(*keys)
        assert order.dtype == np.lexsort(keys).dtype
        assert order.tolist() == np.lexsort(keys).tolist()

    @pytest.mark.parametrize("high", [3, INT64.max], ids=["narrow", "int64_range"])
    def test_repeats_marks_every_later_copy(self, high):
        rng = np.random.default_rng(high.bit_length())
        weeks = rng.choice(np.array([-high - 1, 0, 1, high], dtype=np.int64), size=300)
        pids = rng.integers(0, 4, size=300, dtype=np.int64)
        seen, expected = set(), []
        for key in zip(weeks.tolist(), pids.tolist()):
            expected.append(key in seen)
            seen.add(key)
        assert ingest._repeats(weeks, pids).tolist() == expected
        assert ingest._repeats(pids).tolist() == [p in pids[:i] for i, p in enumerate(pids)]

    def test_one_pass_codes_equal_two_passes(self):
        rng = np.random.default_rng(22)
        tokens = [f"p{v}" for v in rng.integers(0, 60, size=500).tolist()] + ["", "é", "p1"]
        table, codes = ingest._code_table(), {}
        for block in (tokens[:200], [], tokens[200:], tokens[:5]):  # one table across blocks
            column = column_of([token.encode() for token in block])
            assert ingest._codes(column, table).tolist() == two_pass_codes(block, codes).tolist()
            assert list(table) == list(codes)
        assert dict(table) == codes

    def test_loaded_tables_hold_no_defaulting_dict(self, tmp_path):
        # a lookup in a table that adds missing keys would add one where a dict raises
        sales = ingest.load_sales(
            write(tmp_path, "sales.csv", SALES_HEADER + "b,0,1,1,1\na,1,0,1,1\nb,1,2,1,1\n")
        )
        catalog = ingest.load_catalog(
            write(
                tmp_path, "catalog.csv", "product_id,category_id,price,size\nb,c,1.5,L\na,c,2.0,S\n"
            )
        )
        covariates = ingest.load_covariates(
            write(
                tmp_path, "covariates.csv",
                TestLoadCovariates.HEADER + "temporal,t,1,,0.5,1\nmixed,m,0,b,1.0,0\n",
            ),
            sales,
        )

        def dicts(value):
            if is_dataclass(value):
                for field in fields(value):
                    yield from dicts(getattr(value, field.name))
            elif isinstance(value, dict):
                yield value
                for item in value.values():
                    yield from dicts(item)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    yield from dicts(item)

        for loaded in (sales, catalog, covariates):
            tables = list(dicts(loaded))
            assert tables and all(type(table) is dict for table in tables)
            for table in tables:
                with pytest.raises(KeyError):
                    table["ghost"]
                assert "ghost" not in table


def column_of(tokens: list[bytes]) -> ingest._Column:
    """A column of the given tokens, each followed by "," and the last by the block padding."""
    lengths = np.array([len(token) for token in tokens], dtype=np.int64)
    ends = np.cumsum(lengths + 1) - 1
    data = np.frombuffer(b",".join(tokens) + b"," + ingest._PADDING, np.uint8)
    return ingest._Column(data, ends - lengths, ends)


def reference_groups(tokens: list[bytes]) -> tuple[list[int], list[int]]:
    """(first, inverse) of _Column.groups, from a dict of the tokens' bytes."""
    first: dict[bytes, int] = {}
    for i, token in enumerate(tokens):
        first.setdefault(token, i)
    rank = {token: g for g, token in enumerate(first)}
    return list(first.values()), [rank[token] for token in tokens]


# tokens groups must tell apart: empty, multi-byte UTF-8, prefixes of each
# other, the same bytes at different lengths (zero bytes, which csv.reader
# keeps from Python 3.11 on), and lengths around the 8-byte words and LONG_TOKEN
GROUP_TOKENS = [
    b"", b"\0", b"\0\0", b"a", b"a\0", b"a\0\0\0\0\0\0\0", b"a\0\0\0\0\0\0\0\0",
    "é".encode(), "産品".encode(), "pé".encode(), b"p", b"p1", b"p12", b"p123",
    b"1234567", b"12345678", b"123456789", b"1234567812345678", b"12345678123456781",
    b"0.1", b"0.10", b"0.1000000000000000", b"x" * 63, b"x" * 64, b"x" * 65,
]


class TestGroups:
    """_Column.groups, and the loaders' helpers built on it, against a dict of the tokens' bytes."""

    @pytest.fixture(params=[None, 0, 1 << 63], ids=["hash", "all_collide", "top_bit_only"])
    def multiplier(self, request, monkeypatch):
        # 0 gives every token one hash and 1 << 63 two hashes, so the check against
        # the bytes must find the collisions and group the tokens by their str
        if request.param is not None:
            monkeypatch.setattr(ingest, "_HASH_MULTIPLIER", np.uint64(request.param))

    @pytest.mark.parametrize("seed", range(6))
    def test_groups_equal_the_dict_reference(self, multiplier, seed):
        rng = np.random.default_rng(seed)
        pool = GROUP_TOKENS if seed < 3 else [t for t in GROUP_TOKENS if len(t) <= 64]
        tokens = [pool[k] for k in rng.integers(0, len(pool), size=int(rng.integers(0, 300)))]
        first, inverse = column_of(tokens).groups()
        assert (first.tolist(), inverse.tolist()) == reference_groups(tokens)
        texts, first, _ = column_of(tokens).distinct()
        assert texts == [tokens[i].decode() for i in first.tolist()]

    @pytest.mark.parametrize("seed", range(3))
    def test_random_bytes(self, multiplier, seed):
        rng = np.random.default_rng([seed, 25])
        alphabet = np.frombuffer(b"\0019.,ab", np.uint8)  # "," only inside a token, as csv can give
        pool = [
            alphabet[rng.integers(0, len(alphabet), size=int(rng.integers(0, 20)))].tobytes()
            for _ in range(40)
        ]
        tokens = [pool[k] for k in rng.integers(0, len(pool), size=2000)]
        first, inverse = column_of(tokens).groups()
        assert (first.tolist(), inverse.tolist()) == reference_groups(tokens)

    def test_first_equal_settles_colliding_slots(self):
        # hashes equal in their top bits land in one slot at first
        rng = np.random.default_rng(5)
        hashes = rng.integers(0, 50, size=3000).astype(np.uint64) << np.uint64(3)
        expected = [hashes.tolist().index(h) for h in hashes.tolist()]
        assert ingest._first_equal(hashes).tolist() == expected
        assert ingest._first_equal(np.zeros(0, dtype=np.uint64)).tolist() == []

    def test_floats_parse_each_distinct_token_once(self, multiplier, monkeypatch):
        tokens = [b"1.5", b"2", b"1.5", b"1e400", b"2", b"-0.0", b"0.0"]
        parsed = []

        def counting_float(text):
            parsed.append(text)
            return float(text)

        monkeypatch.setattr(ingest, "float", counting_float, raising=False)
        values, bad = ingest._floats(column_of(tokens))
        assert parsed == ["1.5", "2", "1e400", "-0.0", "0.0"]
        assert bad == len(tokens)
        assert [v.hex() for v in values.tolist()] == [float(t).hex() for t in tokens]

    @pytest.mark.parametrize(
        "tokens, bad",
        [([b"1", b"x", b"2", b"x"], 1), ([b"1", b"2", b"1", b"", b"y"], 3), ([b"y"], 0), ([], 0)],
    )
    def test_floats_first_rejected_token(self, multiplier, tokens, bad):
        values, found = ingest._floats(column_of(tokens))
        assert found == bad
        assert values[:bad].tolist() == [float(t) for t in tokens[:bad]]

    @pytest.mark.parametrize("size", [1, 7, 40, None])
    def test_codes_follow_first_appearance_across_blocks(self, tmp_path, monkeypatch, size):
        if size is not None:
            monkeypatch.setattr(ingest, "BLOCK_BYTES", size)
        rng = np.random.default_rng(size)
        ids = [f"p{v}" for v in rng.integers(0, 30, size=400).tolist()] + ["é", "p1", "p"]
        path = write(tmp_path, "ids.csv", "id,n\n" + "".join(f"{i},0\n" for i in ids))
        faults, blocks = ingest._read_columns(path)
        assert next(blocks) == ["id", "n"]
        table, codes = ingest._code_table(), []
        for _, (id_t, _) in blocks:
            codes += ingest._codes(id_t, table).tolist()
        faults.raise_first()
        assert codes == two_pass_codes(ids, {}).tolist()
        assert list(table) == list(dict.fromkeys(ids))

    def test_loaders_under_forced_collisions(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(9)
        products = [f"p{k}" for k in range(40)]
        sales = write(
            tmp_path, "sales.csv",
            SALES_HEADER + "".join(
                f"{products[p]},{w},{int(rng.integers(0, 9))},1,{int(rng.integers(0, 2))}\n"
                for p in range(40) for w in range(30)
            ),
        )
        covariates = write(
            tmp_path, "covariates.csv",
            TestLoadCovariates.HEADER + "".join(
                f"mixed,promo,{w},{products[p]},{rng.choice(['0.0', '1.0', '0.25'])},1\n"
                for p in range(40) for w in range(30)
            ) + "".join(f"temporal,temp,{w},,{rng.normal()!r},0\n" for w in range(30)),
        )
        expected = covariate_dicts(ingest.load_covariates(covariates, ingest.load_sales(sales)))
        panel = ingest.load_sales(sales)
        monkeypatch.setattr(ingest, "_HASH_MULTIPLIER", np.uint64(0))
        monkeypatch.setattr(ingest, "BLOCK_BYTES", 300)
        collided = ingest.load_sales(sales)
        assert collided.products == panel.products
        assert np.array_equal(collided.y, panel.y)
        assert np.array_equal(collided.stock_flag, panel.stock_flag)
        loaded = covariate_dicts(ingest.load_covariates(covariates, collided))
        assert (loaded.temporal, loaded.mixed, loaded.predictable) == (
            expected.temporal, expected.mixed, expected.predictable
        )


def test_only_the_block_reader_calls_csv_reader():
    # one CSV parser: every input file is read by ingest's block reader
    def readers(tree):
        return [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("reader", "DictReader")
            and isinstance(node.value, ast.Name) and node.value.id == "csv"
            or isinstance(node, ast.ImportFrom) and node.module == "csv"
        ]

    trees = {
        module.stem: ast.parse(module.read_text())
        for module in Path(ingest.__file__).parent.glob("*.py")
    }
    assert {name: len(readers(tree)) for name, tree in trees.items() if readers(tree)} == {
        "ingest": 1
    }
    (block_reader,) = (
        node for node in ast.walk(trees["ingest"])
        if isinstance(node, ast.FunctionDef) and node.name == "_csv_records"
    )
    assert readers(block_reader)


def test_no_module_calls_csv_writer():
    # one CSV writer: every file is written by ingest.write_csv
    for module in Path(ingest.__file__).parent.glob("*.py"):
        tree = ast.parse(module.read_text())
        assert not [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("writer", "DictWriter")
            and isinstance(node.value, ast.Name) and node.value.id == "csv"
        ], module.name


# ids csv.writer quotes (a comma, a quote, a line feed, a carriage return),
# one it does not, and non-ASCII text
ODD_IDS = ("a,b", 'q"t', "line\nfeed", "car\rriage", "plain", "s p", "é,ü")


def odd_panel(rng, weeks=12) -> SalesPanel:
    on_sale = rng.random((len(ODD_IDS), weeks)) < 0.7
    on_sale[:, -1] = True
    stock = rng.random(on_sale.shape) < 0.8
    y = np.where(on_sale, rng.integers(0, 9, size=on_sale.shape), 0)
    return SalesPanel(ODD_IDS, y, on_sale, stock)


@pytest.fixture(params=[3, ingest.WRITE_ROWS], ids=["rows3", "default_rows"])
def write_rows(request, monkeypatch):
    """Each writer test runs with batches of 3 rows, and of the default size."""
    monkeypatch.setattr(ingest, "WRITE_ROWS", request.param)
    return request.param


class TestWriters:
    """Every writer's file equals a plain csv.writer loop's, byte for byte."""

    @staticmethod
    def same(tmp_path, write, loop, *args):
        write(*args, tmp_path / "written.csv")
        loop(*args, tmp_path / "loop.csv")
        assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
        return (tmp_path / "written.csv").read_bytes()

    def test_write_csv_against_csv_writer(self, tmp_path, write_rows):
        rng = np.random.default_rng(26)
        n = 50
        floats = rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, size=n)
        floats[:8] = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e16]
        floats[8:20] = floats[20:32]  # repeated values
        ints = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=n)
        ints[:10] = rng.integers(-3, 3, size=10)
        flags = rng.random(n) < 0.5
        labels = ["", *ODD_IDS, '""', ","]
        codes = rng.integers(0, len(labels), size=n)
        strings = np.array([labels[c] for c in rng.integers(0, len(labels), size=n)], dtype=object)
        masked = np.ma.masked_array(floats, rng.random(n) < 0.3)
        header = ["f", "i", "b", "o", "pair", "m,asked", 'q"']
        ingest.write_csv(tmp_path / "written.csv", header, [
            floats, ints, flags, strings, (labels, codes), masked, floats.astype(np.float32),
        ])
        with (tmp_path / "loop.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(n):
                writer.writerow([
                    repr(float(floats[i])), int(ints[i]), int(flags[i]), strings[i],
                    labels[codes[i]], "" if masked.mask[i] else repr(float(floats[i])),
                    repr(float(np.float32(floats[i]))),
                ])
        assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    def test_columns_of_different_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="columns of different lengths"):
            ingest.write_csv(tmp_path / "x.csv", ["a", "b", "c"], [
                np.zeros(3), np.zeros(3, np.int64), (["x"], np.zeros(2, np.int64)),
            ])

    def test_header_only_without_rows(self, tmp_path):
        ingest.write_csv(tmp_path / "x.csv", ["a", "b,", "c"], [
            np.zeros(0), np.zeros(0, np.int64), np.zeros(0, dtype=object),
        ])
        assert (tmp_path / "x.csv").read_bytes() == b'a,"b,",c\r\n'

    def test_sales(self, tmp_path, write_rows):
        panel = odd_panel(np.random.default_rng(1))
        self.same(tmp_path, ingest.write_sales, loop_write_sales, panel)

    def test_catalog(self, tmp_path, write_rows):
        # a product without a brand writes an empty attribute value
        catalog = Catalog(
            {pid: f"c,{i % 2}" for i, pid in enumerate(ODD_IDS)},
            {pid: 1.5 + i for i, pid in enumerate(ODD_IDS)},
            {pid: {"brand": f'b"{i}'} for i, pid in enumerate(ODD_IDS[1:])},
        )
        written = self.same(tmp_path, ingest.write_catalog, loop_write_catalog, catalog)
        assert b'\r\n"a,b","c,0",1.5,\r\n' in written

    def test_covariates(self, tmp_path, write_rows):
        rng = np.random.default_rng(2)
        panel = odd_panel(rng)
        rows, weeks = np.nonzero(panel.on_sale_mask)
        values = rng.choice([-0.0, 0.0, 1.0, 2.5, 1e-300], size=len(rows))
        table = CovariateTable(ODD_IDS, {
            "promo,x": Covariate(weeks, rows, values, True),
            'e"v': Covariate(np.arange(12), None, np.where(np.arange(12) % 3, 1.0, -0.0), False),
            "price": Covariate(weeks, rows, rng.uniform(1, 3, size=len(rows)), False),
        })
        written = self.same(tmp_path, ingest.write_covariates, loop_write_covariates, table)
        assert b",-0.0," in written

    def test_ground_truth(self, tmp_path, write_rows):
        _, _, _, truth = generate_panel(
            SynthSpec(n_products=len(ODD_IDS), n_categories=2, n_weeks=20, seed=5)
        )
        truth.lam[0, truth.launch[0]] = -0.0
        truth.category_curve["c,2"] = np.array([-0.0, 1.0, np.nan])
        panel = odd_panel(np.random.default_rng(3), weeks=20)
        self.same(tmp_path, write_ground_truth, loop_write_ground_truth, truth, panel)
        self.same(tmp_path, write_ground_truth_curves, loop_write_ground_truth_curves, truth)

    def test_predictions(self, tmp_path, write_rows):
        rng = np.random.default_rng(4)
        pids = np.array([ODD_IDS[i] for i in rng.integers(0, len(ODD_IDS), 40)], dtype=object)
        weeks = rng.permutation(40)  # distinct (id, week) keys
        forecasts = rng.choice([-0.0, 0.0, 1.25, 3.0, 1 / 3], size=40)
        self.same(tmp_path, _write_predictions, loop_write_predictions, pids, weeks, forecasts)

    def test_report(self, tmp_path, write_rows):
        report = EvalReport(
            MetricCell(1.5, 0.25, 30),
            {"B": MetricCell(-0.0, math.nan, 3), "A": MetricCell(2.0, 0.5, 27)},
            {"8": MetricCell(1.0, 1.0, 4), "13+": MetricCell(0.1 + 0.2, 0.75, 26)},
        )
        written = self.same(tmp_path, write_report, loop_write_report, report)
        assert b"segment,B,-0.0,nan,3\r\n" in written

    def test_seasonality(self, tmp_path, write_rows):
        patterns = [np.array([1.0, -0.0, 2.0 / 3.0]), np.array([0.5, 0.5, 2.0])]
        model = SeasonalityModel(3, patterns, {"c,1": 1, 'c"0': 0, "c\n2": 1}, np.ones(3))
        self.same(tmp_path, write_seasonality, loop_write_seasonality, model)

    def test_smoothed(self, tmp_path, write_rows):
        panel = odd_panel(np.random.default_rng(6), weeks=30)
        mask = detect_fake_zeros(panel)
        repaired = repair_fake_zeros(panel, mask)
        statistics = (np.empty(panel.y.shape), np.empty(panel.y.shape))
        smoothed = smooth_panel(repaired, 4, 1.0, statistics)
        assert np.isnan(statistics[1][panel.on_sale_mask]).any()
        self.same(tmp_path, write_smoothed, loop_write_smoothed, repaired, smoothed, mask, statistics)

    def test_nothing_to_write_but_the_header(self, tmp_path):
        # a seasonal fit with no category curve, a table without keys and no
        # curves: each file is its header, as the loops write it
        model = SeasonalityModel(4, [], {}, np.full(4, 0.25))
        assert self.same(tmp_path, write_seasonality, loop_write_seasonality, model) == (
            b"category_id,pattern_index,week_of_year,value\r\n"
        )
        self.same(tmp_path, ingest.write_covariates, loop_write_covariates, CovariateTable((), {}))
        _, _, _, truth = generate_panel(SynthSpec(n_products=3, n_categories=1, n_weeks=12))
        truth.category_curve.clear()
        self.same(tmp_path, write_ground_truth_curves, loop_write_ground_truth_curves, truth)
