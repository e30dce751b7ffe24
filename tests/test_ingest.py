import ast
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from demandcast import ingest
from demandcast.core import SalesPanel
from demandcast.ingest import RunConfig, SchemaError
from demandcast.synth import SynthSpec, generate_panel

from .oracles import covariate_dicts


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
            monkeypatch.setattr(ingest, "BLOCK_CHARS", request.param)

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
