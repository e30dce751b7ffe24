import csv
import hashlib
import json
import platform
import random
import re
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from demandcast import cli, gbt, ingest, preprocess
from demandcast.cli import build_parser, main
from demandcast.core import Catalog, SalesPanel
from demandcast.features import FeatureMatrix
from demandcast.gbt import NODE_DTYPE
from demandcast.ingest import RunConfig, load_config

from .test_gbt import edit_column

CONFIG = """
train_len = 50
valid_len = 10
test_len = 20
rounds = 30
learning_rate = 0.2
early_stop_patience = 8
n_patterns = 3
override_bounds = true
"""


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data")
    code = main(
        [
            "synth", "--out-dir", str(path),
            "--products", "40", "--categories", "4", "--weeks", "80", "--seed", "3",
        ]
    )
    assert code == 0
    (path / "run.cfg").write_text(CONFIG)
    return path


README = Path(__file__).resolve().parents[1] / "README.md"


def subcommands():
    """Each command's name and subparser."""
    return build_parser()._subparsers._group_actions[0].choices


def config_file(tmp_path, *settings):
    """CONFIG plus the given `key = value` lines, written to tmp_path/run.cfg."""
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG + "".join(f"{line}\n" for line in settings))
    return path


def pipeline_args(data_dir, out_dir, *extra, config=None):
    return [
        "pipeline",
        "--config", str(config or data_dir / "run.cfg"),
        "--sales", str(data_dir / "sales.csv"),
        "--catalog", str(data_dir / "catalog.csv"),
        "--covariates", str(data_dir / "covariates.csv"),
        "--out-dir", str(out_dir),
        *extra,
    ]


class TestSynthCommand:
    def test_artifacts_written(self, data_dir):
        for name in ("sales.csv", "catalog.csv", "covariates.csv", "ground_truth.csv"):
            assert (data_dir / name).exists()


class TestPreprocessCommand:
    def test_smoothed_dump(self, data_dir, tmp_path):
        out = tmp_path / "pre"
        code = main(
            ["preprocess", "--sales", str(data_dir / "sales.csv"), "--out-dir", str(out)]
        )
        assert code == 0
        lines = (out / "smoothed.csv").read_text().splitlines()
        assert lines[0] == "product_id,week,y,x,rolling_mean,rolling_std,repaired,capped"
        assert len(lines) > 100
        stats = 0
        for line in lines[1:]:
            fields = line.split(",")[1:]
            for field in fields:
                float(field or "nan")  # plain numbers, not numpy reprs
            stats += fields[3] != ""
        assert stats > 100  # the rolling statistics are written, not only blanks


class TestPipeline:
    def test_run_twice_byte_identical(self, data_dir, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        config = config_file(tmp_path, "seed = 7")
        assert main(pipeline_args(data_dir, out1, config=config)) == 0
        assert main(pipeline_args(data_dir, out2, config=config)) == 0
        for name in ("predictions.csv", "report.csv", "model.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("model", ["gbt", "es"])
    def test_shuffled_input_rows_leave_artifacts_byte_identical(self, data_dir, tmp_path, model):
        shuffled = tmp_path / "shuffled"
        shuffled.mkdir()
        rng = random.Random(11)
        for name in ("sales.csv", "catalog.csv", "covariates.csv"):
            header, *rows = (data_dir / name).read_bytes().splitlines(keepends=True)
            rng.shuffle(rows)
            (shuffled / name).write_bytes(header + b"".join(rows))
            assert (shuffled / name).read_bytes() != (data_dir / name).read_bytes()
        out, out_shuffled = tmp_path / "run", tmp_path / "run_shuffled"
        config = data_dir / "run.cfg"
        assert main(pipeline_args(data_dir, out, "--model", model)) == 0
        assert main(pipeline_args(shuffled, out_shuffled, "--model", model, config=config)) == 0
        artifacts = {"predictions.csv", "report.csv", "manifest.json", "seasonality.csv"}
        if model == "gbt":
            artifacts.add("model.json")
        assert {path.name for path in out.iterdir()} == artifacts
        for name in artifacts:
            assert (out_shuffled / name).read_bytes() == (out / name).read_bytes(), name

    def test_artifacts_and_manifest(self, data_dir, tmp_path):
        out = tmp_path / "run"
        assert main(pipeline_args(data_dir, out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["model"] == "gbt"
        assert manifest["test_rows"] > 0
        assert "best_round" in manifest
        header = (out / "predictions.csv").read_text().splitlines()[0]
        assert header == "product_id,week,forecast"
        seas = (out / "seasonality.csv").read_text().splitlines()
        assert seas[0] == "category_id,pattern_index,week_of_year,value"
        assert len(seas) == 1 + 4 * 52  # one row per category and week

    def test_missing_sales_file_is_data_error(self, data_dir, tmp_path, capsys):
        args = pipeline_args(data_dir, tmp_path / "x")
        args[args.index("--sales") + 1] = str(data_dir / "nope.csv")
        assert main(args) == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_es_and_forest_models(self, data_dir, tmp_path):
        for kind, detail in (("es", "es_fallback_rows"), ("forest", "n_trees")):
            out = tmp_path / kind
            code = main(pipeline_args(data_dir, out, "--model", kind, "--forest-trees", "10"))
            assert code == 0
            assert (out / "predictions.csv").exists()
            manifest = json.loads((out / "manifest.json").read_text())
            assert isinstance(manifest[detail], int)
            assert not (out / "model.json").exists()

    def test_forest_artifacts_pinned(self, data_dir, tmp_path):
        # bootstraps, feature samples, split search and leaf means all reach
        # these bytes, so a forest that is not node for node the same moves them
        out = tmp_path / "forest"
        assert main(pipeline_args(data_dir, out, "--model", "forest", "--forest-trees", "3")) == 0
        names = ("predictions.csv", "report.csv")
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}
        assert digests == {
            "predictions.csv": "036c6ffbe4e66f5545138b36246fd7fb3eef0d5b854fc0522ee9726ff42bbebb",
            "report.csv": "a2b4331f45115af8d2af2e505ea6e6d7f09518c42c8f5771c7ed4060fbef0b3d",
        }

    @pytest.mark.parametrize("model", ["gbt", "forest", "es"])
    def test_two_products_run_to_the_end(self, tmp_path, model):
        # fewer products than segments: the top one is A, the other B
        data = tmp_path / "data"
        assert main(
            ["synth", "--out-dir", str(data), "--products", "2", "--categories", "1",
             "--weeks", "60", "--seed", "3"]
        ) == 0
        config = tmp_path / "run.cfg"
        config.write_text(
            "train_len = 40\nvalid_len = 8\ntest_len = 10\nrounds = 5\noverride_bounds = true\n"
        )
        out = tmp_path / "out"
        args = pipeline_args(data, out, "--model", model, "--forest-trees", "2", config=config)
        assert main(args) == 0
        with open(out / "report.csv", newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if row["scope"] == "segment"]
        segments = {row["group"]: int(row["rows"]) for row in rows}
        assert segments == {"A": 10, "B": 1}

    def test_cold_start_filter_reduces_rows(self, data_dir, tmp_path):
        out_all = tmp_path / "all"
        out_filtered = tmp_path / "filtered"
        assert main(pipeline_args(data_dir, out_all)) == 0
        assert main(pipeline_args(data_dir, out_filtered, "--cold-start-filter", "6")) == 0
        # keep exactly the rows whose product was on sale >= 6 weeks up to the
        # issue week (target week - horizon 6), counted from sales.csv
        with (data_dir / "sales.csv").open(newline="") as fh:
            rows = csv.DictReader(fh)
            listed = [(row["product_id"], int(row["week"])) for row in rows if row["on_sale"] == "1"]

        def life(pid, week):
            return sum(1 for p, w in listed if p == pid and w <= week - 6)

        lines_all = (out_all / "predictions.csv").read_text().splitlines()
        expected = [lines_all[0]] + [
            line for line in lines_all[1:]
            if life(line.split(",")[0], int(line.split(",")[1])) >= 6
        ]
        assert 1 < len(expected) < len(lines_all)
        assert (out_filtered / "predictions.csv").read_text().splitlines() == expected

    def test_covariate_week_outside_int64_is_data_error(self, data_dir, tmp_path, capsys):
        covariates = tmp_path / "covariates.csv"
        text = (data_dir / "covariates.csv").read_text()
        covariates.write_text(text + "temporal,event,100000000000000000000,,1.0,1\n")
        line = len(text.splitlines()) + 1
        args = pipeline_args(data_dir, tmp_path / "out")
        args[args.index("--covariates") + 1] = str(covariates)
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error in stage ingest: {covariates}:{line}: "
            "week 100000000000000000000 outside the int64 range\n"
        )

    @pytest.mark.parametrize("horizon", [80, 200])
    def test_horizon_beyond_the_split_is_data_error(self, data_dir, tmp_path, capsys, horizon):
        # the split spans 80 weeks, so no week is left to forecast from
        config = config_file(tmp_path, f"horizon = {horizon}")
        for model in ("gbt", "es"):  # with features and from the split's keys alone
            args = pipeline_args(data_dir, tmp_path / "out", "--model", model, config=config)
            assert main(args) == 2
            assert capsys.readouterr().err == (
                f"error in stage features: horizon {horizon} leaves no week to forecast "
                f"target week 79 from\n"
            )

    def test_sales_week_beyond_the_last_supported_is_data_error(self, data_dir, tmp_path, capsys):
        sales = tmp_path / "sales.csv"
        text = (data_dir / "sales.csv").read_text()
        sales.write_text(text + "p0000,100000000000000000000,1,1,1\n")
        line = len(text.splitlines()) + 1
        args = pipeline_args(data_dir, tmp_path / "out")
        args[args.index("--sales") + 1] = str(sales)
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error in stage ingest: {sales}:{line}: week 100000000000000000000 "
            "beyond the last supported week 9999\n"
        )

    def test_no_seasonality_flag(self, data_dir, tmp_path):
        out = tmp_path / "noseas"
        config = config_file(tmp_path, "with_seasonality = false")
        assert main(pipeline_args(data_dir, out, config=config)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["with_seasonality"] is False
        assert not (out / "seasonality.csv").exists()

    def test_hashing_encoding(self, data_dir, tmp_path):
        out = tmp_path / "hashed"
        config = config_file(tmp_path, "encoding = hashing")
        assert main(pipeline_args(data_dir, out, config=config)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["encoding"] == "hashing"
        assert (out / "predictions.csv").exists()

    def test_empty_product_id_is_data_error(self, data_dir, tmp_path, capsys):
        sales, catalog = tmp_path / "sales.csv", tmp_path / "catalog.csv"
        text = (data_dir / "sales.csv").read_text()
        sales.write_text(text + ",5,3,1,1\n")
        catalog.write_text((data_dir / "catalog.csv").read_text() + ",c0,1.0\n")
        args = pipeline_args(data_dir, tmp_path / "out")
        args[args.index("--sales") + 1] = str(sales)
        args[args.index("--catalog") + 1] = str(catalog)
        assert main(args) == 2
        line = len(text.splitlines()) + 1
        assert capsys.readouterr().err == (
            f"error in stage ingest: {sales}:{line}: empty product_id\n"
        )

    def test_config_not_utf8_is_data_error(self, data_dir, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(CONFIG.encode() + b"# caf\xe9\n")
        assert main(pipeline_args(data_dir, tmp_path / "out", config=config)) == 2
        line = len(CONFIG.splitlines()) + 1
        assert capsys.readouterr().err == (
            f"error in stage config: {config}:{line}: not valid UTF-8\n"
        )


def no_matrix(*args, **kwargs):
    raise AssertionError("the ES pipeline built a feature matrix")


@pytest.fixture(scope="module")
def es_runs(data_dir, tmp_path_factory):
    """pipeline --model gbt, and --model es with cli.build_matrix raising, each
    without and with --cold-start-filter 6; maps (model, filter) to the run's directory."""
    out = tmp_path_factory.mktemp("es_runs")
    runs = {}
    for k in ("0", "6"):
        runs["gbt", k] = out / f"gbt{k}"
        assert main(pipeline_args(data_dir, runs["gbt", k], "--cold-start-filter", k)) == 0
        runs["es", k] = out / f"es{k}"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "build_matrix", no_matrix)
            args = pipeline_args(data_dir, runs["es", k], "--model", "es", "--cold-start-filter", k)
            assert main(args) == 0
    return runs


def manifest_of(run):
    return json.loads((run / "manifest.json").read_text())


class TestEsPipeline:
    """pipeline --model es reads the split's keys, not features, and scores the
    same rows the feature-based models score."""

    @pytest.mark.parametrize("k", ["0", "6"])
    def test_same_keys_and_row_counts_as_gbt(self, es_runs, k):
        def keys(run):
            lines = (run / "predictions.csv").read_text().splitlines()
            return [line.rsplit(",", 1)[0] for line in lines]

        es, boosted = es_runs["es", k], es_runs["gbt", k]
        assert keys(es) == keys(boosted)
        for name in ("train_rows", "valid_rows", "test_rows"):
            assert manifest_of(es)[name] == manifest_of(boosted)[name], name

    def test_fallback_rows_counted_before_the_cold_start_filter(self, es_runs):
        unfiltered, filtered = manifest_of(es_runs["es", "0"]), manifest_of(es_runs["es", "6"])
        assert filtered["test_rows"] < unfiltered["test_rows"]
        # a row falls back below two on-sale weeks at its issue week, so the
        # filter drops every fallback row: a count after it would be 0
        assert filtered["es_fallback_rows"] == unfiltered["es_fallback_rows"] > 0

    @pytest.mark.parametrize("model", ["es", "gbt"])
    def test_cold_start_filter_that_keeps_nothing_is_data_error(
        self, data_dir, es_runs, tmp_path, capsys, model
    ):
        out = tmp_path / "out"
        args = pipeline_args(data_dir, out, "--model", model, "--cold-start-filter", "1000")
        assert main(args) == 2
        test_rows = manifest_of(es_runs["es", "0"])["test_rows"]
        assert capsys.readouterr().err == (
            "error in stage features: --cold-start-filter 1000 leaves none of the "
            f"{test_rows} test rows for target weeks 60-79\n"
        )
        assert not any(out.iterdir())  # not even seasonality.csv, fitted before the split


def counting(patch, name):
    """Patch cli.<name> to record its calls; returns the list each call appends to."""
    calls = []
    original = getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    patch.setattr(cli, name, counted)
    return calls


class TestSplitOnce:
    """Each command derives the split's rows at most once, builds one matrix at most,
    whose parts are row views of it, and preprocesses once; each fits seasonality
    once but predict, which reads the model file's."""

    @pytest.mark.parametrize(
        "command, splits, matrices",
        [("gbt", 1, 1), ("forest", 1, 1), ("es", 1, 0), ("train", 1, 1), ("predict", 0, 1)],
    )
    def test_calls(self, data_dir, tmp_path, monkeypatch, command, splits, matrices):
        args = pipeline_args(data_dir, tmp_path, "--model", command, "--forest-trees", "2")
        if command in ("train", "predict"):
            args = ["train", *pipeline_args(data_dir, tmp_path)[1:]]
        if command == "predict":
            assert main(args) == 0
            args = ["predict", "--model-file", str(tmp_path / "model.json"), *args[1:]]
        split_calls = counting(monkeypatch, "split_rows")
        matrix_calls = counting(monkeypatch, "build_matrix")
        fits = [counting(monkeypatch, name) for name in ("preprocess_panel", "fit_seasonality")]
        assert main(args) == 0
        assert (len(split_calls), len(matrix_calls)) == (splits, matrices)
        assert [len(calls) for calls in fits] == [1, 0 if command == "predict" else 1]

    def test_parts_are_row_views_of_one_matrix(self, data_dir, tmp_path, monkeypatch):
        matrices = []  # gbt.train's train and valid parts, then gbt.predict's test part
        for name in ("train", "predict"):
            def captured(*args, original=getattr(gbt, name)):
                matrices.extend(arg for arg in args if isinstance(arg, FeatureMatrix))
                return original(*args)

            monkeypatch.setattr(gbt, name, captured)
        gathers = []  # (x, buffer) of every _column_cells call: the fit's and apply's

        def column_cells(x, original=gbt._column_cells):
            flat, stride = original(x)
            gathers.append((x, flat))
            return flat, stride

        monkeypatch.setattr(gbt, "_column_cells", column_cells)
        assert main(pipeline_args(data_dir, tmp_path)) == 0
        assert len(matrices) == 3
        # the full matrix is feature-major: its transpose owns the memory
        full = matrices[0].X.base
        assert full is not None and full.flags.c_contiguous and full.shape[0] == len(matrices[0].columns)
        for part in matrices:
            assert part.X.base is full and part.X.strides[0] == part.X.itemsize  # contiguous columns
            buffers = [flat for x, flat in gathers if x is part.X]
            assert buffers and all(np.shares_memory(flat, part.X) for flat in buffers)


class TestSmoothedPanelFreedBeforeTheFit:
    """run drops the loaded panel once it is repaired and the smoothed panel
    once the features are built, and predict likewise: none of them is
    alive when the fit or the forecast starts."""

    @pytest.mark.parametrize(
        "command, owner, fit",
        [("gbt", gbt, "train"), ("forest", gbt, "train_forest"), ("es", cli, "forecast_es"),
         ("predict", gbt, "predict")],
        ids=["gbt", "forest", "es", "predict"],
    )
    def test_released(self, data_dir, tmp_path, monkeypatch, command, owner, fit):
        args = pipeline_args(data_dir, tmp_path, "--model", command, "--forest-trees", "2")
        if command == "predict":
            assert main(["train", *pipeline_args(data_dir, tmp_path)[1:]]) == 0
            args = [
                "predict", "--model-file", str(tmp_path / "model.json"),
                *pipeline_args(data_dir, tmp_path)[1:],
            ]
        smoothed_refs, alive = [], []

        def preprocess_panel(panel, *args, original=cli.preprocess_panel):
            repaired, smoothed = original(panel, *args)
            assert repaired is not panel  # the test panel has fake zeros to repair
            # weak references only: the panels and their counts must die with run's references
            smoothed_refs.extend(
                weakref.ref(obj) for obj in (panel, panel.y, smoothed, smoothed.x)
            )
            return repaired, smoothed

        def fitted(*args, original=getattr(owner, fit)):
            alive.append([ref() is not None for ref in smoothed_refs])
            return original(*args)

        monkeypatch.setattr(cli, "preprocess_panel", preprocess_panel)
        monkeypatch.setattr(owner, fit, fitted)
        assert main(args) == 0
        assert alive == [[False] * 4]


def short_panel(tmp_path, on_sale_weeks):
    """4 products of one category over 30 weeks, each on sale in on_sale_weeks,
    with a config whose split (21, 4, 5) spans the panel; returns pipeline args."""
    sales = ["product_id,week,units,on_sale,in_stock"]
    for i in range(4):
        for w in range(30):  # a row for each week, so the panel spans 30 weeks
            listed = int(w in on_sale_weeks)
            sales.append(f"p{i},{w},{(3 + (i + w) % 4) * listed},{listed},1")
    (tmp_path / "sales.csv").write_text("\n".join(sales) + "\n")
    catalog = ["product_id,category_id,price"] + [f"p{i},c,{1.0 + i}" for i in range(4)]
    (tmp_path / "catalog.csv").write_text("\n".join(catalog) + "\n")
    (tmp_path / "run.cfg").write_text(
        "train_len = 21\nvalid_len = 4\ntest_len = 5\nrounds = 5\n"
        "override_bounds = true\nwith_seasonality = false\n"
    )
    return [
        "--config", str(tmp_path / "run.cfg"),
        "--sales", str(tmp_path / "sales.csv"),
        "--catalog", str(tmp_path / "catalog.csv"),
        "--out-dir", str(tmp_path / "out"),
    ]


class TestEmptySplitParts:
    @pytest.mark.parametrize("model", ["gbt", "es"])
    def test_empty_test_part_fails_before_any_fit(self, tmp_path, capsys, model):
        # targets 25-29 are issued at weeks 19-23, when nothing is on sale
        args = short_panel(tmp_path, range(19))
        assert main(["pipeline", *args, "--model", model]) == 2
        assert capsys.readouterr().err == (
            "error in stage features: no test rows for target weeks 25-29: "
            "no product is on sale at their issue weeks\n"
        )
        assert not (tmp_path / "out" / "model.json").exists()
        assert not (tmp_path / "out" / "predictions.csv").exists()

    def test_empty_valid_part_is_data_error(self, tmp_path, capsys):
        # valid targets 21-24 are issued at weeks 15-18, when nothing is on sale
        args = short_panel(tmp_path, [*range(15), *range(19, 30)])
        assert main(["pipeline", *args]) == 2
        assert capsys.readouterr().err == (
            "error in stage features: no validation rows for target weeks 21-24 (valid_len 4): "
            "no product is on sale at their issue weeks 15 to 18 (horizon 6)\n"
        )
        assert not (tmp_path / "out" / "model.json").exists()
        assert main(["train", *args]) == 2
        assert capsys.readouterr().err == (
            "error in stage features: no validation rows for target weeks 21-24 (valid_len 4): "
            "no product is on sale at their issue weeks 15 to 18 (horizon 6)\n"
        )
        assert not any((tmp_path / "out").iterdir())


    def test_forest_fits_no_validation_part(self, tmp_path):
        # the empty valid part of test_empty_valid_part_is_data_error: a forest
        # trains on the train part only
        args = short_panel(tmp_path, [*range(15), *range(19, 30)])
        assert main(["pipeline", *args, "--model", "forest", "--forest-trees", "2"]) == 0

    @pytest.mark.parametrize("horizon", [45, 59])
    def test_training_part_issued_before_the_panel_names_its_settings(
        self, tmp_path, capsys, horizon
    ):
        # training targets 0-39 are issued horizon weeks earlier, before week 0
        data = tmp_path / "data"
        assert main(["synth", "--out-dir", str(data), "--products", "30", "--weeks", "60",
                     "--categories", "3", "--seed", "3"]) == 0
        config = tmp_path / "run.cfg"
        config.write_text(
            "train_len = 40\nvalid_len = 8\ntest_len = 12\nrounds = 5\n"
            f"override_bounds = true\nhorizon = {horizon}\n"
        )
        args = [
            "--config", str(config), "--sales", str(data / "sales.csv"),
            "--catalog", str(data / "catalog.csv"), "--covariates", str(data / "covariates.csv"),
            "--out-dir", str(tmp_path / "out"),
        ]
        message = (
            "error in stage features: no training rows for target weeks 0-39 (train_len 40): "
            f"no product is on sale at their issue weeks {-horizon} to {39 - horizon} "
            f"(horizon {horizon})\n"
        )
        capsys.readouterr()
        for command in (["train"], ["pipeline", "--model", "gbt"], ["pipeline", "--model", "forest"]):
            assert main([*command, *args]) == 2
            assert capsys.readouterr().err == message
            assert not any((tmp_path / "out").iterdir())
        assert main(["pipeline", *args, "--model", "es"]) == 0  # es fits nothing


class TestConfigErrorsNameTheLine:
    @pytest.mark.parametrize(
        "line, message",
        [
            ("smooth_window = 99999999999999999999",
             "smooth_window 99999999999999999999 is outside the int64 range"),
            ("learning_rate = 5", "learning_rate=5.0 outside the search range [0.01, 0.3]; "
             "set override_bounds = true to allow it"),
        ],
        ids=["int64", "search_range"],
    )
    def test_preprocess_config(self, data_dir, tmp_path, capsys, line, message):
        config = tmp_path / "run.cfg"
        config.write_text(f"# a comment\nhorizon = 4\n\n{line}\n")
        code = main(["preprocess", "--sales", str(data_dir / "sales.csv"),
                     "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert (code, capsys.readouterr().err) == (2, f"error: {config}:4: {message}\n")

    def test_without_a_file_the_message_names_no_place(self):
        with pytest.raises(ingest.SchemaError) as err:
            RunConfig(learning_rate=5.0).validate()
        assert str(err.value) == (
            "learning_rate=5.0 outside the search range [0.01, 0.3]; "
            "set override_bounds = true to allow it"
        )


@pytest.mark.parametrize(
    "command", [["train"], ["pipeline", "--model", "gbt"]], ids=["train", "pipeline"]
)
@pytest.mark.parametrize(
    "on_sale_weeks, extra_row, message",
    [
        (range(30), ",5,3,1,1", "error in stage ingest: {sales}:122: empty product_id"),
        (
            [*range(15), *range(19, 30)], "",
            "error in stage features: no validation rows for target weeks 21-24 (valid_len 4): "
            "no product is on sale at their issue weeks 15 to 18 (horizon 6)",
        ),
        (
            range(19), "",
            "error in stage features: no test rows for target weeks 25-29: "
            "no product is on sale at their issue weeks",
        ),
    ],
    ids=["bad_sales_row", "empty_valid_part", "empty_test_part"],
)
def test_train_and_pipeline_fail_alike(
    tmp_path, capsys, command, on_sale_weeks, extra_row, message
):
    # the same message and exit code from either command, and no artifact
    args = short_panel(tmp_path, on_sale_weeks)
    sales = tmp_path / "sales.csv"
    sales.write_text(sales.read_text() + extra_row)
    assert main([*command, *args]) == 2
    assert capsys.readouterr().err == message.format(sales=sales) + "\n"
    assert not any((tmp_path / "out").iterdir())


def test_predict_with_nothing_on_sale_in_the_last_week_is_data_error(tmp_path, capsys):
    args = short_panel(tmp_path, range(25))  # nothing on sale in weeks 25-29
    assert main(["train", *args]) == 0
    capsys.readouterr()
    out = tmp_path / "predict"
    args[-1] = str(out)
    assert main(["predict", "--model-file", str(tmp_path / "out" / "model.json"), *args]) == 2
    assert capsys.readouterr().err == (
        "error: nothing to forecast: no product is on sale in week 29, the last week of the panel\n"
    )
    assert not out.exists()


def test_predict_with_a_model_that_overflows_is_data_error(tmp_path, capsys):
    # a base score of 800 is finite, so the model loads, but exp(800) is
    # inf: predict used to write inf for every row and exit 0
    data = tmp_path / "data"
    assert main([
        "synth", "--out-dir", str(data),
        "--products", "30", "--categories", "4", "--weeks", "60", "--seed", "3",
    ]) == 0
    config = tmp_path / "run.cfg"
    config.write_text("train_len = 40\nvalid_len = 8\ntest_len = 12\nrounds = 5\noverride_bounds = true\n")
    inputs = [
        "--config", str(config), "--sales", str(data / "sales.csv"),
        "--catalog", str(data / "catalog.csv"), "--covariates", str(data / "covariates.csv"),
    ]
    assert main(["pipeline", *inputs, "--out-dir", str(tmp_path / "run")]) == 0
    model_file = tmp_path / "run" / "model.json"
    doc = json.loads(model_file.read_text())
    doc["base_score"] = 800.0
    model_file.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "predict"
    assert main(["predict", "--model-file", str(model_file), *inputs, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {model_file}: forecast for ('p0002', 65) is inf, not a finite number\n"
    )
    assert not out.exists()


def test_diverging_boosted_fit_is_data_error(data_dir, tmp_path, capsys):
    # learning_rate 50 takes the poisson scores past exp's range in round 1:
    # the fit used to warn of the overflow, then fail inside grad_hess
    config = tmp_path / "run.cfg"
    config.write_text(
        CONFIG.replace("learning_rate = 0.2", "learning_rate = 50")
        .replace("rounds = 30", "rounds = 5")
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(pipeline_args(data_dir, tmp_path / "out", config=config))
    assert code == 2
    assert capsys.readouterr().err == (
        "error in stage train: training diverged in round 1: the training loss is inf "
        "with learning_rate 50.0\n"
    )


class TestInputFaults:
    """A field longer than csv's limit, or a byte that is not UTF-8, in any
    input CSV is a data error naming the file and line."""

    @pytest.mark.parametrize(
        "fault, message",
        [(b"x" * 200_000, "field larger than field limit (131072)"), (b"\xff", "not valid UTF-8")],
        ids=["long_field", "byte_0xff"],
    )
    @pytest.mark.parametrize("name", ["sales", "catalog", "covariates", "predictions"])
    def test_fault_exits_two_naming_the_line(
        self, data_dir, tmp_path, capsys, name, fault, message
    ):
        if name == "predictions":
            source = b"product_id,week,forecast\r\np0000,20,1.0\r\np0000,21,1.0\r\n"
        else:
            source = (data_dir / f"{name}.csv").read_bytes()  # CRLF, as synth writes it
        lines = source.split(b"\r\n")
        lines[2] = fault + lines[2]
        path = tmp_path / f"{name}.csv"
        path.write_bytes(b"\r\n".join(lines))
        if name == "predictions":
            args = [
                "evaluate", "--predictions", str(path),
                "--sales", str(data_dir / "sales.csv"),
                "--catalog", str(data_dir / "catalog.csv"),
                "--config", str(data_dir / "run.cfg"),
                "--out-dir", str(tmp_path / "eval"),
            ]
            prefix = "error"
        else:
            args = pipeline_args(data_dir, tmp_path / "out")
            args[args.index(f"--{name}") + 1] = str(path)
            prefix = "error in stage ingest"
        assert main(args) == 2
        assert capsys.readouterr().err == f"{prefix}: {path}:3: {message}\n"


# a loadable model.json: no trees, so every forecast is exp(base_score)
VALID_MODEL = {
    "version": 3, "loss": "poisson", "base_score": 0.0, "learning_rate": 0.1,
    "best_round": 0, "feature_names": ["lag_0"], "train_loss": [1.0], "valid_loss": [1.0],
    "node_counts": [], "nodes": {name: "" for name in NODE_DTYPE.names},
    "settings": {
        "horizon": 6, "smooth_window": 8, "cap_gamma": 3.0, "season_period": 52,
        "with_seasonality": False, "lag_depth": 8,
    },
    "encoding": {"mode": "hashing", "hash_buckets": 64},
    "seasonality": None,
}


def model_text(**changes):
    return json.dumps({**VALID_MODEL, **changes})


class TestTrainPredict:
    def test_train_then_predict(self, data_dir, tmp_path):
        out = tmp_path / "model"
        code = main(
            [
                "train",
                "--sales", str(data_dir / "sales.csv"),
                "--catalog", str(data_dir / "catalog.csv"),
                "--covariates", str(data_dir / "covariates.csv"),
                "--config", str(data_dir / "run.cfg"),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        assert (out / "model.json").exists()
        code = main(
            [
                "predict",
                "--model-file", str(out / "model.json"),
                "--sales", str(data_dir / "sales.csv"),
                "--catalog", str(data_dir / "catalog.csv"),
                "--covariates", str(data_dir / "covariates.csv"),
                "--config", str(data_dir / "run.cfg"),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert len(lines) > 1

    def predict_with_corrupt_model(self, data_dir, out, corrupt):
        """Train on the CLI panel, apply corrupt to model.json's document, then predict."""
        train_args = pipeline_args(data_dir, out)
        train_args[0] = "train"
        assert main(train_args) == 0
        model_file = out / "model.json"
        doc = json.loads(model_file.read_text())
        corrupt(doc)
        model_file.write_text(json.dumps(doc))
        code = main(
            [
                "predict",
                "--model-file", str(model_file),
                "--sales", str(data_dir / "sales.csv"),
                "--catalog", str(data_dir / "catalog.csv"),
                "--config", str(data_dir / "run.cfg"),
                "--out-dir", str(out),
            ]
        )
        return code, model_file

    def test_malformed_model_file_is_data_error(self, data_dir, tmp_path, capsys):
        def cut_threshold(doc):
            edit_column(doc, "threshold", list.pop)  # the last node has no threshold

        code, model_file = self.predict_with_corrupt_model(data_dir, tmp_path / "model", cut_threshold)
        nodes = sum(json.loads(model_file.read_text())["node_counts"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {model_file}: nodes field 'threshold' holds {nodes - 1} values, "
            f"but node_counts sum to {nodes}\n"
        )

    def test_valid_model_loads(self):
        model, state = gbt.model_from_json(model_text(), "model")
        assert (model.trees, state.seasonal, state.encoding.hash_buckets) == ([], None, 64)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("loss", "poison", "unknown loss 'poison'"),
            ("learning_rate", float("nan"), "learning_rate nan is not a finite number above 0"),
            # an int no float holds: exited 3 with the OverflowError of float()
            ("base_score", -(10**400), f"base_score {-(10**400)} is not a finite number"),
        ],
    )
    def test_bad_model_scalar_is_data_error(self, data_dir, tmp_path, capsys, field, value, message):
        out = tmp_path / "model"
        code, model_file = self.predict_with_corrupt_model(
            data_dir, out, lambda doc: doc.update({field: value})
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {model_file}: {message}\n"
        assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("default_left", 2, "default_left 2 is not 0 or 1"),
            ("gain", float("inf"), "gain inf is not a finite number"),
        ],
    )
    def test_bad_node_field_is_data_error(self, data_dir, tmp_path, capsys, field, value, message):
        def corrupt(doc):  # the last node of the last tree
            edit_column(doc, field, lambda values: values.__setitem__(-1, value))

        out = tmp_path / "model"
        code, model_file = self.predict_with_corrupt_model(data_dir, out, corrupt)
        counts = json.loads(model_file.read_text())["node_counts"]
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {model_file}: tree {len(counts) - 1} node {counts[-1] - 1}: {message}\n"
        )
        assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            "5",
            model_text(nodes=5),
            model_text(node_counts=[5]),
            model_text(feature_names=5),
            "{not json",
            json.dumps({k: v for k, v in VALID_MODEL.items() if k != "loss"}),
            model_text(version=4),
            model_text(version=2),
            model_text(version=1),
            model_text(nodes={**VALID_MODEL["nodes"], "gain": "A"}),
            b"\xff{}",
            "[" * 100_000,  # exited 3 with json's RecursionError
        ],
        ids=[
            "list", "number", "trees-number", "tree-number", "feature-names-number",
            "invalid-json", "no-loss", "version-4", "version-2", "version-1", "not-base64",
            "not-utf-8", "deeply-nested",
        ],
    )
    def test_malformed_model_document_is_data_error(self, data_dir, tmp_path, capsys, text):
        model_file = tmp_path / "model.json"
        model_file.write_bytes(text if isinstance(text, bytes) else text.encode())
        out = tmp_path / "out"
        code = main(
            [
                "predict",
                "--model-file", str(model_file),
                "--sales", str(data_dir / "sales.csv"),
                "--catalog", str(data_dir / "catalog.csv"),
                "--config", str(data_dir / "run.cfg"),
                "--out-dir", str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {model_file}: ")
        assert not (out / "predictions.csv").exists()

    def test_train_fits_the_pipeline_model(self, data_dir, tmp_path):
        trained, piped = tmp_path / "train", tmp_path / "pipe"
        train_args = pipeline_args(data_dir, trained)
        train_args[0] = "train"
        assert main(train_args) == 0
        assert main(pipeline_args(data_dir, piped)) == 0
        assert (trained / "model.json").read_bytes() == (piped / "model.json").read_bytes()
        trained_manifest = json.loads((trained / "manifest.json").read_text())
        piped_manifest = json.loads((piped / "manifest.json").read_text())
        for key in ("best_round", "rounds_run", "train_rows", "valid_rows"):
            assert trained_manifest[key] == piped_manifest[key]

    @pytest.mark.parametrize(
        "corrupt, problem",
        [
            (
                lambda doc: doc["node_counts"].__setitem__(0, doc["node_counts"][0] + 1),
                lambda doc: f"nodes field 'feature' holds {sum(doc['node_counts']) - 1} values, "
                f"but node_counts sum to {sum(doc['node_counts'])}",
            ),
            (
                lambda doc: doc["seasonality"]["patterns"][0].__setitem__(0, float("nan")),
                lambda doc: "seasonality: pattern 0 is not a list of finite numbers",
            ),
            (
                lambda doc: doc["seasonality"]["assignment"].__setitem__(
                    "c00", len(doc["seasonality"]["patterns"])
                ),
                lambda doc: "seasonality: assignment is not an object of pattern indices in "
                f"[0, {len(doc['seasonality']['patterns'])})",
            ),
            (
                lambda doc: doc["encoding"]["maps"]["category"].reverse(),
                lambda doc: "encoding: map 'category' is not a list of distinct strings in sorted order",
            ),
            (
                lambda doc: doc["settings"].pop("smooth_window"),
                lambda doc: "settings: missing key 'smooth_window'",
            ),
            (
                lambda doc: doc["valid_loss"].__setitem__(0, float("inf")),
                lambda doc: "valid_loss is not a list of finite numbers",
            ),
            (
                lambda doc: doc.__setitem__("version", 1),
                lambda doc: "model version 1 is no longer read; retrain to write version 3",
            ),
            (
                lambda doc: doc.__setitem__("version", 2),
                lambda doc: "model version 2 is no longer read; retrain to write version 3",
            ),
        ],
        ids=[
            "node-counts", "pattern", "assignment", "ordinal-map", "setting", "loss-history",
            "version-1", "version-2",
        ],
    )
    def test_bad_model_state_is_data_error(self, data_dir, tmp_path, capsys, corrupt, problem):
        out = tmp_path / "model"
        code, model_file = self.predict_with_corrupt_model(data_dir, out, corrupt)
        doc = json.loads(model_file.read_text())
        assert code == 2
        assert capsys.readouterr().err == f"error: {model_file}: {problem(doc)}\n"
        assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize(
        "line, given, trained",
        [
            ("horizon = 4", "4", "6"),
            ("cap_gamma = 2.5", "2.5", "3.0"),
            ("encoding = hashing", "'hashing'", "'ordinal'"),
            ("with_seasonality = false", "False", "True"),
        ],
    )
    def test_predict_config_must_agree_with_the_model(
        self, data_dir, tmp_path, capsys, line, given, trained
    ):
        model_dir = tmp_path / "model"
        assert main(["train", *pipeline_args(data_dir, model_dir)[1:]]) == 0
        config = config_file(tmp_path, line)
        capsys.readouterr()
        args = predict_args(data_dir, model_dir / "model.json", tmp_path / "out", config)
        assert main(args) == 2
        name = line.split(" = ")[0]
        assert capsys.readouterr().err == (
            f"error: {config}: {name} = {given}, but {model_dir / 'model.json'} was trained "
            f"with {name} = {trained}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_hash_buckets_checked_under_hashing_only(self, data_dir, tmp_path, capsys):
        hashed = tmp_path / "hashed"
        assert main(pipeline_args(data_dir, hashed, config=config_file(tmp_path, "encoding = hashing"))) == 0
        other = tmp_path / "other.cfg"
        other.write_text(CONFIG + "encoding = hashing\nhash_buckets = 32\n")
        capsys.readouterr()
        assert main(predict_args(data_dir, hashed / "model.json", tmp_path / "out", other)) == 2
        assert capsys.readouterr().err.endswith("with hash_buckets = 64\n")

    def test_predict_reads_no_setting_from_config(self, data_dir, tmp_path):
        model_dir = tmp_path / "model"
        assert main(["train", *pipeline_args(data_dir, model_dir)[1:]]) == 0
        # settings predict does not read may differ from training's
        unread = tmp_path / "unread.cfg"
        unread.write_text(
            "train_len = 40\nvalid_len = 5\ntest_len = 5\nrounds = 3\nseed = 9\n"
            "n_patterns = 2\nhash_buckets = 32\nlearning_rate = 0.5\noverride_bounds = true\n"
        )
        outputs = []
        for name, config in (("none", None), ("same", data_dir / "run.cfg"), ("unread", unread)):
            out = tmp_path / name
            assert main(predict_args(data_dir, model_dir / "model.json", out, config)) == 0
            outputs.append((out / "predictions.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


def predict_args(data_dir, model_file, out_dir, config=None, catalog=None):
    return [
        "predict", "--model-file", str(model_file),
        "--sales", str(data_dir / "sales.csv"),
        "--catalog", str(catalog or data_dir / "catalog.csv"),
        "--covariates", str(data_dir / "covariates.csv"),
        *(["--config", str(config)] if config else []),
        "--out-dir", str(out_dir),
    ]


SHORT_CONFIG = "train_len = 80\nvalid_len = 14\ntest_len = 26\nrounds = 40\noverride_bounds = true\n"


@pytest.fixture(scope="module")
def trained_120(tmp_path_factory):
    """synth 120 products, 6 categories, 120 weeks (seed 3) and the model
    `train` fits on it with SHORT_CONFIG; returns (data dir, model file)."""
    path = tmp_path_factory.mktemp("panel120")
    assert main([
        "synth", "--out-dir", str(path),
        "--products", "120", "--categories", "6", "--weeks", "120", "--seed", "3",
    ]) == 0
    (path / "run.cfg").write_text(SHORT_CONFIG)
    assert main(["train", *pipeline_args(path, path / "model")[1:]]) == 0
    return path, path / "model" / "model.json"


@pytest.fixture(scope="module")
def hashed_120(trained_120):
    """trained_120's panel and the model `train` fits on it with encoding = hashing."""
    data_dir, _ = trained_120
    config = data_dir / "hashing.cfg"
    config.write_text(SHORT_CONFIG + "encoding = hashing\n")
    assert main(["train", *pipeline_args(data_dir, data_dir / "hashed", config=config)[1:]]) == 0
    return data_dir, data_dir / "hashed" / "model.json"


def with_color_column(data_dir, path):
    """data_dir's catalog with a `color` column training never saw, written to path."""
    header, *rows = (data_dir / "catalog.csv").read_text().splitlines()
    path.write_text("\n".join([header + ",color", *(row + ",red" for row in rows)]) + "\n")
    return path


def predict_fault(args, capsys):
    """stderr of the predict args, which must exit 2 before build_matrix is
    called or any file is written."""
    out = Path(args[args.index("--out-dir") + 1])
    with pytest.MonkeyPatch.context() as patch:
        matrix_calls = counting(patch, "build_matrix")
        capsys.readouterr()
        assert main(args) == 2
    assert matrix_calls == [] and not out.exists()
    return capsys.readouterr().err


def rewrite_catalog(data_dir, path, edit):
    """data_dir's catalog with edit(rows) applied to its data rows, written to path."""
    with (data_dir / "catalog.csv").open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    rows = edit(rows) or rows
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    return path


class TestForecastIsAFunctionOfTheModelFile:
    """predict codes categories and reads seasonality as training fitted them,
    whatever else the catalog lists."""

    def test_catalog_row_outside_the_panel_leaves_forecasts_unchanged(self, trained_120, tmp_path):
        # a new brand sorts first, so refitted ordinal maps would shift every
        # brand's id: at the version 1 model file, 10 of 35 forecasts changed
        data_dir, model_file = trained_120

        def add_product(rows):
            first = next(row for row in rows if row[0] == "p0000")
            rows.append(["zz_new", first[1], first[2], "a_brand"])

        catalog = rewrite_catalog(data_dir, tmp_path / "catalog.csv", add_product)
        outputs = []
        for name, given in (("plain", None), ("extra", catalog)):
            out = tmp_path / name
            assert main(predict_args(data_dir, model_file, out, data_dir / "run.cfg", given)) == 0
            outputs.append((out / "predictions.csv").read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 36  # 35 forecasts

    def test_unseen_category_gets_id_n_and_the_global_pattern(self, trained_120, tmp_path):
        data_dir, model_file = trained_120
        _, state = gbt.load_model(model_file)
        config = state.config()
        panel, _, covariates = cli.load_inputs(
            data_dir / "sales.csv", data_dir / "catalog.csv", data_dir / "covariates.csv"
        )
        rows = np.flatnonzero(panel.on_sale_mask[:, -1])
        moved, kept = panel.products[rows[0]], panel.products[rows[1]]

        def new_category(catalog_rows):
            for row in catalog_rows:
                if row[0] == moved:
                    row[1] = "zz_unseen"

        path = rewrite_catalog(data_dir, tmp_path / "catalog.csv", new_category)
        catalog = ingest.load_catalog(path)
        repaired, smoothed = cli.preprocess_panel(panel, config.smooth_window, config.cap_gamma)
        weeks = np.full(rows.size, panel.n_weeks - 1)
        matrix = cli.build_matrix(
            repaired, smoothed, catalog, state.seasonal, covariates, config, rows, weeks, state.encoding
        )
        category, season = matrix.columns.index("category"), matrix.columns.index("season")
        seasonal, ids = state.seasonal, state.encoding.maps["category"]
        week = (panel.n_weeks - 1 + config.horizon) % seasonal.tau
        assert matrix.X[0, category] == len(ids)
        assert matrix.X[0, season] == seasonal.global_pattern[week]
        own = catalog.category_of[kept]
        assert matrix.X[1, category] == ids[own]
        assert matrix.X[1, season] == seasonal.patterns[seasonal.assignment[own]][week]
        # the other products' forecasts do not move
        outputs = []
        for name, given in (("plain", None), ("moved", path)):
            out = tmp_path / name
            assert main(predict_args(data_dir, model_file, out, None, given)) == 0
            outputs.append((out / "predictions.csv").read_text().splitlines())
        changed = [a.split(",")[0] for a, b in zip(*outputs) if a != b]
        assert set(changed) <= {moved}

    def test_catalog_column_training_did_not_see_is_data_error(self, trained_120, tmp_path, capsys):
        data_dir, model_file = trained_120
        catalog = with_color_column(data_dir, tmp_path / "catalog.csv")
        args = predict_args(data_dir, model_file, tmp_path / "out", catalog=catalog)
        assert predict_fault(args, capsys) == (
            f"error: {model_file}: the inputs' feature columns differ from the model's: "
            f"extra 'attr_color' (catalog column 'color', --catalog {catalog})\n"
        )

    def test_catalog_column_training_did_not_see_under_hashing(self, hashed_120, tmp_path, capsys):
        # under hashing no ordinal map is missing, so only the column check
        # stops the column before a matrix is built
        self.test_catalog_column_training_did_not_see_is_data_error(hashed_120, tmp_path, capsys)

    @pytest.mark.parametrize(
        "edit, faults",
        [
            (
                lambda lines: lines + [
                    line.replace("event", "holiday", 1) for line in lines if line.startswith("temporal,event,")
                ],
                "extra 'cov_holiday' (covariate key 'holiday', --covariates {path})",
            ),
            (
                lambda lines: [line for line in lines if not line.startswith("mixed,promo,")],
                "missing 'cov_promo' (covariate key 'promo', --covariates {path})",
            ),
            (
                lambda lines: [line.replace("mixed,promo,", "mixed,promo2,") for line in lines],
                "extra 'cov_promo2' (covariate key 'promo2', --covariates {path}); "
                "missing 'cov_promo' (covariate key 'promo', --covariates {path})",
            ),
            (
                None,
                "missing 'cov_event' (covariate key 'event', --covariates not given); "
                "missing 'cov_price_week' (covariate key 'price_week', --covariates not given); "
                "missing 'cov_promo' (covariate key 'promo', --covariates not given)",
            ),
            (
                # a temporal key sorts before every mixed one
                lambda lines: [line for line in lines if not line.startswith("mixed,promo,")]
                + [f"temporal,promo,{week},,0.0,1" for week in range(120)],
                "the same columns in another order, {reordered}",
            ),
        ],
        ids=["extra", "missing", "renamed", "not-given", "reordered"],
    )
    def test_covariate_keys_must_be_the_models(self, trained_120, tmp_path, capsys, edit, faults):
        data_dir, model_file = trained_120
        args = predict_args(data_dir, model_file, tmp_path / "out")
        k = args.index("--covariates")
        path = tmp_path / "covariates.csv"
        if edit is None:
            del args[k : k + 2]
        else:
            header, *lines = (data_dir / "covariates.csv").read_text().splitlines()
            path.write_text("\n".join([header, *edit(lines)]) + "\n")
            args[k + 1] = str(path)
        trained = gbt.load_model(model_file)[0].feature_names
        k = trained.index("cov_event") + 1
        reordered = [*trained[:k], "cov_promo", *(c for c in trained[k:] if c != "cov_promo")]
        assert predict_fault(args, capsys) == (
            f"error: {model_file}: the inputs' feature columns differ from the model's: "
            + faults.format(path=path, reordered=reordered) + "\n"
        )

    @pytest.mark.parametrize("model", ["gbt", "es", "forest"])
    def test_doubled_prices_double_rmse_and_keep_mae_and_forecasts(self, trained_120, tmp_path, model):
        # doubling is exact in floating point, and so are the split midpoints
        # and the price-weighted sums it scales, so every comparison is exact
        data_dir, _ = trained_120

        def double(rows):
            for row in rows:
                row[2] = repr(2.0 * float(row[2]))

        doubled = rewrite_catalog(data_dir, tmp_path / "catalog.csv", double)
        reports, predictions = [], []
        for name, catalog in (("plain", data_dir / "catalog.csv"), ("doubled", doubled)):
            out = tmp_path / name
            args = pipeline_args(data_dir, out, "--model", model, "--forest-trees", "3")
            args[args.index("--catalog") + 1] = str(catalog)
            assert main(args) == 0
            predictions.append((out / "predictions.csv").read_bytes())
            with (out / "report.csv").open(newline="") as fh:
                reports.append(list(csv.reader(fh))[1:])
        assert predictions[0] == predictions[1]
        assert len(reports[0]) == len(reports[1]) > 1
        for (scope, group, rmse, mae, n), doubled_row in zip(*reports):
            assert doubled_row[:2] == [scope, group] and doubled_row[4] == n
            assert float(doubled_row[2]) == 2.0 * float(rmse)
            assert float(doubled_row[3]) == float(mae)


class TestForecastRows:
    """predict builds its matrix from the forecast products' rows of the
    repaired panel, the smoothed panel and the covariate table
    (cli._forecast_rows), and those rows must give the cells the whole
    panel gives them."""

    # the trained_120 and hashed_120 forecasts, at the version 2 model files
    # of the same fits, so the sub-panel and the binary node table move no byte
    PREDICTIONS_SHA256 = {
        "trained_120": "221aae2d7333801fee96c6d8cad44d43538bf5cd7d267e07b9c6882f74c280c3",
        "hashed_120": "406c8b4a6052ea41a68c532fd4a2994230707f982e9abc2b6105dc25bccce04e",
    }

    @staticmethod
    def inputs(data_dir, tmp_path):
        """data_dir's inputs, edited: one forecast product moved to a
        category training never saw, another's covariate entries dropped,
        and a temporal key that must be imputed (weather, on 2 weeks of 3)
        added beside the known-future temporal and the two mixed keys."""
        panel = ingest.load_sales(data_dir / "sales.csv")
        rows = np.flatnonzero(panel.on_sale_mask[:, -1])
        moved, bare = panel.products[rows[0]], panel.products[rows[2]]

        def new_category(catalog_rows):
            for row in catalog_rows:
                if row[0] == moved:
                    row[1] = "zz_unseen"

        catalog = rewrite_catalog(data_dir, tmp_path / "catalog.csv", new_category)
        header, *lines = (data_dir / "covariates.csv").read_text().splitlines()
        lines = [line for line in lines if line.split(",")[3] != bare]
        weeks = [int(line.split(",")[2]) for line in lines if line.startswith("temporal,event,")]
        lines += [f"temporal,weather,{w},,{(w * 7 % 11) / 4},0" for w in weeks if w % 3]
        covariates = tmp_path / "covariates.csv"
        covariates.write_text("\n".join([header, *lines]) + "\n")
        return cli.load_inputs(data_dir / "sales.csv", catalog, covariates), rows, moved, bare

    @pytest.mark.parametrize("fitted", ["trained_120", "hashed_120"])
    def test_rows_give_the_whole_panel_cells(self, request, tmp_path, fitted):
        data_dir, model_file = request.getfixturevalue(fitted)
        _, state = gbt.load_model(model_file)
        config = state.config()
        (panel, catalog, covariates), rows, moved, bare = self.inputs(data_dir, tmp_path)
        kinds = {(cov.rows is None, cov.predictable) for cov in covariates.series.values()}
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}
        repaired, smoothed = cli.preprocess_panel(panel, config.smooth_window, config.cap_gamma)
        weeks = np.full(rows.size, panel.n_weeks - 1)
        whole = cli.build_matrix(
            repaired, smoothed, catalog, state.seasonal, covariates, config, rows, weeks, state.encoding
        )
        cut_panel, cut_smoothed, cut_covariates = cli._forecast_rows(rows, repaired, smoothed, covariates)
        assert cut_panel.products == tuple(np.array(panel.products)[rows])
        for key, cov in covariates.series.items():
            if cov.rows is None:
                assert cut_covariates.series[key] is cov  # temporal keys are kept whole
        part = cli.build_matrix(
            cut_panel, cut_smoothed, catalog, state.seasonal, cut_covariates, config,
            np.arange(rows.size), weeks, state.encoding,
        )
        assert part.columns == whole.columns
        assert part.X.tobytes() == whole.X.tobytes()
        assert part.product_ids.tolist() == whole.product_ids.tolist()
        assert part.target_weeks.tolist() == whole.target_weeks.tolist()
        # the edits reach the matrix: an unseen category's code, a product without mixed entries
        category = whole.columns.index("category")
        if state.encoding.mode == "ordinal":
            assert whole.X[0, category] == len(state.encoding.maps["category"])
        k = whole.product_ids.tolist().index(bare)
        assert np.isnan(whole.X[k, whole.columns.index("cov_promo")])
        assert not np.isnan(whole.X[:, whole.columns.index("cov_weather")]).any()

    @pytest.mark.parametrize("fitted", ["trained_120", "hashed_120"])
    def test_predictions_pinned(self, request, tmp_path, fitted):
        data_dir, model_file = request.getfixturevalue(fitted)
        assert main(predict_args(data_dir, model_file, tmp_path)) == 0
        digest = hashlib.sha256((tmp_path / "predictions.csv").read_bytes()).hexdigest()
        assert digest == self.PREDICTIONS_SHA256[fitted]

class TestIdsThatNeedQuoting:
    def test_predict_then_evaluate(self, data_dir, tmp_path, capsys):
        # ids holding a comma, a quote and a line feed are quoted on every
        # write and read back by csv.reader; predict forecasts from the first
        # 74 weeks, so evaluate finds each forecast's actual in all 80
        panel = ingest.load_sales(data_dir / "sales.csv")
        catalog = ingest.load_catalog(data_dir / "catalog.csv")
        cut = panel.n_weeks - RunConfig().horizon
        on_sale = [panel.products[i] for i in np.flatnonzero(panel.on_sale_mask[:, cut - 1])]
        names = dict(zip(on_sale, ["a,b", 'q"t', "line\nfeed"]))
        ids = tuple(names.get(pid, pid) for pid in panel.products)
        full = SalesPanel(ids, panel.y, panel.on_sale_mask, panel.stock_flag)
        history = SalesPanel(
            ids, panel.y[:, :cut], panel.on_sale_mask[:, :cut], panel.stock_flag[:, :cut]
        )
        ingest.write_sales(full, tmp_path / "full.csv")
        ingest.write_sales(history, tmp_path / "history.csv")
        ingest.write_catalog(Catalog(
            {names.get(p, p): c for p, c in catalog.category_of.items()},
            {names.get(p, p): v for p, v in catalog.price.items()},
            {names.get(p, p): a for p, a in catalog.attributes.items()},
        ), tmp_path / "catalog.csv")
        config = tmp_path / "run.cfg"
        config.write_text(
            "train_len = 40\nvalid_len = 10\ntest_len = 20\nrounds = 5\noverride_bounds = true\n"
        )
        data = ["--config", str(config), "--catalog", str(tmp_path / "catalog.csv")]
        history_args = [*data, "--sales", str(tmp_path / "history.csv")]
        assert main(["train", *history_args, "--out-dir", str(tmp_path / "train")]) == 0
        model = str(tmp_path / "train" / "model.json")
        assert main(["predict", "--model-file", model, *history_args,
                     "--out-dir", str(tmp_path / "predict")]) == 0
        predictions = tmp_path / "predict" / "predictions.csv"
        assert b'"line\nfeed",79,' in predictions.read_bytes()
        with predictions.open(newline="") as fh:
            assert set(names.values()) <= {row[0] for row in csv.reader(fh)}
        capsys.readouterr()
        assert main(["evaluate", "--predictions", str(predictions), *data,
                     "--sales", str(tmp_path / "full.csv"), "--out-dir", str(tmp_path / "eval")]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "eval" / "report.csv").exists()


class TestEvaluateCommand:
    def test_mismatched_keys_rejected(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "preds.csv"
        bad.write_text("product_id,week,forecast\np0000,20,1.0\nghost,3,4.0\n")
        code = main(
            [
                "evaluate",
                "--predictions", str(bad),
                "--sales", str(data_dir / "sales.csv"),
                "--catalog", str(data_dir / "catalog.csv"),
                "--config", str(data_dir / "run.cfg"),
                "--out-dir", str(tmp_path / "eval"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {bad}:3: prediction key ('ghost', 3) has no actual in the panel\n"
        )
        assert not (tmp_path / "eval" / "report.csv").exists()

    @pytest.mark.parametrize("forecast", ["nan", "inf", "-1e400"])
    def test_non_finite_forecast_rejected(self, data_dir, tmp_path, capsys, forecast):
        predictions = tmp_path / "predictions.csv"
        predictions.write_text(f"product_id,week,forecast\np0000,20,1.0\np0000,21,{forecast}\n")
        out = tmp_path / "eval"
        code = main(
            [
                "evaluate",
                "--predictions", str(predictions),
                "--sales", str(data_dir / "sales.csv"),
                "--catalog", str(data_dir / "catalog.csv"),
                "--config", str(data_dir / "run.cfg"),
                "--out-dir", str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {predictions}:3: non-finite forecast {forecast!r}\n"
        )
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("text", ["product_id,week,forecast\n", "product_id,week,forecast"])
    def test_predictions_without_data_rows_rejected_naming_the_file(
        self, data_dir, tmp_path, capsys, text
    ):
        predictions = tmp_path / "header_only.csv"
        predictions.write_text(text)
        out = tmp_path / "eval"
        code = main(
            [
                "evaluate",
                "--predictions", str(predictions),
                "--sales", str(data_dir / "sales.csv"),
                "--catalog", str(data_dir / "catalog.csv"),
                "--config", str(data_dir / "run.cfg"),
                "--out-dir", str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {predictions}: no data rows\n"
        assert not (out / "report.csv").exists()

    def test_prediction_week_inside_horizon_gets_zero_life(self, data_dir, tmp_path):
        # a forecast for week 2 at horizon 6 was issued before the panel began
        early = tmp_path / "early.csv"
        early.write_text("product_id,week,forecast\np0000,2,1.0\n")
        out = tmp_path / "eval_early"
        code = main(
            [
                "evaluate",
                "--predictions", str(early),
                "--sales", str(data_dir / "sales.csv"),
                "--catalog", str(data_dir / "catalog.csv"),
                "--config", str(data_dir / "run.cfg"),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        report = (out / "report.csv").read_text()
        assert "life" not in report  # life 0 falls outside every bucket

    def test_scores_pipeline_predictions(self, data_dir, tmp_path, monkeypatch):
        run = tmp_path / "run"
        assert main(pipeline_args(data_dir, run)) == 0

        def smooth_panel(*args):
            raise AssertionError("evaluate scores repaired sales and smooths nothing")

        monkeypatch.setattr(preprocess, "smooth_panel", smooth_panel)
        out = tmp_path / "eval"
        code = main(
            [
                "evaluate",
                "--predictions", str(run / "predictions.csv"),
                "--sales", str(data_dir / "sales.csv"),
                "--catalog", str(data_dir / "catalog.csv"),
                "--config", str(data_dir / "run.cfg"),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        assert (out / "report.csv").read_text() == (run / "report.csv").read_text()

    def test_row_order_does_not_change_the_report(self, data_dir, tmp_path):
        run = tmp_path / "run"
        assert main(pipeline_args(data_dir, run)) == 0
        header, *rows = (run / "predictions.csv").read_text().splitlines()
        shuffled = rows[:]
        random.Random(0).shuffle(shuffled)
        assert shuffled != rows
        predictions = tmp_path / "shuffled.csv"
        predictions.write_text("\n".join([header, *shuffled]) + "\n")
        out = tmp_path / "eval"
        code = main(
            [
                "evaluate",
                "--predictions", str(predictions),
                "--sales", str(data_dir / "sales.csv"),
                "--catalog", str(data_dir / "catalog.csv"),
                "--config", str(data_dir / "run.cfg"),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        assert (out / "report.csv").read_bytes() == (run / "report.csv").read_bytes()


class TestUsage:
    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_missing_required_flag_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["synth"])
        assert err.value.code == 1

    @pytest.mark.parametrize(
        "flag",
        [["--seed", "7"], ["--encoding", "hashing"], ["--with-seasonality"], ["--no-seasonality"]],
    )
    def test_run_settings_are_not_pipeline_options(self, tmp_path, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main(["pipeline", "--out-dir", str(out), *flag])
        assert err.value.code == 1
        assert not out.exists()

    def test_no_option_overrides_a_config_field(self):
        # the --config file is the only source of a RunConfig field
        settings = set(RunConfig.__dataclass_fields__)
        for name, command in subcommands().items():
            if name == "synth":  # takes no config; its --seed seeds the generated panel
                continue
            dests = {action.dest for action in command._actions}
            assert "config" in dests
            assert not dests & settings, name

    @pytest.mark.parametrize(
        "options",
        [
            pytest.param(["--model", "forest", "--forest-trees", "0"], id="0"),
            pytest.param(["--model", "forest", "--forest-trees", "-3"], id="-3"),
            pytest.param(["--cold-start-filter", "-3"], id="cold_start_filter_-3"),
        ],
    )
    def test_forest_without_trees_exits_one(self, tmp_path, options):
        # and the other pipeline count below its floor
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main(["pipeline", "--out-dir", str(out), *options])
        assert err.value.code == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "options, message",
        [
            pytest.param(["--sales", "s.csv"], "--sales and --catalog must be given together", id="sales"),
            pytest.param(["--catalog", "c.csv"], "--sales and --catalog must be given together", id="catalog"),
            pytest.param(
                ["--covariates", "missing.csv"], "--covariates needs --sales and --catalog",
                id="covariates_without_sales",
            ),
        ],
    )
    def test_unpaired_pipeline_inputs_exit_one(self, tmp_path, capsys, options, message):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main(["pipeline", "--out-dir", str(out), *options])
        assert err.value.code == 1
        assert capsys.readouterr().err.endswith(f"demandcast: error: {message}\n")
        assert not out.exists()


@pytest.mark.parametrize(
    "option, value, low",
    [("--products", "0", 1), ("--categories", "0", 1), ("--weeks", "5", 10), ("--seed", "-1", 0)],
)
def test_synth_option_below_its_floor_exits_one(tmp_path, capsys, option, value, low):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main(["synth", "--out-dir", str(out), option, value])
    assert err.value.code == 1
    assert capsys.readouterr().err.endswith(
        f"demandcast: error: {option} must be >= {low}, got {value}\n"
    )
    assert not out.exists()


def readme_blocks(language):
    """Bodies of the README's fenced blocks of the given language."""
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.S | re.M)


class TestReadme:
    def test_config_block_sets_every_field_to_its_default(self, tmp_path):
        (block,) = readme_blocks("ini")
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        assert load_config(path) == RunConfig()
        keys = [line.split("#")[0].split("=")[0].strip() for line in block.splitlines()]
        assert sorted(filter(None, keys)) == sorted(RunConfig.__dataclass_fields__)

    def test_command_lines_use_existing_options(self):
        commands = subcommands()
        lines = "\n".join(readme_blocks("sh")).replace("\\\n", " ").splitlines()
        checked = 0
        for line in lines:
            words = line.split("#")[0].split()
            if words[:1] != ["demandcast"]:
                continue
            options = commands[words[1]]._option_string_actions
            unknown = [word for word in words[2:] if word.startswith("--") and word not in options]
            assert not unknown, line
            checked += 1
        assert checked >= len(commands)


class TestMallocThresholds:
    def test_main_fixes_both_thresholds(self, monkeypatch, tmp_path):
        calls = []

        def mallopt(parameter, value):
            calls.append((parameter, value))
            return 1

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        assert main(["synth", "--out-dir", str(tmp_path), "--products", "4", "--weeks", "30"]) == 0
        assert calls == [(cli.M_MMAP_THRESHOLD, 4 << 20), (cli.M_TRIM_THRESHOLD, 32 << 20)]

    def test_c_library_without_mallopt_left_as_it_is(self, monkeypatch):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        cli._fix_malloc_thresholds()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt")
    def test_freed_megabyte_temporaries_reuse_heap_pages(self):
        # a split-search chunk temporary is up to 1 MiB, 256 pages. Under the
        # dynamic thresholds, a freed 1.5 MiB block sets the trim threshold
        # to 3 MiB, and four live 1 MiB blocks, once freed, are trimmed and
        # fault in again (about 15,000 faults in 20 rounds)
        import resource  # Unix only, like glibc

        cli._fix_malloc_thresholds()
        np.ones(3 << 16)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            block = [np.ones(1 << 17) for _ in range(4)]
            del block
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 20 * 4 * 256 // 4

    def test_stage_releases_the_free_heap_when_its_block_completes(self, monkeypatch):
        calls = []

        def malloc_trim(pad):
            calls.append(pad)
            return 1

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(malloc_trim=malloc_trim))
        with cli.stage("ingest"):
            assert calls == []
        assert calls == [0]
        with pytest.raises(cli.StageError), cli.stage("ingest"):
            raise ValueError("bad row")
        assert calls == [0]

    @pytest.mark.parametrize("above, releases", [(0, 1), (1, 0)])
    def test_predict_releases_the_free_heap_after_loading_a_panel_at_the_mmap_threshold(
        self, trained_120, tmp_path, monkeypatch, above, releases
    ):
        data_dir, model_file = trained_120
        threshold = ingest.load_sales(data_dir / "sales.csv").y.nbytes + above
        monkeypatch.setattr(cli, "_fix_malloc_thresholds", lambda: None)  # this process's allocator stays as it is
        monkeypatch.setitem(cli.MALLOC_THRESHOLDS, cli.M_MMAP_THRESHOLD, threshold)
        events = []

        def recorded(name, function):
            def call(*args, **kwargs):
                events.append(name)
                return function(*args, **kwargs)
            return call

        for name in ("load_inputs", "preprocess_panel"):
            monkeypatch.setattr(cli, name, recorded(name, getattr(cli, name)))
        monkeypatch.setattr(cli, "_release_free_heap", lambda: events.append("release"))
        assert main(predict_args(data_dir, model_file, tmp_path / "out")) == 0
        assert events == ["load_inputs", *["release"] * releases, "preprocess_panel"]

    def test_c_library_without_malloc_trim_left_as_it_is(self, monkeypatch):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        with cli.stage("ingest"):
            pass

    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc" or not Path("/proc/self/statm").exists(),
        reason="glibc's malloc_trim, Linux's resident page count",
    )
    def test_freed_heap_pages_leave_resident_memory_at_the_stage_end(self):
        # sixteen 1 MiB blocks come from the heap (below the mmap threshold)
        # and, once freed, stay resident (below the trim threshold) until
        # the stage completes
        import mmap

        def resident_mib():
            return int(Path("/proc/self/statm").read_text().split()[1]) * mmap.PAGESIZE / 2**20

        cli._fix_malloc_thresholds()
        with cli.stage("features"):
            blocks = [np.ones(1 << 17) for _ in range(16)]
            del blocks
            held = resident_mib()
        assert resident_mib() < held - 8
