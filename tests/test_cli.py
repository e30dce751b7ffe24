import csv
import json
import random
import re
from pathlib import Path

import pytest

from demandcast.cli import build_parser, main
from demandcast.ingest import RunConfig, load_config

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


class TestPipeline:
    def test_run_twice_byte_identical(self, data_dir, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        config = config_file(tmp_path, "seed = 7")
        assert main(pipeline_args(data_dir, out1, config=config)) == 0
        assert main(pipeline_args(data_dir, out2, config=config)) == 0
        for name in ("predictions.csv", "report.csv", "model.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

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
        assert main(pipeline_args(data_dir, tmp_path / "out", config=config)) == 2
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
    "version": 1, "loss": "poisson", "base_score": 0.0, "learning_rate": 0.1,
    "best_round": 0, "feature_names": ["lag_0"], "trees": [],
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
        def cut_root(doc):
            doc["trees"][0][0] = doc["trees"][0][0][:3]

        code, model_file = self.predict_with_corrupt_model(data_dir, tmp_path / "model", cut_root)
        assert code == 2
        assert f"error: {model_file}: tree 0 node 0: expected 7 fields" in capsys.readouterr().err

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
            (2, "sideways", "default_left 'sideways' is not 0 or 1"),
            (6, "x", "gain 'x' is not a finite number"),
        ],
    )
    def test_bad_node_field_is_data_error(self, data_dir, tmp_path, capsys, field, value, message):
        def corrupt(doc):
            doc["trees"][-1][-1][field] = value  # the last node of the last tree

        out = tmp_path / "model"
        code, model_file = self.predict_with_corrupt_model(data_dir, out, corrupt)
        trees = json.loads(model_file.read_text())["trees"]
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {model_file}: tree {len(trees) - 1} node {len(trees[-1]) - 1}: {message}\n"
        )
        assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            "5",
            model_text(trees=5),
            model_text(trees=[5]),
            model_text(feature_names=5),
            "{not json",
            json.dumps({k: v for k, v in VALID_MODEL.items() if k != "loss"}),
            model_text(version=2),
            b"\xff{}",
            "[" * 100_000,  # exited 3 with json's RecursionError
        ],
        ids=[
            "list", "number", "trees-number", "tree-number", "feature-names-number",
            "invalid-json", "no-loss", "version-2", "not-utf-8", "deeply-nested",
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

    def test_scores_pipeline_predictions(self, data_dir, tmp_path):
        run = tmp_path / "run"
        assert main(pipeline_args(data_dir, run)) == 0
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
