"""Command-line entry point.

Commands: synth, preprocess, train, predict, evaluate, and pipeline (the
full chain: data -> repair/smooth -> seasonality -> features -> boosted
model with early stopping -> test-window forecasts -> weighted report).

Each stage of that chain is one function here (`write_synth`,
`load_inputs`, `preprocess`, `fit_seasonal`, `split_matrices`,
`fit_forecast` with `fit_boosted` and `forecast_es`, `score`), and every
command that runs a stage calls it; the acceptance study calls the same
functions on its in-memory panel.

Forecast rows stay aligned arrays from the feature matrix to the report:
the matrix's product ids and target weeks, and the forecasts, go to the
predictions writer and to `score`, which checks every key against the
panel, sorts the rows into (product id, week) order once and passes aligned
arrays to evaluation.evaluate. `evaluate` reads its predictions file through
`ingest.load_predictions`, the block reader every input CSV goes through,
into the same three arrays, so a file's row order does not change its report.

Run settings come only from the --config file's RunConfig, so the config
that manifest.json records is the whole run's. Every stage is a pure
function of its inputs and that config, seed included; running the same
command twice produces byte-identical artifacts. Exit codes: 0 success,
1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import evaluation, gbt, ingest, synth
from .baselines import ESBaseline
from .core import Catalog, SalesPanel, weeks_on_sale
from .evaluation import EvalReport, evaluate, format_report, write_report
from .features import FeatureMatrix, build_matrix
from .ingest import CovariateTable, RunConfig, SchemaError
from .preprocess import SmoothedPanel, preprocess_panel, write_smoothed
from .seasonal import SeasonalityModel, fit_seasonality, write_seasonality

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

# SchemaError is a ValueError
DATA_ERRORS = (ValueError, FileNotFoundError, KeyError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class StageError(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.cause = cause


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        config = RunConfig()
        config.validate()
        return config
    return ingest.load_config(path)


def _write_predictions(
    pids: np.ndarray, weeks: np.ndarray, forecasts: np.ndarray, path: Path
) -> None:
    """Write forecasts[k] for (pids[k], weeks[k]) in (product id, week) order."""
    order = np.lexsort((weeks, pids))
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["product_id", "week", "forecast"])
        writer.writerows(
            zip(pids[order], weeks[order].tolist(), map(repr, forecasts[order].tolist()))
        )


def write_synth(spec: synth.SynthSpec, out: Path) -> tuple[str, str, str]:
    """Generate a synthetic panel into out; returns the sales, catalog and covariates paths."""
    panel, catalog, covariates, truth = synth.generate_panel(spec)
    out.mkdir(parents=True, exist_ok=True)
    ingest.write_sales(panel, out / "sales.csv")
    ingest.write_catalog(catalog, out / "catalog.csv")
    ingest.write_covariates(covariates, out / "covariates.csv")
    synth.write_ground_truth(truth, panel, out / "ground_truth.csv")
    synth.write_ground_truth_curves(truth, out / "ground_truth_curves.csv")
    return str(out / "sales.csv"), str(out / "catalog.csv"), str(out / "covariates.csv")


def load_inputs(
    sales_path: str, catalog_path: str, covariates_path: str | None
) -> tuple[SalesPanel, Catalog, CovariateTable | None]:
    """Load the sales panel, a catalog covering it, and the optional covariates."""
    panel = ingest.load_sales(sales_path)
    catalog = ingest.load_catalog(catalog_path)
    catalog.validate_covers(panel)
    covariates = ingest.load_covariates(covariates_path, panel) if covariates_path else None
    return panel, catalog, covariates


def preprocess(panel: SalesPanel, config: RunConfig) -> tuple[SalesPanel, SmoothedPanel]:
    """Repair fake zeros and cap spikes; returns (repaired, smoothed)."""
    return preprocess_panel(panel, config.smooth_window, config.cap_gamma)


def fit_seasonal(
    smoothed: SmoothedPanel, repaired: SalesPanel, catalog: Catalog, config: RunConfig
) -> SeasonalityModel | None:
    """Category seasonality fitted on the training weeks; None when disabled."""
    if not config.with_seasonality:
        return None
    return fit_seasonality(
        smoothed, repaired, catalog, config.season_period,
        config.n_patterns, config.seed, end_week=config.train_len,
    )


def split_matrices(
    repaired: SalesPanel,
    smoothed: SmoothedPanel,
    catalog: Catalog,
    seasonal: SeasonalityModel | None,
    covariates: CovariateTable | None,
    config: RunConfig,
) -> tuple[FeatureMatrix, FeatureMatrix, FeatureMatrix]:
    """One global matrix over the split's weeks, cut by target week into (train, valid, test).

    Target weeks [0, train_len) train, the next valid_len weeks validate and
    the test_len weeks after those test.
    """
    valid_start = config.train_len
    test_start = valid_start + config.valid_len
    test_end = test_start + config.test_len
    if test_end > repaired.n_weeks:
        raise ValueError(f"split needs {test_end} weeks but panel has {repaired.n_weeks}")
    full = build_matrix(
        repaired, smoothed, catalog, seasonal, covariates, config,
        t_end=test_end - 1 - config.horizon, mode="train",
    )
    target = full.target_weeks
    return (
        full.select(target < valid_start),
        full.select((target >= valid_start) & (target < test_start)),
        full.select(target >= test_start),
    )


def forecast_es(
    rows: FeatureMatrix, repaired: SalesPanel, catalog: Catalog, config: RunConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per-series ES forecasts for the rows, each issued horizon weeks before its target.

    Returns (forecasts, per-row flags of the category-mean fallback).
    """
    baseline = ESBaseline(repaired, catalog, train_end=config.train_len)
    forecasts = np.empty(rows.n_rows)
    fallback = np.zeros(rows.n_rows, dtype=bool)
    issued = (rows.target_weeks - config.horizon).tolist()
    for idx, (pid, t) in enumerate(zip(rows.product_ids, issued)):
        forecasts[idx], fallback[idx] = baseline.forecast(pid, t)
    return forecasts, fallback


def fit_boosted(
    train_rows: FeatureMatrix, valid_rows: FeatureMatrix, config: RunConfig
) -> tuple[gbt.BoostedModel, dict]:
    """Boosted model early-stopped on the valid rows, with its manifest details."""
    booster = gbt.train(train_rows, config, valid_rows)
    return booster, {"best_round": booster.best_round, "rounds_run": len(booster.trees)}


def fit_forecast(
    kind: str,
    forest_trees: int,
    config: RunConfig,
    train_rows: FeatureMatrix,
    valid_rows: FeatureMatrix,
    test_rows: FeatureMatrix,
    repaired: SalesPanel,
    catalog: Catalog,
) -> tuple[np.ndarray, gbt.BoostedModel | None, dict]:
    """Fit the requested model and forecast the test rows.

    forest_trees is read only by kind "forest". Returns (per-row forecasts,
    fitted booster or None, manifest details).
    """
    if kind == "gbt":
        booster, details = fit_boosted(train_rows, valid_rows, config)
        return gbt.predict(booster, test_rows), booster, details
    if kind == "forest":
        max_depth = min(config.max_depth * 4, 64)
        forest = gbt.train_forest(train_rows, forest_trees, max_depth, config.seed)
        return forest.predict_array(test_rows.X), None, {"n_trees": forest_trees}
    if kind == "es":
        forecasts, fallback = forecast_es(test_rows, repaired, catalog, config)
        return forecasts, None, {"es_fallback_rows": int(fallback.sum())}
    raise ValueError(f"unknown model kind {kind!r}")


def score(
    pids: np.ndarray, weeks: np.ndarray, forecasts: np.ndarray,
    repaired: SalesPanel,
    catalog: Catalog,
    config: RunConfig,
    source: str = "predictions",
) -> EvalReport:
    """Price-weighted report of forecasts[k] for (pids[k], weeks[k]) against repaired actuals.

    Rows are scored in (product id, week) order, whatever order they come
    in. A forecast for week w was issued at week w - horizon; the product's
    life at that week buckets the row (0 when issued before the panel began).
    A key without an actual is an error naming source and the line of its
    row, counted as in a predictions file: the header is line 1, row k is
    line k + 2.
    """
    rows = np.array([repaired.index.get(pid, -1) for pid in pids], dtype=np.int64)
    unknown = (rows < 0) | (weeks < 0) | (weeks >= repaired.n_weeks)
    if unknown.any():
        k = int(np.argmax(unknown))
        raise SchemaError(
            f"{source}:{k + 2}: prediction key ({pids[k]!r}, {weeks[k]}) has no actual in the panel"
        )
    order = np.lexsort((weeks, pids))
    rows, weeks = rows[order], weeks[order]
    issued = weeks - config.horizon
    life_so_far = weeks_on_sale(repaired.on_sale_mask)[rows, np.maximum(issued, 0)]
    segments = evaluation.segment_products(repaired, catalog, train_end=config.train_len)
    prices = np.array([catalog.price[pid] for pid in repaired.products])
    labels = np.array([segments[pid] for pid in repaired.products])
    return evaluate(
        repaired.y[rows, weeks].astype(float), forecasts[order], prices[rows], labels[rows],
        np.where(issued >= 0, life_so_far, 0),
    )


def cmd_synth(args) -> int:
    spec = synth.SynthSpec(
        n_products=args.products,
        n_categories=args.categories,
        n_weeks=args.weeks,
        seed=args.seed,
    )
    out = Path(args.out_dir)
    write_synth(spec, out)
    print(f"wrote synthetic panel ({spec.n_products} products, {spec.n_weeks} weeks) to {out}")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    config = _load_config(args.config)
    repaired, smoothed = preprocess(ingest.load_sales(args.sales), config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_smoothed(repaired, smoothed, out / "smoothed.csv")
    print(
        f"repaired {int(smoothed.repaired_mask.sum())} weeks, "
        f"capped {int(smoothed.capped_mask.sum())}; wrote {out / 'smoothed.csv'}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    config = _load_config(args.config)
    panel, catalog, covariates = load_inputs(args.sales, args.catalog, args.covariates)
    repaired, smoothed = preprocess(panel, config)
    seasonal = fit_seasonal(smoothed, repaired, catalog, config)
    train_rows, valid_rows, _ = split_matrices(
        repaired, smoothed, catalog, seasonal, covariates, config
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    booster, details = fit_boosted(train_rows, valid_rows, config)
    gbt.save_model(booster, out / "model.json")
    manifest = {
        "config": asdict(config),
        "train_rows": train_rows.n_rows,
        "valid_rows": valid_rows.n_rows,
        **details,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2))
    print(f"trained {len(booster.trees)} rounds, best_round={booster.best_round}")
    return EXIT_OK


def cmd_predict(args) -> int:
    config = _load_config(args.config)
    booster = gbt.load_model(args.model_file)
    panel, catalog, covariates = load_inputs(args.sales, args.catalog, args.covariates)
    repaired, smoothed = preprocess(panel, config)
    seasonal = fit_seasonal(smoothed, repaired, catalog, config)
    matrix = build_matrix(
        repaired, smoothed, catalog, seasonal, covariates, config,
        t_end=panel.n_weeks - 1, mode="predict",
    )
    forecasts = gbt.predict(booster, matrix)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_predictions(matrix.product_ids, matrix.target_weeks, forecasts, out / "predictions.csv")
    print(f"wrote {matrix.n_rows} forecasts to {out / 'predictions.csv'}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _load_config(args.config)
    pids, weeks, forecasts = ingest.load_predictions(args.predictions)
    panel, catalog, _ = load_inputs(args.sales, args.catalog, None)
    repaired, _ = preprocess(panel, config)
    report = score(pids, weeks, forecasts, repaired, catalog, config, args.predictions)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_report(report, out / "report.csv")
    print(format_report(report))
    return EXIT_OK


def cmd_pipeline(args) -> int:
    stage = "config"
    try:
        config = _load_config(args.config)
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)

        stage = "synth"
        sources = (args.sales, args.catalog, args.covariates)
        if args.sales is None:
            sources = write_synth(synth.SynthSpec(seed=config.seed), out)

        stage = "ingest"
        panel, catalog, covariates = load_inputs(*sources)

        stage = "preprocess"
        repaired, smoothed = preprocess(panel, config)

        stage = "seasonal"
        seasonal = fit_seasonal(smoothed, repaired, catalog, config)
        if seasonal is not None:
            write_seasonality(seasonal, out / "seasonality.csv")

        stage = "features"
        train_rows, valid_rows, test_rows = split_matrices(
            repaired, smoothed, catalog, seasonal, covariates, config
        )

        stage = "train"
        forecasts, booster, details = fit_forecast(
            args.model_kind, args.forest_trees, config,
            train_rows, valid_rows, test_rows, repaired, catalog,
        )
        if booster is not None:
            gbt.save_model(booster, out / "model.json")

        stage = "predict"
        if args.cold_start_filter > 0:
            keep = test_rows.life_at_forecast >= args.cold_start_filter
            test_rows = test_rows.select(keep)
            forecasts = forecasts[keep]
        keys = (test_rows.product_ids, test_rows.target_weeks)
        _write_predictions(*keys, forecasts, out / "predictions.csv")

        stage = "evaluate"
        report = score(*keys, forecasts, repaired, catalog, config)
        write_report(report, out / "report.csv")

        manifest = {
            "config": asdict(config),
            "model": args.model_kind,
            "cold_start_filter": args.cold_start_filter,
            "train_rows": train_rows.n_rows,
            "valid_rows": valid_rows.n_rows,
            "test_rows": test_rows.n_rows,
            **details,
        }
        (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2))
        print(format_report(report, title=f"model={args.model_kind} test rows={test_rows.n_rows}"))
        return EXIT_OK
    except Exception as exc:
        raise StageError(stage, exc) from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="demandcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic panel")
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--products", type=int, default=500)
    p_synth.add_argument("--categories", type=int, default=20)
    p_synth.add_argument("--weeks", type=int, default=200)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(func=cmd_synth)

    p_pre = sub.add_parser("preprocess", help="repair fake zeros and smooth spikes")
    p_pre.add_argument("--sales", required=True)
    p_pre.add_argument("--config")
    p_pre.add_argument("--out-dir", required=True)
    p_pre.set_defaults(func=cmd_preprocess)

    p_train = sub.add_parser("train", help="train the boosted model")
    p_train.add_argument("--sales", required=True)
    p_train.add_argument("--catalog", required=True)
    p_train.add_argument("--covariates")
    p_train.add_argument("--config")
    p_train.add_argument("--out-dir", required=True)
    p_train.set_defaults(func=cmd_train)

    p_predict = sub.add_parser("predict", help="forecast h weeks past the panel end")
    p_predict.add_argument("--model-file", required=True)
    p_predict.add_argument("--sales", required=True)
    p_predict.add_argument("--catalog", required=True)
    p_predict.add_argument("--covariates")
    p_predict.add_argument("--config")
    p_predict.add_argument("--out-dir", required=True)
    p_predict.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("evaluate", help="score a predictions file")
    p_eval.add_argument("--predictions", required=True)
    p_eval.add_argument("--sales", required=True)
    p_eval.add_argument("--catalog", required=True)
    p_eval.add_argument("--config")
    p_eval.add_argument("--out-dir", required=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_pipe = sub.add_parser("pipeline", help="run the full chain end to end")
    p_pipe.add_argument("--config")
    p_pipe.add_argument("--sales")
    p_pipe.add_argument("--catalog")
    p_pipe.add_argument("--covariates")
    p_pipe.add_argument("--out-dir", required=True)
    p_pipe.add_argument("--model", dest="model_kind", choices=("gbt", "forest", "es"), default="gbt")
    p_pipe.add_argument("--forest-trees", type=int, default=100)
    p_pipe.add_argument("--cold-start-filter", type=int, default=0)
    p_pipe.set_defaults(func=cmd_pipeline)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "pipeline" and (args.sales is None) != (args.catalog is None):
        parser.error("--sales and --catalog must be given together")
    if args.command == "pipeline" and args.forest_trees < 1:
        parser.error(f"--forest-trees must be >= 1, got {args.forest_trees}")
    if args.command == "pipeline" and args.cold_start_filter < 0:
        parser.error(f"--cold-start-filter must be >= 0, got {args.cold_start_filter}")
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - last-resort diagnostic
        staged = isinstance(exc, StageError)
        data_error = isinstance(exc.cause if staged else exc, DATA_ERRORS)
        if staged:
            print(f"error in {exc}", file=sys.stderr)
        else:
            print(f"{'error' if data_error else 'internal error'}: {exc}", file=sys.stderr)
        return EXIT_DATA if data_error else EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
