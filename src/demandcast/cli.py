"""Command-line entry point.

Commands: synth, preprocess, train, predict, evaluate, and pipeline (the
full chain: data -> repair/smooth -> seasonality -> features -> boosted
model with early stopping -> test-window forecasts -> weighted report).

`run` is that chain on the input files, from loading them on, each stage
under `stage`, so an error names its stage; it writes nothing. `pipeline`
and `train` read their config and synthesize missing inputs in stages too,
call `run` and write their files from its RunResult, so a failed run
leaves no artifact; the acceptance study calls `run` on the files of its
synthetic panel. A run computes the split once (features.split_rows), in
part order, and takes the train, valid and test parts as slices of one
matrix over its rows; `predict` builds the rows of the products on sale in
the last week. The per-series ES reference reads the split's test keys and
each product's own history, not features. An empty test part, before or
after --cold-start-filter, fails in stage features, before any fit, and so
does an empty part that the model fits on (train for forest, train and
valid for gbt), naming its length setting and the horizon; `predict` fails
likewise when no product is on sale in the last week.

Forecast rows stay aligned arrays from the split to the report: their
product ids and target weeks, and the forecasts, go to the predictions
writer and to `score`, which checks every key against the panel, sorts the
rows into (product id, week) order once and passes aligned arrays to
evaluation.evaluate. `evaluate` reads its predictions file through
`ingest.load_predictions`, the block reader every input CSV goes through,
into the same three arrays, so a file's row order does not change its report.

Run settings come only from the --config file's RunConfig, so the config
that manifest.json records is the whole run's. `predict` takes its settings,
the categorical encoding and the seasonal model from the model file that
`train` or `pipeline` wrote, and refits nothing; a --config given to it
must agree with the settings the file stores, and its inputs must give the
model's feature columns, which it checks before it builds the matrix. Every
stage is a pure function of its inputs and that config, seed included;
running the same command twice produces byte-identical artifacts. Exit
codes: 0 success, 1 usage error, 2 data error, 3 internal error.

`main` fixes the C allocator's two thresholds where it is glibc's malloc
(_fix_malloc_thresholds). Left dynamic, glibc serves a request of its mmap
threshold or more with fresh pages, returns free heap above its trim
threshold to the system, and raises both as the process frees large
blocks. So whether the split search's chunk temporaries (up to 1 MiB,
gbt.SCRATCH_ELEMENTS) reuse heap pages or fault in new ones depended on
what the process had freed before: one reference-panel `train` took about
1,000 minor page faults in one process and 238,000 in another, with the
same inputs and code, for about 15% more time.

Each `stage` also hands the heap's free pages back to the system when its
block completes (_release_free_heap, glibc's malloc_trim). Free heap pages
otherwise stay resident, and whether a later (N, T) array (6.1 MiB on the
4,000-product benchmark panel, above the mmap threshold) fitted into them
or was mmapped depended on hash-seed and import-time allocations, so the
process's peak resident memory moved by that array's size from one run to
the next with the same inputs and code. After the release, a stage starts
from its live memory alone.

`predict` repairs and smooths the whole panel, then builds its matrix from
the forecast products' rows alone (_forecast_rows): those rows of the
repaired and smoothed panels and those products' entries of each mixed
covariate key, with every temporal key whole. A cell reads nothing but its
own product's rows and entries, the temporal keys and the model file, so
the matrix is byte for byte the whole panel's matrix at those rows, and
its trend windows and covariate lookups cover about 70 of the reference
panel's 500 products. The repair and smoothing are per product too, yet
they stay on the whole panel: the benchmark's tracer counts the repaired
and capped weeks of every preprocess_panel call and requires those counts
to agree across the `pipeline` and `predict` calls of one session, so
cutting the panel before preprocessing waits until the benchmark reads
the program's own record (ROADMAP item 15).

`predict` has no stages. It releases the free heap once, after loading its
inputs, when the panel's (N, T) arrays reach the mmap threshold. On the
4,000-product panel the loaders leave about 35 MiB of free heap resident,
and whether the repair's (N, T) arrays then reused it or were mmapped
differed from one call to the next in one process, so the peak of repeated
calls moved by more than one such array. Smaller arrays always come from
the heap and reuse its free pages in place; there a release only adds page
faults (13% more `predict` time on the 500-product panel, 2-core Xeon).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import evaluation, gbt, ingest, synth
from .baselines import ESBaseline
from .core import Catalog, SalesPanel
from .evaluation import EvalReport, evaluate, format_report, write_report
from .features import Encoding, build_matrix, fit_encoding, life_at_issue, matrix_columns, split_rows
from .ingest import CovariateTable, RunConfig, SchemaError
from .preprocess import (
    SmoothedPanel, detect_fake_zeros, preprocess_panel, repair_fake_zeros, smooth_panel, write_smoothed,
)
from .seasonal import SeasonalityModel, fit_seasonality, write_seasonality

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

# synth's options and the SynthSpec field each sets
SYNTH_OPTIONS = {
    "--products": "n_products", "--categories": "n_categories", "--weeks": "n_weeks", "--seed": "seed"
}

# the split parts each model fits on (0 train, 1 valid); es fits nothing
FITTED_PARTS = {"gbt": (0, 1), "forest": (0,)}

# SchemaError is a ValueError
DATA_ERRORS = (ValueError, FileNotFoundError, KeyError)

# glibc mallopt parameters and the values main sets: requests below 4 MiB
# come from the heap, and up to 32 MiB of free heap is kept for reuse
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_THRESHOLDS = {M_MMAP_THRESHOLD: 4 << 20, M_TRIM_THRESHOLD: 32 << 20}


def _fix_malloc_thresholds() -> None:
    """Set MALLOC_THRESHOLDS through mallopt, which also stops glibc from
    moving them; a C library without mallopt is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no mallopt, or no C library handle
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for parameter, value in MALLOC_THRESHOLDS.items():
        mallopt(parameter, value)


def _release_free_heap() -> None:
    """Return the heap's free pages to the system through malloc_trim; a C
    library without malloc_trim is left as it is."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):  # no malloc_trim, or no C library handle
        return
    trim.argtypes, trim.restype = (ctypes.c_size_t,), ctypes.c_int
    trim(0)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class StageError(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.cause = cause


@contextmanager
def stage(name: str):
    """Re-raise an error of the block as a StageError naming the stage;
    release the free heap once the block completes."""
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc
    _release_free_heap()


def _load_config(path: str | None) -> RunConfig:
    return RunConfig() if path is None else ingest.load_config(path)


def _write_predictions(
    pids: np.ndarray, weeks: np.ndarray, forecasts: np.ndarray, path: Path
) -> None:
    """Write forecasts[k] for (pids[k], weeks[k]) in (product id, week) order."""
    order = np.lexsort((weeks, pids))
    ingest.write_csv(
        path, ["product_id", "week", "forecast"], [pids[order], weeks[order], forecasts[order]]
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


def forecast_es(
    pids: np.ndarray, weeks: np.ndarray, repaired: SalesPanel, catalog: Catalog, config: RunConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per-series ES forecasts for target weeks[k] of pids[k], each issued horizon weeks before.

    Returns (forecasts, per-row flags of the category-mean fallback).
    """
    baseline = ESBaseline(repaired, catalog, train_end=config.train_len)
    forecasts = np.empty(len(pids))
    fallback = np.zeros(len(pids), dtype=bool)
    issued = (weeks - config.horizon).tolist()
    for idx, (pid, t) in enumerate(zip(pids, issued)):
        forecasts[idx], fallback[idx] = baseline.forecast(pid, t)
    return forecasts, fallback


def score(
    pids: np.ndarray, weeks: np.ndarray, forecasts: np.ndarray,
    repaired: SalesPanel,
    catalog: Catalog,
    config: RunConfig,
    source: str = "predictions",
) -> EvalReport:
    """Price-weighted report of forecasts[k] for (pids[k], weeks[k]) against repaired actuals.

    Rows are scored in (product id, week) order, whatever order they come
    in; each row's life_at_issue buckets it. A key without an actual is an
    error naming source and the line of its row, counted as in a predictions
    file: the header is line 1, row k is line k + 2.
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
    prices = np.array([catalog.price[pid] for pid in repaired.products])
    labels = evaluation.segment_products(repaired, prices, config.train_len)
    return evaluate(
        repaired.y[rows, weeks].astype(float), forecasts[order], prices[rows], labels[rows],
        life_at_issue(repaired.on_sale_mask, rows, weeks, config.horizon),
    )


@dataclass
class RunResult:
    """What `run` computed for `pipeline` and `train` to write, and nothing
    else. The test keys (product ids, target weeks) and their forecasts are
    those the cold-start filter keeps, in the split's order; counts holds the
    split's row counts and the model's manifest details. The acceptance
    study checks this same result, and rebuilds the repaired panel it scores
    against from the run's own input files."""

    seasonal: SeasonalityModel | None
    encoding: Encoding | None  # None for es
    model: gbt.TreeEnsemble | None  # None for es
    pids: np.ndarray
    weeks: np.ndarray
    forecasts: np.ndarray
    report: EvalReport
    counts: dict


def run(
    config: RunConfig, sources: tuple[str, str, str | None],
    model_kind: str = "gbt", forest_trees: int = 100, cold_start_filter: int = 0,
) -> RunResult:
    """Load the (sales, catalog, covariates) files of sources, then
    preprocess, fit and score one model (gbt, forest or es); writes nothing,
    returns only what `pipeline` and `train` write (the acceptance study
    checks the same RunResult) and raises StageError naming the stage. Both
    tree models forecast through gbt.predict, which checks the feature
    schema and that every forecast is finite.

    Each stage's panel is dropped once its last reader is done. run alone
    holds the loaded panel, which only the repair reads, so the preprocess
    stage frees it. The smoothed panel (x and its capped mask) is read by
    the seasonal fit and the feature matrix only, so the features stage
    drops it before gbt.train, train_forest or forecast_es runs. The
    fake-zero mask and the rolling statistics are not kept: only the
    `preprocess` command, which writes them out, holds them."""
    with stage("ingest"):
        panel, catalog, covariates = load_inputs(*sources)
    with stage("preprocess"):
        repaired, smoothed = preprocess_panel(panel, config.smooth_window, config.cap_gamma)
        del panel
    with stage("seasonal"):
        seasonal = None  # category seasonality fitted on the training weeks, when enabled
        if config.with_seasonality:
            seasonal = fit_seasonality(
                smoothed, repaired, catalog, config.season_period,
                config.n_patterns, config.seed, config.train_len,
            )
    with stage("features"):
        rows, issued, bounds = split_rows(repaired.on_sale_mask, config)
        parts = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        test = parts[2]
        weeks = issued[test] + config.horizon
        # known with the split's keys, so an empty test part fails before any fit
        life = life_at_issue(repaired.on_sale_mask, rows[test], weeks, config.horizon)
        keep = life >= cold_start_filter
        if not keep.any():
            first = config.train_len + config.valid_len
            span = f"target weeks {first}-{first + config.test_len - 1}"
            raise ValueError(
                f"--cold-start-filter {cold_start_filter} leaves none of the "
                f"{keep.size} test rows for {span}"
                if keep.size
                else f"no test rows for {span}: no product is on sale at their issue weeks"
            )
        for k in FITTED_PARTS.get(model_kind, ()):
            if bounds[k] == bounds[k + 1]:
                noun, name = ("training", "train_len") if k == 0 else ("validation", "valid_len")
                first, h = (0 if k == 0 else config.train_len), config.horizon
                last = first + getattr(config, name) - 1
                raise ValueError(
                    f"no {noun} rows for target weeks {first}-{last} ({name} "
                    f"{getattr(config, name)}): no product is on sale at their issue weeks "
                    f"{first - h} to {last - h} (horizon {h})"
                )
        pids = np.array(repaired.products, dtype=object)[rows[test]]
        encoding = None
        if model_kind != "es":
            encoding = fit_encoding(catalog, config)
            full = build_matrix(
                repaired, smoothed, catalog, seasonal, covariates, config, rows, issued, encoding
            )
            train_rows, valid_rows, test_rows = (full.select(part) for part in parts)
        del smoothed  # nothing after the features reads it: free x and its masks before the fit
    with stage("train"):
        if model_kind == "gbt":
            model = gbt.train(train_rows, config, valid_rows)
            details = {"best_round": model.best_round, "rounds_run": len(model.trees)}
        elif model_kind == "forest":
            max_depth = min(config.max_depth * 4, 64)
            model = gbt.train_forest(train_rows, forest_trees, max_depth, config.seed)
            details = {"n_trees": forest_trees}
        else:
            model = None
            forecasts, fallback = forecast_es(pids, weeks, repaired, catalog, config)
            details = {"es_fallback_rows": int(fallback.sum())}
        if model is not None:
            forecasts = gbt.predict(model, test_rows)
    with stage("evaluate"):
        # after the fit: the ES fallback count covers every test row
        pids, weeks, forecasts = pids[keep], weeks[keep], forecasts[keep]
        report = score(pids, weeks, forecasts, repaired, catalog, config)

    counts = {"train_rows": bounds[1], "valid_rows": bounds[2] - bounds[1],
              "test_rows": len(pids), **details}
    return RunResult(seasonal, encoding, model, pids, weeks, forecasts, report, counts)


def _run_inputs(args) -> tuple[RunConfig, Path, tuple]:
    """A run command's config, created --out-dir and (sales, catalog,
    covariates) paths, synthesized into --out-dir when --sales is not given."""
    with stage("config"):
        config = _load_config(args.config)
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
    with stage("synth"):
        sources = (args.sales, args.catalog, args.covariates)
        if args.sales is None:
            sources = write_synth(synth.SynthSpec(seed=config.seed), out)
    return config, out, sources


def cmd_synth(args) -> int:
    spec = synth.SynthSpec(**{name: getattr(args, name) for name in SYNTH_OPTIONS.values()})
    out = Path(args.out_dir)
    write_synth(spec, out)
    print(f"wrote synthetic panel ({spec.n_products} products, {spec.n_weeks} weeks) to {out}")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    config = _load_config(args.config)
    panel = ingest.load_sales(args.sales)
    # the dump alone writes the fake-zero mask and the rolling statistics out,
    # so it alone keeps them
    mask = detect_fake_zeros(panel)
    repaired = repair_fake_zeros(panel, mask)
    statistics = (np.empty(panel.y.shape), np.empty(panel.y.shape))
    smoothed = smooth_panel(repaired, config.smooth_window, config.cap_gamma, statistics)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_smoothed(repaired, smoothed, mask, statistics, out / "smoothed.csv")
    print(
        f"repaired {int(mask.sum())} weeks, "
        f"capped {int(smoothed.capped_mask.sum())}; wrote {out / 'smoothed.csv'}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    config, out, sources = _run_inputs(args)
    result = run(config, sources)
    booster, counts = result.model, result.counts
    del counts["test_rows"]  # train writes no forecast
    with stage("write"):
        state = gbt.ServingState.of(config, result.encoding, result.seasonal)
        gbt.save_model(booster, state, out / "model.json")
        manifest = {"config": asdict(config), **counts}
        (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2))
    print(f"trained {len(booster.trees)} rounds, best_round={booster.best_round}")
    return EXIT_OK


def _check_config(config: RunConfig, state: gbt.ServingState, args) -> None:
    """predict's --config must give every setting the model file stores the
    value training gave it; predict reads no setting from the config."""
    trained = state.config()
    names = [*gbt.SERVING_SETTINGS, "encoding"]
    if trained.encoding == "hashing":
        names.append("hash_buckets")
    for name in names:
        given, stored = getattr(config, name), getattr(trained, name)
        if given != stored:
            raise SchemaError(
                f"{args.config}: {name} = {given!r}, but {args.model_file} was trained "
                f"with {name} = {stored!r}"
            )


def _check_columns(booster: gbt.TreeEnsemble, catalog, covariates, config: RunConfig, args) -> None:
    """The inputs must give the model's feature columns. Checked before any
    matrix is built; the error names the model file and each extra or
    missing column with the input it comes from."""
    columns, trained = matrix_columns(catalog, covariates, config), booster.feature_names
    if columns == trained:
        return

    def named(column: str) -> str:
        if column.startswith("attr_"):
            return f"{column!r} (catalog column {column[5:]!r}, --catalog {args.catalog})"
        if column.startswith("cov_"):
            path = args.covariates or "not given"
            return f"{column!r} (covariate key {column[4:]!r}, --covariates {path})"
        return repr(column)

    made, used = set(columns), set(trained)
    faults = [f"extra {named(c)}" for c in columns if c not in used]
    faults += [f"missing {named(c)}" for c in trained if c not in made]
    raise SchemaError(
        f"{args.model_file}: the inputs' feature columns differ from the model's: "
        + ("; ".join(faults) or f"the same columns in another order, {columns}")
    )


def _forecast_rows(
    rows: np.ndarray, repaired: SalesPanel, smoothed: SmoothedPanel, covariates: CovariateTable | None
) -> tuple[SalesPanel, SmoothedPanel, CovariateTable | None]:
    """The panels and the covariate table cut to the ascending panel rows
    `rows`, which become rows 0 to len(rows) - 1."""
    products = tuple(map(repaired.products.__getitem__, rows.tolist()))
    panel = SalesPanel(products, repaired.y[rows], repaired.on_sale_mask[rows], repaired.stock_flag[rows])
    smoothed = SmoothedPanel(smoothed.x[rows], smoothed.capped_mask[rows])
    return panel, smoothed, None if covariates is None else covariates.take_rows(rows)


def cmd_predict(args) -> int:
    given = None if args.config is None else ingest.load_config(args.config)
    booster, state = gbt.load_model(args.model_file)
    if given is not None:
        _check_config(given, state, args)
    config = state.config()
    panel, catalog, covariates = load_inputs(args.sales, args.catalog, args.covariates)
    if panel.y.nbytes >= MALLOC_THRESHOLDS[M_MMAP_THRESHOLD]:  # see the module docstring
        _release_free_heap()
    _check_columns(booster, catalog, covariates, config, args)
    rows = np.flatnonzero(panel.on_sale_mask[:, -1])  # the products on sale in the last week
    if not rows.size:
        raise ValueError(
            f"nothing to forecast: no product is on sale in week {panel.n_weeks - 1}, "
            "the last week of the panel"
        )
    repaired, smoothed = preprocess_panel(panel, config.smooth_window, config.cap_gamma)
    del panel  # only the repair reads the loaded counts
    # the whole panels and table are freed here: the features read only these rows
    repaired, smoothed, covariates = _forecast_rows(rows, repaired, smoothed, covariates)
    matrix = build_matrix(
        repaired, smoothed, catalog, state.seasonal, covariates, config,
        np.arange(rows.size), np.full(rows.size, repaired.n_weeks - 1), state.encoding,
    )
    del smoothed  # freed before the forecast, as in run
    forecasts = gbt.predict(booster, matrix, args.model_file)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_predictions(matrix.product_ids, matrix.target_weeks, forecasts, out / "predictions.csv")
    print(f"wrote {matrix.n_rows} forecasts to {out / 'predictions.csv'}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _load_config(args.config)
    pids, weeks, forecasts = ingest.load_predictions(args.predictions)
    panel, catalog, _ = load_inputs(args.sales, args.catalog, None)
    repaired = repair_fake_zeros(panel, detect_fake_zeros(panel))
    report = score(pids, weeks, forecasts, repaired, catalog, config, args.predictions)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_report(report, out / "report.csv")
    print(format_report(report))
    return EXIT_OK


def cmd_pipeline(args) -> int:
    config, out, sources = _run_inputs(args)
    result = run(config, sources, args.model_kind, args.forest_trees, args.cold_start_filter)
    with stage("write"):
        if result.seasonal is not None:
            write_seasonality(result.seasonal, out / "seasonality.csv")
        if args.model_kind == "gbt":
            state = gbt.ServingState.of(config, result.encoding, result.seasonal)
            gbt.save_model(result.model, state, out / "model.json")
        _write_predictions(result.pids, result.weeks, result.forecasts, out / "predictions.csv")
        write_report(result.report, out / "report.csv")
        manifest = {
            "config": asdict(config),
            "model": args.model_kind,
            "cold_start_filter": args.cold_start_filter,
            **result.counts,
        }
        (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2))
    title = f"model={args.model_kind} test rows={len(result.pids)}"
    print(format_report(result.report, title=title))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="demandcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic panel")
    p_synth.add_argument("--out-dir", required=True)
    for flag, name in SYNTH_OPTIONS.items():
        p_synth.add_argument(flag, dest=name, type=int, default=getattr(synth.SynthSpec, name))
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
    _fix_malloc_thresholds()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "pipeline" and (args.sales is None) != (args.catalog is None):
        parser.error("--sales and --catalog must be given together")
    if args.command == "pipeline" and args.covariates is not None and args.sales is None:
        parser.error("--covariates needs --sales and --catalog")
    if args.command == "pipeline" and args.forest_trees < 1:
        parser.error(f"--forest-trees must be >= 1, got {args.forest_trees}")
    if args.command == "pipeline" and args.cold_start_filter < 0:
        parser.error(f"--cold-start-filter must be >= 0, got {args.cold_start_filter}")
    if args.command == "synth":
        for flag, name in SYNTH_OPTIONS.items():
            low, value = synth.MINIMUMS[name], getattr(args, name)
            if value < low:
                parser.error(f"{flag} must be >= {low}, got {value}")
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
