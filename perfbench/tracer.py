"""In-memory span tracer around demandcast's layer boundaries.

`install` replaces the public functions that the CLI reaches through module
globals with wrappers that record one span per call (name, start, end,
parent) plus the work the call did. Nothing under ``src/`` changes; the
wrappers live only in the benchmark's process and `Tracer.restore` puts the
originals back. Spans stay in memory until `write_spans` dumps them.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (metric name, unit) in report order; `layer_metrics` emits exactly these.
LAYER_METRICS = [
    ("ingest.load_s", "s"),
    ("ingest.rows", "count"),
    ("ingest.us_per_row", "us"),
    ("preprocess.detect_s", "s"),
    ("preprocess.repair_s", "s"),
    ("preprocess.smooth_s", "s"),
    ("preprocess.smooth_ns_per_cell", "ns"),
    ("preprocess.repaired_weeks", "count"),
    ("preprocess.capped_weeks", "count"),
    ("seasonal.fit_s", "s"),
    ("seasonal.categories", "count"),
    ("features.build_s", "s"),
    ("features.rows", "count"),
    ("features.us_per_row", "us"),
    ("features.trend_s", "s"),
    ("features.trend_calls", "count"),
    ("gbt.train_s", "s"),
    ("gbt.rounds", "count"),
    ("gbt.best_round", "count"),
    ("gbt.wasted_round_share", "share"),
    ("gbt.fit_tree_s", "s"),
    ("gbt.fit_tree_self_s", "s"),
    ("gbt.nodes_per_tree", "count"),
    ("gbt.best_split_calls", "count"),
    ("gbt.best_split_us", "us"),
    ("gbt.split_found_share", "share"),
    ("gbt.apply_rows", "count"),
    ("gbt.apply_ns_per_row", "ns"),
    ("gbt.model_io_s", "s"),
    ("baselines.es_s", "s"),
    ("baselines.es_rows", "count"),
    ("baselines.es_us_per_row", "us"),
    ("baselines.grid_select_calls", "count"),
    ("baselines.fallback_share", "share"),
    ("evaluation.evaluate_s", "s"),
    ("evaluation.rows", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
]

# Counts that must repeat exactly between runs of one panel.
STABLE_COUNTS = (
    "ingest.rows",
    "preprocess.repaired_weeks",
    "preprocess.capped_weeks",
    "features.rows",
    "gbt.rounds",
    "gbt.best_round",
    "gbt.best_split_calls",
    "baselines.grid_select_calls",
)

_INGEST_CSV = ("load_sales", "load_catalog", "load_covariates")


class Tracer:
    """Spans of one traced session, kept in memory.

    A span is (name, start, end, parent index); parent -1 marks a root.
    `counts` sums work over calls; `facts` keeps one value per call for
    quantities every call must agree on (weeks repaired, rounds run, ...).
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.facts: dict[str, list[int]] = defaultdict(list)
        self.files: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, self._stack[-1] if self._stack else -1)

    @contextmanager
    def span(self, name: str):
        idx = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr by a traced wrapper; observe(tracer, args, result)."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            idx = self._open()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx, name, start)
            if observe is not None:
                observe(self, args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer, dc) -> None:
    """Wrap every layer boundary the CLI calls; dc holds demandcast's modules."""
    for fn in _INGEST_CSV:
        tracer.wrap(dc.ingest, fn, f"ingest.{fn}", lambda t, a, r: t.files.append(str(a[0])))
    tracer.wrap(dc.ingest, "load_config", "ingest.load_config")

    tracer.wrap(dc.cli, "preprocess_panel", "cli.preprocess_panel")
    tracer.wrap(
        dc.preprocess, "detect_fake_zeros", "preprocess.detect_fake_zeros",
        lambda t, a, r: t.facts["repaired_weeks"].append(int(r.sum())),
    )
    tracer.wrap(dc.preprocess, "repair_fake_zeros", "preprocess.repair_fake_zeros")

    def smoothed(t, a, r):
        t.facts["capped_weeks"].append(int(r.capped_mask.sum()))
        t.counts["smooth_cells"] += r.x.size

    tracer.wrap(dc.preprocess, "smooth_panel", "preprocess.smooth_panel", smoothed)
    tracer.wrap(
        dc.cli, "fit_seasonality", "cli.fit_seasonality",
        lambda t, a, r: t.facts["categories"].append(len(r.assignment)),
    )

    def built(t, a, r):
        t.counts["features.rows"] += r.n_rows

    tracer.wrap(dc.cli, "build_matrix", "cli.build_matrix", built)
    tracer.wrap(dc.features, "trend_features", "features.trend_features")

    def boosted(t, a, r):
        t.counts["rounds"] += len(r.trees)
        t.counts["best_round"] += r.best_round

    def forest(t, a, r):
        t.counts["rounds"] += len(r.trees)
        t.counts["best_round"] += len(r.trees)  # a forest predicts with every tree

    def tree_fitted(t, a, r):
        t.counts["nodes"] += len(r.nodes)

    def split_searched(t, a, r):
        t.counts["split_found"] += r is not None

    def applied(t, a, r):
        t.counts["apply_rows"] += a[1].shape[0]

    tracer.wrap(dc.gbt, "train", "gbt.train", boosted)
    tracer.wrap(dc.gbt, "train_forest", "gbt.train_forest", forest)
    tracer.wrap(dc.gbt, "fit_tree", "gbt.fit_tree", tree_fitted)
    tracer.wrap(dc.gbt, "best_split", "gbt.best_split", split_searched)
    tracer.wrap(dc.gbt, "predict", "gbt.predict")
    tracer.wrap(dc.gbt, "save_model", "gbt.save_model")
    tracer.wrap(dc.gbt, "load_model", "gbt.load_model")
    tracer.wrap(dc.gbt.Tree, "apply", "gbt.Tree.apply", applied)

    def es_forecast(t, a, r):
        t.counts["es_fallback"] += r[1]

    def evaluated(t, a, r):
        t.counts["evaluation.rows"] += len(a[0])

    tracer.wrap(dc.baselines, "es_grid_select", "baselines.es_grid_select")
    tracer.wrap(dc.baselines.ESBaseline, "forecast", "baselines.ESBaseline.forecast", es_forecast)
    tracer.wrap(dc.cli, "evaluate", "cli.evaluate", evaluated)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _data_rows(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1  # minus the header


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the recorded spans, plus any consistency problems.

    Self time of a span is its duration minus the durations of its direct
    children; the process is single-threaded, so children never overlap.
    """
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    durations = [end - start for _, start, end, _ in tracer.spans]
    for (name, _, _, parent), dur in zip(tracer.spans, durations):
        total[name] += dur
        self_time[name] += dur
        calls[name] += 1
        if parent >= 0:
            self_time[tracer.spans[parent][0]] -= dur

    problems = []

    def fact(key: str) -> int:
        values = tracer.facts.get(key, [])
        if len(set(values)) > 1:
            problems.append(f"{key} differs between calls of one session: {values}")
        return values[0] if values else 0

    c = tracer.counts
    ingest_s = sum(v for k, v in total.items() if k.startswith("ingest."))
    ingest_rows = sum(_data_rows(path) for path in tracer.files)
    train_s = total["gbt.train"] + total["gbt.train_forest"]
    es_rows = calls["baselines.ESBaseline.forecast"]
    split_calls = calls["gbt.best_split"]
    metrics = {
        "ingest.load_s": ingest_s,
        "ingest.rows": ingest_rows,
        "ingest.us_per_row": _ratio(ingest_s, ingest_rows) * 1e6,
        "preprocess.detect_s": total["preprocess.detect_fake_zeros"],
        "preprocess.repair_s": total["preprocess.repair_fake_zeros"],
        "preprocess.smooth_s": total["preprocess.smooth_panel"],
        "preprocess.smooth_ns_per_cell": _ratio(total["preprocess.smooth_panel"], c["smooth_cells"]) * 1e9,
        "preprocess.repaired_weeks": fact("repaired_weeks"),
        "preprocess.capped_weeks": fact("capped_weeks"),
        "seasonal.fit_s": total["cli.fit_seasonality"],
        "seasonal.categories": fact("categories"),
        "features.build_s": total["cli.build_matrix"],
        "features.rows": int(c["features.rows"]),
        "features.us_per_row": _ratio(total["cli.build_matrix"], c["features.rows"]) * 1e6,
        "features.trend_s": total["features.trend_features"],
        "features.trend_calls": calls["features.trend_features"],
        "gbt.train_s": train_s,
        "gbt.rounds": int(c["rounds"]),
        "gbt.best_round": int(c["best_round"]),
        "gbt.wasted_round_share": _ratio(c["rounds"] - c["best_round"], c["rounds"]),
        "gbt.fit_tree_s": total["gbt.fit_tree"],
        "gbt.fit_tree_self_s": self_time["gbt.fit_tree"],
        "gbt.nodes_per_tree": _ratio(c["nodes"], calls["gbt.fit_tree"]),
        "gbt.best_split_calls": split_calls,
        "gbt.best_split_us": _ratio(total["gbt.best_split"], split_calls) * 1e6,
        "gbt.split_found_share": _ratio(c["split_found"], split_calls),
        "gbt.apply_rows": int(c["apply_rows"]),
        "gbt.apply_ns_per_row": _ratio(total["gbt.Tree.apply"], c["apply_rows"]) * 1e9,
        "gbt.model_io_s": total["gbt.save_model"] + total["gbt.load_model"],
        "baselines.es_s": total["baselines.ESBaseline.forecast"],
        "baselines.es_rows": es_rows,
        "baselines.es_us_per_row": _ratio(total["baselines.ESBaseline.forecast"], es_rows) * 1e6,
        "baselines.grid_select_calls": calls["baselines.es_grid_select"],
        "baselines.fallback_share": _ratio(c["es_fallback"], es_rows),
        "evaluation.evaluate_s": total["cli.evaluate"],
        "evaluation.rows": int(c["evaluation.rows"]),
        "cli.self_s": sum(v for k, v in self_time.items() if k.startswith("cli.command.")),
    }
    return metrics, problems


def write_spans(tracer: Tracer, path: Path) -> None:
    """One JSON object per span: run id, index, parent index, name, start, end."""
    with path.open("w") as fh:
        for idx, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(json.dumps({
                "run": tracer.run_id, "id": idx, "parent": parent,
                "name": name, "start": start, "end": end,
            }) + "\n")
