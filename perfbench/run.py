#!/usr/bin/env python3
"""demandcast benchmark: drives ``demandcast.cli.main`` in process.

    python3 perfbench/run.py --workload study --seed 20240901 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all    # every workload, one process each
    python3 perfbench/run.py --smoke           # tiny panels; checks the benchmark itself

One run is one process and one workload (``perfbench/workloads/<name>.json``):

1. Set-up: ``demandcast synth`` writes the workload's panel, then the data rows
   of each CSV are shuffled with ``--seed``. Repeated ``SETUP_REPEATS`` times;
   ``setup_s`` is the median time of ``synth`` alone (generation and CSV writing).
2. Session: ``pipeline --model <model>``, then ``pipeline --model es`` for the
   reference; ``wall_s`` covers both.
3. Forecast: ``predict`` with the saved model, repeated for ``--seconds`` and at
   least ``MIN_FORECASTS`` times; ``forecast_s`` is the median call.

The three times are main-thread CPU seconds rescaled to a reference CPU speed
by ``speed.py``. With ``--trace 1`` the session runs once untraced and once
more, with two predicts, under the span tracer; the run then reports the
per-layer metrics of ``tracer.py``. Every CLI call is an operation; a call
fails when it exits non-zero or its outputs fail a check. Human-readable lines
go to stdout first, the JSON result is the last line.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("study", "wide", "forest")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 20240901
SETUP_REPEATS = 3
MIN_FORECASTS = 3
TRACED_FORECASTS = 2
MAX_FORECASTS = 200

# End-to-end metrics of an untraced run, in report order.
E2E_UNITS = {
    "wall_s": "s",
    "forecast_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wrmse_vs_es": "ratio",
    "wmae_vs_es": "ratio",
    "ok_share": "share",
}


def load_workload(name: str) -> dict:
    spec = json.loads((BENCH / "workloads" / f"{name}.json").read_text())
    spec["name"] = name
    return spec


def import_demandcast() -> SimpleNamespace:
    """Import the package from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import demandcast
    from demandcast import baselines, cli, features, gbt, ingest, preprocess

    where = Path(demandcast.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"demandcast was imported from {where}, not from {src}")
    return SimpleNamespace(
        cli=cli, ingest=ingest, preprocess=preprocess, features=features,
        gbt=gbt, baselines=baselines,
    )


def environment() -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def program_digest() -> str:
    """Digest of the source files under src/: saved state is kept per program."""
    src = ROOT / "src"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            data = path.read_bytes()
            h.update(f"{path.relative_to(src).as_posix()}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()[:16]


def shuffle_rows(path: Path, rng) -> None:
    header, *rows = path.read_text().splitlines(keepends=True)
    path.write_text(header + "".join(rows[i] for i in rng.permutation(len(rows))))


def expected_keys(sales: Path, config) -> tuple[set, set]:
    """(test-window keys, forecast keys) read straight from sales.csv.

    A test row exists for every on-sale week t whose target t+h falls in the
    test window; a forecast row for every product on sale in the last week.
    """
    on_sale: dict[str, set[int]] = defaultdict(set)
    last = -1
    with sales.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for pid, week, _units, listed, _stock in reader:
            last = max(last, int(week))
            if listed == "1":
                on_sale[pid].add(int(week))
    h = config.horizon
    start = config.train_len + config.valid_len
    end = start + config.test_len
    test = {(pid, t + h) for pid, weeks in on_sale.items() for t in weeks if start <= t + h < end}
    forecast = {(pid, last + h) for pid, weeks in on_sale.items() if last in weeks}
    return test, forecast


def check_predictions(path: Path, expected: set) -> list[str]:
    """Problems with a predictions.csv: bad rows, non-finite or negative forecasts, wrong keys."""
    if not path.exists():
        return [f"{path.name} missing"]
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["product_id", "week", "forecast"]:
        return [f"{path}: bad header"]
    keys = set()
    bad = malformed = 0
    for row in rows[1:]:
        try:
            key, value = (row[0], int(row[1])), float(row[2])
        except (ValueError, IndexError):
            malformed += 1
            continue
        bad += not (math.isfinite(value) and value >= 0)
        keys.add(key)
    problems = []
    if malformed:
        problems.append(f"{path}: {malformed} malformed rows")
    if bad:
        problems.append(f"{path}: {bad} non-finite or negative forecasts")
    if keys != expected or len(rows) - 1 != len(expected):
        problems.append(
            f"{path}: keys differ from the expected rows "
            f"({len(keys - expected)} unexpected, {len(expected - keys)} missing, "
            f"{len(rows) - 1} rows for {len(expected)} keys)"
        )
    return problems


def overall_scores(report: Path) -> tuple[float, float]:
    with report.open(newline="") as fh:
        for row in csv.DictReader(fh):
            if row["scope"] == "overall":
                return float(row["rmse"]), float(row["mae"])
    raise ValueError(f"{report}: no overall row")


def stamp() -> tuple[float, float]:
    """(wall clock, CPU time of the calling thread): one end of a timed interval."""
    return time.perf_counter(), time.thread_time()


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """One workload run: its directories, CLI calls and the failure ledger."""

    def __init__(self, dc, spec: dict, seed: int, panel_seed: int, out: Path, log, corrupt=None):
        self.dc, self.spec, self.seed, self.panel_seed = dc, spec, seed, panel_seed
        self.out, self.log = out, log
        self.corrupt = corrupt  # test hook: called with the model's predictions.csv path
        self.inputs = out / "inputs"
        self.config_path = out / "run.cfg"
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.problems: list[str] = []
        self.ops: dict[str, int] = {}
        self.observed: dict[str, dict] = {"digests": {}, "manifest": {}}

    def fail(self, op: int, message: str) -> None:
        self.failed_ops.add(op)
        self.problems.append(message)

    def call(self, label: str, argv: list[str], tracer=None) -> int:
        """Run one CLI command; returns its operation id."""
        self.attempted += 1
        op = self.ops[label] = self.attempted
        span = tracer.span(f"cli.command.{argv[0]}") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(self.log), contextlib.redirect_stderr(self.log), span:
            try:
                code = self.dc.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        if code != 0:
            self.fail(op, f"{label}: exit code {code}")
        return op

    def data_args(self) -> list[str]:
        return [
            "--config", str(self.config_path),
            "--sales", str(self.inputs / "sales.csv"),
            "--catalog", str(self.inputs / "catalog.csv"),
            "--covariates", str(self.inputs / "covariates.csv"),
        ]

    def setup(self) -> tuple:
        """Generate the inputs; returns the (start, end) stamps of ``synth``."""
        import numpy as np

        spec = self.spec
        start = stamp()
        argv = [
            "synth", "--out-dir", str(self.inputs), "--products", str(spec["products"]),
            "--categories", str(spec["categories"]), "--weeks", str(spec["weeks"]),
            "--seed", str(self.panel_seed),
        ]
        with contextlib.redirect_stdout(self.log), contextlib.redirect_stderr(self.log):
            code = self.dc.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"set-up failed: demandcast synth exited {code}")
        end = stamp()
        rng = np.random.default_rng(self.seed)
        for name in ("sales.csv", "catalog.csv", "covariates.csv"):
            shuffle_rows(self.inputs / name, rng)
        lines = [f"{key} = {value}" for key, value in spec["config"].items()]
        self.config_path.write_text("\n".join(lines + [f"seed = {self.panel_seed}", ""]))
        return start, end

    def session(self, test_keys: set, tracer=None) -> tuple:
        """pipeline <model> then pipeline --model es; returns their (start, end) stamps."""
        model_argv = ["pipeline", *self.data_args(), "--out-dir", str(self.out / "model"),
                      "--model", self.spec["model"]]
        if self.spec["model"] == "forest":
            model_argv += ["--forest-trees", str(self.spec["forest_trees"])]
        es_argv = ["pipeline", *self.data_args(), "--out-dir", str(self.out / "es"), "--model", "es"]
        gc.collect()
        start = stamp()
        model_op = self.call("model", model_argv, tracer)
        es_op = self.call("es", es_argv, tracer)
        end = stamp()
        if self.corrupt is not None:
            self.corrupt(self.out / "model" / "predictions.csv")
        for op, sub in ((model_op, "model"), (es_op, "es")):
            for problem in check_predictions(self.out / sub / "predictions.csv", test_keys):
                self.fail(op, problem)
        return start, end

    def scores(self) -> tuple[float, float]:
        """(wrmse, wmae) of the model over ES, both from report.csv."""
        rmse, mae = overall_scores(self.out / "model" / "report.csv")
        es_rmse, es_mae = overall_scores(self.out / "es" / "report.csv")
        wrmse, wmae = rmse / es_rmse, mae / es_mae
        limit = self.spec.get("max_wrmse_vs_es")
        if limit is not None and not wrmse < limit:
            self.fail(self.ops["model"], f"wrmse_vs_es {wrmse:.4f} is not below {limit}")
        return wrmse, wmae

    def model_file(self) -> Path:
        """The boosted model predict uses; forests cannot be saved, so train one."""
        if self.spec["model"] != "forest":
            return self.out / "model" / "model.json"
        self.call("train", ["train", *self.data_args(), "--out-dir", str(self.out / "train")])
        return self.out / "train" / "model.json"

    def forecasts(self, model: Path, keys: set, min_calls: int, budget: float,
                  tracer=None) -> list[tuple]:
        """Repeated predict calls; returns the (start, end) stamps of each."""
        argv = ["predict", "--model-file", str(model), *self.data_args(),
                "--out-dir", str(self.out / "forecast")]
        path = self.out / "forecast" / "predictions.csv"
        calls: list[tuple] = []
        begin = time.perf_counter()
        while len(calls) < min_calls or (
            time.perf_counter() - begin < budget and len(calls) < MAX_FORECASTS
        ):
            gc.collect()
            start = stamp()
            op = self.call("predict", argv, tracer)
            calls.append((start, stamp()))
            if op in self.failed_ops:
                break
            for problem in check_predictions(path, keys):
                self.fail(op, problem)
            first = self.observed["digests"].setdefault("forecast", digest(path))
            if digest(path) != first:
                self.fail(op, "predict output differs between calls of one run")
        return calls

    def record_manifest(self) -> None:
        manifest = json.loads((self.out / "model" / "manifest.json").read_text())
        es = json.loads((self.out / "es" / "manifest.json").read_text())
        self.observed["manifest"] = {
            key: manifest[key]
            for key in ("rounds_run", "best_round", "n_trees", "train_rows", "valid_rows", "test_rows")
            if key in manifest
        }
        self.observed["manifest"]["es_fallback_rows"] = es["es_fallback_rows"]
        for sub in ("model", "es"):
            self.observed["digests"][sub] = digest(self.out / sub / "predictions.csv")

    def check_unchanged(self) -> None:
        """The traced session must write what the untraced one wrote."""
        for sub in ("model", "es"):
            if digest(self.out / sub / "predictions.csv") != self.observed["digests"].get(sub):
                self.fail(self.ops[sub], f"{sub} predictions differ under tracing")

    def check_pins(self, counts: dict) -> None:
        """Counts the current code must reproduce on the workload's own panel."""
        pinned = self.spec.get("pinned")
        if not pinned or self.panel_seed != self.spec["panel_seed"]:
            return
        m = self.observed["manifest"]
        seen = {
            "rounds": m.get("rounds_run"),
            "best_round": m.get("best_round"),
            "matrix_rows": m["train_rows"] + m["valid_rows"] + m["test_rows"],
            "repaired_weeks": counts.get("preprocess.repaired_weeks"),
            "capped_weeks": counts.get("preprocess.capped_weeks"),
        }
        for key, want in pinned.items():
            if seen[key] is not None and seen[key] != want:
                self.fail(self.ops["model"], f"{key} is {seen[key]}, the current code gives {want}")

    def check_state(self, state_path: Path) -> None:
        """Compare digests and counts with earlier runs of this program and panel,
        then record them.

        The shuffle seed changes only the row order of the inputs, so every
        seed of one panel must give the same outputs and counts. The state file
        is named after `program_digest`, so a changed program starts afresh.
        """
        state = json.loads(state_path.read_text()) if state_path.exists() else {}
        for section, values in self.observed.items():
            known = state.setdefault(section, {})
            for key, value in values.items():
                if key in known and known[key] != value:
                    op = self.ops["predict" if key == "forecast" else "model"]
                    self.fail(op, f"{section}.{key} is {value}, an earlier run of this "
                                  f"program on this panel gave {known[key]}")
                known.setdefault(key, value)
        if not self.problems:
            state_path.parent.mkdir(parents=True, exist_ok=True)
            tmp = state_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
            tmp.replace(state_path)


def run_workload(dc, spec: dict, seed: int, seconds: float, trace: bool,
                 panel_seed: int, out: Path, state_dir: Path, corrupt=None) -> dict:
    from speed import SpeedProbe
    from tracer import LAYER_METRICS, STABLE_COUNTS, Tracer, install, layer_metrics, write_spans

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    probe = SpeedProbe()
    with (out / "cli.log").open("w") as log:
        run = Run(dc, spec, seed, panel_seed, out, log, corrupt)
        probe.start()
        try:
            setups = [run.setup() for _ in range(1 if trace else SETUP_REPEATS)]
            config = dc.ingest.load_config(run.config_path)
            test_keys, forecast_keys = expected_keys(run.inputs / "sales.csv", config)
            session = run.session(test_keys)
            model_ok = not {run.ops["model"], run.ops["es"]} & run.failed_ops
            wrmse, wmae = run.scores() if model_ok else (None, None)
            if model_ok:
                run.record_manifest()
            model = run.model_file()
            if trace:
                tracer = Tracer(f"{spec['name']}-{seed}-{os.getpid()}")
                install(tracer, dc)
                try:
                    traced = run.session(test_keys, tracer)
                    run.check_unchanged()
                    run.forecasts(model, forecast_keys, TRACED_FORECASTS, 0.0, tracer)
                finally:
                    tracer.restore()
            else:
                forecasts = run.forecasts(model, forecast_keys, MIN_FORECASTS, seconds)
        finally:
            probe.stop()

        if trace:
            timings = {"session_s": [session], "traced_session_s": [traced]}
        else:
            timings = {"wall_s": [session], "forecast_s": forecasts, "setup_s": setups}
        ref = {
            name: [probe.reference_seconds(start[1], end[1]) for start, end in ivs]
            for name, ivs in timings.items()
        }
        counts: dict = {}
        if trace:
            values, problems = layer_metrics(tracer)
            for problem in problems:
                run.fail(run.ops["model"], problem)
            values["trace.overhead_s"] = ref["traced_session_s"][0] - ref["session_s"][0]
            counts = {key: values[key] for key in STABLE_COUNTS}
            run.observed["counts"] = counts
            (out / "trace").mkdir()
            write_spans(tracer, out / "trace" / "spans.jsonl")
            units = dict(LAYER_METRICS)
        else:
            values = {name: statistics.median(v) for name, v in ref.items()}
            values.update({
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "wrmse_vs_es": wrmse,
                "wmae_vs_es": wmae,
                "ok_share": 1.0 - len(run.failed_ops) / run.attempted,
            })
            units = E2E_UNITS

        if model_ok:
            run.check_pins(counts)
        program = program_digest()
        run.check_state(state_dir / f"{spec['name']}-{panel_seed}-{program}.json")

    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": len(run.failed_ops),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items() if values.get(name) is not None
        },
    }
    detail = {
        **result,
        "workload": spec["name"], "seed": seed, "panel_seed": panel_seed, "trace": trace,
        "program": program,
        "problems": run.problems, "environment": environment(),
        # every timed interval at the reference speed, in wall and main-thread
        # CPU seconds as measured, and the CPU speed over it
        "reference_seconds": ref,
        "raw_seconds": {name: [end[0] - start[0] for start, end in ivs] for name, ivs in timings.items()},
        "cpu_seconds": {name: [end[1] - start[1] for start, end in ivs] for name, ivs in timings.items()},
        "speed": {name: [probe.speed(start[1], end[1]) for start, end in ivs] for name, ivs in timings.items()},
    }
    (out / "result.json").write_text(json.dumps(detail, indent=1))
    return detail


def print_result(detail: dict) -> None:
    print(f"workload {detail['workload']}  seed {detail['seed']}  panel seed "
          f"{detail['panel_seed']}  trace {int(detail['trace'])}")
    for name, metric in detail["metrics"].items():
        line = f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}"
        if name in detail["raw_seconds"]:
            line += (f"  (measured {statistics.median(detail['raw_seconds'][name]):.4g} s"
                     f" at speed {statistics.median(detail['speed'][name]):.3f})")
        print(line)
    print(f"  {'failed_share':<32} {detail['failed'] / detail['attempted']:>14.6g} share"
          f"  ({detail['failed']} of {detail['attempted']} operations)")
    for problem in detail["problems"]:
        print(f"  FAILED: {problem}")
    print(f"  environment {json.dumps(detail['environment'], sort_keys=True)}")


def smoke(dc) -> int:
    """Tiny panels through every workload, traced and untraced, plus a corrupted run."""
    out = OUT / "smoke"
    shutil.rmtree(out, ignore_errors=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    errors = []

    def tiny(name: str) -> dict:
        spec = load_workload(name)
        spec.update(products=60, categories=10, forest_trees=2, pinned=None,
                    max_wrmse_vs_es=None)
        spec["config"] = {**spec["config"], "rounds": 3, "override_bounds": "true"}
        return spec

    for name in WORKLOADS:
        for trace in (0, 1):
            detail = run_workload(dc, tiny(name), 1, 0.0, bool(trace), 1,
                                  out / name, out / "state")
            emitted = {k: m["unit"] for k, m in detail["metrics"].items()}
            if not detail["correct"]:
                errors.append(f"{name} trace {trace}: {detail['problems']}")
            if emitted != want[trace]:
                errors.append(f"{name} trace {trace}: emitted {emitted}, declared {want[trace]}")

    def drop_last_row(path: Path) -> None:
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))

    detail = run_workload(dc, tiny("study"), 2, 0.0, False, 1, out / "corrupt",
                          out / "state", corrupt=drop_last_row)
    if detail["correct"] or detail["failed"] < 1:
        errors.append(f"a corrupted predictions.csv was not counted as failed: {detail}")
    probe = out / "probe.csv"
    for bad in ("p0,10,nan\n", "p0,10,-1.0\n", "p0,11,1.0\n"):
        probe.write_text("product_id,week,forecast\n" + bad)
        if not check_predictions(probe, {("p0", 10)}):
            errors.append(f"check_predictions accepted {bad.strip()!r}")
    for error in errors:
        print(f"SMOKE FAILED: {error}")
    print("smoke ok" if not errors else f"smoke: {len(errors)} failures")
    return 0 if not errors else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.panel_seed is not None:
            argv += ["--panel-seed", str(args.panel_seed)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        *lines, last = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines), flush=True)
        if proc.returncode != 0:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(last)
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="shuffles the input rows; the panel itself is fixed per workload")
    parser.add_argument("--panel-seed", type=int,
                        help="synth seed of the panel (default: the workload's panel_seed; "
                             "its held_out_panel_seed is for checking claims)")
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="time budget of the repeated forecast calls")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("give --workload or --smoke")

    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    from speed import pin_to_one_cpu

    pin_to_one_cpu()
    try:
        dc = import_demandcast()
    except ImportError as exc:
        print(f"cannot import demandcast from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(dc)

    spec = load_workload(args.workload)
    panel_seed = spec["panel_seed"] if args.panel_seed is None else args.panel_seed
    detail = run_workload(dc, spec, args.seed, args.seconds, bool(args.trace), panel_seed,
                          OUT / args.workload, OUT / "state")
    print_result(detail)
    print(json.dumps({key: detail[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
