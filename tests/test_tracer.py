"""The benchmark's span tracer must still find every layer function it wraps.

perfbench/tracer.py patches module globals by name; a rename in the package
would otherwise surface only in the slower benchmark smoke run.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from demandcast import baselines, cli, features, gbt, ingest, preprocess

from .test_cli import CONFIG

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("demandcast_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_real_modules_and_restore_undoes_it(tmp_path):
    tracing = load_tracer()
    dc = SimpleNamespace(
        cli=cli, ingest=ingest, preprocess=preprocess, features=features,
        gbt=gbt, baselines=baselines,
    )
    data = tmp_path / "data"
    assert cli.main(
        ["synth", "--out-dir", str(data), "--products", "12", "--categories", "3",
         "--weeks", "80", "--seed", "5"]
    ) == 0
    (data / "run.cfg").write_text(CONFIG.replace("rounds = 30", "rounds = 3"))

    tracer = tracing.Tracer("test")
    tracing.install(tracer, dc)
    patched = [(owner, attr, original) for owner, attr, original in tracer._patched]
    try:
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
        # every model kind, so the train_forest and ESBaseline.forecast
        # observers read real results too
        for kind in ("gbt", "forest", "es"):
            code = cli.main(
                ["pipeline", "--config", str(data / "run.cfg"),
                 "--sales", str(data / "sales.csv"), "--catalog", str(data / "catalog.csv"),
                 "--covariates", str(data / "covariates.csv"), "--out-dir", str(tmp_path / kind),
                 "--model", kind, "--forest-trees", "2"]
            )
            assert code == 0, kind
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original

    metrics, problems = tracing.layer_metrics(tracer)
    assert problems == []
    assert set(metrics) == {name for name, _ in tracing.LAYER_METRICS} - {"trace.overhead_s"}
    for name in (
        "features.rows", "features.trend_calls", "gbt.rounds", "baselines.es_rows",
        "evaluation.rows",
    ):
        assert metrics[name] > 0, name
    # 3 boosting rounds (patience 8 never stops them early) plus the forest's 2 trees
    assert metrics["gbt.rounds"] == 5
