"""Seeded fuzz test of the CLI's exit-code contract: 0 ok, 1 usage, 2 data.

Small valid inputs (a synth panel, a config and a trained model.json) are
mutated with numpy's RNG: CSV cells replaced by bad numbers, huge integers,
unknown ids and empty fields, rows truncated, duplicated or dropped; config
values replaced, keys repeated or made up; model.json fields given wrong JSON
types, huge integers, non-finite numbers, removed, or written twice, and its
base64 node columns given a flipped character (most often still base64, so
the node checks see the changed values), cut short, or given a non-ASCII
character. Each
mutated input goes through `main([...])` of the command that reads it, and
the command must exit 0, 1 or 2 and print no traceback: a fault in the
input is a data error, never an internal one (exit 3).

The repros of three faults that once exited 3 are pinned below the fuzz.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from demandcast.cli import main

CONFIG = (
    "train_len = 24\nvalid_len = 4\ntest_len = 8\nrounds = 3\nn_patterns = 2\noverride_bounds = true\n"
)
CASES = 600
BATCH = 20  # cases per test

# cell values no loader accepts everywhere: bad numbers, numbers outside
# int64 or float64, ids no panel has, and empty fields
BAD_CELLS = [
    "", "x", "nan", "inf", "-inf", "1e400", "-1", "1.5", "99999999999999999999",
    "-9223372036854775809", "9223372036854775807", "10000", "zz_unknown", "temporal", "mixed",
    "2", "é", "0x10",
]
# config values: huge and negative integers, floats for ints, non-finite floats
BAD_VALUES = [
    "0", "-1", "1.5", "nan", "inf", "99999999999999999999", "9223372036854775807",
    "-9223372036854775808", "true", "", "x", "1e400", "2",
]
# the base64 alphabet, for flipping one character of a node column
BASE64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
# JSON values of every type, huge ints and non-finite numbers
BAD_JSON = [
    None, True, "x", [], {}, [1, 2], {"a": 1}, 0, -1, 1, 2**70, -(2**70), 1.5, 1e308,
    float("nan"), float("inf"), [float("nan")], [[1]], ["x"],
]


def run(*argv) -> tuple[int, str]:
    """main's exit code and stderr; a usage error's SystemExit gives its code."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main([str(arg) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A synth panel, its config, a trained model file and a predictions file."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data"
    assert run("synth", "--out-dir", data, "--products", 12, "--weeks", 40, "--categories", 2,
               "--seed", 3)[0] == 0
    (root / "run.cfg").write_text(CONFIG)
    assert run("train", *data_args(data), "--config", root / "run.cfg",
               "--out-dir", root / "train")[0] == 0
    assert run("predict", "--model-file", root / "train/model.json", *data_args(data),
               "--out-dir", root / "predict")[0] == 0
    return root


def data_args(data: Path, **paths) -> list:
    names = {"sales": "sales.csv", "catalog": "catalog.csv", "covariates": "covariates.csv"}
    return [
        arg for name, file in names.items()
        for arg in (f"--{name}", paths.get(name, data / file))
    ]


def mutate_csv(rng, text: str) -> str:
    header, *rows = text.splitlines()
    rows = [row.split(",") for row in rows]
    for _ in range(int(rng.integers(1, 3))):
        kind = int(rng.choice(5, p=[0.6, 0.1, 0.1, 0.1, 0.1]))
        i = int(rng.integers(0, len(rows)))
        if kind == 0:  # one cell
            rows[i][int(rng.integers(0, len(rows[i])))] = BAD_CELLS[int(rng.integers(0, len(BAD_CELLS)))]
        elif kind == 1:  # a truncated row
            rows[i] = rows[i][: int(rng.integers(0, len(rows[i])))]
        elif kind == 2:  # a duplicate row
            rows.insert(int(rng.integers(0, len(rows))), list(rows[i]))
        elif kind == 3:  # a copy of a row with one cell changed: a near-duplicate key
            row = list(rows[i])
            row[int(rng.integers(0, len(row)))] = BAD_CELLS[int(rng.integers(0, len(BAD_CELLS)))]
            rows.append(row)
        elif len(rows) > 1:  # a dropped row
            del rows[i]
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


def mutate_config(rng, text: str) -> str:
    lines = text.splitlines()
    keys = ["horizon", "smooth_window", "cap_gamma", "season_period", "n_patterns", "hash_buckets",
            "encoding", "loss", "learning_rate", "min_split_loss", "max_depth", "rounds",
            "reg_lambda", "early_stop_patience", "train_len", "valid_len", "test_len", "seed",
            "with_seasonality", "override_bounds", "unknown_key"]
    for _ in range(int(rng.integers(1, 3))):
        kind = int(rng.choice(3, p=[0.8, 0.1, 0.1]))
        key = keys[int(rng.integers(0, len(keys)))]
        value = BAD_VALUES[int(rng.integers(0, len(BAD_VALUES)))]
        if kind == 0:
            lines = [line for line in lines if not line.startswith(key)] + [f"{key} = {value}"]
        elif kind == 1:  # a repeated key
            lines += [f"{key} = {value}", f"{key} = {value}"]
        else:
            lines.append(f"{key} {value}")  # no "="
    return "\n".join(lines) + "\n"


def json_paths(doc, prefix=()):
    """The paths of doc's values, lists cut to their first three entries."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from json_paths(value, (*prefix, key))
    elif isinstance(doc, list):
        for k, value in enumerate(doc[:3]):
            yield from json_paths(value, (*prefix, k))


def mutate_column(rng, column: str) -> str:
    """A base64 node column with one character flipped, cut short, or with a
    non-ASCII character inserted."""
    kind = int(rng.integers(0, 3))
    i = int(rng.integers(0, len(column) + 1))
    if kind == 0:
        return column[:i] + BASE64_ALPHABET[int(rng.integers(0, 64))] + column[i + 1 :]
    if kind == 1:
        return column[:i]
    return column[:i] + "\u00e9" + column[i:]


def mutate_model(rng, text: str) -> str:
    doc = json.loads(text)
    paths = [path for path in json_paths(doc) if path]
    top = [path for path in paths if len(path) == 1 or path[0] == "settings"]
    for _ in range(int(rng.integers(1, 3))):
        nodes = doc.get("nodes")
        columns = [name for name, column in nodes.items() if isinstance(column, str)] if isinstance(nodes, dict) else []
        if columns and rng.random() < 0.3:  # the node table's bytes
            name = columns[int(rng.integers(0, len(columns)))]
            nodes[name] = mutate_column(rng, nodes[name])
            continue
        pool = top if rng.random() < 0.6 else paths  # the scalars predict reads, more often
        path = pool[int(rng.integers(0, len(pool)))]
        parent = doc
        try:
            for step in path[:-1]:
                parent = parent[step]
            if int(rng.integers(0, 4)) == 0 and isinstance(parent, dict):
                del parent[path[-1]]  # a missing key
            else:
                parent[path[-1]] = BAD_JSON[int(rng.integers(0, len(BAD_JSON)))]
        except (KeyError, IndexError, TypeError):  # an earlier mutation removed the path
            pass
    text = json.dumps(doc)
    if int(rng.integers(0, 4)) == 0:  # a key written twice: JSON keeps the last
        value = BAD_JSON[int(rng.integers(0, len(BAD_JSON)))]
        text = text[:-1] + f', "base_score": {json.dumps(value)}}}'
    return text


def check(case: int, code: int, err: str) -> None:
    assert code in (0, 1, 2), f"case {case}: {err}"
    assert "Traceback" not in err and "internal error" not in err, f"case {case}: {err}"


def fuzz_case(valid: Path, tmp_path: Path, case: int) -> None:
    rng = np.random.default_rng([25, case])
    data = valid / "data"
    target = ("sales", "catalog", "covariates", "config", "model", "predictions")[case % 6]
    files = {}
    if target in ("sales", "catalog", "covariates"):
        files[target] = tmp_path / f"{target}.csv"
        files[target].write_text(mutate_csv(rng, (data / f"{target}.csv").read_text()))
    config = tmp_path / "run.cfg"
    config.write_text(mutate_config(rng, CONFIG) if target == "config" else CONFIG)
    model = tmp_path / "model.json"
    model_text = (valid / "train/model.json").read_text()
    model.write_text(mutate_model(rng, model_text) if target == "model" else model_text)
    predictions = tmp_path / "predictions.csv"
    predictions_text = (valid / "predict/predictions.csv").read_text()
    predictions.write_text(
        mutate_csv(rng, predictions_text) if target == "predictions" else predictions_text
    )
    inputs = data_args(data, **files)
    if target in ("sales", "config"):
        check(case, *run("preprocess", "--sales", files.get("sales", data / "sales.csv"),
                         "--config", config, "--out-dir", tmp_path / "pre"))
    if target in ("sales", "catalog", "covariates", "config") and case % 4 == 0:
        check(case, *run("train", *inputs, "--config", config, "--out-dir", tmp_path / "train"))
    if target != "predictions":
        with_config = ["--config", config] if target == "config" else []
        check(case, *run("predict", "--model-file", model, *inputs, *with_config,
                         "--out-dir", tmp_path / "predict"))
    if target in ("sales", "catalog", "config", "predictions"):
        check(case, *run("evaluate", "--predictions", predictions, *inputs[:4], "--config", config,
                         "--out-dir", tmp_path / "evaluate"))


@pytest.mark.parametrize("batch", range(CASES // BATCH))
def test_mutated_inputs_exit_0_1_or_2(valid, tmp_path, batch):
    for case in range(batch * BATCH, (batch + 1) * BATCH):
        (tmp_path / str(case)).mkdir()
        fuzz_case(valid, tmp_path / str(case), case)


# the repros of faults that exited 3: synth 30 x 60, 3 categories, seed 3
@pytest.fixture(scope="module")
def repro(tmp_path_factory):
    root = tmp_path_factory.mktemp("repro")
    assert run("synth", "--out-dir", root / "data", "--products", 30, "--weeks", 60,
               "--categories", 3, "--seed", 3)[0] == 0
    (root / "run.cfg").write_text(
        "train_len = 40\nvalid_len = 8\ntest_len = 12\nrounds = 5\noverride_bounds = true\n"
    )
    assert run("train", *data_args(root / "data"), "--config", root / "run.cfg",
               "--out-dir", root / "train")[0] == 0
    return root


def test_integer_base_score_predicts_as_its_float(repro, tmp_path):
    doc = json.loads((repro / "train/model.json").read_text())
    outputs = []
    for base in (1, 1.0):
        doc["base_score"] = base
        (tmp_path / "model.json").write_text(json.dumps(doc))
        out = tmp_path / f"predict_{base!r}"
        assert run("predict", "--model-file", tmp_path / "model.json", *data_args(repro / "data"),
                   "--out-dir", out) == (0, "")
        outputs.append((out / "predictions.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("key", ["smooth_window", "horizon", "season_period", "hash_buckets"])
def test_model_setting_outside_int64_is_data_error(repro, tmp_path, key):
    doc = json.loads((repro / "train/model.json").read_text())
    if key == "hash_buckets":
        doc["encoding"], where = {"mode": "hashing", "hash_buckets": 2**70}, "encoding"
    else:
        doc["settings"][key], where = 2**70, "settings"
    (tmp_path / "model.json").write_text(json.dumps(doc))
    code, err = run("predict", "--model-file", tmp_path / "model.json", *data_args(repro / "data"),
                    "--out-dir", tmp_path / "out")
    assert code == 2
    assert err.strip() == (
        f"error: {tmp_path / 'model.json'}: {where}: {key} {2**70} is outside the int64 range"
    )


def test_smoothing_window_clipped_to_the_panel(repro, tmp_path):
    digests = set()
    for window in (60, 1000, 2**63 - 1):  # the panel has 60 weeks
        (tmp_path / "run.cfg").write_text(f"smooth_window = {window}\n")
        assert run("preprocess", "--sales", repro / "data/sales.csv", "--config", tmp_path / "run.cfg",
                   "--out-dir", tmp_path / f"pre_{window}") == (0, "")
        digests.add(hashlib.sha256((tmp_path / f"pre_{window}/smoothed.csv").read_bytes()).digest())
    assert len(digests) == 1
    (tmp_path / "run.cfg").write_text(f"smooth_window = {10**20}\n")
    code, err = run("preprocess", "--sales", repro / "data/sales.csv", "--config", tmp_path / "run.cfg",
                    "--out-dir", tmp_path / "pre_huge")
    assert (code, err.strip()) == (
        2, f"error: {tmp_path / 'run.cfg'}:1: smooth_window {10**20} is outside the int64 range"
    )


def test_split_lengths_summed_without_overflow(repro, tmp_path):
    # train_len + valid_len + test_len once wrapped around in int64
    config = tmp_path / "run.cfg"
    config.write_text(f"train_len = {2**63 - 1}\nvalid_len = 8\ntest_len = 12\noverride_bounds = true\n")
    code, err = run("train", *data_args(repro / "data"), "--config", config,
                    "--out-dir", tmp_path / "out")
    assert (code, err.strip()) == (
        2, f"error in stage features: split needs {2**63 + 19} weeks but panel has 60"
    )
