import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poissonlab
from poissonlab import costs, surrogate
from poissonlab.cli import main
from poissonlab.config import SECTIONS, load_config, override_seeds, parse_config
from poissonlab.errors import ConfigError, ParameterError
from poissonlab.fileio import read_json, sha256_file, write_json

SPACE = {
    "g_range": [0.0, 4.0],
    "y0_range": [0.0, 0.0],
    "y1_range": [0.0, 0.0],
    "x0": 0.0,
    "x1": 1.0,
    "sampling": "uniform_random",
    "n_samples": 16,
    "master_seed": 7,
}

REGRESSION = {
    "n": 100,
    "true_w": 2.0,
    "true_b": -4.0,
    "x_range": [-4.0, 4.0],
    "noise_amplitude": 2.0,
    "seed": 1,
}

SURROGATE_DOC = {
    "space": SPACE,
    "n_nodes": 21,
    "arch": {"hidden": [], "output_transfer": "purelin"},
    "train": {
        "learning_rate": 0.01,
        "stop_tolerance": 1e-14,
        "max_epochs": 5000,
        "init_seed": 0,
    },
    "split": {"ratios": [0.8, 0.1, 0.1], "seed": 3},
    "eval": {"multipliers": [1.0, 2.0], "perturbations": [0.01], "n_fresh": 8, "seed": 11},
    "costs": {"repetitions": 3, "n_predictions": 100},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# -- config parsing ----------------------------------------------------


def test_config_round_trip(tmp_path):
    path = write_config(tmp_path, SURROGATE_DOC)
    cfg = load_config(path)
    replayed = parse_config(json.loads(json.dumps(cfg.raw)))
    assert replayed.raw == cfg.raw
    assert replayed.space == cfg.space
    assert replayed.train == cfg.train
    assert replayed.split_ratios == cfg.split_ratios
    assert replayed.eval_spec == cfg.eval_spec


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config({"space": SPACE, "surprise": 1})
    with pytest.raises(ConfigError, match="regression"):
        parse_config({"regression": {**REGRESSION, "sigma": 1.0}})


def test_config_rejects_missing_required_key():
    incomplete = {k: v for k, v in REGRESSION.items() if k != "seed"}
    with pytest.raises(ConfigError, match="seed"):
        parse_config({"regression": incomplete})


def test_config_rejects_non_positive_layer_widths():
    with pytest.raises(ConfigError, match="hidden"):
        parse_config({"arch": {"hidden": [0]}})
    with pytest.raises(ConfigError, match="layer_sizes"):
        parse_config({"ann": {"layer_sizes": [1]}})
    with pytest.raises(ConfigError, match="arch_sweep"):
        parse_config({"arch_sweep": [[8], [-2]]})


def test_config_rejects_problem_and_problems():
    # `problems` is the only way to give problems; `problem` is an unknown key.
    problem = {"g": 0.0, "x0": 0.0, "x1": 1.0, "y0": 0.0, "y1": 0.0}
    for doc in ({"problem": problem}, {"problem": problem, "problems": [problem]}):
        with pytest.raises(ConfigError, match=r"unknown keys \['problem'\]"):
            parse_config(doc)


# -- exit codes --------------------------------------------------------


def test_exit_zero_on_success(tmp_path):
    path = write_config(tmp_path, {"problems": [{"g": 0.0, "x0": 0.0, "x1": 1.0, "y0": 0.0, "y1": 0.0}]})
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_exit_two_on_missing_section(tmp_path, capsys):
    path = write_config(tmp_path, {"n_nodes": 11})
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "problem" in capsys.readouterr().err


def test_exit_two_on_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"problem": ')
    assert main(["solve", "--config", str(path)]) == 2
    assert "line" in capsys.readouterr().err


def test_exit_three_on_singular_fit(tmp_path, capsys):
    # A degenerate input range collapses the design matrix to rank one.
    doc = {"regression": {**REGRESSION, "x_range": [0.0, 1e-300], "noise_amplitude": 0.0}}
    path = write_config(tmp_path, doc)
    assert main(["fit", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_exit_two_on_range_wider_than_float(tmp_path, capsys):
    doc = {**SURROGATE_DOC, "space": {**SPACE, "g_range": [-1e308, 1e308]}}
    path = write_config(tmp_path, doc)
    assert main(["surrogate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "g_range" in capsys.readouterr().err


@pytest.mark.parametrize("y0_range", [[0.0, -0.0], [-0.0, 0.0]], ids=["0,-0", "-0,0"])
def test_signed_zero_range_runs(tmp_path, y0_range):
    # [0.0, -0.0] passes lo <= hi; its width must not reach the draws as -0.0.
    doc = {**SURROGATE_DOC, "space": {**SPACE, "y0_range": y0_range}}
    run = tmp_path / "run"
    assert main(["surrogate", "--config", str(write_config(tmp_path, doc)), "--out", str(run)]) == 0
    lines = (run / "inputs.csv").read_text().splitlines()[1:]
    assert {line.split(",")[1] for line in lines} == {"0.0"}


@pytest.mark.parametrize(
    "command, source, section, key, literal",
    [
        ("breakeven", "configs/breakeven_demo.json", "ledger", "t_dg", "1e309"),
        ("breakeven", "configs/breakeven_demo.json", "ledger", "t_pr", "NaN"),
        ("fit", "configs/fit_demo.json", "regression", "noise_amplitude", "Infinity"),
    ],
    ids=["t_dg-1e309", "t_pr-NaN", "noise-Infinity"],
)
def test_exit_two_on_non_finite_number(tmp_path, capsys, command, source, section, key, literal):
    # json.loads accepts these literals (1e309 reads as inf); the config must not.
    doc = json.loads(Path(source).read_text())
    doc[section][key] = "NON_FINITE"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc).replace('"NON_FINITE"', literal))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{section}.{key}: expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sections, code",
    [
        ({"arch": {"hidden": [8], "hidden_transfer": ["tanh"]}}, 2),
        ({"ann": {"transfers": [["tanh"]]}}, 2),
        ({"ann": {"init_weights": 5}}, 2),
        ({"ann": {"init_weights": [[["a"]]]}}, 2),
        ({"ann": {"init_biases": None}}, 2),  # init_weights without init_biases
        ({"ann": {"init_weights": [[[1.0], [1.0, 2.0]]]}}, 3),  # ragged
    ],
    ids=["arch-transfer-list", "ann-transfer-list", "weights-number", "weights-text",
         "weights-alone", "weights-ragged"],
)
def test_train_ann_wrong_kind_values_exit_cleanly(tmp_path, capsys, sections, code):
    doc = json.loads(Path("configs/train_ann_demo.json").read_text())
    for name, patch in sections.items():
        merged = {**doc.get(name, {}), **patch}
        doc[name] = {k: v for k, v in merged.items() if v is not None}
    path = write_config(tmp_path, doc)
    assert main(["train-ann", "--config", str(path), "--out", str(tmp_path / "out")]) == code
    assert ("config error" if code == 2 else "numerical failure") in capsys.readouterr().err


def test_exit_four_on_missing_config(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "absent.json")]) == 4
    assert "missing input" in capsys.readouterr().err


def test_exit_four_on_missing_manifest(tmp_path, capsys):
    assert main(["report", "--run", str(tmp_path)]) == 4
    assert "manifest" in capsys.readouterr().err


PROBLEM_JSON = b'{"problems": [{"g": 0.0, "x0": 0.0, "x1": 1.0, "y0": 0.0, "y1": 0.0}]}'


@pytest.mark.parametrize(
    "argv, files, code, message",
    [
        (["solve", "--config", "{tmp}"], {}, 2, "cannot read"),
        (["solve", "--config", "{tmp}/c.json"], {"c.json": b'{"n_nodes": \xff}'}, 2, "cannot read"),
        # json.loads reads no integer literal of more than 4,300 digits.
        (["solve", "--config", "{tmp}/c.json"], {"c.json": b'{"n_nodes": ' + b"9" * 5000 + b"}"}, 2,
         "{tmp}/c.json: invalid JSON"),
        (["solve", "--config", "{tmp}/c.json", "--out", "{tmp}/taken"],
         {"c.json": PROBLEM_JSON, "taken": b""}, 2, "output directory"),
        (["report", "--run", "{tmp}"], {"manifest.json": b'{"files": '}, 4, "not a JSON document"),
        (["report", "--run", "{tmp}"], {"manifest.json": b"[]"}, 4, "must hold a JSON object"),
        (["report", "--run", "{tmp}"], {"manifest.json": b"{}", "eval_report.json": b"{"}, 4,
         "eval_report.json is not a JSON document"),
        (["report", "--run", "{tmp}"], {"manifest.json": b"{}", "cost_ledger.json": b"[1]"}, 4,
         "cost_ledger.json must hold a JSON object"),
        (["report", "--run", "{tmp}"], {"manifest.json": b'{"config": []}'}, 4, "config must be a JSON object"),
        (["report", "--run", "{tmp}"], {"manifest.json": b'{"machine": "x"}'}, 4, "machine must be a JSON object"),
        (["report", "--run", "{tmp}"], {"manifest.json": b'{"config": {"train": {}}, "machine": {}}'}, 4,
         "has no key 'learning_rate'"),
        (["report", "--run", "{tmp}"], {"manifest.json": b"{}", "cost_ledger.json": b'{"t_dg": 1}'}, 4,
         "has no key 'break_even'"),
        (["report", "--run", "{tmp}"], {"manifest.json": b'{"config": {"train": []}, "machine": {}, "files": []}'},
         4, "a run file in {tmp} holds a value of the wrong kind"),
        (["report", "--run", "{tmp}"], {"manifest.json": b"{}", "cost_ledger.json": b'{"t_dg": "x"}'}, 4,
         "a run file in {tmp} holds a value of the wrong kind"),
        (["report", "--run", "{tmp}"], {"manifest.json": b'{"config": {"space": []}}', "cost_ledger.json": b"{}"},
         4, "a run file in {tmp} holds a value of the wrong kind"),
    ],
    ids=["config-is-a-directory", "config-not-utf8", "config-integer-too-long", "out-is-a-file",
         "manifest-invalid-json", "manifest-not-an-object", "artifact-invalid-json", "artifact-not-an-object",
         "manifest-config-not-an-object", "manifest-machine-not-an-object",
         "manifest-train-lacks-a-key", "ledger-lacks-a-key", "manifest-train-not-an-object",
         "ledger-time-not-a-number", "manifest-space-not-an-object"],
)
def test_unreadable_input_exits_with_its_code(tmp_path, capsys, argv, files, code, message):
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == code
    err = capsys.readouterr().err
    assert message.format(tmp=tmp_path) in err
    assert err.startswith("config error" if code == 2 else "missing input")


@pytest.mark.parametrize(
    "command, source, section, key, value, message",
    [
        ("surrogate", "configs/surrogate_minimal.json", "eval", "n_fresh", 0, "eval.n_fresh: must be >= 1"),
        ("surrogate", "configs/surrogate_minimal.json", "costs", "repetitions", 0,
         "costs.repetitions: must be >= 1"),
        ("surrogate", "configs/surrogate_minimal.json", "costs", "repetitions", 10**12,
         f"costs.repetitions: must be <= 10000, got {10**12}"),
        ("surrogate", "configs/surrogate_minimal.json", "costs", "n_predictions", -1,
         "costs.n_predictions: must be >= 0"),
        ("surrogate", "configs/surrogate_minimal.json", "data_curve", "sizes", [8, 0],
         "data_curve.sizes[1]: must be >= 1"),
        ("fit", "configs/fit_demo.json", "regression", "n", 1, "regression.n: must be >= 2"),
        ("surrogate", "configs/surrogate_minimal.json", "eval", "multipliers", [1.0, -1.0],
         "eval.multipliers[1]: must be > 0"),
        ("surrogate", "configs/surrogate_minimal.json", None, "n_nodes", 2, "n_nodes: must be >= 3"),
        ("surrogate", "configs/surrogate_minimal.json", "split", "ratios", [0.5, 0.5, 0.5],
         "split: ratios must sum to 1"),
        ("surrogate", "configs/surrogate_minimal.json", "split", "ratios", [1.2, -0.1, -0.1],
         "split: ratios must be one non-negative number per split"),
        # An N beyond the float range cannot be priced: N * t_pr overflows.
        ("surrogate", "configs/surrogate_minimal.json", "costs", "n_predictions", 10**400,
         "costs: n_predictions must be at most the largest float"),
        ("breakeven", "configs/breakeven_demo.json", "ledger", "n_predictions", 10**400,
         "ledger: n_predictions must be at most the largest float"),
        ("surrogate", "configs/surrogate_minimal.json", None, "space", dict(SPACE, sampling="grid"),
         "space: grid sampling needs a perfect-cube n_samples, got 16"),
        # The config's 64 samples are a 4 x 4 x 4 grid; its data curve's 16 are none.
        ("surrogate", "configs/surrogate_minimal.json", "space", "sampling", "grid",
         "data_curve.sizes[1]: grid sampling needs a perfect-cube n_samples, got 16"),
        ("surrogate", "configs/surrogate_minimal.json", "space", "n_samples", 0, "space.n_samples: must be >= 1"),
        ("surrogate", "configs/surrogate_minimal.json", "train", "max_epochs", 0, "train.max_epochs: must be >= 1"),
        ("breakeven", "configs/breakeven_demo.json", "ledger", "n_predictions", -1,
         "ledger.n_predictions: must be >= 0"),
        # A (count, n_nodes) array of floats may hold at most 2**28 values.
        ("surrogate", "configs/surrogate_minimal.json", "space", "n_samples", 10**20,
         f"space.n_samples: must be <= {2**28 // 101}, the most rows of 101 floats in one array"),
        # 10**10 rows of 101 floats are 8 TB: numpy can shape them, the budget refuses them.
        ("surrogate", "configs/surrogate_minimal.json", "space", "n_samples", 10**10,
         f"space.n_samples: must be <= {2**28 // 101},"),
        ("surrogate", "configs/surrogate_minimal.json", "space", "n_samples", 10**400, "space.n_samples: must be <="),
        # Rejected before ParameterSpace takes the count's cube root, which overflows a float.
        ("surrogate", "configs/surrogate_minimal.json", None, "space",
         dict(SPACE, sampling="grid", n_samples=10**1000), "space.n_samples: must be <="),
        ("surrogate", "configs/surrogate_minimal.json", "eval", "n_fresh", 10**20, "eval.n_fresh: must be <="),
        ("surrogate", "configs/surrogate_minimal.json", "eval", "n_fresh", 2**28 // 101 + 1,
         f"eval.n_fresh: must be <= {2**28 // 101},"),
        ("surrogate", "configs/surrogate_minimal.json", "data_curve", "sizes", [8, 2**28 // 101 + 1],
         f"data_curve.sizes[1]: must be <= {2**28 // 101},"),
        # One row of n_nodes floats must fit too; n_nodes is read before the row counts.
        ("solve", "configs/solve_demo.json", None, "n_nodes", 10**20,
         f"n_nodes: must be <= {2**28}, got {10**20}"),
        ("surrogate", "configs/surrogate_minimal.json", None, "n_nodes", 10**20,
         f"n_nodes: must be <= {2**28}, got {10**20}"),
        ("solve", "configs/solve_demo.json", None, "n_nodes", 2**28 + 1,
         f"n_nodes: must be <= {2**28}, got {2**28 + 1}"),
    ],
    ids=["n_fresh-0", "repetitions-0", "repetitions-1e12", "n_predictions-negative", "curve-size-0", "regression-n-1",
         "multiplier-negative", "n_nodes-2", "ratios-sum", "ratios-negative", "n_predictions-huge",
         "ledger-n_predictions-huge", "grid-not-a-cube", "curve-grid-size-not-a-cube", "n_samples-0",
         "max_epochs-0", "ledger-n_predictions-negative", "n_samples-1e20", "n_samples-1e10", "n_samples-1e400",
         "grid-n_samples-1e1000", "n_fresh-1e20", "n_fresh-over-budget", "curve-size-over-budget",
         "solve-n_nodes-1e20", "surrogate-n_nodes-1e20", "solve-n_nodes-over-budget"],
)
def test_bad_count_exits_two_when_parsed(tmp_path, capsys, command, source, section, key, value, message):
    doc = json.loads(Path(source).read_text())
    # section None sets a top-level key.
    (doc if section is None else doc[section])[key] = value
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert list(out.glob("*")) == []


# -- solve -------------------------------------------------------------


def test_solve_homogeneous_writes_zeros(tmp_path):
    path = write_config(tmp_path, {
        "problems": [{"g": 0.0, "x0": 0.0, "x1": 1.0, "y0": 0.0, "y1": 0.0}],
        "n_nodes": 5,
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "solution_0_analytic.csv").read_text().splitlines()
    assert lines[0] == "x,y,provenance"
    assert all(line.split(",")[1] == "0.0" for line in lines[1:])


def test_solve_four_combinations(tmp_path):
    assert main(["solve", "--config", "configs/solve_demo.json", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "figure1.csv").read_text().splitlines()
    assert lines[0] == "series,g,y0,y1,x,y"
    series = {line.split(",")[0] for line in lines[1:]}
    assert series == {"0", "1", "2", "3"}
    assert len(lines) == 1 + 4 * 101
    # series 1 is g=2 with zero ends, whose solution is x(1-x)
    for line in lines[1:]:
        tag, _, _, _, x, y = line.split(",")
        if tag == "1":
            assert float(y) == pytest.approx(float(x) * (1.0 - float(x)), abs=1e-14)


# -- fit ---------------------------------------------------------------


def test_fit_artifacts(tmp_path):
    path = write_config(tmp_path, {"regression": REGRESSION})
    out = tmp_path / "out"
    assert main(["fit", "--config", str(path), "--out", str(out)]) == 0
    model = read_json(out / "model.json")
    assert abs(model["w"] - 2.0) < 0.15
    assert abs(model["b"] + 4.0) < 0.34
    assert (out / "dataset.csv").read_text().splitlines()[0] == "x,y"
    fit_line = (out / "fit_line.csv").read_text().splitlines()
    assert fit_line[0] == "x,y_true,y_fit"
    assert len(fit_line) == 1 + REGRESSION["n"]
    meta = read_json(out / "dataset.json")
    assert meta["seed"] == 1


def test_report_on_fit_run_states_the_fitted_line(tmp_path, capsys):
    path = write_config(tmp_path, {"regression": REGRESSION})
    out = tmp_path / "out"
    assert main(["fit", "--config", str(path), "--out", str(out)]) == 0
    model = read_json(out / "model.json")
    capsys.readouterr()
    assert main(["report", "--run", str(out)]) == 0
    q4 = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("Q4"))
    assert q4.endswith(f": fitted line: w = {model['w']:.6g}, b = {model['b']:.6g}")


def test_fit_seed_override_changes_dataset(tmp_path):
    path = write_config(tmp_path, {"regression": REGRESSION})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["fit", "--config", str(path), "--out", str(out_a)]) == 0
    assert main(["fit", "--config", str(path), "--out", str(out_b), "--seed", "5"]) == 0
    assert read_json(out_a / "model.json") != read_json(out_b / "model.json")
    assert read_json(out_b / "dataset.json")["seed"] == 5


# -- train-ann ---------------------------------------------------------


def test_train_ann_artifacts(tmp_path):
    assert main([
        "train-ann", "--config", "configs/train_ann_demo.json", "--out", str(tmp_path),
    ]) == 0
    report = read_json(tmp_path / "train_report.json")
    assert report["stop_reason"] == "converged"
    model = read_json(tmp_path / "model.json")
    assert abs(model["weights"][0][0][0] - 2.0) < 0.2
    loss_lines = (tmp_path / "loss.csv").read_text().splitlines()
    assert loss_lines[0] == "epoch,loss"
    assert len(loss_lines) == 1 + report["epochs_run"]


# -- surrogate and report ----------------------------------------------


@pytest.fixture(scope="module")
def surrogate_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("surrogate_run")
    config_path = out / "config.json"
    config_path.write_text(json.dumps(SURROGATE_DOC))
    rc = main(["surrogate", "--config", str(config_path), "--out", str(out / "run")])
    assert rc == 0
    return out / "run"


def test_surrogate_run_writes_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run = surrogate.run(parse_config(SURROGATE_DOC))
    assert list(tmp_path.iterdir()) == []
    assert run.dataset.n_samples == SPACE["n_samples"]
    assert run.data_curve is None and len(run.candidates) == 1


# Fields of cost_ledger.json that are timings or follow from them.
LEDGER_TIMINGS = {
    "t_dg", "t_nt", "t_pr", "t_solve", "pr_samples", "solve_samples", "cold_prediction",
    "cold_solve", "total_time", "break_even", "break_even_range",
}


def test_surrogate_run_returns_what_the_cli_writes(surrogate_run, tmp_path):
    run = surrogate.run(parse_config(SURROGATE_DOC))
    write_json(tmp_path / "eval_report.json", run.candidates[0].eval_report)
    write_json(tmp_path / "cost_ledger.json", run.candidates[0].ledger)
    assert read_json(tmp_path / "eval_report.json") == read_json(surrogate_run / "eval_report.json")
    returned = read_json(tmp_path / "cost_ledger.json")
    written = read_json(surrogate_run / "cost_ledger.json")
    assert returned.keys() == written.keys()
    assert LEDGER_TIMINGS < set(written)
    untimed = set(written) - LEDGER_TIMINGS
    assert {k: returned[k] for k in untimed} == {k: written[k] for k in untimed}


def test_failed_surrogate_run_writes_nothing(tmp_path, capsys, monkeypatch):
    # The data curve runs last, after the main model is trained, evaluated
    # and priced; a failure there still leaves --out empty.
    def failing_curve(cfg):
        raise ParameterError("the data curve failed")

    monkeypatch.setattr(surrogate, "data_requirement_curve", failing_curve)
    doc = json.loads(json.dumps(SURROGATE_DOC))
    doc["data_curve"] = {"sizes": [8], "seeds": [0]}
    doc["train"]["max_epochs"] = 50
    out = tmp_path / "out"
    assert main(["surrogate", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
    assert "the data curve failed" in capsys.readouterr().err
    assert list(out.glob("*")) == []


def test_surrogate_manifest_lists_every_file(surrogate_run):
    manifest = read_json(surrogate_run / "manifest.json")
    listed = {entry["name"] for entry in manifest["files"]}
    on_disk = {p.name for p in surrogate_run.iterdir()} - {"manifest.json"}
    assert listed == on_disk
    for entry in manifest["files"]:
        assert sha256_file(surrogate_run / entry["name"]) == entry["sha256"]


def test_surrogate_manifest_records_seeds(tmp_path):
    # The config snapshot is the run's one record of its seeds.
    config_path = write_config(tmp_path, SURROGATE_DOC)
    out = tmp_path / "run"
    assert main(["surrogate", "--config", str(config_path), "--out", str(out), "--seed", "5"]) == 0
    manifest = read_json(out / "manifest.json")
    assert "seeds" not in manifest
    assert manifest["config"] == override_seeds(SURROGATE_DOC, 5)
    seed_keys = {
        f"{key}.{name}": manifest["config"][key][name]
        for key, (_, reader) in SECTIONS.items() if key in manifest["config"]
        for name in getattr(reader, "seed_keys", ())
    }
    assert seed_keys == dict.fromkeys(["train.init_seed", "space.master_seed", "split.seed", "eval.seed"], 5)
    assert read_json(out / "dataset.json")["seeds"] == {"master_seed": 5, "split_seed": 5}


def test_machine_descriptor_starts_no_child_process():
    # A fresh interpreter, so nothing in `platform` is cached yet.
    code = (
        "import subprocess\n"
        "def refuse(*args, **kwargs):\n"
        "    raise RuntimeError(f'started a child process: {args}')\n"
        "subprocess.Popen = refuse\n"
        "from poissonlab.manifest import machine_descriptor\n"
        "print(sorted(machine_descriptor()))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "processor" not in proc.stdout


def test_package_import_loads_no_submodule_and_no_numpy():
    # A fresh interpreter, so nothing the test run imported is cached.
    code = (
        "import sys\n"
        "import poissonlab\n"
        "print(sorted(m for m in sys.modules if m.startswith(('poissonlab.', 'numpy'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_manifest_has_package_version(surrogate_run):
    manifest = read_json(surrogate_run / "manifest.json")
    assert manifest["tool"]["version"] == poissonlab.__version__


def test_surrogate_cost_ledger(surrogate_run):
    ledger = read_json(surrogate_run / "cost_ledger.json")
    assert ledger["t_pr"] > 0.0 and ledger["t_solve"] > 0.0
    assert len(ledger["pr_samples"]) == 3
    assert ledger["break_even"] == "never" or isinstance(ledger["break_even"], int)
    assert len(ledger["break_even_range"]) == 2
    assert all(n == "never" or isinstance(n, int) for n in ledger["break_even_range"])


def test_report_prints_the_break_even_range_and_reads_runs_without_it(surrogate_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(surrogate_run, run)
    ledger = read_json(run / "cost_ledger.json")
    ledger["break_even_range"] = ["never", 4321]
    write_json(run / "cost_ledger.json", ledger)
    assert main(["report", "--run", str(run)]) == 0
    assert "break-even N range        : never to 4321" in capsys.readouterr().out
    # A run written before the range existed still reports, without it.
    del ledger["break_even_range"]
    write_json(run / "cost_ledger.json", ledger)
    assert main(["report", "--run", str(run)]) == 0
    out = capsys.readouterr().out
    assert "break-even N  " in out and "break-even N range" not in out


def test_report_has_ten_question_rows(surrogate_run, capsys):
    assert main(["report", "--run", str(surrogate_run)]) == 0
    out = capsys.readouterr().out
    rows = {}
    for line in out.splitlines():
        if line.startswith("Q") and ":" in line:
            tag = line.split()[0]
            rows[tag] = line.split(":", 1)[1].strip()
    assert set(rows) == {f"Q{i}" for i in range(1, 11)}
    assert all(rows.values())


def test_report_is_deterministic(surrogate_run, capsys):
    assert main(["report", "--run", str(surrogate_run)]) == 0
    first = capsys.readouterr().out
    assert main(["report", "--run", str(surrogate_run)]) == 0
    assert capsys.readouterr().out == first


def test_surrogate_arch_sweep_flows_into_report(tmp_path, capsys):
    doc = json.loads(json.dumps(SURROGATE_DOC))
    doc["arch_sweep"] = [[], [4]]
    doc["train"]["max_epochs"] = 500
    path = write_config(tmp_path, doc)
    run = tmp_path / "run"
    assert main(["surrogate", "--config", str(path), "--out", str(run)]) == 0
    sweep = read_json(run / "arch_sweep.json")
    assert [row["layer_sizes"] for row in sweep["rows"]] == [[3, 21], [3, 4, 21]]
    capsys.readouterr()
    assert main(["report", "--run", str(run)]) == 0
    q4 = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("Q4"))
    assert "sweep" in q4 and "[3, 4, 21]" in q4


def test_report_names_the_data_curve_file_a_json_run_wrote(tmp_path, capsys):
    doc = dict(SURROGATE_DOC, data_curve={"sizes": [8, 16], "seeds": [0]})
    path = write_config(tmp_path, doc)
    run = tmp_path / "run"
    assert main(["surrogate", "--config", str(path), "--out", str(run)]) == 0
    capsys.readouterr()
    assert main(["report", "--run", str(run)]) == 0
    q7 = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("Q7"))
    named = re.findall(r"data_curve\.\w+", q7)
    assert named and all((run / name).exists() for name in named)


def test_data_curve_point_of_the_runs_own_fit_has_its_test_rmse_bits(tmp_path):
    # One model scored on one test row: the curve's only point is the same
    # fit as the run's model, so both files hold the same test RMSE.
    doc = json.loads(Path("configs/surrogate_tanh.json").read_text())
    doc["space"].update({"n_samples": 16, "master_seed": 1})
    doc["split"]["seed"] = 1
    del doc["arch_sweep"]
    doc["data_curve"] = {"sizes": [16], "seeds": [1]}
    run = tmp_path / "run"
    assert main(["surrogate", "--config", str(write_config(tmp_path, doc)), "--out", str(run)]) == 0
    rmse = read_json(run / "eval_report.json")["rmse_test"]
    assert rmse is not None
    assert read_json(run / "data_curve.json")["rows"] == [[16, 1, rmse]]


def test_data_curve_scores_only_the_test_split(tmp_path, capsys):
    # At n = 8, ratios (0.8, 0.1, 0.1) leave no test row: that point has no
    # test RMSE, rather than the train RMSE in its place.
    doc = dict(SURROGATE_DOC, data_curve={"sizes": [8, 16], "seeds": [0, 1]})
    run = tmp_path / "run"
    assert main(["surrogate", "--config", str(write_config(tmp_path, doc)), "--out", str(run)]) == 0
    curve = read_json(run / "data_curve.json")
    assert [row[2] is None for row in curve["rows"]] == [True, True, False, False]
    assert curve["seed_means"][0] == {"n_samples": 8, "rmse_test": None}
    assert curve["seed_means"][1]["rmse_test"] == pytest.approx((curve["rows"][2][2] + curve["rows"][3][2]) / 2)
    lines = (run / "data_curve.csv").read_text().splitlines()
    assert lines[1:3] == ["8,0,", "8,1,"]
    capsys.readouterr()
    assert main(["report", "--run", str(run)]) == 0
    q7 = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("Q7"))
    assert "n=8 -> absent (empty split), n=16 -> " in q7


@pytest.mark.parametrize(
    "section, key, value",
    [(None, "problem", {"g": 0.0, "x0": 0.0, "x1": 1.0, "y0": 0.0, "y1": 0.0}),
     ("train", "init_scheme", "uniform"), ("output", "formats", ["csv", "json"])],
    ids=["problem", "train.init_scheme", "output.formats"],
)
def test_removed_settings_are_unknown_keys(tmp_path, capsys, section, key, value):
    doc = dict(SURROGATE_DOC, train=dict(SURROGATE_DOC["train"]), output={"directory": str(tmp_path / "out")})
    (doc if section is None else doc[section])[key] = value
    assert main(["surrogate", "--config", str(write_config(tmp_path, doc))]) == 2
    assert f"unknown keys ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_format_flag_is_unknown(tmp_path, capsys):
    path = write_config(tmp_path, SURROGATE_DOC)
    with pytest.raises(SystemExit) as exc:
        main(["surrogate", "--config", str(path), "--out", str(tmp_path / "run"), "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


def test_diverged_model_is_scored_without_a_runtime_warning(tmp_path):
    # Huge parameters on a tiny domain drive a [3, 1, 2, 7] purelin net to
    # huge finite weights, whose predictions overflow in every score and in
    # the ledger's timed prediction.
    doc = {
        "space": {
            "g_range": [100.0, 300.0], "y0_range": [-200.0, 200.0], "y1_range": [100.0, 400.0],
            "x0": 0.0, "x1": 0.001, "sampling": "uniform_random", "n_samples": 7, "master_seed": 0,
        },
        "n_nodes": 7,
        "arch": {"hidden": [1, 2], "hidden_transfer": "purelin", "output_transfer": "purelin"},
        "train": {"learning_rate": 0.1, "stop_tolerance": 1e-12, "max_epochs": 19, "init_seed": 0},
        "split": {"ratios": [0.5, 0, 0.5], "seed": 0},
        "eval": {"multipliers": [1.0, 4.0], "perturbations": [0.01], "n_fresh": 4, "seed": 0},
        "costs": {"repetitions": 3, "n_predictions": 10},
        "data_curve": {"sizes": [7], "seeds": [0]},
    }
    run = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["surrogate", "--config", str(write_config(tmp_path, doc)), "--out", str(run)]) == 0
    assert read_json(run / "train_report.json")["stop_reason"] == "diverged"
    assert read_json(run / "cost_ledger.json")["break_even"] == "invalid"


def test_surrogate_tanh_demo_config_runs(tmp_path):
    assert main([
        "surrogate", "--config", "configs/surrogate_tanh.json", "--out", str(tmp_path / "run"),
    ]) == 0
    report = read_json(tmp_path / "run" / "train_report.json")
    assert report["stop_reason"] in ("converged", "max_epochs")
    evald = read_json(tmp_path / "run" / "eval_report.json")
    curve = dict(tuple(pair) for pair in evald["extrapolation_curve"])
    # A saturating hidden layer fitted to a linear map must lose accuracy
    # as the query range widens.
    assert curve[4.0] > curve[1.0]


def test_surrogate_tiny_grid_run_is_fast(tmp_path):
    import time

    doc = json.loads(json.dumps(SURROGATE_DOC))
    doc["space"].update({"sampling": "grid", "n_samples": 8})
    path = write_config(tmp_path, doc)
    started = time.perf_counter()
    assert main(["surrogate", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    assert time.perf_counter() - started < 10.0


def test_surrogate_zero_test_ratio_reports_absent(tmp_path):
    doc = json.loads(json.dumps(SURROGATE_DOC))
    doc["split"] = {"ratios": [1.0, 0.0, 0.0], "seed": 3}
    path = write_config(tmp_path, doc)
    assert main(["surrogate", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    report = read_json(tmp_path / "run" / "eval_report.json")
    assert report["rmse_test"] is None
    assert report["rmse_val"] is None
    assert report["rmse_train"] is not None


def test_report_reads_each_candidates_test_rmse_on_an_empty_test_split(tmp_path, capsys):
    # Every row is a train row, so no candidate has a test RMSE, as Q5 and
    # Q7 say too; arch_sweep.json, the grid transfer (Q9) and the
    # sensitivity (Q10) are scored on the test split and are absent too.
    doc = json.loads(Path("configs/surrogate_tanh.json").read_text())
    doc["split"]["ratios"] = [1.0, 0.0, 0.0]
    run = tmp_path / "run"
    assert main(["surrogate", "--config", str(write_config(tmp_path, doc)), "--out", str(run)]) == 0
    assert [row["eval_report"]["rmse_test"] for row in read_json(run / "candidates.json")["rows"]] == [None] * 3
    capsys.readouterr()
    assert main(["report", "--run", str(run)]) == 0
    out = capsys.readouterr().out
    q4 = next(l for l in out.splitlines() if l.startswith("Q4"))
    assert re.findall(r"test RMSE ([^,]+),", q4) == ["absent (empty split)"] * 3
    assert [row["rmse_test"] for row in read_json(run / "arch_sweep.json")["rows"]] == [None] * 3
    eval_report = read_json(run / "eval_report.json")
    assert eval_report["discretization_transfer"] is None and eval_report["sensitivity_table"] == []
    rows = {line.split()[0]: line.split(":", 1)[1].strip() for line in out.splitlines() if line.startswith("Q")}
    assert rows["Q9"] == rows["Q10"] == "absent (empty split)"


def test_report_on_solve_run_marks_unmeasured_rows(tmp_path, capsys):
    config = write_config(
        tmp_path, {"problems": [{"g": 1.0, "x0": 0.0, "x1": 1.0, "y0": 0.0, "y1": 0.0}]}
    )
    out = tmp_path / "run"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    assert main(["report", "--run", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    q_rows = [line for line in lines if line.startswith("Q")]
    assert len(q_rows) == 10
    assert any("not measured" in line for line in q_rows)


# -- breakeven ---------------------------------------------------------


def test_breakeven_command(tmp_path, capsys):
    assert main([
        "breakeven", "--config", "configs/breakeven_demo.json", "--out", str(tmp_path),
    ]) == 0
    assert "152" in capsys.readouterr().out
    doc = read_json(tmp_path / "breakeven.json")
    assert doc["break_even"] == 152
    assert doc["total_time"] == pytest.approx(1600.0)
    assert main(["report", "--run", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "    break-even N              : 152 (t_pr 0.1 s vs t_solve 10 s)\n" in out
    assert "    total time at N=1000     : 1600 s\n" in out
    # The what-if ledger's t_dg is an input, not a measurement.
    assert "Q2  data generation cost      : not measured\n" in out


@pytest.mark.parametrize(
    "ledger, code",
    [
        ({"t_dg": 1.5e308, "t_nt": 1.5e308}, 2),  # t_dg + t_nt overflows
        ({"t_dg": 1.7976931348623157e308, "t_nt": 0.0, "t_pr": 0.0, "t_solve": 1.0}, 2),
        ({"t_dg": 1e300}, 0),
        ({"t_dg": 1.5e308, "t_nt": 0.0}, 0),
    ],
    ids=["setup-overflows", "n-beyond-float", "t_dg-1e300", "t_dg-1.5e308"],
)
def test_breakeven_on_huge_ledgers_ends_quickly_and_cleanly(tmp_path, capsys, ledger, code):
    doc = json.loads(Path("configs/breakeven_demo.json").read_text())
    doc["ledger"].update(ledger)
    started = time.perf_counter()
    assert main(["breakeven", "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)]) == code
    assert time.perf_counter() - started < 1.0
    if code == 2:
        assert "break-even N is beyond the float range" in capsys.readouterr().err
        return
    l = costs.CostLedger(**doc["ledger"])
    n = read_json(tmp_path / "breakeven.json")["break_even"]
    assert costs.total_time(l, n) < n * l.t_solve
    assert not costs.total_time(l, n - 1) < (n - 1) * l.t_solve


@pytest.mark.parametrize(
    "hidden_transfer, trainings", [("tanh", 2), ("purelin", 3), pytest.param(None, 3, id="surrogate_tanh-3")]
)
def test_surrogate_sweep_trains_each_distinct_network_once(tmp_path, monkeypatch, hidden_transfer, trainings):
    calls = []
    original = surrogate.train_surrogate

    def counting(dataset, layer_sizes, cfg, transfers=None):
        calls.append((tuple(layer_sizes), tuple(transfers)))
        return original(dataset, layer_sizes, cfg, transfers)

    monkeypatch.setattr(surrogate, "train_surrogate", counting)
    if hidden_transfer is None:  # configs/surrogate_tanh.json: a [3, 8, 101] tanh net, sweep [], [8], [16, 16]
        doc = json.loads(Path("configs/surrogate_tanh.json").read_text())
    else:
        doc = json.loads(json.dumps(SURROGATE_DOC))
        doc["arch"] = {"hidden": [4], "hidden_transfer": hidden_transfer}
        doc["arch_sweep"] = [[], [4]]
    doc["train"]["max_epochs"] = 50
    run = tmp_path / "run"
    assert main(["surrogate", "--config", str(write_config(tmp_path, doc)), "--out", str(run)]) == 0
    # The configured net is trained first. A sweep layout with its sizes and
    # its transfers is that candidate; with purelin hidden layers the
    # sweep's tanh layout of the same sizes is trained as a second one.
    assert len(calls) == trainings
    rows = read_json(run / "candidates.json")["rows"]
    assert [(tuple(row["layer_sizes"]), tuple(row["transfers"])) for row in rows] == calls
    assert len(set(calls)) == len(calls)
    model = read_json(run / "model.json")["mlp"]
    assert calls[0] == (tuple(model["layer_sizes"]), tuple(model["transfers"]))
    assert [row["layer_sizes"] for row in read_json(run / "arch_sweep.json")["rows"]] == [
        [3, *hidden, doc["n_nodes"]] for hidden in doc["arch_sweep"]
    ]


def test_diverged_run_writes_strict_json_and_reports_not_finite(tmp_path, capsys):
    # A unit learning rate makes steepest descent diverge; the run still
    # completes, its artifacts must stay valid RFC 8259 JSON, and its
    # break-even verdict is "invalid" rather than a plausible N.
    doc = json.loads(Path("configs/surrogate_tanh.json").read_text())
    doc["train"]["learning_rate"] = 1.0
    run = tmp_path / "run"
    assert main(["surrogate", "--config", str(write_config(tmp_path, doc)), "--out", str(run)]) == 0
    assert "break-even N invalid" in capsys.readouterr().out
    assert read_json(run / "cost_ledger.json")["break_even"] == "invalid"
    assert read_json(run / "manifest.json")["timings"]["break_even"] == "invalid"

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    written = sorted(run.glob("*.json"))
    assert {"eval_report.json", "train_report.json", "arch_sweep.json", "candidates.json"} <= {p.name for p in written}
    for path in written:
        json.loads(path.read_text(), parse_constant=reject)
    evald = json.loads((run / "eval_report.json").read_text())
    assert "rmse_train" in evald["non_finite"] and evald["rmse_train"] is None

    capsys.readouterr()
    assert main(["report", "--run", str(run)]) == 0
    text = capsys.readouterr().out
    assert "train RMSE not finite" in text
    assert "x4 -> not finite" in text
    assert "absent (empty split)" not in text
    assert "break-even N              : invalid" in text
    # The saturated net's sensitivity table reads 0, which must not reach the report.
    assert read_json(run / "train_report.json")["stop_reason"] == "diverged"
    assert "Q10 input sensitivity         : invalid (training diverged)\n" in text
    # Every layout diverges too, so no candidate gets a plausible N.
    rows = read_json(run / "candidates.json")["rows"]
    assert [row["layer_sizes"] for row in rows] == [[3, 8, 101], [3, 101], [3, 16, 16, 101]]
    assert all(row["ledger"]["break_even"] == "invalid" and "break_even_range" not in row["ledger"] for row in rows)
    q4 = next(l for l in text.splitlines() if l.startswith("Q4"))
    assert re.findall(r"break-even N (\S+)", q4) == ["invalid;", "invalid;", "invalid"]


# -- random whole configs ----------------------------------------------

_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
_range = st.tuples(_floats, _floats).map(sorted)
_hidden = st.lists(st.integers(1, 4), max_size=2)


@st.composite
def surrogate_configs(draw):
    """Small surrogate configs, valid or not: degenerate splits, huge multipliers and rates."""
    doc = {
        "space": {
            "g_range": draw(_range), "y0_range": draw(_range), "y1_range": draw(_range),
            "x0": 0.0, "x1": draw(st.sampled_from([1.0, 1e-3])),
            "sampling": draw(st.sampled_from(["uniform_random"] * 3 + ["grid"])),
            "n_samples": draw(st.integers(1, 27)), "master_seed": draw(st.integers(0, 9)),
        },
        "n_nodes": draw(st.integers(3, 11)),
        "arch": {
            "hidden": draw(_hidden),
            "hidden_transfer": draw(st.sampled_from(["tanh", "purelin"])),
            "output_transfer": draw(st.sampled_from(["tanh", "purelin"])),
        },
        "train": {
            "learning_rate": draw(st.sampled_from([1e-3, 0.1, 1.0, 1e6])),
            "stop_tolerance": draw(st.sampled_from([1e-12, 1.0])),
            "max_epochs": draw(st.integers(1, 20)),
            "init_seed": draw(st.integers(0, 9)),
        },
        "split": {
            "ratios": draw(st.sampled_from([[1, 0, 0], [0, 1, 0], [0.5, 0, 0.5], [0.5, 0.5, 0], [0.8, 0.1, 0.1]])),
            "seed": draw(st.integers(0, 9)),
        },
        "eval": {
            "multipliers": draw(st.lists(st.sampled_from([1e-3, 1.0, 4.0, 1e10, 1e300]), min_size=1, max_size=3)),
            "perturbations": draw(st.lists(st.sampled_from([0.0, 0.01, 1e300]), min_size=1, max_size=2)),
            "n_fresh": draw(st.integers(1, 4)),
            "seed": draw(st.integers(0, 9)),
        },
        "costs": {"repetitions": draw(st.integers(1, 3)), "n_predictions": draw(st.integers(0, 1000))},
    }
    if draw(st.booleans()):
        doc["arch_sweep"] = draw(st.lists(_hidden, min_size=1, max_size=3))
    if draw(st.booleans()):
        doc["data_curve"] = {"sizes": draw(st.lists(st.integers(1, 9), min_size=1, max_size=2)), "seeds": [0]}
    return doc


@settings(max_examples=100, deadline=None)
@given(doc=surrogate_configs())
def test_random_surrogate_configs_exit_cleanly_and_report(doc):
    with tempfile.TemporaryDirectory() as tmp:
        config, run = Path(tmp) / "config.json", Path(tmp) / "run"
        config.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
                warnings.catch_warnings():
            # A diverged model is scored and reported without a warning.
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["surrogate", "--config", str(config), "--out", str(run)])
            assert code in (0, 2, 3, 4)
            if code == 0:
                assert main(["report", "--run", str(run)]) == 0
