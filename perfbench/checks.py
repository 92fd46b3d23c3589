"""Output checks, computed by the benchmark without the package's code.

Each check returns a list of failure messages; an empty list passes.
Central differences are exact on quadratics, so a finite-difference
solution must match the closed form to rounding error.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

SOLVE_RTOL = 1e-12  # |fdm - exact| <= SOLVE_RTOL * max(1, |exact|)
FORWARD_RTOL = 1e-9  # model output against the numpy forward pass
TRAIN_RTOL = 1e-8  # trained weights against the reference descent


def closed_form(params: np.ndarray, x0: float, x1: float, n_nodes: int) -> np.ndarray:
    """Exact solution of -y'' = g for rows of (g, y0, y1), shape (rows, n_nodes)."""
    offset = np.linspace(x0, x1, n_nodes) - x0
    g, y0, y1 = (params[:, k : k + 1] for k in range(3))
    length = x1 - x0
    slope = (y1 - y0) / length + g * length / 2.0
    return -g * offset * offset / 2.0 + slope * offset + y0


def check_solves(values: np.ndarray, params: np.ndarray, x0: float, x1: float, what: str) -> list:
    exact = closed_form(params, x0, x1, values.shape[1])
    gap = np.abs(values - exact) / np.maximum(1.0, np.abs(exact))
    bad = np.flatnonzero(~(gap <= SOLVE_RTOL).all(axis=1))
    if bad.size:
        return [f"{what}: {bad.size} rows off the closed form, worst {np.nanmax(gap):.3e}"]
    return []


def reference_forward(model_doc: dict, raw: np.ndarray) -> np.ndarray:
    """Forward pass of a saved surrogate, read from its weights alone."""
    mlp = model_doc["mlp"]
    a = (raw - np.asarray(model_doc["input_center"])) / np.asarray(model_doc["input_scale"])
    for w, b, tag in zip(mlp["weights"], mlp["biases"], mlp["transfers"]):
        z = a @ np.asarray(w).T + np.asarray(b)
        a = np.tanh(z) if tag == "tanh" else z
    return a


def check_forward(predicted: np.ndarray, model_doc: dict, raw: np.ndarray, what: str) -> list:
    expected = reference_forward(model_doc, raw)
    gap = np.abs(predicted - expected) / np.maximum(1.0, np.abs(expected))
    if not (gap <= FORWARD_RTOL).all():
        return [f"{what}: predictions off the numpy forward pass, worst {np.nanmax(gap):.3e}"]
    return []


def reference_descent(weights, biases, transfers, x, y, train: dict):
    """Full-batch steepest descent on the sum of squared errors.

    Returns (weights, biases, epochs, stop reason) under the same
    stopping rule as the package: stop when the loss turns non-finite or
    changes by less than the tolerance, else after max_epochs.
    """
    weights = [np.array(w, dtype=float) for w in weights]
    biases = [np.array(b, dtype=float) for b in biases]
    prev, epochs, reason = math.inf, 0, "max_epochs"
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(train["max_epochs"]):
            inputs, sums, a = [], [], x
            for w, b, tag in zip(weights, biases, transfers):
                inputs.append(a)
                sums.append(a @ w.T + b)
                a = np.tanh(sums[-1]) if tag == "tanh" else sums[-1]
            e = y - a
            loss = float(np.sum(e * e))
            epochs += 1
            if not math.isfinite(loss):
                return weights, biases, epochs, "diverged"
            if abs(loss - prev) < train["stop_tolerance"]:
                return weights, biases, epochs, "converged"
            prev = loss
            delta = -2.0 * e
            steps = []
            for k in reversed(range(len(weights))):
                if transfers[k] == "tanh":
                    t = np.tanh(sums[k])
                    delta = delta * (1.0 - t * t)
                steps.append((k, delta.T @ inputs[k], delta.sum(axis=0)))
                delta = delta @ weights[k]
            for k, dw, db in steps:
                weights[k] -= train["learning_rate"] * dw
                biases[k] -= train["learning_rate"] * db
    return weights, biases, epochs, reason


def read_inputs(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    params = np.array([[float(v) for v in row[:3]] for row in rows])
    return params, [row[3] for row in rows]


def check_run(run_dir: Path, config: dict) -> tuple:
    """Checks on one `poissonlab surrogate` run directory.

    Returns (failures, rmse_test, digests of the files the manifest flags
    deterministic).
    """
    failures = []
    space = config["space"]
    params, split = read_inputs(run_dir / "inputs.csv")
    outputs = np.loadtxt(run_dir / "outputs.csv", delimiter=",", skiprows=1, ndmin=2)
    failures += check_solves(outputs, params, space["x0"], space["x1"], "outputs.csv")

    train_report = json.loads((run_dir / "train_report.json").read_text())
    if train_report["stop_reason"] == "diverged":
        failures.append("training diverged")
    sweep_path = run_dir / "arch_sweep.json"
    if sweep_path.exists():
        for row in json.loads(sweep_path.read_text())["rows"]:
            if not (row["rmse_test"] is not None and math.isfinite(row["rmse_test"])):
                failures.append(f"arch_sweep {row['layer_sizes']}: rmse_test not finite")

    rmse = json.loads((run_dir / "eval_report.json").read_text())["rmse_test"]
    tags = np.array(split)
    train_mean = outputs[tags == "train"].mean(axis=0)
    test = outputs[tags == "test"]
    baseline = float(np.sqrt(np.mean((test - train_mean) ** 2)))
    if not (rmse is not None and math.isfinite(rmse) and rmse < baseline):
        failures.append(f"rmse_test {rmse} not finite or not below the train-mean RMSE {baseline:.6g}")

    manifest = json.loads((run_dir / "manifest.json").read_text())
    digests = {
        entry["name"]: hashlib.sha256((run_dir / entry["name"]).read_bytes()).hexdigest()
        for entry in manifest["files"]
        if entry["deterministic"]
    }
    return failures, rmse, digests


def check_training(run_dir: Path, config: dict, init_weights, init_biases) -> list:
    """The saved model must equal the reference descent from the same start."""
    params, split = read_inputs(run_dir / "inputs.csv")
    outputs = np.loadtxt(run_dir / "outputs.csv", delimiter=",", skiprows=1, ndmin=2)
    rows = np.array([tag == "train" for tag in split])
    train_inputs = params[rows]
    center = train_inputs.mean(axis=0)
    scale = train_inputs.max(axis=0) - train_inputs.min(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    model = json.loads((run_dir / "model.json").read_text())
    report = json.loads((run_dir / "train_report.json").read_text())
    weights, biases, epochs, reason = reference_descent(
        init_weights,
        init_biases,
        model["mlp"]["transfers"],
        (train_inputs - center) / scale,
        outputs[rows],
        config["train"],
    )
    failures = []
    if (epochs, reason) != (report["epochs_run"], report["stop_reason"]):
        failures.append(
            f"training ran {report['epochs_run']} epochs ({report['stop_reason']}), "
            f"reference {epochs} ({reason})"
        )
    for k, (w, b) in enumerate(zip(weights, biases)):
        for name, ours, saved in (("weights", w, model["mlp"]["weights"][k]), ("biases", b, model["mlp"]["biases"][k])):
            gap = np.max(np.abs(ours - np.asarray(saved)) / np.maximum(1.0, np.abs(ours)))
            if not gap <= TRAIN_RTOL:
                failures.append(f"layer {k} {name} off the reference descent by {gap:.3e}")
    return failures
