"""Render a completed run directory as a ten-question cost/accuracy table.

The ten rows are the lab's standard reporting checklist: what hardware
ran the pipeline, what the data and training stages cost, what the model
looked like, how training was tuned, and how the surrogate behaves in
range, out of range, across grids, and under input perturbations. Rows
whose inputs are missing from the run say "not measured" rather than
dropping out, and a value that is not finite (inf or NaN, written to
JSON as null) reads "not finite".
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import InputError
from .manifest import load_manifest, read_run_file


def _num(value, spec: str, unit: str = "") -> str:
    value = float(value)
    return f"{value:{spec}}{unit}" if math.isfinite(value) else "not finite"


def _fmt_seconds(value) -> str:
    return _num(value, ".6g", " s")


# What a score taken on the test split reads when that split is empty.
_ABSENT = "absent (empty split)"


def _fmt_rmse(value) -> str:
    return _ABSENT if value is None else _num(value, ".6g")


def _optional_json(run_dir: Path, name: str):
    path = run_dir / name
    return read_run_file(path) if path.exists() else None


def _candidate_text(row: dict) -> str:
    scores, price = row["eval_report"], row["ledger"]
    multiplier, rmse = max(scores["extrapolation_curve"])
    return (
        f"{row['layer_sizes']} {'/'.join(row['transfers'])} -> test RMSE {_fmt_rmse(scores['rmse_test'])}, "
        f"x{multiplier:g} RMSE {_num(rmse, '.4g')}, BC gap {_num(scores['bc_violation_mean'], '.4g')}, "
        f"t_nt {_fmt_seconds(price['t_nt'])}, t_pr {_fmt_seconds(price['t_pr'])}, "
        f"break-even N {price['break_even']}"
    )


def _machine_line(manifest: dict) -> str:
    m = manifest.get("machine", {})
    parts = [
        m.get("platform", "unknown platform"),
        f"{m.get('cpu_count', '?')} cores",
        f"Python {m.get('python', '?')}",
        f"numpy {m.get('numpy', '?')}",
        f"BLAS {m.get('blas', '?')}",
    ]
    return "; ".join(parts)


def build_report(run_dir) -> str:
    """Question-by-question summary of one run; pure function of the files.

    Raises InputError when a run file lacks a key the report reads or
    holds a value of the wrong kind there.
    """
    try:
        return _report(Path(run_dir))
    except KeyError as exc:
        raise InputError(f"a run file in {run_dir} has no key {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise InputError(f"a run file in {run_dir} holds a value of the wrong kind: {exc}") from None


def _report(run_dir: Path) -> str:
    manifest = load_manifest(run_dir)
    ledger_doc = _optional_json(run_dir, "cost_ledger.json")
    # A `breakeven` run states a verdict too, from a what-if ledger whose
    # times are inputs, so it feeds the footer but not Q2.
    verdict_doc = ledger_doc if ledger_doc is not None else _optional_json(run_dir, "breakeven.json")
    train_doc = _optional_json(run_dir, "train_report.json")
    model_doc = _optional_json(run_dir, "model.json")
    eval_doc = _optional_json(run_dir, "eval_report.json")
    curve_doc = _optional_json(run_dir, "data_curve.json")
    candidates_doc = _optional_json(run_dir, "candidates.json")
    config = manifest.get("config", {})

    rows: list[tuple[str, str, str]] = []
    rows.append(("Q1", "compute resources", _machine_line(manifest)))

    if ledger_doc is not None:
        n_samples = config.get("space", {}).get("n_samples", "?")
        rows.append(
            ("Q2", "data generation cost", f"T_dg = {_fmt_seconds(ledger_doc['t_dg'])} ({n_samples} solver runs)")
        )
    else:
        rows.append(("Q2", "data generation cost", "not measured"))

    if train_doc is not None:
        t_nt = _fmt_seconds(manifest["timings"]["t_nt"])
        rows.append(("Q3", "training cost", f"T_nt = {t_nt} ({train_doc['epochs_run']} epochs)"))
    else:
        rows.append(("Q3", "training cost", "not measured"))

    if model_doc is None:
        arch = "not measured"
    elif "w" in model_doc:  # a `fit` run's least-squares line
        arch = f"fitted line: w = {_num(model_doc['w'], '.6g')}, b = {_num(model_doc['b'], '.6g')}"
    else:
        mlp = model_doc.get("mlp", model_doc)
        arch = f"layers {mlp['layer_sizes']}, transfers {mlp['transfers']}"
        if candidates_doc is not None:
            arch += "; sweep: " + "; ".join(map(_candidate_text, candidates_doc["rows"]))
    rows.append(("Q4", "architecture", arch))

    if eval_doc is not None:
        train_rmse = eval_doc.get("rmse_train")
        val_rmse = eval_doc.get("rmse_val")
        detail = f"train RMSE {_fmt_rmse(train_rmse)}, val RMSE {_fmt_rmse(val_rmse)}"
        if train_rmse and val_rmse:
            detail += f", val/train ratio {_num(val_rmse / train_rmse, '.3g')}"
        rows.append(("Q5", "over/under-fitting gap", detail))
    else:
        rows.append(("Q5", "over/under-fitting gap", "not measured"))

    train_cfg = config.get("train")
    if train_cfg is not None:
        detail = (
            f"learning rate {train_cfg['learning_rate']}, stop tolerance {train_cfg['stop_tolerance']}"
        )
        if train_doc is not None:
            detail += f", {train_doc['epochs_run']} epochs ({train_doc['stop_reason']})"
        rows.append(("Q6", "rate, tolerance, epochs", detail))
    else:
        rows.append(("Q6", "rate, tolerance, epochs", "not measured"))

    if curve_doc is not None:
        points = ", ".join(f"n={r['n_samples']} -> {_fmt_rmse(r['rmse_test'])}" for r in curve_doc["seed_means"])
        rows.append(("Q7", "data requirement curve", f"{points} (per-seed rows in data_curve.json)"))
    elif eval_doc is not None and config.get("space") is not None:
        rows.append((
            "Q7", "data requirement curve",
            f"single point: test RMSE {_fmt_rmse(eval_doc.get('rmse_test'))} at "
            f"n={config['space'].get('n_samples')} (sweep not measured)",
        ))
    else:
        rows.append(("Q7", "data requirement curve", "not measured"))

    if eval_doc is not None:
        curve = ", ".join(f"x{m:g} -> {_num(r, '.4g')}" for m, r in eval_doc["extrapolation_curve"])
        rows.append(("Q8", "extrapolation error", curve or "not measured"))
        transfer = eval_doc["discretization_transfer"]
        rows.append((
            "Q9", "discretization transfer",
            _ABSENT if transfer is None else f"RMSE {_num(transfer, '.6g')} on the 2x finer grid",
        ))
        if train_doc is not None and train_doc["stop_reason"] == "diverged":
            # Saturated units of a diverged net can read a sensitivity of 0.
            table = "invalid (training diverged)"
        else:
            table = ", ".join(f"delta {d:g} -> max dev {_num(v, '.4g')}" for d, v in eval_doc["sensitivity_table"])
        # Every config lists a perturbation, so only an empty test split leaves the table empty.
        rows.append(("Q10", "input sensitivity", table or _ABSENT))
    else:
        rows.append(("Q8", "extrapolation error", "not measured"))
        rows.append(("Q9", "discretization transfer", "not measured"))
        rows.append(("Q10", "input sensitivity", "not measured"))

    lines = [f"run report: {run_dir}", "-" * 72]
    for tag, label, value in rows:
        lines.append(f"{tag:<4}{label:<26}: {value}")
    lines.append("-" * 72)

    if eval_doc is not None:
        lines.append(f"    physics check (BC gap)    : mean {_num(eval_doc['bc_violation_mean'], '.6g')}")
    if verdict_doc is not None:
        lines.append(
            f"    break-even N              : {verdict_doc['break_even']} "
            f"(t_pr {_fmt_seconds(verdict_doc['t_pr'])} vs t_solve {_fmt_seconds(verdict_doc['t_solve'])})"
        )
        if "break_even_range" in verdict_doc:
            pessimistic, optimistic = verdict_doc["break_even_range"]
            lines.append(
                f"    break-even N range        : {pessimistic} to {optimistic} "
                "(timing quartiles, pessimistic first)"
            )
        lines.append(
            f"    total time at N={verdict_doc['n_predictions']:<9}: {_fmt_seconds(verdict_doc['total_time'])}"
        )
    return "\n".join(lines) + "\n"
