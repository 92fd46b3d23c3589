"""Command-line front end for the lab.

Subcommands map one-to-one onto pipeline stages: `solve` runs the
classical solvers, `fit` the least-squares experiment, `train-ann` the
steepest-descent experiment, `surrogate` the full generate/split/train/
evaluate/measure pipeline, `breakeven` the what-if cost calculator, and
`report` renders a completed run as the ten-question table. `surrogate`
computes the whole run through `surrogate.run` before it writes, so a
run whose pipeline fails writes no file.

Exit codes: 0 success; 2 config error, including a config file that is
not UTF-8 text and an --out that cannot be a directory; 3 numerical
failure; 4 missing input, or a run's manifest that is not a JSON object.
Datasets and plot-ready curves are written as CSV; models, reports and
the manifest as JSON.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import ann, costs, pde, regress, surrogate
from .config import ExperimentConfig, load_config, override_seeds, parse_config
from .errors import ConfigError, InputError, ParameterError, ShapeError, SingularMatrixError
from .fileio import write_csv, write_json
from .manifest import write_manifest
from .report import build_report


def _resolve_out_dir(cfg: ExperimentConfig, args) -> Path:
    if args.out is not None:
        out = Path(args.out)
    elif cfg.output is not None:
        out = Path(cfg.output.directory)
    else:
        out = Path("out")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # such as a file where the directory should be
        raise ConfigError(f"cannot use {out} as the output directory: {exc.strerror}") from exc
    return out


class _Artifacts:
    """Writes a run's files and records (name, deterministic) for its manifest.

    The writers are looked up in this module's globals at call time, so
    anything that replaces cli.write_csv, cli.write_json or
    cli.write_manifest sees every call.
    """

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files = []

    def csv(self, name: str, header, rows, deterministic: bool = True) -> None:
        write_csv(self.out_dir / name, header, rows)
        self.files.append((name, deterministic))

    def json(self, name: str, obj, deterministic: bool = True) -> None:
        write_json(self.out_dir / name, obj)
        self.files.append((name, deterministic))

    def training(self, model, report) -> None:
        """model.json, train_report.json and loss.csv."""
        self.json("model.json", model.to_dict())
        self.json("train_report.json", report, deterministic=False)
        self.csv("loss.csv", ("epoch", "loss"), enumerate(report.loss_history, start=1))

    def manifest(self, config_doc: dict, timings: dict) -> None:
        write_manifest(self.out_dir, config_doc, timings=timings, files=self.files)


def cmd_solve(cfg: ExperimentConfig, out_dir: Path) -> None:
    cfg.require("problems")
    out = _Artifacts(out_dir)
    combined = []
    for i, problem in enumerate(cfg.problems):
        analytic = pde.solve_analytic(problem, cfg.n_nodes)
        fdm = pde.solve_fdm(problem, cfg.n_nodes)
        for field in (analytic, fdm):
            name = f"solution_{i}_{field.provenance}.csv"
            out.csv(name, ("x", "y", "provenance"), field.csv_rows())
        combined.extend(
            (i, problem.g, problem.y0, problem.y1, x, y)
            for x, y in zip(analytic.nodes, analytic.values)
        )
    out.csv("figure1.csv", ("series", "g", "y0", "y1", "x", "y"), combined)
    out.manifest(cfg.raw, timings={})
    print(f"wrote {len(out.files)} solution files to {out_dir}")


def cmd_fit(cfg: ExperimentConfig, out_dir: Path) -> None:
    cfg.require("regression")
    r = cfg.regression
    dataset = regress.generate_synthetic(**asdict(r))
    model = regress.fit_least_squares(dataset)

    out = _Artifacts(out_dir)
    out.csv("dataset.csv", ("x", "y"), zip(dataset.inputs, dataset.targets))
    out.json("dataset.json", dataset.meta)
    out.json("model.json", {"w": model.w, "b": model.b})
    line_x = np.linspace(r.x_range[0], r.x_range[1], r.n)
    out.csv(
        "fit_line.csv",
        ("x", "y_true", "y_fit"),
        zip(line_x, r.true_w * line_x + r.true_b, model.predict(line_x)),
    )
    out.manifest(cfg.raw, timings={})
    print(f"fitted w={model.w:.6g} b={model.b:.6g}; artifacts in {out_dir}")


def _build_ann_model(cfg: ExperimentConfig) -> ann.MlpModel:
    spec = cfg.ann_spec
    transfers = spec.transfers or ann.default_transfers(spec.layer_sizes)
    if spec.init_weights is not None:
        return ann.MlpModel(
            layer_sizes=spec.layer_sizes,
            weights=spec.init_weights,
            biases=spec.init_biases,
            transfers=transfers,
        )
    return ann.init_mlp(spec.layer_sizes, transfers=transfers, seed=cfg.train.init_seed)


def cmd_train_ann(cfg: ExperimentConfig, out_dir: Path) -> None:
    cfg.require("regression", "ann", "train")
    r = cfg.regression
    dataset = regress.generate_synthetic(**asdict(r))
    model = _build_ann_model(cfg)
    trained, report = ann.train_steepest_descent(model, dataset.inputs, dataset.targets, cfg.train)

    out = _Artifacts(out_dir)
    out.training(trained, report)
    out.manifest(cfg.raw, timings={"t_nt": report.wall_time})
    print(
        f"training stopped after {report.epochs_run} epochs ({report.stop_reason}); "
        f"artifacts in {out_dir}"
    )


def cmd_surrogate(cfg: ExperimentConfig, out_dir: Path) -> None:
    run = surrogate.run(cfg)
    dataset, first = run.dataset, run.candidates[0]
    eval_report, verdict = first.eval_report, first.ledger

    out = _Artifacts(out_dir)
    out.csv(
        "inputs.csv",
        (*pde.PARAMETERS, "split"),
        ((*row.tolist(), tag) for row, tag in zip(dataset.inputs, dataset.split)),
    )
    out.csv("outputs.csv", tuple(f"y_{j}" for j in range(dataset.grid.shape[0])), dataset.outputs)
    out.json(
        "dataset.json",
        {
            "grid": dataset.grid,
            "seeds": {"master_seed": cfg.space.master_seed, "split_seed": cfg.split_seed},
            "sampling": cfg.space.sampling,
            "n_samples": dataset.n_samples,
            "n_nodes": cfg.n_nodes,
            "split_counts": {tag: int(dataset.rows_for(tag).size) for tag in surrogate.SPLIT_TAGS},
        },
    )
    out.training(first.model, first.train_report)
    out.json("eval_report.json", eval_report)
    out.csv("extrapolation.csv", ("range_multiplier", "rmse"), eval_report.extrapolation_curve)
    out.csv("sensitivity.csv", ("input_perturbation", "max_output_deviation"), eval_report.sensitivity_table)

    if run.data_curve is not None:
        out.json("data_curve.json", run.data_curve)
        out.csv("data_curve.csv", ("n_samples", "seed", "rmse_test"), run.data_curve["rows"])

    rows = [
        {"layer_sizes": c.model.mlp.layer_sizes, "transfers": c.model.mlp.transfers,
         "epochs_run": c.train_report.epochs_run, "stop_reason": c.train_report.stop_reason,
         "eval_report": c.eval_report, "ledger": c.ledger}
        for c in run.candidates
    ]
    out.json("candidates.json", {"rows": rows}, deterministic=False)
    if cfg.arch_sweep is not None:  # written beside candidates.json for one more release
        by_layout = {(c.model.mlp.layer_sizes, c.model.mlp.transfers): c for c in run.candidates}
        rows = [
            {"layer_sizes": c.model.mlp.layer_sizes, "rmse_test": c.eval_report.rmse_test,
             "epochs_run": c.train_report.epochs_run, "wall_time": c.train_report.wall_time}
            for c in map(by_layout.get, surrogate.sweep_layouts(cfg))
        ]
        out.json("arch_sweep.json", {"rows": rows}, deterministic=False)

    out.json("cost_ledger.json", verdict, deterministic=False)
    timings = {key: verdict[key] for key in ("t_dg", "t_nt", "t_pr", "t_solve", "total_time", "break_even")}
    out.manifest(cfg.raw, timings=timings)
    rmse = eval_report.rmse_test
    print(
        f"surrogate run complete: test RMSE "
        f"{'absent' if rmse is None else format(rmse, '.6g')}, "
        f"break-even N {verdict['break_even']}; artifacts in {out_dir}"
    )


def cmd_breakeven(cfg: ExperimentConfig, out_dir: Path) -> None:
    cfg.require("ledger")
    verdict = costs.summary(cfg.ledger)
    out = _Artifacts(out_dir)
    out.json("breakeven.json", verdict)
    out.manifest(cfg.raw, timings={})
    print(f"break-even N : {verdict['break_even']}")
    print(f"total time at N={verdict['n_predictions']}: {verdict['total_time']:.6g} s")


COMMANDS = {
    "solve": cmd_solve,
    "fit": cmd_fit,
    "train-ann": cmd_train_ann,
    "surrogate": cmd_surrogate,
    "breakeven": cmd_breakeven,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="poissonlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="override every seed in the config")
    report_parser = sub.add_parser("report")
    report_parser.add_argument("--run", required=True, help="run directory containing manifest.json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            sys.stdout.write(build_report(args.run))
            return 0
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = parse_config(override_seeds(cfg.raw, args.seed))
        out_dir = _resolve_out_dir(cfg, args)
        COMMANDS[args.command](cfg, out_dir)
        return 0
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ShapeError, SingularMatrixError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (FileNotFoundError, InputError) as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
