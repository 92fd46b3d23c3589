"""Parametric surrogate pipeline: sample (g, y0, y1), solve each case with
the finite-difference solver, train an MLP mapping parameters to nodal
values, and measure how the surrogate holds up in and out of range.
`run` chains every stage of one `poissonlab surrogate` run and returns
the results as a `SurrogateRun`, without writing a file.

Data generation draws every sample from one PCG64 stream per branch of
the master seed's tree; sample i is the stream's i-th row, so each
random draw depends only on the master seed and the sample's index.
A parameter row's columns are `pde.PARAMETERS`; every width here is read
from that tuple, from the data or from the model.
Model inputs are standardized to zero mean and unit range on the train
split; the offsets live inside the trained artifact so predictions stay
well defined.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from . import ann, costs
from .errors import ParameterError, ShapeError
from .linalg import as_matrix
from .pde import PARAMETERS, PoissonProblem, fdm_values, solve_fdm

if TYPE_CHECKING:  # config imports this module
    from .config import ExperimentConfig

SAMPLINGS = ("uniform_random", "grid")
SPLIT_TAGS = ("train", "val", "test")

# Seed-tree branch labels: generation draws from the stream at (0,),
# evaluation draws from the stream at (1, multiplier_index).
_BRANCH_GENERATE = 0
_BRANCH_EVAL = 1


@dataclass(frozen=True)
class ParameterSpace:
    """Sampling ranges for (g, y0, y1) over a fixed domain [x0, x1]."""

    g_range: tuple
    y0_range: tuple
    y1_range: tuple
    x0: float
    x1: float
    sampling: str
    n_samples: int
    master_seed: int

    def __post_init__(self):
        for name in (f"{p}_range" for p in PARAMETERS):
            lo, hi = getattr(self, name)
            # + 0.0 turns -0.0 into 0.0: numpy's uniform rejects [0.0, -0.0], whose width is -0.0.
            object.__setattr__(self, name, (float(lo) + 0.0, float(hi) + 0.0))
            if not lo <= hi:
                raise ParameterError(f"{name} must satisfy lo <= hi, got [{lo}, {hi}]")
            # Uniform draws overflow on a range wider than the largest float.
            if not math.isfinite(hi - lo):
                raise ParameterError(f"{name} must have a finite width, got [{lo}, {hi}]")
        if not self.x0 < self.x1:
            raise ParameterError(f"need x0 < x1, got [{self.x0}, {self.x1}]")
        if self.n_samples < 1:
            raise ParameterError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.sampling not in SAMPLINGS:
            raise ParameterError(f"sampling must be one of {SAMPLINGS}, got {self.sampling!r}")
        if self.sampling == "grid" and self.grid_side ** len(PARAMETERS) != self.n_samples:
            raise ParameterError(f"grid sampling needs a perfect-cube n_samples, got {self.n_samples}")

    @property
    def ranges(self) -> tuple:
        return tuple(getattr(self, f"{p}_range") for p in PARAMETERS)

    @property
    def grid_side(self) -> int:
        """Points per axis of a grid of n_samples rows, rounded; math.log reads ints past the float range."""
        return round(math.exp(math.log(self.n_samples) / len(PARAMETERS)))


@dataclass
class SurrogateDataset:
    """Sampled inputs, solver outputs on a shared grid, and split tags."""

    inputs: np.ndarray
    outputs: np.ndarray
    grid: np.ndarray
    split: list
    generation_time: float = 0.0

    def __post_init__(self):
        self.inputs = as_matrix(self.inputs)
        self.outputs = as_matrix(self.outputs)
        self.grid = np.asarray(self.grid, dtype=float)
        self.split = list(self.split)
        if self.outputs.shape[0] != self.inputs.shape[0]:
            raise ShapeError("inputs and outputs must have equal row counts")
        if self.outputs.shape[1] != self.grid.shape[0]:
            raise ShapeError("output columns must match the grid length")
        if len(self.split) != self.inputs.shape[0]:
            raise ShapeError("one split tag per sample required")
        for tag in self.split:
            if tag not in SPLIT_TAGS:
                raise ParameterError(f"unknown split tag {tag!r}")

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    def rows_for(self, tag: str) -> np.ndarray:
        return np.array([i for i, t in enumerate(self.split) if t == tag], dtype=int)


def _seeded_draws(ranges, count: int, seed: int, *branch: int) -> np.ndarray:
    """(count, len(ranges)) uniform draws from the PCG64 stream at (seed, *branch) in the seed tree.

    Row i is the stream's i-th row, so it depends only on (seed, branch, i)
    and the first k rows are the same for every count >= k.
    """
    lo, hi = np.array(ranges, dtype=float).T
    rng = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=branch))
    return rng.uniform(lo, hi, (count, len(ranges)))


def sample_inputs(space: ParameterSpace) -> np.ndarray:
    """(n_samples, len(PARAMETERS)) parameter rows, uniform per-sample or a cube
    grid: the cartesian product of per-axis linspaces."""
    if space.sampling == "uniform_random":
        return _seeded_draws(space.ranges, space.n_samples, space.master_seed, _BRANCH_GENERATE)
    axes = [np.linspace(lo, hi, space.grid_side) for lo, hi in space.ranges]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.reshape(-1) for m in mesh])


def generate_dataset(space: ParameterSpace, n_nodes: int) -> SurrogateDataset:
    """Sample the parameter space and solve every sample in one batched sweep.

    The solver validates every sample as PoissonProblem would; a bad one
    aborts with a ParameterError naming the first offending sample index.
    """
    # numpy imports numpy.random on first use. Import it before the clock
    # starts, so that a fresh process's generation time holds no import.
    import numpy.random  # noqa: F401

    started = time.perf_counter()
    inputs = sample_inputs(space)
    outputs = fdm_values(*inputs.T, space.x0, space.x1, n_nodes)
    return SurrogateDataset(
        inputs=inputs,
        outputs=outputs,
        grid=np.linspace(space.x0, space.x1, n_nodes),
        split=["train"] * space.n_samples,
        generation_time=time.perf_counter() - started,
    )


def check_split_ratios(ratios) -> tuple:
    """ratios as floats; ParameterError unless one non-negative number per split, summing to 1."""
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != len(SPLIT_TAGS) or any(r < 0 for r in ratios):
        raise ParameterError(f"ratios must be one non-negative number per split {SPLIT_TAGS}, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ParameterError(f"ratios must sum to 1, got {sum(ratios)}")
    return ratios


def split_dataset(dataset: SurrogateDataset, ratios, seed: int) -> SurrogateDataset:
    """Assign train/val/test tags by seeded permutation and contiguous ratios.

    Rounding residue goes to train; zero val or test ratios simply leave
    those splits empty. The result shares its arrays with `dataset`.
    """
    ratios = check_split_ratios(ratios)
    n = dataset.n_samples
    n_val = int(n * ratios[1])
    n_test = int(n * ratios[2])
    n_train = n - n_val - n_test
    order = np.random.default_rng(seed).permutation(n)
    split = [""] * n
    for pos, row in enumerate(order):
        if pos < n_train:
            split[row] = "train"
        elif pos < n_train + n_val:
            split[row] = "val"
        else:
            split[row] = "test"
    return replace(dataset, split=split)


@dataclass
class SurrogateModel:
    """Trained MLP plus the input standardization baked into the artifact."""

    mlp: ann.MlpModel
    input_center: np.ndarray
    input_scale: np.ndarray
    grid: np.ndarray

    def __post_init__(self):
        self.input_center = np.asarray(self.input_center, dtype=float)
        self.input_scale = np.asarray(self.input_scale, dtype=float)
        self.grid = np.asarray(self.grid, dtype=float)
        n_in = self.mlp.layer_sizes[0]
        if not self.input_center.shape == self.input_scale.shape == (n_in,):
            raise ShapeError(
                f"model input size must be {self.input_center.size}, got {n_in}"
                f" (standardization offsets {self.input_center.shape} and {self.input_scale.shape})"
            )
        if self.mlp.layer_sizes[-1] != self.grid.shape[0]:
            raise ShapeError("model output size must match the grid length")

    def predict(self, raw_inputs) -> np.ndarray:
        """(n, grid_size) nodal predictions for raw parameter rows.

        A single row may be 1-D; it gives (1, grid_size). Rows are
        standardized as `(x - input_center) / input_scale`: 2-D inputs
        by `_standardized`, with the same bits, and the 1-D row by the
        plain expression, which adds no call in front of the one-row path.
        """
        x = np.asarray(raw_inputs, dtype=float)
        # Checked before standardizing, which would broadcast a scalar or a
        # width-1 input against the offsets into plausible rows.
        if x.ndim not in (1, 2) or x.shape[-1] != self.mlp.layer_sizes[0]:
            raise ShapeError(f"inputs must be rows of {self.mlp.layer_sizes[0]} parameters, got shape {x.shape}")
        if x.ndim == 2:
            x = _standardized(x, self.input_center, self.input_scale)
        else:
            x = (x - self.input_center) / self.input_scale
        return ann.predict_batch(self.mlp, x)

    def to_dict(self) -> dict:
        return {
            "mlp": self.mlp.to_dict(),
            "input_center": self.input_center.tolist(),
            "input_scale": self.input_scale.tolist(),
            "grid": self.grid.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SurrogateModel":
        return cls(
            mlp=ann.MlpModel.from_dict(doc["mlp"]),
            input_center=doc["input_center"],
            input_scale=doc["input_scale"],
            grid=doc["grid"],
        )


def _standardization(train_inputs: np.ndarray) -> tuple:
    center = train_inputs.mean(axis=0)
    scale = train_inputs.max(axis=0) - train_inputs.min(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return center, scale


def _standardized(rows: np.ndarray, center: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """`(rows - center) / scale` for float rows (n, k), bit for bit, as a new
    array: the subtraction into it and the division in place, each by
    `ann._rowwise`, whose row tiles spare numpy's broadcast copies."""
    z = ann._rowwise(rows, center, ufunc=np.subtract)
    return ann._rowwise(z, scale, z, np.divide)


def train_surrogate(
    dataset: SurrogateDataset,
    layer_sizes,
    cfg: ann.TrainConfig,
    transfers=None,
) -> tuple:
    """Train on the train split only; returns (SurrogateModel, TrainReport)."""
    layer_sizes = tuple(int(s) for s in layer_sizes)
    if layer_sizes[0] != dataset.inputs.shape[1]:
        raise ShapeError(f"surrogate input size must be {dataset.inputs.shape[1]}, got {layer_sizes[0]}")
    if layer_sizes[-1] != dataset.grid.shape[0]:
        raise ShapeError(
            f"surrogate output size {layer_sizes[-1]} must match grid {dataset.grid.shape[0]}"
        )
    train_rows = dataset.rows_for("train")
    if train_rows.size == 0:
        raise ParameterError("train split is empty")
    train_inputs = dataset.inputs[train_rows]
    center, scale = _standardization(train_inputs)
    x = _standardized(train_inputs, center, scale)
    y = dataset.outputs[train_rows]
    model = ann.init_mlp(layer_sizes, transfers=transfers, seed=cfg.init_seed)
    trained, report = ann.train_steepest_descent(model, x, y, cfg)
    surrogate = SurrogateModel(mlp=trained, input_center=center, input_scale=scale, grid=dataset.grid)
    return surrogate, report


@dataclass
class EvalReport:
    """Accuracy of a trained surrogate, in range and beyond.

    Split metrics are None when the split is empty; extrapolation pairs
    (range multiplier, rmse); sensitivity pairs (input perturbation, max
    output deviation); bc_violation_mean is the mean gap between
    predicted end-node values and the solver's, which are the
    prescribed boundary values.
    """

    rmse_train: float | None
    rmse_val: float | None
    rmse_test: float | None
    extrapolation_curve: list
    sensitivity_table: list
    discretization_transfer: float | None
    bc_violation_mean: float


def _scoring():
    """The error state every score of a model's predictions is taken under:
    a diverged model predicts inf/nan, which its scores report instead of
    warning."""
    return np.errstate(over="ignore", invalid="ignore")


def _rmse(predicted: np.ndarray, truth: np.ndarray) -> float:
    diff = predicted - truth
    return float(np.sqrt(np.mean(diff * diff)))


def _split_rmses(predictions: np.ndarray, dataset: SurrogateDataset) -> dict:
    """{split tag: RMSE over its rows, or None when it is empty} of the predictions of every row."""
    # One array of squared errors serves every split, and one split's row indices are held
    # at a time, so less is held above the reference solves.
    squares = predictions - dataset.outputs
    squares *= squares
    return {
        tag: float(np.sqrt(np.mean(squares[rows]))) if rows.size else None
        for tag in SPLIT_TAGS for rows in [dataset.rows_for(tag)]
    }


def scaled_space(space: ParameterSpace, multiplier: float) -> ParameterSpace:
    """Ranges widened about their midpoints by the multiplier."""
    def scale(rng):
        lo, hi = rng
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo) * multiplier
        return (mid - half, mid + half)

    return replace(space, **{f"{p}_range": scale(r) for p, r in zip(PARAMETERS, space.ranges)})


def eval_reference(dataset: SurrogateDataset, space: ParameterSpace, extrap_multipliers, n_fresh=32, seed=0):
    """The solves `evaluate` compares a model with: one (multiplier, rows, solves)
    per multiplier, the test split's rows, and their solves on the 2x finer
    grid. They do not depend on the model, so a run solves them once."""
    if n_fresh < 1:
        raise ParameterError(f"n_fresh must be >= 1, got {n_fresh}")
    n_nodes = dataset.grid.shape[0]
    fresh = []
    for m_index, multiplier in enumerate(extrap_multipliers):
        wider = scaled_space(space, float(multiplier))
        draws = _seeded_draws(wider.ranges, n_fresh, seed, _BRANCH_EVAL, m_index)
        fresh.append((float(multiplier), draws, fdm_values(*draws.T, wider.x0, wider.x1, n_nodes)))
    tests = dataset.inputs[dataset.rows_for("test")]
    return fresh, tests, fdm_values(*tests.T, space.x0, space.x1, 2 * (n_nodes - 1) + 1)


def evaluate(
    model: SurrogateModel,
    dataset: SurrogateDataset,
    space: ParameterSpace,
    extrap_multipliers,
    perturbations,
    n_fresh: int = 32,
    seed: int = 0,
    reference: tuple | None = None,
) -> EvalReport:
    """Score a trained surrogate against fresh solver runs.

    Interpolation: RMSE per split against the stored solver outputs.
    Extrapolation: for each multiplier, n_fresh parameter draws from the
    widened ranges are solved in one batched sweep and compared.
    Sensitivity: each input of every test row is nudged by +-delta and
    the largest output deviation is recorded; a non-finite deviation
    makes the entry NaN rather than hiding it. Discretization transfer:
    test-row predictions are linearly resampled onto a 2x finer grid and
    compared with one batched sweep on that grid. An empty test split
    leaves the sensitivity table empty and the transfer None, as it
    leaves rmse_test None. `reference`, when given, is `eval_reference`
    of the same dataset, space, multipliers, n_fresh and seed, so
    several models share its solves.
    """
    fresh, tests, fine_truth = reference or eval_reference(dataset, space, extrap_multipliers, n_fresh, seed)
    with _scoring():
        predictions = model.predict(dataset.inputs)
        by_split = _split_rmses(predictions, dataset)

        ends = np.abs(predictions[:, [0, -1]] - dataset.outputs[:, [0, -1]])
        bc_violation_mean = float(np.mean(0.5 * (ends[:, 0] + ends[:, 1])))

        curve = [(multiplier, _rmse(model.predict(draws), truth)) for multiplier, draws, truth in fresh]

        sensitivity, transfer = [], None
        if len(tests):
            base = model.predict(tests)
            for delta in perturbations:
                delta = float(delta)
                deviations = []
                for axis in range(tests.shape[1]):
                    for sign in (+1.0, -1.0):
                        nudged = tests.copy()
                        nudged[:, axis] += sign * delta
                        deviations.append(np.max(np.abs(model.predict(nudged) - base)))
                # np.max, unlike the builtin max, propagates NaN.
                sensitivity.append((delta, float(np.max(deviations))))

            fine_grid = np.linspace(space.x0, space.x1, fine_truth.shape[1])
            fine_pred = np.vstack([np.interp(fine_grid, dataset.grid, row) for row in base])
            transfer = _rmse(fine_pred, fine_truth)

    return EvalReport(
        rmse_train=by_split["train"], rmse_val=by_split["val"], rmse_test=by_split["test"],
        extrapolation_curve=curve, sensitivity_table=sensitivity,
        discretization_transfer=transfer, bc_violation_mean=bc_violation_mean,
    )


def architecture_sweep(dataset: SurrogateDataset, layouts, cfg: ann.TrainConfig) -> list:
    """Train one model per (layer sizes, transfers) layout; a list of (SurrogateModel, TrainReport)."""
    return [train_surrogate(dataset, layer_sizes, cfg, transfers) for layer_sizes, transfers in layouts]


def sweep_layouts(cfg: ExperimentConfig) -> list:
    """(layer sizes, default transfers) of each `arch_sweep` entry, in config order."""
    n_in, *_, n_out = cfg.arch.layer_sizes(cfg.n_nodes)
    return [((n_in, *h, n_out), ann.default_transfers((n_in, *h, n_out))) for h in cfg.arch_sweep or ()]


def fit(cfg: ExperimentConfig) -> tuple:
    """The one retrain-from-scratch path: (SurrogateDataset, SurrogateModel, TrainReport)
    of the configured data, split with `split.seed`, and the configured layout trained on it."""
    dataset = split_dataset(generate_dataset(cfg.space, cfg.n_nodes), cfg.split_ratios, seed=cfg.split_seed)
    model, report = train_surrogate(dataset, cfg.arch.layer_sizes(cfg.n_nodes), cfg.train, cfg.arch.transfer_tags())
    return dataset, model, report


def data_requirement_curve(cfg: ExperimentConfig) -> dict:
    """Test RMSE against sample count: {"rows": (n_samples, seed, rmse_test) per point,
    "seed_means": per size, the mean of its rows that have a test RMSE}. Each point is
    `fit` at that size with the master and split seeds set to the seed, scored as
    `evaluate` scores; None stands for an empty test split."""
    rows = []
    for size in cfg.data_curve.sizes:
        for seed in cfg.data_curve.seeds:
            space = replace(cfg.space, n_samples=size, master_seed=seed)
            dataset, model, _ = fit(replace(cfg, space=space, split=replace(cfg.split, seed=seed)))
            with _scoring():
                rows.append((size, seed, _split_rmses(model.predict(dataset.inputs), dataset)["test"]))
    seed_means = []
    for size in cfg.data_curve.sizes:
        scores = [rmse for n, _, rmse in rows if n == size and rmse is not None]
        seed_means.append({"n_samples": size, "rmse_test": float(np.mean(scores)) if scores else None})
    return {"rows": rows, "seed_means": seed_means}


@dataclass
class Candidate:
    """One model of a run, evaluated and priced like every other; `ledger` is a `costs.summary` dict."""

    model: SurrogateModel
    train_report: ann.TrainReport
    eval_report: EvalReport
    ledger: dict


@dataclass
class SurrogateRun:
    """Everything one `poissonlab surrogate` run computes, ready to write.

    `candidates` holds the configured net first, then each `arch_sweep` layout not
    already among them; `data_curve` is `data_requirement_curve(cfg)`, or None without one.
    """

    dataset: SurrogateDataset
    candidates: tuple
    data_curve: dict | None


def run(cfg: ExperimentConfig) -> SurrogateRun:
    """Generate, split, train, evaluate and price every candidate; no file I/O.

    The configured net comes from `fit`, the sweep's from `architecture_sweep`.
    Every candidate is scored by `evaluate` against one set of reference
    solves, and priced on the first sample's problem by one `costs.measure`
    call, which times its `solve_fdm` once and each candidate's prediction
    of it. The data curve runs last, out of the ledgers' timings.
    """
    cfg.require("space", "arch", "train", "split", "eval", "costs")
    space, spec = cfg.space, cfg.eval_spec
    dataset, model, report = fit(cfg)
    layouts = dict.fromkeys([(model.mlp.layer_sizes, model.mlp.transfers), *sweep_layouts(cfg)])
    trained = [(model, report), *architecture_sweep(dataset, list(layouts)[1:], cfg.train)]
    reference = eval_reference(dataset, space, spec.multipliers, spec.n_fresh, spec.seed)
    evals = [
        evaluate(model, dataset, space, spec.multipliers, spec.perturbations, reference=reference)
        for model, _ in trained
    ]

    probe = dataset.inputs[0]
    problem = PoissonProblem(x0=space.x0, x1=space.x1, **{p: float(v) for p, v in zip(PARAMETERS, probe)})
    with _scoring():  # outside the timed calls, so t_pr times the bare prediction
        ledgers = costs.measure(
            dataset.generation_time, lambda: solve_fdm(problem, cfg.n_nodes),
            [(r.wall_time, partial(m.predict, probe)) for m, r in trained],
            cfg.cost_spec.n_predictions, cfg.cost_spec.repetitions,
        )
    candidates = tuple(
        Candidate(m, r, e, costs.summary(l, diverged=r.stop_reason == "diverged", rmse_test=e.rmse_test))
        for (m, r), e, l in zip(trained, evals, ledgers)
    )

    curve = None if cfg.data_curve is None else data_requirement_curve(cfg)
    return SurrogateRun(dataset, candidates, curve)
