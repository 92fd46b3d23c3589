"""Multi-layer perceptrons trained from scratch by full-batch steepest descent.

The loss is the plain sum of squared errors (no 1/2 or 1/N
normalization), and the gradient of a single linear neuron reduces to
dL/dw = -2 e^T x and dL/db = -2 e^T 1. Deeper models apply the standard
backward recursion layer by layer. Divergence is a recorded training
outcome, not an exception: steepest descent is only stable for small
enough learning rates and the lab measures that boundary.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError, ShapeError


@dataclass(frozen=True)
class TransferFunction:
    """Elementwise activation a = f(n) and its derivative f' written in terms of a.

    `apply` may overwrite its argument and returns a. `derivative` is None
    when f' is 1 everywhere (purelin): backpropagation then skips the
    multiply, which changes nothing because x * 1.0 == x exactly.
    """

    tag: str
    apply: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray] | None


TRANSFERS = {
    "purelin": TransferFunction(tag="purelin", apply=lambda n: n, derivative=None),
    "tanh": TransferFunction(
        tag="tanh",
        apply=lambda n: np.tanh(n, out=n),
        derivative=lambda a: 1.0 - a * a,
    ),
}


def resolve_transfer(tag: str) -> TransferFunction:
    try:
        return TRANSFERS[tag]
    except KeyError:
        raise ParameterError(f"unknown transfer function {tag!r}") from None


@dataclass
class MlpModel:
    """Layer sizes, one weight matrix and bias vector per layer, transfer tags.

    weights[k] has shape (layer_sizes[k+1], layer_sizes[k]) and biases[k]
    has shape (layer_sizes[k+1],).
    """

    layer_sizes: tuple
    weights: list
    biases: list
    transfers: tuple

    def __post_init__(self):
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        self.transfers = tuple(self.transfers)
        if len(self.layer_sizes) < 2 or any(s < 1 for s in self.layer_sizes):
            raise ShapeError(f"bad layer sizes {self.layer_sizes}")
        n_layers = len(self.layer_sizes) - 1
        if not (len(self.weights) == len(self.biases) == len(self.transfers) == n_layers):
            raise ShapeError("weights, biases and transfers must have one entry per layer")
        try:
            self.weights = [np.asarray(w, dtype=float) for w in self.weights]
            self.biases = [np.asarray(b, dtype=float) for b in self.biases]
        except (TypeError, ValueError) as exc:
            raise ShapeError(f"weights and biases must be rectangular arrays of numbers: {exc}") from exc
        for k in range(n_layers):
            want = (self.layer_sizes[k + 1], self.layer_sizes[k])
            if self.weights[k].shape != want:
                raise ShapeError(f"layer {k} weights must be {want}, got {self.weights[k].shape}")
            if self.biases[k].shape != (self.layer_sizes[k + 1],):
                raise ShapeError(f"layer {k} bias must be ({self.layer_sizes[k+1]},)")
        # Resolved once here so no forward pass looks tags up per layer.
        self._transfer_fns = tuple(resolve_transfer(tag) for tag in self.transfers)

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    def copy(self) -> "MlpModel":
        return MlpModel(
            layer_sizes=self.layer_sizes,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            transfers=self.transfers,
        )

    def to_dict(self) -> dict:
        return {
            "layer_sizes": list(self.layer_sizes),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "transfers": list(self.transfers),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MlpModel":
        return cls(
            layer_sizes=tuple(doc["layer_sizes"]),
            weights=doc["weights"],
            biases=doc["biases"],
            transfers=tuple(doc["transfers"]),
        )


def default_transfers(layer_sizes) -> tuple:
    """tanh on hidden layers, purelin on the output layer."""
    n_layers = len(layer_sizes) - 1
    return tuple(["tanh"] * (n_layers - 1) + ["purelin"])


def init_mlp(layer_sizes, transfers=None, seed: int = 0, scheme: str = "uniform") -> MlpModel:
    """Build a model with seeded parameters.

    scheme "uniform" draws every weight and bias from U[-0.5, 0.5] using
    one PCG64 stream (weights before biases, layer by layer); "zeros"
    starts everything at zero.
    """
    layer_sizes = tuple(int(s) for s in layer_sizes)
    if transfers is None:
        transfers = default_transfers(layer_sizes)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_out, fan_in in zip(layer_sizes[1:], layer_sizes[:-1]):
        if scheme == "uniform":
            weights.append(rng.uniform(-0.5, 0.5, size=(fan_out, fan_in)))
            biases.append(rng.uniform(-0.5, 0.5, size=fan_out))
        elif scheme == "zeros":
            weights.append(np.zeros((fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        else:
            raise ParameterError(f"unknown init scheme {scheme!r}")
    return MlpModel(layer_sizes=layer_sizes, weights=weights, biases=biases, transfers=transfers)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    stop_tolerance: float
    max_epochs: int
    init_seed: int = 0
    init_scheme: str = "uniform"

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ParameterError("learning_rate must be > 0")
        if not self.stop_tolerance > 0:
            raise ParameterError("stop_tolerance must be > 0")
        if self.max_epochs < 1:
            raise ParameterError("max_epochs must be >= 1")


@dataclass
class TrainReport:
    """Per-epoch loss trace and why training stopped."""

    loss_history: list
    epochs_run: int
    stop_reason: str
    wall_time: float


def _as_batch(arr, width: int, name: str) -> np.ndarray:
    a = np.asarray(arr, dtype=float)
    if a.ndim == 1:
        a = a[:, None] if width == 1 else a[None, :]
    if a.ndim != 2 or a.shape[1] != width:
        raise ShapeError(f"{name} must have width {width}, got shape {np.shape(arr)}")
    return a


def predict_batch(model: MlpModel, inputs) -> np.ndarray:
    """Forward pass over rows of inputs; returns (n_samples, n_out)."""
    a0 = _as_batch(inputs, model.layer_sizes[0], "inputs")
    return _forward_trace(model, a0)[-1]


def _forward_trace(model: MlpModel, a0: np.ndarray) -> list:
    """The activation entering each layer, then the output: [a0, ..., aL]."""
    activations = [a0]
    a = a0
    for w, b, transfer in zip(model.weights, model.biases, model._transfer_fns):
        z = a @ w.T
        z += b
        a = transfer.apply(z)
        activations.append(a)
    return activations


def _as_pair(model: MlpModel, inputs, targets) -> tuple:
    x = _as_batch(inputs, model.layer_sizes[0], "inputs")
    y = _as_batch(targets, model.layer_sizes[-1], "targets")
    if y.shape[0] != x.shape[0]:
        raise ShapeError("inputs and targets must have the same number of rows")
    return x, y


def loss_sse(model: MlpModel, inputs, targets) -> float:
    """Sum of squared errors over all samples and output components."""
    x, y = _as_pair(model, inputs, targets)
    e = y - _forward_trace(model, x)[-1]
    return float((e * e).sum())


def gradients(model: MlpModel, inputs, targets) -> list:
    """Per-layer (dL/dW, dL/db) for the sum-of-squared-errors loss.

    For a single linear neuron this is exactly (-2 e^T x, -2 e^T 1);
    deeper layers chain the output error backwards through f'.
    """
    return _loss_and_gradients(model, *_as_pair(model, inputs, targets))[1]


def _loss_and_gradients(model: MlpModel, x: np.ndarray, y: np.ndarray) -> tuple:
    """(loss_sse, gradients) from a single forward trace.

    x and y must already have passed _as_pair; nothing is checked here.
    """
    activations = _forward_trace(model, x)
    e = y - activations[-1]
    delta = -2.0 * e
    grads = [None] * model.n_layers
    for k in reversed(range(model.n_layers)):
        derivative = model._transfer_fns[k].derivative
        if derivative is not None:
            delta *= derivative(activations[k + 1])
        grads[k] = (delta.T @ activations[k], delta.sum(axis=0))
        if k > 0:
            delta = delta @ model.weights[k]
    return float((e * e).sum()), grads


def train_steepest_descent(model: MlpModel, inputs, targets, cfg: TrainConfig):
    """Full-batch steepest descent w <- w - alpha dL/dw until the loss stalls.

    Each epoch records the loss before updating; training stops when
    |loss_k - loss_{k-1}| < stop_tolerance ("converged"), when the loss
    turns non-finite ("diverged"), or at max_epochs. Returns the updated
    model copy and a TrainReport.
    """
    started = time.perf_counter()
    m = model.copy()
    x, y = _as_pair(m, inputs, targets)
    history: list[float] = []
    prev = math.inf
    stop_reason = "max_epochs"
    # Divergence is a recorded outcome, so let overflow run to inf quietly.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.max_epochs):
            loss, grads = _loss_and_gradients(m, x, y)
            history.append(loss)
            if not math.isfinite(loss):
                stop_reason = "diverged"
                break
            if abs(loss - prev) < cfg.stop_tolerance:
                stop_reason = "converged"
                break
            prev = loss
            for (w, b), (dw, db) in zip(zip(m.weights, m.biases), grads):
                w -= cfg.learning_rate * dw
                b -= cfg.learning_rate * db
    report = TrainReport(
        loss_history=history,
        epochs_run=len(history),
        stop_reason=stop_reason,
        wall_time=time.perf_counter() - started,
    )
    return m, report


def check_gradients(model: MlpModel, inputs, targets, step: float = 1e-6) -> float:
    """Worst relative gap between analytic and central-difference gradients.

    Every weight and bias is perturbed by +-step; the gap is normalized
    by max(1, |analytic|, |numeric|) so near-zero gradients are compared
    absolutely.
    """
    if not step > 0:
        raise ParameterError("step must be > 0")
    x, y = _as_pair(model, inputs, targets)
    analytic = gradients(model, x, y)
    worst = 0.0
    probe = model.copy()

    def central_difference(array, index):
        saved = array[index]
        array[index] = saved + step
        above = loss_sse(probe, x, y)
        array[index] = saved - step
        below = loss_sse(probe, x, y)
        array[index] = saved
        return (above - below) / (2.0 * step)

    for k in range(model.n_layers):
        dw, db = analytic[k]
        for index in np.ndindex(probe.weights[k].shape):
            numeric = central_difference(probe.weights[k], index)
            gap = abs(numeric - dw[index]) / max(1.0, abs(numeric), abs(dw[index]))
            worst = max(worst, gap)
        for i in range(probe.biases[k].shape[0]):
            numeric = central_difference(probe.biases[k], i)
            gap = abs(numeric - db[i]) / max(1.0, abs(numeric), abs(db[i]))
            worst = max(worst, gap)
    return worst
