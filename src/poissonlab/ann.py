"""Multi-layer perceptrons trained from scratch by full-batch steepest descent.

The loss is the plain sum of squared errors (no 1/2 or 1/N
normalization), and the gradient of a single linear neuron reduces to
dL/dw = -2 e^T x and dL/db = -2 e^T 1. Deeper models apply the standard
backward recursion layer by layer. Divergence is a recorded training
outcome, not an exception: steepest descent is only stable for small
enough learning rates and the lab measures that boundary.

One forward function, `_forward`, serves prediction, the loss and
`_Epoch`, the epoch that training, `gradients` and `check_gradients` run.
It runs layer steps `(w.T, b, transfer.apply, out)`. `MlpModel` resolves
its own once, as views, so weights and biases change only in place, with
`out` None; the epoch passes its own buffers as `out`.
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

    `apply` writes a over its argument n and returns it; `derivative`
    writes f' over its argument a and returns it. Training's epoch plan
    relies on both working in place. `derivative` is None when f' is 1
    everywhere (purelin): backpropagation then skips the multiply, which
    changes nothing because x * 1.0 == x exactly.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray] | None


TRANSFERS = {
    "purelin": TransferFunction(apply=lambda n: n, derivative=None),
    "tanh": TransferFunction(
        apply=lambda n: np.tanh(n, n),
        derivative=lambda a: np.subtract(1.0, np.multiply(a, a, out=a), out=a),
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
    has shape (layer_sizes[k+1],). Each layer's forward step
    `(weights[k].T, biases[k], transfer.apply, None)` is resolved once, here,
    and holds views of those arrays. `weights` and `biases` are tuples,
    so an entry changes only in place (as training's `theta -= grad`
    does), and the steps always see the current values.
    """

    layer_sizes: tuple
    weights: tuple
    biases: tuple
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
            self.weights = tuple(np.asarray(w, dtype=float) for w in self.weights)
            self.biases = tuple(np.asarray(b, dtype=float) for b in self.biases)
        except (TypeError, ValueError) as exc:
            raise ShapeError(f"weights and biases must be rectangular arrays of numbers: {exc}") from exc
        for k in range(n_layers):
            want = (self.layer_sizes[k + 1], self.layer_sizes[k])
            if self.weights[k].shape != want:
                raise ShapeError(f"layer {k} weights must be {want}, got {self.weights[k].shape}")
            if self.biases[k].shape != (self.layer_sizes[k + 1],):
                raise ShapeError(f"layer {k} bias must be ({self.layer_sizes[k+1]},)")
        # Resolved once here, so a forward pass pays only for its arithmetic.
        self._layers = tuple(
            (w.T, b, resolve_transfer(tag).apply, None)
            for w, b, tag in zip(self.weights, self.biases, self.transfers)
        )

    def __reduce__(self):
        # A copy or an unpickled model is built anew, so its layer steps
        # view its own weights and biases, not copies made beside them.
        return MlpModel, (self.layer_sizes, self.weights, self.biases, self.transfers)

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

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


def init_mlp(layer_sizes, transfers=None, seed: int = 0) -> MlpModel:
    """Build a model whose every weight and bias is drawn from U[-0.5, 0.5]
    by one PCG64 stream, weights before biases, layer by layer."""
    layer_sizes = tuple(int(s) for s in layer_sizes)
    if transfers is None:
        transfers = default_transfers(layer_sizes)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_out, fan_in in zip(layer_sizes[1:], layer_sizes[:-1]):
        weights.append(rng.uniform(-0.5, 0.5, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-0.5, 0.5, size=fan_out))
    return MlpModel(layer_sizes=layer_sizes, weights=weights, biases=biases, transfers=transfers)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    stop_tolerance: float
    max_epochs: int
    init_seed: int = 0

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


def _as_rows(arr, width: int, name: str) -> np.ndarray:
    """arr as float rows of the given width: (n, width), or one (width,) row.

    A 1-D array is one row, except for a width-1 model, which reads it as
    a column of n rows.
    """
    a = np.asarray(arr, dtype=float)
    if a.ndim == 1 and width == 1:
        a = a[:, None]
    if a.ndim not in (1, 2) or a.shape[-1] != width:
        raise ShapeError(f"{name} must have width {width}, got shape {np.shape(arr)}")
    return a


def predict_batch(model: MlpModel, inputs) -> np.ndarray:
    """Forward pass over rows of inputs; returns (n_samples, n_out).

    One 1-D row goes through the layers as a vector and comes back as
    (1, n_out).
    """
    out = _forward(model._layers, _as_rows(inputs, model.layer_sizes[0], "inputs"))
    return out if out.ndim == 2 else out[None, :]


# Rows (n, n_in) with n >= 2 * ROW_BLOCK take `_forward`'s batch branch,
# the same bits in less time. Its bias add runs on `_rowwise`'s row tiles:
# a (1024, 101) add took 31 µs that way against 57 µs broadcast, a
# (1024, 8) add 8 µs against 10 µs. A layer with fewer than C_ORDER_FAN_IN
# inputs and at most C_ORDER_FAN_OUT outputs multiplies by a C-ordered copy
# of `w.T`, made per call so that in-place edits of the weights are seen.
# OpenBLAS 0.3.31 sends that layout to its small-matrix kernel, which took
# `(1024, 8) @ (8, 101)` in 31 µs against 54 µs for the F-ordered view.
# The two layouts give equal bits only inside those bounds: scans of 6,000
# random shapes inside them, with 128 to 4,000 C-ordered rows, and of 3,000
# with F-ordered rows found no difference, while products with 16 or more
# inputs, or more than 192 outputs, differed in many shapes. Every other
# layer, the 1-D row and smaller batches keep the F-ordered view: a one-row
# product goes to gemv, whose bits depend on the operand's layout, and the
# other layout was checked from 128 rows only. The bounds were measured on
# one build (numpy 2.4.6, OpenBLAS 0.3.31, AVX-512 Xeon, one thread); on
# another, the bit-for-bit tests in tests/test_ann.py say which BLAS they ran on.
ROW_BLOCK = 64
C_ORDER_FAN_IN, C_ORDER_FAN_OUT = 16, 192


def _forward(layers: tuple, a: np.ndarray) -> np.ndarray:
    """The output for one row (n_in,) or rows (n, n_in), as a 1-D or 2-D
    array, by layer steps `(w.T, b, apply, out)`: each layer's product
    is written into `out`, a new array when `out` is None, and biased
    and transferred in place.

    The product and the bias add are picked once per call from the
    input's shape. A 1-D row takes `np.dot` and rows `np.matmul`: the
    same BLAS routine and bits, but `np.dot` skips 0.3-0.6 µs of
    dispatch per layer on a vector and is slower on a large batch (see
    README §3). Both add the bias by `np.add`. From 2 * ROW_BLOCK rows
    the product reads a C-ordered `w.T` inside the bounds above, and
    `_rowwise`, whose ufunc is `np.add` by default, adds on row tiles.
    """
    if a.ndim == 1:
        product, add = np.dot, np.add
    elif a.shape[0] < 2 * ROW_BLOCK:
        product, add = np.matmul, np.add
    else:
        product, add = _matmul_rows, _rowwise
    for wt, b, apply, out in layers:
        z = product(a, wt, out)
        a = apply(add(z, b, z))
    return a


def _matmul_rows(a: np.ndarray, wt: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """`np.matmul(a, wt, out)`, on a C-ordered copy of `wt` inside the bounds above."""
    fan_in, fan_out = wt.shape
    if fan_in < C_ORDER_FAN_IN and fan_out <= C_ORDER_FAN_OUT:
        wt = np.ascontiguousarray(wt)
    return np.matmul(a, wt, out)


def _rowwise(rows: np.ndarray, v: np.ndarray, out: np.ndarray | None = None, ufunc: np.ufunc = np.add) -> np.ndarray:
    """`ufunc(rows, v, out)` for rows (n, k) and one (k,) vector, bit for bit.

    numpy broadcasts `v` over the rows through a scratch buffer of 8,192
    elements at a time. From 2 * ROW_BLOCK rows, the first
    n - n % ROW_BLOCK go in blocks of ROW_BLOCK against one
    (ROW_BLOCK, k) tile filled from `v` on each call, and the rest
    against `v` by plain broadcasting: the same elementwise operations,
    so `rows + b`, `rows - v` and `rows / v` keep their bits; fewer rows
    take `ufunc(rows, v, out)` itself. Splitting the row axis into
    blocks is a view for any strides, so `out` is written in place. When
    `out` is None it is a new array laid out like `rows`, as numpy's own
    broadcast result is. `out` may be `rows` itself.
    """
    n, k = rows.shape
    if n < 2 * ROW_BLOCK:
        return ufunc(rows, v, out)
    if out is None:
        out = np.empty_like(rows)
    whole = n - n % ROW_BLOCK
    tile = np.empty((ROW_BLOCK, k))
    tile[...] = v
    ufunc(rows[:whole].reshape(-1, ROW_BLOCK, k), tile, out[:whole].reshape(-1, ROW_BLOCK, k))
    if whole < n:
        ufunc(rows[whole:], v, out[whole:])
    return out


def _as_pair(model: MlpModel, inputs, targets) -> tuple:
    """Inputs and targets as (n, width) float rows, one row each per sample."""
    x = np.atleast_2d(_as_rows(inputs, model.layer_sizes[0], "inputs"))
    y = np.atleast_2d(_as_rows(targets, model.layer_sizes[-1], "targets"))
    if y.shape[0] != x.shape[0]:
        raise ShapeError("inputs and targets must have the same number of rows")
    return x, y


def loss_sse(model: MlpModel, inputs, targets) -> float:
    """Sum of squared errors over all samples and output components."""
    x, y = _as_pair(model, inputs, targets)
    e = y - _forward(model._layers, x)
    return float((e * e).sum())


def gradients(model: MlpModel, inputs, targets) -> list:
    """Per-layer (dL/dW, dL/db) for the sum-of-squared-errors loss.

    For a single linear neuron this is exactly (-2 e^T x, -2 e^T 1);
    deeper layers chain the output error backwards through f'. The arrays
    are views into the flat gradient vector of one training epoch.
    """
    epoch = _Epoch(model, *_as_pair(model, inputs, targets))
    epoch.run()
    epoch.grad *= -2.0
    return epoch.grads


def _flat_layers(flat: np.ndarray, layer_sizes: tuple) -> list:
    """Per-layer (weights, bias) views into one flat vector, laid out
    layer by layer with each layer's weights (row-major) before its bias."""
    views, start = [], 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bias_start = start + fan_out * fan_in
        views.append(
            (flat[start:bias_start].reshape(fan_out, fan_in), flat[bias_start : bias_start + fan_out])
        )
        start = bias_start + fan_out
    return views


class _Epoch:
    """One full-batch epoch on fixed (x, y), built once as a fixed plan of calls.

    `model` is a copy of the given model whose weights and biases are
    views into one flat vector `theta`; `grads` are views of the same
    layout into `grad`, so a descent step is two whole-vector calls.
    Each layer's output and each hidden layer's delta get one buffer,
    allocated here. Every input, output, residual and delta is then a
    fixed array, and every `w.T` (taken from the model's layer steps)
    and `delta.T` a fixed view of one, so the whole epoch is a tuple of
    `(function, arguments)` steps, built here and run unchanged by every
    `run()`: one `_forward` call on the model's layer steps with the
    output buffers as their `out`, the residual, the backward pass
    through each layer's `TransferFunction.derivative`, and the loss.
    Both transfer calls write in place (see `TransferFunction`), so f'
    lies in the buffer the plan handed over. A purelin layer gets no
    derivative step and no multiply.

    The residual e = y - a_L overwrites a purelin output, which nothing
    reads afterwards; a tanh output layer keeps a residual buffer of its
    own, because its f' is taken in place in the output's buffer and
    e * f' is written there. The backward pass overwrites each tanh
    layer's output with f' and then with that layer's delta once nothing
    else reads it, so the buffers hold no activations after `run()`.

    The backward pass propagates e, not -2e, and `run()` leaves
    -1/2 dL/dtheta in `grad`: the caller applies the -2, training
    together with its learning rate in one `grad *= -2.0 * rate`. A
    power of two scales every product and sum exactly (short of overflow
    and subnormals), so the gradients keep the bits of propagating -2e.
    The loss is computed last, by squaring e in place.
    """

    def __init__(self, model: MlpModel, x: np.ndarray, y: np.ndarray):
        sizes = model.layer_sizes
        n_params = sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
        self.theta = np.empty(n_params)
        self.grad = np.empty(n_params)
        params = _flat_layers(self.theta, sizes)
        for (w, b), w0, b0 in zip(params, model.weights, model.biases):
            w[...] = w0
            b[...] = b0
        self.model = MlpModel(
            layer_sizes=sizes,
            weights=[w for w, _ in params],
            biases=[b for _, b in params],
            transfers=model.transfers,
        )
        self.grads = _flat_layers(self.grad, sizes)
        derivatives = [resolve_transfer(tag).derivative for tag in model.transfers]
        rows = x.shape[0]
        outputs = [np.empty((rows, size)) for size in sizes[1:]]
        activations = [x, *outputs]
        residual = outputs[-1] if derivatives[-1] is None else np.empty((rows, sizes[-1]))

        layers = tuple((wt, b, apply, out) for (wt, b, apply, _), out in zip(self.model._layers, outputs))
        steps = [(_forward, (layers, x)), (np.subtract, (y, outputs[-1], residual))]
        delta = residual
        for k in reversed(range(len(params))):
            derivative = derivatives[k]
            if derivative is not None:
                f = outputs[k]
                steps += [(derivative, (f,)), (np.multiply, (delta, f, f))]
                delta = f
            dw, db = self.grads[k]
            steps += [(np.matmul, (delta.T, activations[k], dw)), (np.add.reduce, (delta, 0, None, db))]
            if k > 0:
                below = np.empty((rows, sizes[k]))
                steps.append((np.matmul, (delta, self.model.weights[k], below)))
                delta = below
        steps += [(np.multiply, (residual, residual, residual)), (np.add.reduce, (residual, None))]
        self.steps = tuple(steps)

    def run(self) -> float:
        """The loss at `theta`, which the last step sums; leaves -1/2 dL/dtheta in `grad`."""
        for step, args in self.steps:
            loss = step(*args)
        return float(loss)


def train_steepest_descent(model: MlpModel, inputs, targets, cfg: TrainConfig):
    """Full-batch steepest descent w <- w - alpha dL/dw until the loss stalls.

    Each epoch records the loss before updating; training stops when
    |loss_k - loss_{k-1}| < stop_tolerance ("converged"), when the loss
    turns non-finite ("diverged"), or at max_epochs. Returns the updated
    model copy and a TrainReport. No rows is a ParameterError: a loss of
    0.0 on no data would otherwise read as "converged".
    """
    started = time.perf_counter()
    x, y = _as_pair(model, inputs, targets)
    if x.shape[0] == 0:
        raise ParameterError("training needs at least one row")
    epoch = _Epoch(model, x, y)
    # The epoch leaves -1/2 dL/dtheta in grad. -2.0 * rate is exact, so
    # grad * (-2.0 * rate) rounds the same real product as (grad * -2.0) * rate
    # unless an entry of grad reaches 2**1023 while the loss is finite.
    run, theta, grad, scale = epoch.run, epoch.theta, epoch.grad, -2.0 * cfg.learning_rate
    history: list[float] = []
    prev = math.inf
    stop_reason = "max_epochs"
    # Divergence is a recorded outcome, so let overflow run to inf quietly.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.max_epochs):
            loss = run()
            history.append(loss)
            if not math.isfinite(loss):
                stop_reason = "diverged"
                break
            if abs(loss - prev) < cfg.stop_tolerance:
                stop_reason = "converged"
                break
            prev = loss
            grad *= scale
            theta -= grad
    report = TrainReport(
        loss_history=history,
        epochs_run=len(history),
        stop_reason=stop_reason,
        wall_time=time.perf_counter() - started,
    )
    return epoch.model, report


def check_gradients(model: MlpModel, inputs, targets, step: float = 1e-6) -> float:
    """Worst relative gap between analytic and central-difference gradients.

    The analytic gradient comes from one training epoch. Each entry of
    its flat parameter vector, every weight and bias, is perturbed by
    +-step in place, and `loss_sse` runs on the epoch's model, whose
    weights and biases are views of that vector. The gap is normalized
    by max(1, |analytic|, |numeric|) so near-zero gradients are compared
    absolutely. It is NaN when any gap is, as when the loss or a
    parameter is not finite, so an unchecked gradient never reads 0.
    """
    if not step > 0:
        raise ParameterError("step must be > 0")
    x, y = _as_pair(model, inputs, targets)
    epoch = _Epoch(model, x, y)
    epoch.run()
    analytic = epoch.grad * -2.0
    theta, probe = epoch.theta, epoch.model
    numeric = np.empty_like(theta)
    for i in range(theta.size):
        saved = theta[i]
        theta[i] = saved + step
        above = loss_sse(probe, x, y)
        theta[i] = saved - step
        numeric[i] = (above - loss_sse(probe, x, y)) / (2.0 * step)
        theta[i] = saved
    scale = np.maximum(1.0, np.maximum(np.abs(numeric), np.abs(analytic)))
    # np.max, unlike the builtin max, propagates NaN.
    return float(np.max(np.abs(numeric - analytic) / scale))
