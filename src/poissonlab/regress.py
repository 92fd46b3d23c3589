"""Synthetic line-plus-noise datasets and least-squares fitting.

Data generation mirrors the classic recipe: inputs uniform on a range,
targets w*x + b plus additive uniform noise on [-amplitude, +amplitude].
The random stream is numpy's PCG64 seeded explicitly, so identical
parameters give bit-identical datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .linalg import pseudoinverse


@dataclass(frozen=True)
class RegressionDataset:
    """Paired samples: inputs and their targets."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inputs", np.asarray(self.inputs, dtype=float))
        object.__setattr__(self, "targets", np.asarray(self.targets, dtype=float))
        if self.inputs.ndim != 1 or self.targets.ndim != 1:
            raise ShapeError("inputs and targets must be 1-D")
        if self.inputs.shape[0] != self.targets.shape[0] or self.inputs.shape[0] < 2:
            raise ShapeError("inputs and targets must share a length >= 2")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class LinearModel:
    w: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.w) and math.isfinite(self.b)):
            raise ParameterError("w and b must be finite")

    def predict(self, x):
        return self.w * np.asarray(x, dtype=float) + self.b


def generate_synthetic(
    n: int,
    true_w: float,
    true_b: float,
    x_range: tuple[float, float],
    noise_amplitude: float,
    seed: int,
) -> RegressionDataset:
    """Draw x uniform on x_range and targets true_w*x + true_b + e.

    The noise e is uniform on [-noise_amplitude, +noise_amplitude]; x is
    drawn before e from a single PCG64 stream.
    """
    lo, hi = float(x_range[0]), float(x_range[1])
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    if not lo < hi:
        raise ParameterError(f"x_range must satisfy lo < hi, got [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        raise ParameterError(f"x_range must have a finite width, got [{lo}, {hi}]")
    if noise_amplitude < 0:
        raise ParameterError(f"noise_amplitude must be >= 0, got {noise_amplitude}")
    rng = np.random.default_rng(seed)
    x = lo + (hi - lo) * rng.random(n)
    e = -noise_amplitude + 2.0 * noise_amplitude * rng.random(n)
    y = true_w * x + true_b + e
    return RegressionDataset(inputs=x, targets=y)


def build_design_matrix(dataset: RegressionDataset) -> np.ndarray:
    """N x 2 matrix with the inputs in column 0 and ones in column 1."""
    return np.column_stack([dataset.inputs, np.ones(dataset.n)])


def fit_least_squares(dataset: RegressionDataset) -> LinearModel:
    """Slope and intercept minimizing the sum of squared errors.

    Solves beta = pinv(X) y on the [x 1] design matrix. A dataset whose
    inputs are all identical makes the normal equations singular and
    raises SingularMatrixError.
    """
    design = build_design_matrix(dataset)
    beta = pseudoinverse(design) @ dataset.targets
    return LinearModel(w=float(beta[0]), b=float(beta[1]))
