"""Minimal dense linear algebra: a normal-equation pseudoinverse for
skinny full-rank matrices and a Thomas solver for tridiagonal systems.

Matrices and vectors are plain float64 numpy arrays (row-major). The
pseudoinverse deliberately implements (X^T X)^{-1} X^T through a
Cholesky factorization of the normal equations rather than an SVD: the
design matrices in this package have at most a handful of columns, and
the normal-equation route keeps the arithmetic auditable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SingularMatrixError

# A factorization pivot below this fraction of the largest diagonal entry
# is treated as rank deficiency.
PIVOT_RTOL = 1e-12


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 array with at least one row and column."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def cholesky_spd(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive-definite matrix.

    Raises SingularMatrixError when any pivot falls below
    PIVOT_RTOL times the largest diagonal entry, which covers both
    rank-deficient and non-positive-definite inputs.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    threshold = PIVOT_RTOL * float(np.max(np.abs(np.diag(a))))
    lower = np.zeros_like(a)
    for j in range(n):
        pivot = a[j, j] - lower[j, :j] @ lower[j, :j]
        if not (pivot > threshold):
            raise SingularMatrixError(
                f"pivot {pivot:.3e} at column {j} below threshold {threshold:.3e}"
            )
        lower[j, j] = math.sqrt(pivot)
        if j + 1 < n:
            lower[j + 1 :, j] = (a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def solve_cholesky(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = rhs given the lower Cholesky factor L.

    rhs may be a vector or a matrix of stacked right-hand-side columns.
    """
    n = lower.shape[0]
    y = np.zeros_like(rhs, dtype=float)
    for i in range(n):
        y[i] = (rhs[i] - lower[i, :i] @ y[:i]) / lower[i, i]
    x = np.zeros_like(y)
    for i in reversed(range(n)):
        x[i] = (y[i] - lower[i + 1 :, i] @ x[i + 1 :]) / lower[i, i]
    return x


def pseudoinverse(x) -> np.ndarray:
    """Moore-Penrose pseudoinverse (X^T X)^{-1} X^T of a skinny full-rank matrix.

    Requires rows >= cols. Rank deficiency of X^T X surfaces as
    SingularMatrixError.
    """
    x = as_matrix(x)
    rows, cols = x.shape
    if rows < cols:
        raise ShapeError(f"expected rows >= cols, got shape {x.shape}")
    xtx = x.T @ x
    lower = cholesky_spd(xtx)
    return solve_cholesky(lower, x.T)


@dataclass(frozen=True)
class TridiagonalSystem:
    """A·u = rhs with A given by its sub-, main- and super-diagonals.

    rhs is one right-hand side (n,) or a batch of them as columns (n, batch).
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sub", np.asarray(self.sub, dtype=float))
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        object.__setattr__(self, "sup", np.asarray(self.sup, dtype=float))
        object.__setattr__(self, "rhs", np.asarray(self.rhs, dtype=float))
        n = self.diag.shape[0]
        if self.diag.ndim != 1 or n < 1:
            raise ShapeError("diag must be a vector of length >= 1")
        for name, arr, want in (("sub", self.sub, n - 1), ("sup", self.sup, n - 1)):
            if arr.ndim != 1 or arr.shape[0] != want:
                raise ShapeError(f"{name} must have length {want}, got {arr.shape}")
        if self.rhs.ndim not in (1, 2) or self.rhs.shape[0] != n:
            raise ShapeError(f"rhs must have shape ({n},) or ({n}, batch), got {self.rhs.shape}")


@functools.lru_cache(maxsize=4)
def _eliminate(sub: bytes, diag: bytes, sup: bytes) -> tuple:
    """Forward elimination of the matrix whose diagonals are these float64 bytes.

    Returns (sub, pivots, sup/pivot ratios) as tuples of Python floats,
    which are IEEE doubles like numpy's float64 scalars, so every later
    operation rounds exactly as it would on the arrays. Keyed on content,
    so a caller that mutates its diagonals gets a fresh elimination; a
    singular matrix raises, and lru_cache does not cache exceptions.
    """
    tiny = PIVOT_RTOL * max(1.0, float(np.max(np.abs(np.frombuffer(diag)))))
    sub, diag, sup = (np.frombuffer(b).tolist() for b in (sub, diag, sup))
    n = len(diag)
    pivots, ratios = [diag[0]], []
    if abs(pivots[0]) <= tiny:
        raise SingularMatrixError(f"zero pivot at row 0 ({pivots[0]:.3e})")
    if n > 1:
        ratios.append(sup[0] / pivots[0])
    for i in range(1, n):
        pivot = diag[i] - sub[i - 1] * ratios[i - 1]
        if abs(pivot) <= tiny:
            raise SingularMatrixError(f"zero pivot at row {i} ({pivot:.3e})")
        pivots.append(pivot)
        if i < n - 1:
            ratios.append(sup[i] / pivot)
    return tuple(sub), tuple(pivots), tuple(ratios)


def solve_tridiagonal(system: TridiagonalSystem) -> np.ndarray:
    """Thomas algorithm without pivoting; returns u with the shape of rhs.

    Intended for diagonally dominant systems (the finite-difference
    Laplacian qualifies); a vanishing pivot raises SingularMatrixError.
    The elimination depends on the matrix alone and is cached, so
    repeated solves with one matrix pay only for the substitution. One
    loop serves one rhs and a batch, a row at a time: a Python float for
    an (n,) rhs, where numpy indexing would cost more than the
    arithmetic, and a numpy row for an (n, batch) rhs, so each column
    gets exactly the operations of its own vector solve.
    """
    sub, pivots, ratios = _eliminate(system.sub.tobytes(), system.diag.tobytes(), system.sup.tobytes())
    rhs = system.rhs
    rows = rhs.tolist() if rhs.ndim == 1 else list(rhs)
    prev = rows[0] / pivots[0]
    work = [prev]
    for r, s, pivot in zip(rows[1:], sub, pivots[1:]):
        prev = (r - s * prev) / pivot
        work.append(prev)
    # Back substitution in place: the last row already holds u.
    for i in reversed(range(len(ratios))):
        prev = work[i] = work[i] - ratios[i] * prev
    return np.fromiter(work, float, len(work)) if rhs.ndim == 1 else np.array(work)
