"""The 1D Poisson problem -y'' = g on [x0, x1] with Dirichlet ends.

The source term is restricted to constants, which keeps an exact
closed-form solution available as an oracle for the finite-difference
path: central differences are exact on quadratics, so the two solvers
must agree to rounding error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .linalg import TridiagonalSystem, solve_tridiagonal

PROVENANCES = ("analytic", "fdm")

# The columns of a parameter row, in the order fdm_values takes them.
PARAMETERS = ("g", "y0", "y1")

DEFAULT_N_NODES = 101


def _check_parameters(g, x0, x1, y0, y1) -> None:
    """Raise ParameterError unless all are finite, x0 < x1 and x1 - x0 is
    finite (the grid spacing is a fraction of it); for vectors
    g, y0, y1 (one problem per entry, all on [x0, x1]) name the first bad one."""
    if getattr(g, "ndim", 0):
        _check_parameters(0.0, x0, x1, 0.0, 0.0)
        finite = np.isfinite(g) & np.isfinite(y0) & np.isfinite(y1)
        if not finite.all():
            i = int(np.argmin(finite))
            try:
                _check_parameters(float(g[i]), x0, x1, float(y0[i]), float(y1[i]))
            except ParameterError as exc:
                raise ParameterError(f"sample {i}: {exc}") from exc
        return
    for name, value in (("g", g), ("x0", x0), ("x1", x1), ("y0", y0), ("y1", y1)):
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value!r}")
    if not x0 < x1:
        raise ParameterError(f"need x0 < x1, got [{x0}, {x1}]")
    if not math.isfinite(x1 - x0):
        raise ParameterError(f"[x0, x1] must have a finite width, got [{x0}, {x1}]")


@dataclass(frozen=True)
class PoissonProblem:
    """Constant source term g, domain [x0, x1], boundary values y0, y1."""

    g: float
    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        _check_parameters(self.g, self.x0, self.x1, self.y0, self.y1)


@dataclass(frozen=True)
class SolutionField:
    """Nodal values of a solution on a strictly increasing grid."""

    nodes: np.ndarray
    values: np.ndarray
    provenance: str

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.nodes.ndim != 1 or self.values.ndim != 1:
            raise ShapeError("nodes and values must be 1-D")
        if self.nodes.shape[0] != self.values.shape[0] or self.nodes.shape[0] < 2:
            raise ShapeError("nodes and values must share a length >= 2")
        # Written as a positive test so that NaN nodes fail it too.
        if not (self.nodes[1:] > self.nodes[:-1]).all():
            raise ParameterError("nodes must be strictly increasing")
        if self.provenance not in PROVENANCES:
            raise ParameterError(f"unknown provenance {self.provenance!r}")

    def csv_rows(self):
        """Rows for the `x,y,provenance` CSV layout."""
        return [(x, y, self.provenance) for x, y in zip(self.nodes, self.values)]


# The grids and interior Laplacians of the last few grids solved on: a run
# needs its own grid and the finer one of the transfer check. Cached
# arrays are read-only, so no caller can change what a later solve gets.
# typed=True keeps a float n_nodes from being served an int's entry: it
# raises, as linspace and np.full do.
@functools.lru_cache(maxsize=4, typed=True)
def _grid(x0: float, x1: float, n_nodes: int, x1_sign: float) -> np.ndarray:
    """np.linspace(x0, x1, n_nodes). The grid ends on x1 itself, so x1_sign
    keeps apart the keys of x1 = 0.0 and -0.0, which compare equal."""
    x = np.linspace(x0, x1, n_nodes)
    x.flags.writeable = False
    return x


@functools.lru_cache(maxsize=4, typed=True)
def _laplacian(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The off-diagonal (-1) and diagonal (2) of the m x m matrix [-1, 2, -1]."""
    off_diagonal, diagonal = np.full(m - 1, -1.0), np.full(m, 2.0)
    off_diagonal.flags.writeable = diagonal.flags.writeable = False
    return off_diagonal, diagonal


def uniform_grid(problem: PoissonProblem, n_nodes: int) -> np.ndarray:
    """The n_nodes equispaced nodes of [x0, x1], as a read-only array."""
    if n_nodes < 2:
        raise ParameterError(f"n_nodes must be >= 2, got {n_nodes}")
    x0, x1 = float(problem.x0), float(problem.x1)
    return _grid(x0, x1, n_nodes, math.copysign(1.0, x1))


def solve_analytic(problem: PoissonProblem, n_nodes: int) -> SolutionField:
    """Closed form of -y'' = g with constant g, sampled on a uniform grid.

    y(x) = -g (x - x0)^2 / 2 + a (x - x0) + y0 with the slope a chosen so
    that y(x1) = y1. Endpoint values are assigned exactly.
    """
    x = uniform_grid(problem, n_nodes)
    length = problem.x1 - problem.x0
    slope = (problem.y1 - problem.y0) / length + problem.g * length / 2.0
    offset = x - problem.x0
    values = -problem.g * offset * offset / 2.0 + slope * offset + problem.y0
    values[0] = problem.y0
    values[-1] = problem.y1
    return SolutionField(nodes=x, values=values, provenance="analytic")


def fdm_values(g, y0, y1, x0: float, x1: float, n_nodes: int) -> np.ndarray:
    """Second-order central differences on a uniform grid of [x0, x1].

    Interior equations (-u_{i-1} + 2 u_i - u_{i+1}) / h^2 = g; the
    Dirichlet rows are eliminated into the right-hand side, which leaves
    a diagonally dominant tridiagonal system for the Thomas solver.
    Scalar (g, y0, y1) give the (n_nodes,) values of one problem; vectors
    give a (batch, n_nodes) array, one row per problem, from one sweep.
    """
    if n_nodes < 3:
        raise ParameterError(f"n_nodes must be >= 3 for the FDM grid, got {n_nodes}")
    _check_parameters(g, x0, x1, y0, y1)
    h = (x1 - x0) / (n_nodes - 1)
    off_diagonal, diagonal = _laplacian(n_nodes - 2)
    # Nodes run down axis 0, problems across axis 1; the interior rows
    # double as the right-hand side until the solve overwrites them.
    values = np.empty((n_nodes, *getattr(g, "shape", ())))
    values[0] = y0
    values[-1] = y1
    rhs = values[1:-1]
    rhs[...] = g * h * h
    rhs[0] += y0
    rhs[-1] += y1
    system = TridiagonalSystem(sub=off_diagonal, diag=diagonal, sup=off_diagonal, rhs=rhs)
    values[1:-1] = solve_tridiagonal(system)
    return np.ascontiguousarray(values.T)


def solve_fdm(problem: PoissonProblem, n_nodes: int) -> SolutionField:
    """The finite-difference solution of one problem (see fdm_values)."""
    values = fdm_values(problem.g, problem.y0, problem.y1, problem.x0, problem.x1, n_nodes)
    return SolutionField(nodes=uniform_grid(problem, n_nodes), values=values, provenance="fdm")
