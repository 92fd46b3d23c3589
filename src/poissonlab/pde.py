"""The 1D Poisson problem -y'' = g on [x0, x1] with Dirichlet ends.

The source term is restricted to constants, which keeps an exact
closed-form solution available as an oracle for the finite-difference
path: central differences are exact on quadratics, so the two solvers
must agree to rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .linalg import TridiagonalSystem, solve_tridiagonal

PROVENANCES = ("analytic", "fdm")

DEFAULT_N_NODES = 101


@dataclass(frozen=True)
class PoissonProblem:
    """Constant source term g, domain [x0, x1], boundary values y0, y1."""

    g: float
    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        for name in ("g", "x0", "x1", "y0", "y1"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        if not self.x0 < self.x1:
            raise ParameterError(f"need x0 < x1, got [{self.x0}, {self.x1}]")


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
        if np.any(np.diff(self.nodes) <= 0):
            raise ParameterError("nodes must be strictly increasing")
        if self.provenance not in PROVENANCES:
            raise ParameterError(f"unknown provenance {self.provenance!r}")

    def csv_rows(self):
        """Rows for the `x,y,provenance` CSV layout."""
        return [(x, y, self.provenance) for x, y in zip(self.nodes, self.values)]


def uniform_grid(problem: PoissonProblem, n_nodes: int) -> np.ndarray:
    if n_nodes < 2:
        raise ParameterError(f"n_nodes must be >= 2, got {n_nodes}")
    return np.linspace(problem.x0, problem.x1, n_nodes)


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


def solve_fdm(problem: PoissonProblem, n_nodes: int) -> SolutionField:
    """Second-order central differences on a uniform grid.

    Interior equations (-u_{i-1} + 2 u_i - u_{i+1}) / h^2 = g; the
    Dirichlet rows are eliminated into the right-hand side, which leaves
    a diagonally dominant tridiagonal system for the Thomas solver.
    """
    if n_nodes < 3:
        raise ParameterError(f"n_nodes must be >= 3 for the FDM grid, got {n_nodes}")
    x = uniform_grid(problem, n_nodes)
    h = (problem.x1 - problem.x0) / (n_nodes - 1)
    m = n_nodes - 2
    rhs = np.full(m, problem.g * h * h)
    rhs[0] += problem.y0
    rhs[-1] += problem.y1
    system = TridiagonalSystem(
        sub=np.full(m - 1, -1.0),
        diag=np.full(m, 2.0),
        sup=np.full(m - 1, -1.0),
        rhs=rhs,
    )
    interior = solve_tridiagonal(system)
    values = np.empty(n_nodes)
    values[0] = problem.y0
    values[1:-1] = interior
    values[-1] = problem.y1
    return SolutionField(nodes=x, values=values, provenance="fdm")
