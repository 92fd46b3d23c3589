"""poissonlab: a benchmarking lab for data-driven surrogates of the 1D
Poisson problem.

The package keeps the whole pipeline auditable: classical solvers with
exact oracles, a least-squares fitter built on the normal-equation
pseudoinverse, steepest-descent MLP training with checked gradients,
a parametric surrogate with in/out-of-range evaluation, and wall-clock
cost accounting with break-even analysis. Each function lives in one
module and is imported from there, for example `poissonlab.pde.solve_fdm`.
"""

__version__ = "0.1.0"
