"""poissonlab: a benchmarking lab for data-driven surrogates of the 1D
Poisson problem.

The package keeps the whole pipeline auditable: classical solvers with
exact oracles, a least-squares fitter built on the normal-equation
pseudoinverse, steepest-descent MLP training with checked gradients,
a parametric surrogate with in/out-of-range evaluation, and wall-clock
cost accounting with break-even analysis.
"""

__version__ = "0.1.0"

from .ann import (
    MlpModel,
    TrainConfig,
    TrainReport,
    check_gradients,
    gradients,
    init_mlp,
    loss_sse,
    train_steepest_descent,
)
from .costs import CostLedger, break_even, measure, total_time
from .errors import (
    ConfigError,
    ParameterError,
    PoissonLabError,
    ShapeError,
    SingularMatrixError,
)
from .linalg import TridiagonalSystem, pseudoinverse, solve_tridiagonal
from .pde import PoissonProblem, SolutionField, solve_analytic, solve_fdm
from .regress import (
    LinearModel,
    RegressionDataset,
    build_design_matrix,
    fit_least_squares,
    generate_synthetic,
)
from .surrogate import (
    EvalReport,
    ParameterSpace,
    SurrogateDataset,
    SurrogateModel,
    evaluate,
    generate_dataset,
    split_dataset,
    train_surrogate,
)

__all__ = [
    "CostLedger",
    "ConfigError",
    "EvalReport",
    "LinearModel",
    "MlpModel",
    "ParameterError",
    "ParameterSpace",
    "PoissonLabError",
    "PoissonProblem",
    "RegressionDataset",
    "ShapeError",
    "SingularMatrixError",
    "SolutionField",
    "SurrogateDataset",
    "SurrogateModel",
    "TrainConfig",
    "TrainReport",
    "TridiagonalSystem",
    "break_even",
    "build_design_matrix",
    "check_gradients",
    "evaluate",
    "fit_least_squares",
    "generate_dataset",
    "generate_synthetic",
    "gradients",
    "init_mlp",
    "loss_sse",
    "measure",
    "pseudoinverse",
    "solve_analytic",
    "solve_fdm",
    "solve_tridiagonal",
    "split_dataset",
    "total_time",
    "train_steepest_descent",
    "train_surrogate",
]
