"""Exception types shared across the package."""


class PoissonLabError(Exception):
    """Base class for all package-specific failures."""


class ShapeError(PoissonLabError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class SingularMatrixError(PoissonLabError, ValueError):
    """A factorization pivot fell below the rank-deficiency threshold."""


class ParameterError(PoissonLabError, ValueError):
    """An argument violates a documented precondition."""


class ConfigError(PoissonLabError, ValueError):
    """An experiment config failed strict validation."""


class InputError(PoissonLabError):
    """A run's input file exists but does not hold what it should."""
