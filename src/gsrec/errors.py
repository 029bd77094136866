"""Exception types raised across the package.

Solver non-convergence is not an error: iterative solvers return their last
iterate with ``converged=False``. Exceptions are reserved for contract
violations that make a result meaningless.
"""


class GsrecError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(GsrecError):
    """Operand shapes are incompatible."""


class ZeroSpectralRadius(GsrecError):
    """Shift matrix has (numerically) zero spectral radius; cannot normalize."""


class NotDiagonalizable(GsrecError):
    """Eigenvector matrix is too ill-conditioned to trust the eigendecomposition."""


class NegativeThreshold(GsrecError):
    """Soft-threshold level must be nonnegative."""


class NonFiniteObjective(GsrecError):
    """An iterative solver produced a NaN or infinite objective value."""


class EmptyAccessibleSet(GsrecError):
    """The mask marks no entry as accessible."""


class EmptyMask(GsrecError):
    """A sampling ratio or split produced an empty index set."""


class EmptyGrid(GsrecError):
    """Cross-validation called with no candidate configurations."""


class KTooLarge(GsrecError):
    """Nearest-neighbor count is out of range for the node count."""


class DegenerateDistances(GsrecError):
    """Distances admit no meaningful graph: all vanish, or a node has no usable neighbors."""


class NonOrthonormalBasis(GsrecError):
    """Columns of the supplied basis are not orthonormal within tolerance."""


class InconsistentInputs(GsrecError):
    """Inputs violate a structural identity they were promised to satisfy."""


class BoundNotApplicable(GsrecError):
    """Recovery-bound hypothesis fails (block norm q >= 2)."""


class NonSymmetricLaplacian(GsrecError):
    """Laplacian-based baseline requires a symmetric matrix."""


class NonBinaryInput(GsrecError):
    """Opinion combination requires entries in {-1, +1}."""


class Infeasible(GsrecError):
    """Constrained search could not find any feasible point."""


class ConfigError(GsrecError):
    """Invalid configuration file or parameter combination (CLI exit code 2)."""


class DataError(GsrecError):
    """Invalid or unreadable data file (CLI exit code 3)."""
